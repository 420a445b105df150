#include "eval/plan.h"

#include <algorithm>

#include "base/hash.h"

namespace ldl {

namespace {

struct SlotTable {
  std::vector<std::pair<Symbol, int>> sorted;  // by symbol

  int Lookup(Symbol var) const {
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), var,
        [](const std::pair<Symbol, int>& entry, Symbol v) { return entry.first < v; });
    if (it == sorted.end() || it->first != var) return -1;
    return it->second;
  }
};

// The ValueRef reading `arg`, whose variables are all bound: a slot for a
// variable, the term itself for a ground scons-free constant (interned
// pointers compare by identity), an instantiation otherwise.
ValueRef RefFor(const Term* arg, const SlotTable& slots) {
  if (arg->is_var()) return ValueRef{slots.Lookup(arg->symbol()), nullptr, false};
  return ValueRef{-1, arg, !arg->ground() || arg->has_scons()};
}

// Compiles the probe spec and match program of relational literal
// `literal` (positive or negated) at a depth where `bound` holds the bound
// slots. A column is a key column when all its variables are bound; the
// others are plain variables run by the match program or, when one is
// complex, a residual MatchArgs.
void CompileRelational(const LiteralIr& literal, const SlotTable& slots,
                       const std::vector<bool>& bound, LiteralPlan* step) {
  step->kind = literal.negated ? StepKind::kNegated : StepKind::kScan;
  auto all_bound = [&](const Term* arg) {
    std::vector<Symbol> arg_vars;
    CollectVars(arg, &arg_vars);
    return std::all_of(arg_vars.begin(), arg_vars.end(),
                       [&](Symbol var) { return bound[slots.Lookup(var)]; });
  };
  std::vector<int> bound_here;  // slots a kBind in this literal writes
  for (uint32_t column = 0; column < literal.args.size(); ++column) {
    const Term* arg = literal.args[column];
    if (all_bound(arg)) {
      step->probe_cols.push_back(column);
      step->probe.push_back(RefFor(arg, slots));
    } else if (!arg->is_var()) {
      step->residual = true;
    } else {
      const int slot = slots.Lookup(arg->symbol());
      const bool repeated =
          std::find(bound_here.begin(), bound_here.end(), slot) != bound_here.end();
      step->match.push_back(
          MatchOp{repeated ? MatchOpKind::kCheckSlot : MatchOpKind::kBind, column, slot});
      if (!repeated) bound_here.push_back(slot);
    }
  }
  // The anti-join runs no match program: a repeated existential variable
  // is checked by the residual match too.
  if (literal.negated && step->match.size() > bound_here.size()) step->residual = true;
  if (step->residual || literal.negated) step->match.clear();
}

}  // namespace

JoinPlan JoinPlan::Compile(const RuleIr& rule, const std::vector<int>& order,
                           bool head_seeded) {
  JoinPlan plan;

  // 1. Number every rule variable (body and head) into a dense slot.
  std::vector<Symbol> vars;
  for (const LiteralIr& literal : rule.body) {
    for (const Term* arg : literal.args) CollectVars(arg, &vars);
  }
  for (const Term* arg : rule.head_args) CollectVars(arg, &vars);
  SlotTable slots;
  for (Symbol var : vars) {
    if (slots.Lookup(var) >= 0) continue;
    int slot = static_cast<int>(slots.sorted.size());
    slots.sorted.emplace_back(var, slot);
    std::sort(slots.sorted.begin(), slots.sorted.end());
  }
  plan.var_slots_ = slots.sorted;
  plan.slot_count_ = slots.sorted.size();

  // 2. Walk the order propagating static boundness, specializing literals.
  //    A head-seeded plan starts with the head variables bound.
  std::vector<bool> bound(plan.slot_count_, false);
  plan.head_seeded_ = head_seeded;
  if (head_seeded) {
    std::vector<Symbol> head_vars;
    for (const Term* arg : rule.head_args) CollectVars(arg, &head_vars);
    for (Symbol var : head_vars) {
      int slot = slots.Lookup(var);
      if (bound[slot]) continue;
      bound[slot] = true;
      plan.seeded_slots_.push_back(slot);
    }
  }
  plan.steps_.reserve(order.size());
  for (int literal_index : order) {
    const LiteralIr& literal = rule.body[literal_index];
    LiteralPlan step;
    step.literal_index = literal_index;
    step.pred = literal.pred;
    if (literal.is_builtin()) {
      step.kind = StepKind::kBuiltin;
    } else {
      CompileRelational(literal, slots, bound, &step);
    }
    std::vector<Symbol> literal_vars;
    for (const Term* arg : literal.args) CollectVars(arg, &literal_vars);
    for (Symbol var : literal_vars) {
      const int slot = slots.Lookup(var);
      (bound[slot] ? step.inputs : step.outputs).emplace_back(var, slot);
    }
    // A negated literal binds nothing (negation as failure; a negated
    // built-in only tests). A positive one binds its free variables on
    // every solution (mirrors BindLiteralVars in ScheduleBody).
    if (literal.negated) {
      step.outputs.clear();
    } else {
      for (const auto& [var, slot] : step.outputs) bound[slot] = true;
    }
    plan.steps_.push_back(std::move(step));
  }

  // 3. Head emitter: every head variable is bound after the last step.
  plan.head_.reserve(rule.head_args.size());
  for (const Term* arg : rule.head_args) plan.head_.push_back(RefFor(arg, slots));
  return plan;
}

int JoinPlan::SlotOf(Symbol var) const {
  auto it = std::lower_bound(
      var_slots_.begin(), var_slots_.end(), var,
      [](const std::pair<Symbol, int>& entry, Symbol v) { return entry.first < v; });
  if (it == var_slots_.end() || it->first != var) return -1;
  return it->second;
}

void SolutionView::AppendBindings(Subst* out) const {
  for (const auto& [var, slot] : plan_->var_slots()) {
    if (slots_[slot] != nullptr) out->Bind(var, slots_[slot]);
  }
}

namespace {

std::vector<uint64_t> Fingerprint(const RuleIr& rule, const std::vector<int>& order,
                                  bool head_seeded) {
  std::vector<uint64_t> fp;
  fp.reserve(rule.body.size() * 4 + rule.head_args.size() + order.size() + 5);
  fp.push_back(head_seeded);
  fp.push_back(rule.head_pred);
  fp.push_back(static_cast<uint64_t>(rule.group_index + 1));
  fp.push_back(rule.group_var);
  for (const Term* arg : rule.head_args) {
    fp.push_back(reinterpret_cast<uint64_t>(arg));
  }
  fp.push_back(0x1dull << 56 | rule.body.size());
  for (const LiteralIr& literal : rule.body) {
    fp.push_back((static_cast<uint64_t>(literal.negated) << 40) |
                 (static_cast<uint64_t>(literal.builtin) << 32) | literal.pred);
    for (const Term* arg : literal.args) {
      fp.push_back(reinterpret_cast<uint64_t>(arg));
    }
    fp.push_back(0x2eull << 56 | literal.args.size());
  }
  for (int i : order) fp.push_back(0x3full << 56 | static_cast<uint32_t>(i));
  return fp;
}

uint64_t HashFingerprint(const std::vector<uint64_t>& fp) {
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (uint64_t v : fp) h = HashCombine(h, v);
  return h;
}

}  // namespace

std::shared_ptr<const JoinPlan> PlanCache::Get(const RuleIr& rule,
                                               const std::vector<int>& order,
                                               size_t* hits, bool head_seeded) {
  std::vector<uint64_t> fp = Fingerprint(rule, order, head_seeded);
  uint64_t hash = HashFingerprint(fp);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(hash);
    if (it != entries_.end()) {
      for (const Entry& entry : it->second) {
        if (entry.fingerprint == fp) {
          if (hits != nullptr) ++*hits;
          return entry.plan;
        }
      }
    }
  }
  // Miss: compile outside the lock (racing compilers waste a little work),
  // then insert under the exclusive lock, re-checking for a racing insert so
  // every caller sees one canonical plan per fingerprint.
  auto plan =
      std::make_shared<const JoinPlan>(JoinPlan::Compile(rule, order, head_seeded));
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::vector<Entry>& bucket = entries_[hash];
  for (const Entry& entry : bucket) {
    if (entry.fingerprint == fp) {
      if (hits != nullptr) ++*hits;
      return entry.plan;
    }
  }
  bucket.push_back(Entry{std::move(fp), plan});
  return plan;
}

void PlanCache::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  entries_.clear();
}

size_t PlanCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [hash, bucket] : entries_) total += bucket.size();
  return total;
}

}  // namespace ldl
