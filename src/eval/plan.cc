#include "eval/plan.h"

#include <algorithm>

#include "base/hash.h"

namespace ldl {

namespace {

// True for arguments that probe and match on interned pointer equality:
// ground and scons-free (a ground scons term still needs evaluation before
// it denotes an element of U).
bool IsPointerConstant(const Term* t) { return t->ground() && !t->has_scons(); }

bool IsSimpleArg(const Term* t) { return t->is_var() || IsPointerConstant(t); }

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

    std::vector<Symbol> literal_vars;
    for (const Term* arg : literal.args) CollectVars(arg, &literal_vars);

    // True when every variable of `arg` is bound before this step.
    auto all_bound = [&](const Term* arg) {
      std::vector<Symbol> arg_vars;
      CollectVars(arg, &arg_vars);
      return std::all_of(arg_vars.begin(), arg_vars.end(),
                         [&](Symbol var) { return bound[slots.Lookup(var)]; });
    };

    auto fill_io = [&]() {
      for (Symbol var : literal_vars) {
        int slot = slots.Lookup(var);
        if (bound[slot]) {
          step.inputs.emplace_back(var, slot);
        } else {
          step.outputs.emplace_back(var, slot);
        }
      }
    };

    if (literal.is_builtin()) {
      step.kind = StepKind::kBuiltin;
      fill_io();
      // Negated built-ins only test; positive ones bind their free variables
      // on every solution (mirrors BindLiteralVars in ScheduleBody).
      if (literal.negated) {
        step.outputs.clear();
      } else {
        for (const auto& [var, slot] : step.outputs) bound[slot] = true;
      }
      plan.steps_.push_back(std::move(step));
      continue;
    }

    if (literal.negated) {
      // Negation-as-failure binds nothing: an anti-join probing the bound
      // columns. The other variables are existential under the negation.
      step.kind = StepKind::kNegated;
      fill_io();
      step.outputs.clear();
      std::vector<Symbol> free_vars;
      for (uint32_t column = 0; column < literal.args.size(); ++column) {
        const Term* arg = literal.args[column];
        if (all_bound(arg)) {
          step.probe_cols.push_back(column);
          if (arg->is_var()) {
            step.probe.push_back(ValueRef{slots.Lookup(arg->symbol()), nullptr});
          } else {
            step.probe.push_back(ValueRef{-1, IsPointerConstant(arg) ? arg : nullptr});
          }
        } else if (!arg->is_var() || std::find(free_vars.begin(), free_vars.end(),
                                               arg->symbol()) != free_vars.end()) {
          step.residual = true;
        } else {
          free_vars.push_back(arg->symbol());
        }
      }
      plan.steps_.push_back(std::move(step));
      continue;
    }

    bool simple = true;
    for (const Term* arg : literal.args) {
      if (!IsSimpleArg(arg)) {
        simple = false;
        break;
      }
    }

    if (simple) {
      step.kind = StepKind::kScan;
      // Variables already bound within this literal (repeated occurrences).
      std::vector<int> bound_here;
      for (uint32_t column = 0; column < literal.args.size(); ++column) {
        const Term* arg = literal.args[column];
        if (!arg->is_var()) {
          step.probe_cols.push_back(column);
          step.probe.push_back(ValueRef{-1, arg});
          continue;
        }
        int slot = slots.Lookup(arg->symbol());
        if (bound[slot]) {
          step.probe_cols.push_back(column);
          step.probe.push_back(ValueRef{slot, nullptr});
        } else if (std::find(bound_here.begin(), bound_here.end(), slot) !=
                   bound_here.end()) {
          step.match.push_back(MatchOp{MatchOpKind::kCheckSlot, column, slot, nullptr});
        } else {
          step.match.push_back(MatchOp{MatchOpKind::kBind, column, slot, nullptr});
          bound_here.push_back(slot);
        }
      }
      for (int slot : bound_here) bound[slot] = true;
      plan.steps_.push_back(std::move(step));
      continue;
    }

    // Generic fallback; still probe on statically bound columns.
    step.kind = StepKind::kGenericScan;
    fill_io();
    for (uint32_t column = 0; column < literal.args.size(); ++column) {
      if (all_bound(literal.args[column])) step.bound_columns.push_back(column);
    }
    for (const auto& [var, slot] : step.outputs) bound[slot] = true;
    plan.steps_.push_back(std::move(step));
  }

  // 3. Head emitter: direct slot reads when every argument is simple.
  plan.head_simple_ = true;
  for (const Term* arg : rule.head_args) {
    if (!IsSimpleArg(arg)) {
      plan.head_simple_ = false;
      break;
    }
  }
  if (plan.head_simple_) {
    plan.head_.reserve(rule.head_args.size());
    for (const Term* arg : rule.head_args) {
      if (arg->is_var()) {
        plan.head_.push_back(ValueRef{slots.Lookup(arg->symbol()), nullptr});
      } else {
        plan.head_.push_back(ValueRef{-1, arg});
      }
    }
  }
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
