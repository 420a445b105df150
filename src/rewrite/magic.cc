#include "rewrite/magic.h"

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_map>

#include "base/str_util.h"
#include "term/term_ops.h"

namespace ldl {

namespace {

// Bound argument patterns of a literal/head under an adornment.
std::vector<const Term*> BoundArgs(const std::vector<const Term*>& args,
                                   const std::string& adornment) {
  std::vector<const Term*> result;
  for (size_t i = 0; i < args.size() && i < adornment.size(); ++i) {
    if (adornment[i] == 'b') result.push_back(args[i]);
  }
  return result;
}

// Filters a magic-rule body prefix: keeps positive relational literals, and
// built-ins that become evaluable given the variables bound so far (seeded
// with the magic guard's variables). Negated literals are dropped (sound:
// the restriction only weakens).
std::vector<LiteralIr> FilterPrefix(const std::vector<LiteralIr>& prefix,
                                    const std::vector<const Term*>& seed_args) {
  std::vector<LiteralIr> kept;
  std::vector<LiteralIr> pending_builtins;
  for (const LiteralIr& literal : prefix) {
    if (literal.negated) continue;
    if (literal.is_builtin()) {
      pending_builtins.push_back(literal);
    } else {
      kept.push_back(literal);
    }
  }
  if (pending_builtins.empty()) return kept;

  // Keep a built-in only if it has an evaluable mode given bindings from the
  // magic guard and the kept literals (iterated to fixpoint).
  std::vector<Symbol> bound;
  for (const Term* arg : seed_args) CollectVars(arg, &bound);
  for (const LiteralIr& literal : kept) {
    for (const Term* arg : literal.args) CollectVars(arg, &bound);
  }
  auto term_bound = [&](const Term* t) {
    std::vector<Symbol> vars;
    CollectVars(t, &vars);
    for (Symbol var : vars) {
      if (std::find(bound.begin(), bound.end(), var) == bound.end()) return false;
    }
    return true;
  };
  auto ready = [&](const LiteralIr& l) {
    auto b = [&](size_t i) { return term_bound(l.args[i]); };
    switch (l.builtin) {
      case BuiltinKind::kEq: return b(0) || b(1);
      case BuiltinKind::kMember:
      case BuiltinKind::kSubset: return b(1);
      case BuiltinKind::kUnion: return (b(0) && b(1)) || b(2);
      case BuiltinKind::kIntersection:
      case BuiltinKind::kDifference: return b(0) && b(1);
      case BuiltinKind::kPartition: return b(0) || (b(1) && b(2));
      case BuiltinKind::kCard: return b(0);
      case BuiltinKind::kPlus:
      case BuiltinKind::kMinus:
      case BuiltinKind::kTimes: return b(0) + b(1) + b(2) >= 2;
      case BuiltinKind::kDiv:
      case BuiltinKind::kMod: return b(0) && b(1);
      default: return b(0) && (l.args.size() < 2 || b(1));
    }
  };
  bool changed = true;
  std::vector<bool> taken(pending_builtins.size(), false);
  while (changed) {
    changed = false;
    for (size_t i = 0; i < pending_builtins.size(); ++i) {
      if (taken[i] || !ready(pending_builtins[i])) continue;
      taken[i] = true;
      changed = true;
      kept.push_back(pending_builtins[i]);
      for (const Term* arg : pending_builtins[i].args) CollectVars(arg, &bound);
    }
  }
  return kept;
}

void CollectBoundVars(const std::vector<const Term*>& patterns,
                      std::vector<Symbol>* bound) {
  for (const Term* pattern : patterns) CollectVars(pattern, bound);
}

bool AllVarsIn(const Term* t, const std::vector<Symbol>& bound) {
  std::vector<Symbol> vars;
  CollectVars(t, &vars);
  for (Symbol var : vars) {
    if (std::find(bound.begin(), bound.end(), var) == bound.end()) return false;
  }
  return true;
}

// Builds the supplementary-magic rewriting for one adorned rule. Returns
// false (without emitting) when no evaluable left-to-right schedule exists;
// the caller falls back to the plain rewriting. `sup_prefix` names the
// rule's supplementary chain; step k's predicate is "<sup_prefix>$<k>".
bool EmitSupplementary(const RuleIr& rule, const std::string& sup_prefix,
                       PredId head_magic,
                       const std::vector<const Term*>& head_bound,
                       const AdornedProgram& adorned, Catalog* catalog,
                       const std::function<PredId(PredId)>& magic_pred,
                       MagicProgram* result) {
  size_t n = rule.body.size();
  if (n == 0) return false;

  // Schedule: positives in textual order; built-ins and negations flushed as
  // soon as they become evaluable. Mirrors the left-to-right sip.
  std::vector<Symbol> bound;
  CollectBoundVars(head_bound, &bound);
  std::vector<bool> scheduled(n, false);
  // steps[k]: literal indices evaluated at chain step k (>= 1 literal each).
  std::vector<std::vector<int>> steps;

  auto builtin_ready = [&](const LiteralIr& l) {
    auto b = [&](size_t i) { return AllVarsIn(l.args[i], bound); };
    if (l.negated) {
      for (size_t i = 0; i < l.args.size(); ++i) {
        if (!b(i)) return false;
      }
      return true;
    }
    switch (l.builtin) {
      case BuiltinKind::kEq: return b(0) || b(1);
      case BuiltinKind::kMember:
      case BuiltinKind::kSubset: return b(1);
      case BuiltinKind::kUnion: return (b(0) && b(1)) || b(2);
      case BuiltinKind::kIntersection:
      case BuiltinKind::kDifference: return b(0) && b(1);
      case BuiltinKind::kPartition: return b(0) || (b(1) && b(2));
      case BuiltinKind::kCard: return b(0);
      case BuiltinKind::kPlus:
      case BuiltinKind::kMinus:
      case BuiltinKind::kTimes: return b(0) + b(1) + b(2) >= 2;
      case BuiltinKind::kDiv:
      case BuiltinKind::kMod: return b(0) && b(1);
      default: return false;
    }
  };
  auto negation_ready = [&](size_t index) {
    // Ready when every variable shared with other literals or the head is
    // bound (locals are existential under the negation).
    std::vector<Symbol> vars;
    for (const Term* arg : rule.body[index].args) CollectVars(arg, &vars);
    for (Symbol var : vars) {
      if (std::find(bound.begin(), bound.end(), var) != bound.end()) continue;
      bool elsewhere = false;
      for (const Term* head_arg : rule.head_args) {
        if (OccursIn(head_arg, var)) elsewhere = true;
      }
      for (size_t j = 0; j < n && !elsewhere; ++j) {
        if (j == index) continue;
        for (const Term* arg : rule.body[j].args) {
          if (OccursIn(arg, var)) {
            elsewhere = true;
            break;
          }
        }
      }
      if (elsewhere) return false;
    }
    return true;
  };
  auto bind_literal = [&](size_t index) {
    for (const Term* arg : rule.body[index].args) CollectVars(arg, &bound);
  };

  size_t remaining = n;
  while (remaining > 0) {
    std::vector<int> step;
    // Flush ready non-positive literals.
    bool flushed = true;
    while (flushed) {
      flushed = false;
      for (size_t i = 0; i < n; ++i) {
        const LiteralIr& literal = rule.body[i];
        if (scheduled[i] || (!literal.is_builtin() && !literal.negated)) continue;
        bool ready = literal.is_builtin() ? builtin_ready(literal)
                                          : negation_ready(i);
        if (!ready) continue;
        scheduled[i] = true;
        --remaining;
        step.push_back(static_cast<int>(i));
        if (!literal.negated) bind_literal(i);
        flushed = true;
      }
    }
    // Next positive literal in textual order.
    for (size_t i = 0; i < n; ++i) {
      const LiteralIr& literal = rule.body[i];
      if (scheduled[i] || literal.is_builtin() || literal.negated) continue;
      scheduled[i] = true;
      --remaining;
      step.push_back(static_cast<int>(i));
      bind_literal(i);
      break;
    }
    if (step.empty()) {
      if (remaining > 0) return false;  // stuck: unready built-ins/negations
      break;
    }
    steps.push_back(std::move(step));
  }
  if (steps.empty()) return false;

  auto used_later = [&](size_t from_step, Symbol var) {
    for (const Term* arg : rule.head_args) {
      if (OccursIn(arg, var)) return true;
    }
    for (size_t k = from_step; k < steps.size(); ++k) {
      for (int index : steps[k]) {
        for (const Term* arg : rule.body[index].args) {
          if (OccursIn(arg, var)) return true;
        }
      }
    }
    return false;
  };

  size_t sup_steps = 0;
  auto make_sup = [&](const std::vector<Symbol>& vars) {
    PredId pred = catalog->GetOrCreate(StrCat(sup_prefix, "$", sup_steps++),
                                       static_cast<uint32_t>(vars.size()));
    catalog->mutable_info(pred).has_rules = true;
    return pred;
  };
  // sup heads reuse the variable Term pointers found in the rule (every
  // bound var symbol occurs somewhere in the head or body).
  std::unordered_map<Symbol, const Term*> var_terms;
  {
    std::function<void(const Term*)> scan = [&](const Term* t) {
      if (t->is_var()) {
        var_terms.emplace(t->symbol(), t);
        return;
      }
      for (const Term* arg : t->args()) scan(arg);
    };
    for (const Term* arg : rule.head_args) scan(arg);
    for (const LiteralIr& literal : rule.body) {
      for (const Term* arg : literal.args) scan(arg);
    }
  }
  auto vars_to_terms = [&](const std::vector<Symbol>& vars) {
    std::vector<const Term*> terms;
    for (Symbol var : vars) terms.push_back(var_terms.at(var));
    return terms;
  };

  // V_0: bound head variables still needed later.
  std::vector<Symbol> head_bound_vars;
  CollectBoundVars(head_bound, &head_bound_vars);
  std::vector<Symbol> v_prev;
  for (Symbol var : head_bound_vars) {
    if (used_later(0, var) &&
        std::find(v_prev.begin(), v_prev.end(), var) == v_prev.end()) {
      v_prev.push_back(var);
    }
  }
  PredId sup_prev = make_sup(v_prev);
  {
    RuleIr sup0;
    sup0.head_pred = sup_prev;
    sup0.head_args = vars_to_terms(v_prev);
    sup0.source_index = rule.source_index;
    LiteralIr guard;
    guard.pred = head_magic;
    guard.args = head_bound;
    sup0.body.push_back(std::move(guard));
    result->rules.rules.push_back(std::move(sup0));
  }

  std::vector<Symbol> bound_so_far = head_bound_vars;
  for (size_t k = 0; k < steps.size(); ++k) {
    // Magic rules for adorned literals in this step read sup_{k-1} plus any
    // same-step literals scheduled before them (deferred built-ins may bind
    // the adorned literal's arguments within the step).
    for (size_t t = 0; t < steps[k].size(); ++t) {
      const LiteralIr& literal = rule.body[steps[k][t]];
      if (literal.is_builtin() || !adorned.IsAdorned(literal.pred)) continue;
      const AdornedInfo& callee_info = adorned.adorned.at(literal.pred);
      RuleIr magic_rule;
      magic_rule.head_pred = magic_pred(literal.pred);
      magic_rule.head_args = BoundArgs(literal.args, callee_info.adornment);
      magic_rule.source_index = rule.source_index;
      LiteralIr sup_lit;
      sup_lit.pred = sup_prev;
      sup_lit.args = vars_to_terms(v_prev);
      magic_rule.body.push_back(std::move(sup_lit));
      for (size_t u = 0; u < t; ++u) {
        const LiteralIr& earlier = rule.body[steps[k][u]];
        if (!earlier.negated) magic_rule.body.push_back(earlier);
      }
      result->rules.rules.push_back(std::move(magic_rule));
    }

    // Advance the bound set with this step's positive literals.
    for (int index : steps[k]) {
      const LiteralIr& literal = rule.body[index];
      if (literal.negated) continue;
      for (const Term* arg : literal.args) CollectVars(arg, &bound_so_far);
    }

    if (k + 1 == steps.size()) {
      // Final step feeds the modified rule directly.
      RuleIr modified;
      modified.head_pred = rule.head_pred;
      modified.head_args = rule.head_args;
      modified.group_index = rule.group_index;
      modified.group_var = rule.group_var;
      modified.source_index = rule.source_index;
      LiteralIr sup_lit;
      sup_lit.pred = sup_prev;
      sup_lit.args = vars_to_terms(v_prev);
      modified.body.push_back(std::move(sup_lit));
      for (int index : steps[k]) modified.body.push_back(rule.body[index]);
      result->rules.rules.push_back(std::move(modified));
      return true;
    }

    // Live set after this step.
    std::vector<Symbol> v_next;
    for (Symbol var : bound_so_far) {
      if (used_later(k + 1, var) &&
          std::find(v_next.begin(), v_next.end(), var) == v_next.end()) {
        v_next.push_back(var);
      }
    }
    RuleIr sup_rule;
    PredId sup_next = make_sup(v_next);
    sup_rule.head_pred = sup_next;
    sup_rule.head_args = vars_to_terms(v_next);
    sup_rule.source_index = rule.source_index;
    LiteralIr sup_lit;
    sup_lit.pred = sup_prev;
    sup_lit.args = vars_to_terms(v_prev);
    sup_rule.body.push_back(std::move(sup_lit));
    for (int index : steps[k]) sup_rule.body.push_back(rule.body[index]);
    result->rules.rules.push_back(std::move(sup_rule));
    sup_prev = sup_next;
    v_prev = std::move(v_next);
  }
  return true;
}

}  // namespace

StatusOr<MagicProgram> MagicRewrite(const ProgramIr& program, Catalog* catalog,
                                    const LiteralIr& goal,
                                    const MagicOptions& options) {
  LDL_ASSIGN_OR_RETURN(AdornedProgram adorned, AdornProgram(program, catalog, goal));

  MagicProgram result;
  result.answer_pred = adorned.query_pred;

  // Create magic predicates.
  auto magic_pred = [&](PredId adorned_pred) -> PredId {
    auto it = result.magic_of.find(adorned_pred);
    if (it != result.magic_of.end()) return it->second;
    const AdornedInfo& info = adorned.adorned.at(adorned_pred);
    size_t bound_count = static_cast<size_t>(
        std::count(info.adornment.begin(), info.adornment.end(), 'b'));
    PredId id = catalog->GetOrCreate(
        StrCat("m_", catalog->interner()->Lookup(catalog->info(adorned_pred).name)),
        static_cast<uint32_t>(bound_count));
    catalog->mutable_info(id).has_rules = true;
    result.magic_of.emplace(adorned_pred, id);
    return id;
  };

  // Per adorned head: how many of its rules have been rewritten so far.
  // Numbering the supplementary chains by this ordinal keeps their names a
  // function of the adorned program alone.
  std::unordered_map<PredId, size_t> rules_per_head;
  for (const RuleIr& rule : adorned.rules.rules) {
    const AdornedInfo& head_info = adorned.adorned.at(rule.head_pred);
    PredId head_magic = magic_pred(rule.head_pred);
    std::vector<const Term*> head_bound =
        BoundArgs(rule.head_args, head_info.adornment);
    const size_t ordinal = rules_per_head[rule.head_pred]++;

    if (options.supplementary &&
        EmitSupplementary(
            rule,
            StrCat("sup$",
                   catalog->interner()->Lookup(catalog->info(rule.head_pred).name),
                   "$", ordinal),
            head_magic, head_bound, adorned, catalog, magic_pred, &result)) {
      continue;
    }

    // Magic rules for adorned body literals, one per occurrence.
    for (size_t j = 0; j < rule.body.size(); ++j) {
      const LiteralIr& literal = rule.body[j];
      if (literal.is_builtin() || !adorned.IsAdorned(literal.pred)) continue;
      const AdornedInfo& callee_info = adorned.adorned.at(literal.pred);
      RuleIr magic_rule;
      magic_rule.head_pred = magic_pred(literal.pred);
      magic_rule.head_args = BoundArgs(literal.args, callee_info.adornment);
      magic_rule.source_index = rule.source_index;
      LiteralIr head_magic_lit;
      head_magic_lit.pred = head_magic;
      head_magic_lit.args = head_bound;
      magic_rule.body.push_back(std::move(head_magic_lit));
      std::vector<LiteralIr> prefix(rule.body.begin(), rule.body.begin() + j);
      for (LiteralIr& kept : FilterPrefix(prefix, head_bound)) {
        magic_rule.body.push_back(std::move(kept));
      }
      result.rules.rules.push_back(std::move(magic_rule));
    }

    // Modified rule: magic guard in front.
    RuleIr modified = rule;
    LiteralIr guard;
    guard.pred = head_magic;
    guard.args = head_bound;
    modified.body.insert(modified.body.begin(), std::move(guard));
    result.rules.rules.push_back(std::move(modified));
  }

  // Seed: m_query(<bound goal args>).
  RuleIr seed;
  seed.head_pred = magic_pred(adorned.query_pred);
  seed.head_args = BoundArgs(goal.args, adorned.query_adornment);
  result.rules.rules.push_back(std::move(seed));

  // EDB predicates referenced by the rewritten program.
  std::vector<bool> seen(catalog->size(), false);
  for (const RuleIr& rule : result.rules.rules) {
    for (const LiteralIr& literal : rule.body) {
      if (literal.is_builtin()) continue;
      if (!catalog->info(literal.pred).has_rules && !seen[literal.pred]) {
        seen[literal.pred] = true;
        result.edb_preds.push_back(literal.pred);
      }
    }
  }
  return result;
}

}  // namespace ldl
