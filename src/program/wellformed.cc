#include "program/wellformed.h"

#include <algorithm>

#include "base/str_util.h"
#include "term/term_ops.h"

namespace ldl {

Status CheckRuleWellformed(const Catalog& catalog, const RuleIr& rule,
                           const WellformedOptions& options) {
  std::string where = StrCat("rule for ", catalog.DebugName(rule.head_pred));

  // §2.1 (3): all body predicates of a grouping rule are positive.
  if (options.strict_grouping_positivity && rule.is_grouping() &&
      rule.has_negation()) {
    return NotWellFormedError(
        StrCat(where, ": a grouping rule may not contain negated literals "
                      "(paper §2.1, restriction 3)"));
  }

  // Facts must be ground (§7).
  if (rule.is_fact()) {
    for (const Term* arg : rule.head_args) {
      if (!arg->ground()) {
        return NotWellFormedError(
            StrCat(where, ": facts may not contain variables (paper §7)"));
      }
    }
    return Status::OK();
  }

  if (!options.require_range_restriction) return Status::OK();

  // Schedule the body from no bound variables; whatever the schedule leaves
  // unbound was never bound by the positive part of the body.
  std::vector<Symbol> bound;
  const std::vector<int> order = ScheduleBody(rule, {}, -1, &bound);
  std::vector<bool> scheduled(rule.body.size(), false);
  for (int index : order) scheduled[index] = true;

  auto check_all_bound = [&](const Term* t, std::string_view context) -> Status {
    std::vector<Symbol> vars;
    CollectVars(t, &vars);
    for (Symbol var : vars) {
      if (std::find(bound.begin(), bound.end(), var) == bound.end()) {
        return NotWellFormedError(
            StrCat(where, ": variable ", catalog.interner()->Lookup(var), " in ",
                   context,
                   " is not bound by a positive body literal (range "
                   "restriction, paper §7)"));
      }
    }
    return Status::OK();
  };

  for (const Term* arg : rule.head_args) {
    LDL_RETURN_IF_ERROR(check_all_bound(arg, "the head"));
  }
  for (size_t li = 0; li < rule.body.size(); ++li) {
    if (scheduled[li]) continue;
    const LiteralIr& literal = rule.body[li];
    if (!literal.is_builtin()) {
      // A negated literal's local variables are existential (the paper's own
      // §6 rule 5 uses !a(X, Z) with Z occurring nowhere else); one it shares
      // with other literals must be bound.
      const std::vector<Symbol> shared = NegationSharedVars(rule)[li];
      for (Symbol var : shared) {
        if (std::find(bound.begin(), bound.end(), var) != bound.end()) continue;
        return NotWellFormedError(StrCat(
            where, ": variable ", catalog.interner()->Lookup(var),
            " under negation is shared with other literals but never "
            "positively bound"));
      }
      continue;
    }
    std::string context =
        literal.negated ? std::string("a negated built-in")
                        : StrCat("built-in '", BuiltinName(literal.builtin), "'");
    for (const Term* arg : literal.args) {
      LDL_RETURN_IF_ERROR(check_all_bound(arg, context));
    }
  }
  return Status::OK();
}

Status CheckProgramWellformed(const Catalog& catalog, const ProgramIr& program,
                              const WellformedOptions& options) {
  for (const RuleIr& rule : program.rules) {
    LDL_RETURN_IF_ERROR(CheckRuleWellformed(catalog, rule, options));
  }
  return Status::OK();
}

bool TermVarsBound(const Term* t, const std::vector<Symbol>& bound) {
  std::vector<Symbol> vars;
  CollectVars(t, &vars);
  for (Symbol var : vars) {
    if (std::find(bound.begin(), bound.end(), var) == bound.end()) return false;
  }
  return true;
}

void BindLiteralVars(const LiteralIr& literal, std::vector<Symbol>* bound) {
  for (const Term* arg : literal.args) CollectVars(arg, bound);
}

std::vector<std::vector<Symbol>> NegationSharedVars(const RuleIr& rule) {
  size_t n = rule.body.size();
  std::vector<std::vector<Symbol>> shared(n);
  for (size_t i = 0; i < n; ++i) {
    const LiteralIr& literal = rule.body[i];
    if (!literal.negated || literal.is_builtin()) continue;
    std::vector<Symbol> vars;
    for (const Term* arg : literal.args) CollectVars(arg, &vars);
    for (Symbol var : vars) {
      bool elsewhere = false;
      for (const Term* head_arg : rule.head_args) {
        if (OccursIn(head_arg, var)) elsewhere = true;
      }
      for (size_t j = 0; j < n && !elsewhere; ++j) {
        if (j == i) continue;
        for (const Term* arg : rule.body[j].args) {
          if (OccursIn(arg, var)) {
            elsewhere = true;
            break;
          }
        }
      }
      if (elsewhere) shared[i].push_back(var);
    }
  }
  return shared;
}

bool LiteralStaticallyReady(const LiteralIr& literal,
                            const std::vector<Symbol>& negation_shared,
                            const std::vector<Symbol>& bound) {
  auto arg_bound = [&](size_t i) { return TermVarsBound(literal.args[i], bound); };

  if (literal.negated) {
    if (!literal.is_builtin()) {
      for (Symbol var : negation_shared) {
        if (std::find(bound.begin(), bound.end(), var) == bound.end()) {
          return false;
        }
      }
      return true;
    }
    for (size_t i = 0; i < literal.args.size(); ++i) {
      if (!arg_bound(i)) return false;
    }
    return true;
  }
  switch (literal.builtin) {
    case BuiltinKind::kEq:
      return arg_bound(0) || arg_bound(1);
    case BuiltinKind::kNeq:
    case BuiltinKind::kLt:
    case BuiltinKind::kLe:
    case BuiltinKind::kGt:
    case BuiltinKind::kGe:
      return arg_bound(0) && arg_bound(1);
    case BuiltinKind::kMember:
    case BuiltinKind::kSubset:
      return arg_bound(1);
    case BuiltinKind::kUnion:
      return (arg_bound(0) && arg_bound(1)) || arg_bound(2);
    case BuiltinKind::kIntersection:
    case BuiltinKind::kDifference:
      // Backward modes are unbounded (the free operand may contain
      // arbitrary elements outside the others).
      return arg_bound(0) && arg_bound(1);
    case BuiltinKind::kPartition:
      return arg_bound(0) || (arg_bound(1) && arg_bound(2));
    case BuiltinKind::kCard:
      return arg_bound(0);
    case BuiltinKind::kPlus:
    case BuiltinKind::kMinus:
    case BuiltinKind::kTimes:
      return arg_bound(0) + arg_bound(1) + arg_bound(2) >= 2;
    case BuiltinKind::kDiv:
    case BuiltinKind::kMod:
      return arg_bound(0) && arg_bound(1);  // forward only
    case BuiltinKind::kNone:
      return true;
  }
  return false;
}

void PlaceReadyLiterals(const RuleIr& rule,
                        const std::vector<std::vector<Symbol>>& negation_shared,
                        const std::vector<bool>& scheduled,
                        const std::vector<Symbol>& bound,
                        const std::function<void(size_t)>& place) {
  for (bool placed = true; placed;) {
    placed = false;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const LiteralIr& literal = rule.body[i];
      if (scheduled[i] || (!literal.is_builtin() && !literal.negated)) continue;
      if (LiteralStaticallyReady(literal, negation_shared[i], bound)) {
        place(i);
        placed = true;
      }
    }
  }
}

std::vector<int> ScheduleBody(const RuleIr& rule, std::vector<Symbol> bound,
                              int forced_first,
                              std::vector<Symbol>* bound_after) {
  const size_t n = rule.body.size();
  const std::vector<std::vector<Symbol>> negation_shared = NegationSharedVars(rule);
  std::vector<int> order;
  order.reserve(n);
  std::vector<bool> scheduled(n, false);
  auto place = [&](size_t i) {
    order.push_back(static_cast<int>(i));
    scheduled[i] = true;
    if (!rule.body[i].negated) BindLiteralVars(rule.body[i], &bound);
  };
  if (forced_first >= 0) place(static_cast<size_t>(forced_first));

  while (order.size() < n) {
    // Every ready built-in and negation first: they only filter or bind
    // deterministically, so running them early is always good.
    PlaceReadyLiterals(rule, negation_shared, scheduled, bound, place);
    // Then the positive relational literal with the most bound arguments.
    int next = -1;
    int next_score = -1;
    for (size_t i = 0; i < n; ++i) {
      const LiteralIr& literal = rule.body[i];
      if (scheduled[i] || literal.is_builtin() || literal.negated) continue;
      int score = 0;
      for (const Term* arg : literal.args) score += TermVarsBound(arg, bound);
      if (score > next_score) {
        next_score = score;
        next = static_cast<int>(i);
      }
    }
    if (next < 0) break;  // only unready built-ins / negations remain
    place(static_cast<size_t>(next));
  }
  if (bound_after != nullptr) *bound_after = std::move(bound);
  return order;
}

Status UnevaluableBodyError(const Catalog& catalog, const RuleIr& rule,
                            const std::vector<int>& order) {
  std::string names;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (std::find(order.begin(), order.end(), static_cast<int>(i)) != order.end()) {
      continue;
    }
    if (!names.empty()) StrAppend(names, ", ");
    StrAppend(names, rule.body[i].is_builtin() ? BuiltinName(rule.body[i].builtin)
                                               : catalog.DebugName(rule.body[i].pred));
  }
  return NotWellFormedError(StrCat("rule for ", catalog.DebugName(rule.head_pred),
                                   ": no evaluable order for body literals (",
                                   names, " never become bound)"));
}

}  // namespace ldl
