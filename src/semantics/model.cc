#include "semantics/model.h"

#include "base/str_util.h"
#include "eval/bindings.h"
#include "eval/grouping.h"
#include "eval/rule_eval.h"

namespace ldl {

namespace {

// Checks one non-grouping rule: every body solution must put the
// instantiated head in the interpretation.
StatusOr<bool> CheckPlainRule(TermFactory& factory, const Catalog& catalog,
                              const RuleIr& rule, const Database& interpretation,
                              std::string* counterexample) {
  LDL_ASSIGN_OR_RETURN(std::vector<int> order, OrderBodyLiterals(catalog, rule));
  RuleEvaluator evaluator(&factory, &rule, order);
  const Relation& head_relation = interpretation.relation(rule.head_pred);
  EvalStats stats;
  RowBuffer heads(rule.head_args.size());
  bool satisfied = true;
  Status inner;
  LDL_RETURN_IF_ERROR(evaluator.ForEachBlock(
      interpretation, {},
      [&](const TupleBlock& block) {
        heads.Clear();
        inner = evaluator.EmitHeads(block, &heads);  // outside-U heads skipped
        if (!inner.ok()) return false;
        for (size_t i = 0; i < heads.size(); ++i) {
          RowRef head = heads.row(i);
          if (head_relation.Contains(head)) continue;
          satisfied = false;
          if (counterexample != nullptr) {
            *counterexample = StrCat(
                "missing ", FormatFact(factory, catalog, rule.head_pred,
                                       Tuple(head.begin(), head.end())));
          }
          return false;
        }
        return true;
      },
      &stats));
  LDL_RETURN_IF_ERROR(inner);
  return satisfied;
}

// Checks a grouping rule: per §2.2, for each partition key the
// interpretation must contain the head fact whose grouped column is exactly
// the collected set.
StatusOr<bool> CheckGroupingRule(TermFactory& factory, const Catalog& catalog,
                                 const RuleIr& rule,
                                 const Database& interpretation,
                                 std::string* counterexample) {
  LDL_ASSIGN_OR_RETURN(std::vector<int> order, OrderBodyLiterals(catalog, rule));
  RuleEvaluator evaluator(&factory, &rule, order);
  EvalStats stats;
  LDL_ASSIGN_OR_RETURN(std::vector<GroupResult> groups,
                       ComputeGroups(factory, evaluator, interpretation, &stats));
  for (const GroupResult& group : groups) {
    if (!interpretation.relation(rule.head_pred).Contains(group.fact)) {
      if (counterexample != nullptr) {
        *counterexample = StrCat(
            "missing grouped fact ",
            FormatFact(factory, catalog, rule.head_pred, group.fact));
      }
      return false;
    }
  }
  return true;
}

}  // namespace

StatusOr<bool> IsModel(TermFactory& factory, const Catalog& catalog,
                       const ProgramIr& program, const Database& interpretation,
                       std::string* counterexample) {
  for (const RuleIr& rule : program.rules) {
    if (rule.is_fact()) {
      InstantiationResult inst =
          InstantiateArgs(factory, rule.head_args, Subst());
      if (inst.unbound) return InvalidArgumentError("fact with variables");
      if (inst.outside_universe) continue;
      if (!interpretation.relation(rule.head_pred).Contains(inst.tuple)) {
        if (counterexample != nullptr) {
          *counterexample = StrCat(
              "missing fact ",
              FormatFact(factory, catalog, rule.head_pred, inst.tuple));
        }
        return false;
      }
      continue;
    }
    StatusOr<bool> ok =
        rule.is_grouping()
            ? CheckGroupingRule(factory, catalog, rule, interpretation,
                                counterexample)
            : CheckPlainRule(factory, catalog, rule, interpretation,
                             counterexample);
    LDL_RETURN_IF_ERROR(ok.status());
    if (!*ok) return false;
  }
  return true;
}

bool FactDominated(TermFactory& factory, const Tuple& e,
                   const Tuple& e_prime) {
  if (e.size() != e_prime.size()) return false;
  for (size_t i = 0; i < e.size(); ++i) {
    if (e[i]->is_set() && e_prime[i]->is_set()) {
      // Subset test: e[i] subseteq e_prime[i].
      if (factory.SetDifference(e[i], e_prime[i])->size() != 0) return false;
    } else if (e[i] != e_prime[i]) {
      return false;
    }
  }
  return true;
}

bool ElementDominated(TermFactory& factory, const Term* e, const Term* e_prime) {
  if (e == e_prime) return true;  // (i): interned equality
  if (e->is_set() && e_prime->is_set()) {
    // (iii): every element of e dominated by some element of e'.
    for (const Term* a : e->args()) {
      bool dominated = false;
      for (const Term* b : e_prime->args()) {
        if (ElementDominated(factory, a, b)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) return false;
    }
    return true;
  }
  if (e->is_func() && e_prime->is_func() && e->symbol() == e_prime->symbol() &&
      e->size() == e_prime->size()) {
    // (ii): component-wise.
    for (uint32_t i = 0; i < e->size(); ++i) {
      if (!ElementDominated(factory, e->arg(i), e_prime->arg(i))) return false;
    }
    return true;
  }
  return false;
}

bool FactDeepDominated(TermFactory& factory, const Tuple& e, const Tuple& e_prime) {
  if (e.size() != e_prime.size()) return false;
  for (size_t i = 0; i < e.size(); ++i) {
    if (!ElementDominated(factory, e[i], e_prime[i])) return false;
  }
  return true;
}

bool FactSetDominated(TermFactory& factory,
                      const std::vector<LabeledFact>& a,
                      const std::vector<LabeledFact>& b) {
  for (const LabeledFact& fact_a : a) {
    bool dominated = false;
    for (const LabeledFact& fact_b : b) {
      if (fact_a.first == fact_b.first &&
          FactDominated(factory, fact_a.second, fact_b.second)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;
  }
  return true;
}

std::vector<LabeledFact> ModelDifference(const Database& m1, const Database& m2,
                                         const std::vector<PredId>& preds) {
  std::vector<LabeledFact> result;
  for (PredId pred : preds) {
    const Relation& r1 = m1.relation(pred);
    const Relation& r2 = m2.relation(pred);
    r1.ForEachRow(0, r1.row_count(), [&](size_t, RowRef tuple) {
      if (!r2.Contains(tuple)) result.emplace_back(pred, Tuple(tuple.begin(), tuple.end()));
    });
  }
  return result;
}

bool DifferenceDominated(TermFactory& factory, const Database& m1,
                         const Database& m2, const std::vector<PredId>& preds) {
  return FactSetDominated(factory, ModelDifference(m1, m2, preds),
                          ModelDifference(m2, m1, preds));
}

}  // namespace ldl
