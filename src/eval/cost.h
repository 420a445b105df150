// Cost-based join ordering (DESIGN.md §11).
//
// A CostModel snapshots per-predicate cardinalities and per-column distinct
// estimates (Relation::Stats) at a well-defined point -- round start -- so
// order choices depend only on that snapshot, never on which rules ran
// earlier in the round. EstimateOrderCost prices a
// candidate order under the standard independence assumptions: a probe on a
// literal with R rows and bound columns c1..ck matches R / max(1, prod
// distinct(ci)) rows per input binding; the work of a step is
// rows_in * (1 + matches) for a probe and rows_in * R for a full scan.
// OrderBodyLiteralsCostBased searches orders with exact Selinger-style
// dynamic programming over subsets when the body has at most
// kMaxDpRelational positive relational literals, and greedily
// (min-estimated-intermediate) beyond that. Both honor the same safety
// constraints as the syntactic OrderBodyLiterals -- built-ins and negations
// run as soon as ready, forced_first pins the semi-naive delta occurrence --
// and reject exactly the same rules (readiness is order-independent once
// every positive literal is scheduled).
#ifndef LDL1_EVAL_COST_H_
#define LDL1_EVAL_COST_H_

#include <vector>

#include "base/status.h"
#include "eval/relation.h"
#include "program/catalog.h"
#include "program/ir.h"

namespace ldl {

// Per-predicate statistics used by the estimator.
struct PredCard {
  double rows = 0;
  std::vector<double> distinct;  // per column, capped at rows
};

// An immutable snapshot of the database's statistics. Take one per planning
// point (program entry, fixpoint round); never share across rounds.
class CostModel {
 public:
  CostModel() = default;

  // Snapshots every predicate that has a relation in `db`.
  static CostModel Snapshot(const Database& db, const Catalog& catalog);

  // Stats for `pred`; empty-relation stats when the predicate has no
  // relation yet.
  const PredCard& Card(PredId pred) const {
    static const PredCard kEmpty;
    return pred < cards_.size() ? cards_[pred] : kEmpty;
  }

 private:
  std::vector<PredCard> cards_;  // indexed by PredId
};

// Estimated cost of evaluating a body in a given order.
struct OrderCost {
  double total_work = 0;  // summed per-step work units
  double out_rows = 1;    // estimated body solutions
  // Estimated intermediate cardinality after each evaluation step, indexed
  // by position in `order` (the REPL :plan printer consumes this).
  std::vector<double> step_rows;
};

// Prices `order` (a full body order from either orderer) against `model`.
// `literal_rows`, when non-null, overrides the row count per body literal
// *occurrence* (indexed by body position; negative = use the model) -- the
// engine uses this to price semi-naive delta windows and round deltas.
OrderCost EstimateOrderCost(const RuleIr& rule, const std::vector<int>& order,
                            const CostModel& model,
                            const std::vector<double>* literal_rows = nullptr);

// Cost-based replacement for OrderBodyLiterals: same contract (forced_first
// pins the first occurrence, `initially_bound` seeds boundness, returns
// kNotWellFormed when a built-in or negation never becomes ready), but the
// positive relational literals are sequenced to minimize estimated total
// work instead of syntactic boundness. Deterministic: ties break on the
// smaller literal index.
StatusOr<std::vector<int>> OrderBodyLiteralsCostBased(
    const Catalog& catalog, const RuleIr& rule, const CostModel& model,
    int forced_first = -1, const std::vector<Symbol>* initially_bound = nullptr,
    const std::vector<double>* literal_rows = nullptr);

// Bodies with at most this many positive relational literals get the exact
// subset DP (2^k states); larger bodies fall back to the greedy search.
inline constexpr int kMaxDpRelational = 8;

}  // namespace ldl

#endif  // LDL1_EVAL_COST_H_
