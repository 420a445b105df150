#include "eval/cost.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "program/wellformed.h"

namespace ldl {

CostModel CostModel::Snapshot(const Database& db, const Catalog& catalog) {
  CostModel model;
  // One size for the array and the loop: the catalog may grow meanwhile.
  const size_t pred_count = catalog.size();
  model.cards_.resize(pred_count);
  for (PredId pred = 0; pred < pred_count; ++pred) {
    const Relation* relation = db.FindRelation(pred);
    if (relation == nullptr) continue;
    RelationStats stats = relation->Stats();
    PredCard& card = model.cards_[pred];
    card.rows = static_cast<double>(stats.rows);
    card.distinct = std::move(stats.column_distinct);
  }
  return model;
}

namespace {

// Estimated fraction of input bindings surviving (or fan-out produced by) a
// built-in, given which arguments are bound. Heuristic constants -- see
// DESIGN.md §11; built-ins are cheap either way, so the planner only needs
// these to be roughly right relative to relational fan-out.
double BuiltinFactor(const LiteralIr& literal, const std::vector<Symbol>& bound) {
  auto arg_bound = [&](size_t i) {
    return TermVarsBound(literal.args[i], bound);
  };
  if (literal.negated) return 0.5;  // negated built-in is a pure filter
  switch (literal.builtin) {
    case BuiltinKind::kNeq:
    case BuiltinKind::kLt:
    case BuiltinKind::kLe:
    case BuiltinKind::kGt:
    case BuiltinKind::kGe:
      return 0.5;
    case BuiltinKind::kEq:
      // Both sides bound: a filter. One side free: binds it, one result.
      return arg_bound(0) && arg_bound(1) ? 0.5 : 1.0;
    case BuiltinKind::kMember:
    case BuiltinKind::kSubset:
      // First argument free: enumerates the (sub)sets of the bound second
      // argument -- modest fan-out stand-in, real sets are small.
      return arg_bound(0) ? 0.5 : 4.0;
    case BuiltinKind::kPartition:
      return arg_bound(0) ? 4.0 : 1.0;
    default:
      return 1.0;  // functional built-ins bind their output deterministically
  }
}

struct StepPrice {
  double work = 0;
  double out_rows = 0;
};

// Prices one body literal occurrence given the current bound-variable set
// and the estimated number of input bindings. The relational formulas are
// documented in cost.h / DESIGN.md §11.
StepPrice PriceLiteral(const RuleIr& rule, int idx, const CostModel& model,
                       const std::vector<double>* literal_rows,
                       const std::vector<Symbol>& bound, double rows_in) {
  const LiteralIr& literal = rule.body[idx];
  StepPrice price;
  if (literal.is_builtin()) {
    price.work = rows_in;
    price.out_rows = rows_in * BuiltinFactor(literal, bound);
    return price;
  }
  if (literal.negated) {
    // One dedup-table lookup per binding; conservative half selectivity.
    price.work = rows_in;
    price.out_rows = rows_in * 0.5;
    return price;
  }
  const PredCard& card = model.Card(literal.pred);
  double rows = card.rows;
  if (literal_rows != nullptr && idx < static_cast<int>(literal_rows->size()) &&
      (*literal_rows)[idx] >= 0) {
    rows = (*literal_rows)[idx];
  }
  double divisor = 1.0;
  bool any_bound = false;
  for (size_t col = 0; col < literal.args.size(); ++col) {
    if (!TermVarsBound(literal.args[col], bound)) continue;
    any_bound = true;
    // Distinct counts come from the full relation even when `rows` is a
    // delta-window override: the window's values are spread over the same
    // domain, so matches = rows / distinct stays the right expectation.
    double d = col < card.distinct.size() ? card.distinct[col] : 1.0;
    divisor *= std::max(1.0, d);
  }
  double matches = any_bound ? std::min(rows, rows / divisor) : rows;
  // A probe costs one index lookup plus the matches it returns; an unbound
  // literal is a full scan per input binding (floored at one scan).
  price.work =
      any_bound ? rows_in * (1.0 + matches) : std::max(rows, rows_in * rows);
  price.out_rows = rows_in * matches;
  return price;
}

// Mutable scheduling state shared by the DP and greedy searches: which
// literals are placed, the bound-variable set, and the running estimate.
struct ScheduleState {
  std::vector<bool> scheduled;
  std::vector<Symbol> bound;
  double rows = 1.0;
  double work = 0.0;
  std::vector<int> order;
  std::vector<double> step_rows;
};

void Place(const RuleIr& rule, const CostModel& model,
           const std::vector<double>* literal_rows, int idx, ScheduleState* s) {
  StepPrice price =
      PriceLiteral(rule, idx, model, literal_rows, s->bound, s->rows);
  s->work += price.work;
  s->rows = price.out_rows;
  s->order.push_back(idx);
  s->step_rows.push_back(price.out_rows);
  s->scheduled[idx] = true;
  const LiteralIr& literal = rule.body[idx];
  if (!literal.negated) BindLiteralVars(literal, &s->bound);
}

// Schedules every ready built-in / negation -- the same eager closure as the
// syntactic orderer, so both modes interleave filters identically relative
// to the positive literals they depend on.
void Closure(const RuleIr& rule, const CostModel& model,
             const std::vector<double>* literal_rows,
             const std::vector<std::vector<Symbol>>& negation_shared,
             ScheduleState* s) {
  PlaceReadyLiterals(rule, negation_shared, s->scheduled, s->bound,
                     [&](size_t i) {
                       Place(rule, model, literal_rows, static_cast<int>(i), s);
                     });
}

// Exact Selinger-style search: dynamic programming over subsets of the
// remaining positive relational literals. The bound-variable set after a
// prefix depends only on the *set* of positives placed (closure is
// deterministic and monotone in it), so subset states are well-defined.
// Deterministic: states and successors are visited in ascending order and
// only a strictly cheaper path replaces a stored one.
ScheduleState DpSchedule(const RuleIr& rule, const CostModel& model,
                         const std::vector<double>* literal_rows,
                         const std::vector<std::vector<Symbol>>& negation_shared,
                         const ScheduleState& base, const std::vector<int>& rel) {
  size_t m = rel.size();
  size_t full = (size_t{1} << m) - 1;
  std::vector<ScheduleState> dp(full + 1);
  std::vector<bool> seen(full + 1, false);
  dp[0] = base;
  seen[0] = true;
  for (size_t mask = 0; mask <= full; ++mask) {
    if (!seen[mask]) continue;
    for (size_t j = 0; j < m; ++j) {
      if (mask & (size_t{1} << j)) continue;
      ScheduleState next = dp[mask];
      Place(rule, model, literal_rows, rel[j], &next);
      Closure(rule, model, literal_rows, negation_shared, &next);
      size_t successor = mask | (size_t{1} << j);
      if (!seen[successor] || next.work < dp[successor].work) {
        dp[successor] = std::move(next);
        seen[successor] = true;
      }
    }
  }
  return dp[full];
}

// Greedy fallback for wide bodies: at each step place the positive literal
// minimizing the estimated intermediate cardinality (ties: less work, then
// the smaller literal index via ascending iteration + strict comparison).
ScheduleState GreedySchedule(const RuleIr& rule, const CostModel& model,
                             const std::vector<double>* literal_rows,
                             const std::vector<std::vector<Symbol>>& negation_shared,
                             const ScheduleState& base,
                             const std::vector<int>& rel) {
  ScheduleState state = base;
  for (size_t placed = 0; placed < rel.size(); ++placed) {
    bool have_best = false;
    ScheduleState best;
    for (int idx : rel) {
      if (state.scheduled[idx]) continue;
      ScheduleState candidate = state;
      Place(rule, model, literal_rows, idx, &candidate);
      Closure(rule, model, literal_rows, negation_shared, &candidate);
      if (!have_best || candidate.rows < best.rows ||
          (candidate.rows == best.rows && candidate.work < best.work)) {
        best = std::move(candidate);
        have_best = true;
      }
    }
    state = std::move(best);
  }
  return state;
}

}  // namespace

OrderCost EstimateOrderCost(const RuleIr& rule, const std::vector<int>& order,
                            const CostModel& model,
                            const std::vector<double>* literal_rows) {
  OrderCost cost;
  std::vector<Symbol> bound;
  double rows = 1.0;
  for (int idx : order) {
    StepPrice price =
        PriceLiteral(rule, idx, model, literal_rows, bound, rows);
    cost.total_work += price.work;
    rows = price.out_rows;
    cost.step_rows.push_back(rows);
    if (!rule.body[idx].negated) BindLiteralVars(rule.body[idx], &bound);
  }
  cost.out_rows = rows;
  return cost;
}

StatusOr<std::vector<int>> OrderBodyLiteralsCostBased(
    const Catalog& catalog, const RuleIr& rule, const CostModel& model,
    int forced_first, const std::vector<Symbol>* initially_bound,
    const std::vector<double>* literal_rows) {
  size_t n = rule.body.size();
  std::vector<std::vector<Symbol>> negation_shared = NegationSharedVars(rule);

  ScheduleState base;
  base.scheduled.assign(n, false);
  base.order.reserve(n);
  if (initially_bound != nullptr) base.bound = *initially_bound;
  if (forced_first >= 0) Place(rule, model, literal_rows, forced_first, &base);
  Closure(rule, model, literal_rows, negation_shared, &base);

  // The positive relational literals still to sequence.
  std::vector<int> rel;
  for (size_t i = 0; i < n; ++i) {
    const LiteralIr& literal = rule.body[i];
    if (!base.scheduled[i] && !literal.is_builtin() && !literal.negated) {
      rel.push_back(static_cast<int>(i));
    }
  }

  ScheduleState state =
      static_cast<int>(rel.size()) <= kMaxDpRelational
          ? DpSchedule(rule, model, literal_rows, negation_shared, base, rel)
          : GreedySchedule(rule, model, literal_rows, negation_shared, base, rel);

  if (state.order.size() < n) {
    // Only unready built-ins / negations remain. Readiness after all
    // positives are placed is order-independent, so this fails exactly when
    // the syntactic orderer fails -- with the same diagnostic.
    return UnevaluableBodyError(catalog, rule, state.order);
  }
  return std::move(state.order);
}

}  // namespace ldl
