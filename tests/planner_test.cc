// Cost-based join ordering (DESIGN.md §11): distinct-sketch accuracy on
// Relation, order flips on skewed EDBs, adaptive replanning mid-fixpoint,
// and model equivalence between the cost-based and syntactic orderers.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "base/str_util.h"
#include "eval/cost.h"
#include "eval/relation.h"
#include "ldl/ldl.h"

namespace ldl {
namespace {

// ---------------------------------------------------------------------------
// Distinct-value sketches on Relation.

class SketchTest : public ::testing::Test {
 protected:
  Tuple T(std::initializer_list<int> values) {
    Tuple t;
    for (int v : values) t.push_back(factory_.MakeInt(v));
    return t;
  }

  Interner interner_;
  TermFactory factory_{&interner_};
};

TEST_F(SketchTest, DistinctEstimateTracksSmallCounts) {
  // Linear counting is near-exact while the bitmap is mostly empty: 8
  // distinct values in column 1 must estimate close to 8 even across 400
  // rows, and never above the live row count.
  Relation r(2);
  for (int i = 0; i < 400; ++i) r.Insert(T({i, i % 8}));
  double unique = r.DistinctEstimate(0);
  double skewed = r.DistinctEstimate(1);
  EXPECT_GE(skewed, 6.0);
  EXPECT_LE(skewed, 12.0);
  // 400 distinct fills ~1/3 of the 1024-bit sketch; linear counting stays
  // within ~12% there.
  EXPECT_GE(unique, 350.0);
  EXPECT_LE(unique, 450.0);
}

TEST_F(SketchTest, DistinctEstimateCappedByLiveRows) {
  Relation r(1);
  for (int i = 0; i < 50; ++i) r.Insert(T({i}));
  EXPECT_LE(r.DistinctEstimate(0), 50.0);
  // Out-of-range columns and empty relations degrade to the live count.
  EXPECT_EQ(r.DistinctEstimate(7), 50.0);
  r.Clear();
  EXPECT_EQ(r.DistinctEstimate(0), 0.0);
}

TEST_F(SketchTest, StatsSeparateLiveFromStoredRows) {
  // Erase tombstones rows in place; `rows` must track the live count while
  // `raw_rows` keeps the storage footprint, so consumers can tell a small
  // relation from a bloated one.
  Relation r(1);
  for (int i = 0; i < 100; ++i) r.Insert(T({i}));
  for (int i = 0; i < 90; ++i) r.Erase(T({i}));
  RelationStats stats = r.Stats();
  EXPECT_EQ(stats.rows, 10u);
  EXPECT_EQ(stats.raw_rows, 100u);
  // The distinct sketch never claims more values than live rows.
  EXPECT_LE(stats.column_distinct[0], 10.0);
}

TEST_F(SketchTest, StatsSnapshotMatchesEstimates) {
  Relation r(2);
  for (int i = 0; i < 100; ++i) r.Insert(T({i, 0}));
  RelationStats stats = r.Stats();
  EXPECT_EQ(stats.rows, 100u);
  ASSERT_EQ(stats.column_distinct.size(), 2u);
  EXPECT_EQ(stats.column_distinct[0], r.DistinctEstimate(0));
  EXPECT_EQ(stats.column_distinct[1], r.DistinctEstimate(1));
  // Column 1 holds a single value.
  EXPECT_GE(stats.column_distinct[1], 1.0);
  EXPECT_LE(stats.column_distinct[1], 2.0);
}

// ---------------------------------------------------------------------------
// End-to-end planning.

// Skewed three-way join (bench_planner's B12 workload in miniature):
// textual order explodes big x fan before sel filters; the cost-based
// order starts from the 4-row sel.
std::string SkewedProgram(size_t n, size_t fan_out) {
  std::string text = "join(X, Y) :- big(X, Z), fan(Z, W), sel(W, Y).\n";
  for (size_t i = 0; i < n; ++i) {
    StrAppend(text, "big(b", i, ", k", i % 4, ").\n");
  }
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < fan_out; ++j) {
      StrAppend(text, "fan(k", i, ", w", i, "_", j, ").\n");
    }
    StrAppend(text, "sel(w", i, "_0, s", i, ").\n");
  }
  return text;
}

// Non-linear closure through a tiny mapping relation: the best order for
// the delta variant pinning the second t-occurrence flips as t grows.
std::string DriftProgram(size_t n) {
  std::string text =
      "t(X, Y) :- e(X, Y).\n"
      "t(X, W) :- t(X, Z), t(Z, Y), f(Y, W).\n";
  for (size_t i = 0; i + 1 < n; ++i) {
    StrAppend(text, "e(c", i, ", c", i + 1, ").\n");
  }
  for (size_t i = 0; i < n; ++i) {
    StrAppend(text, "f(c", i, ", c", i, ").\n");
  }
  return text;
}

using ModelText = std::map<std::string, std::vector<std::string>>;

ModelText Materialize(Session& session) {
  ModelText model;
  for (PredId pred = 0; pred < session.catalog().size(); ++pred) {
    std::vector<std::string> rows;
    for (const Tuple& tuple : session.database().relation(pred).Snapshot()) {
      rows.push_back(session.FormatTuple(tuple));
    }
    std::sort(rows.begin(), rows.end());
    model[session.catalog().DebugName(pred)] = std::move(rows);
  }
  return model;
}

EvalStats EvaluateWith(Session& session, bool cost_based) {
  EvalOptions options;
  options.cost_based = cost_based;
  Status status = session.Evaluate(options);
  EXPECT_TRUE(status.ok()) << status;
  return session.last_eval_stats();
}

TEST(Planner, SkewedEdbFlipsJoinOrder) {
  std::string program = SkewedProgram(/*n=*/512, /*fan_out=*/8);

  Session syntactic;
  ASSERT_TRUE(syntactic.Load(program).ok());
  EvalStats syn = EvaluateWith(syntactic, /*cost_based=*/false);

  Session cost;
  ASSERT_TRUE(cost.Load(program).ok());
  EvalStats est = EvaluateWith(cost, /*cost_based=*/true);

  // Same model either way.
  EXPECT_EQ(Materialize(cost), Materialize(syntactic));
  // The cost-based order differs from the syntactic one...
  EXPECT_EQ(syn.plans_reordered, 0u);
  EXPECT_GE(est.plans_reordered, 1u);
  // ...and avoids the big x fan intermediate: the syntactic order probes
  // once per (big row x fan-out) pair, the cost-based order once per
  // surviving binding.
  EXPECT_GT(syn.index_probes, 8 * est.index_probes);
}

TEST(Planner, GroupingRuleCountsItsReorder) {
  // A grouping rule fires once over its input model (Lemma 3.2.3); the
  // cost-based order it adopts counts in plans_reordered like a fixpoint
  // rule's.
  std::string program = SkewedProgram(/*n=*/64, /*fan_out=*/8);
  program.replace(0, program.find('\n'),
                  "join(X, <Y>) :- big(X, Z), fan(Z, W), sel(W, Y).");

  Session syntactic;
  ASSERT_TRUE(syntactic.Load(program).ok());
  EvalStats syn = EvaluateWith(syntactic, /*cost_based=*/false);

  Session cost;
  ASSERT_TRUE(cost.Load(program).ok());
  EvalStats est = EvaluateWith(cost, /*cost_based=*/true);

  EXPECT_EQ(Materialize(cost), Materialize(syntactic));
  EXPECT_EQ(syn.plans_reordered, 0u);
  EXPECT_EQ(est.plans_reordered, 1u);
}

TEST(Planner, CostBasedOrderStartsFromSmallRelation) {
  std::string program = SkewedProgram(/*n=*/512, /*fan_out=*/8);
  Session session;
  ASSERT_TRUE(session.Load(program).ok());
  ASSERT_TRUE(session.Evaluate().ok());

  const RuleIr* join_rule = nullptr;
  for (const RuleIr& rule : session.program().rules) {
    if (rule.body.size() == 3) join_rule = &rule;
  }
  ASSERT_NE(join_rule, nullptr);

  CostModel model =
      CostModel::Snapshot(session.database(), session.catalog());
  auto order = OrderBodyLiteralsCostBased(session.catalog(), *join_rule, model);
  ASSERT_TRUE(order.ok()) << order.status();
  ASSERT_EQ(order->size(), 3u);
  // Body is big(X,Z), fan(Z,W), sel(W,Y): the planner scans sel (4 rows)
  // and probes back through fan, then big.
  EXPECT_EQ((*order)[0], 2);
  EXPECT_EQ((*order)[1], 1);
  EXPECT_EQ((*order)[2], 0);

  OrderCost chosen = EstimateOrderCost(*join_rule, *order, model);
  OrderCost textual = EstimateOrderCost(*join_rule, {0, 1, 2}, model);
  EXPECT_LT(chosen.total_work, textual.total_work);
  ASSERT_EQ(chosen.step_rows.size(), 3u);
}

TEST(Planner, AdaptiveReplanSwitchesMidFixpoint) {
  std::string program = DriftProgram(/*n=*/32);

  Session syntactic;
  ASSERT_TRUE(syntactic.Load(program).ok());
  EvalStats syn = EvaluateWith(syntactic, /*cost_based=*/false);
  EXPECT_EQ(syn.replans, 0u);

  Session cost;
  ASSERT_TRUE(cost.Load(program).ok());
  EvalStats est = EvaluateWith(cost, /*cost_based=*/true);

  // The entry-time order is priced against an empty t; as t outgrows f the
  // delta variants switch orders mid-fixpoint.
  EXPECT_GE(est.replans, 1u);
  EXPECT_EQ(Materialize(cost), Materialize(syntactic));
}

TEST(Planner, DeterministicAcrossSessions) {
  // Planning inputs are round-start snapshots, so two evaluations of the
  // same program make the same choices and report the same counters.
  std::string program = DriftProgram(/*n=*/24);
  Session first;
  ASSERT_TRUE(first.Load(program).ok());
  EvalStats reference = EvaluateWith(first, /*cost_based=*/true);
  Session second;
  ASSERT_TRUE(second.Load(program).ok());
  EvalStats stats = EvaluateWith(second, /*cost_based=*/true);
  EXPECT_GE(reference.replans, 1u);
  EXPECT_EQ(stats.replans, reference.replans);
  EXPECT_EQ(stats.plans_reordered, reference.plans_reordered);
  EXPECT_EQ(stats.facts_derived, reference.facts_derived);
  EXPECT_EQ(Materialize(second), Materialize(first));
}

TEST(Planner, MostlyDeletedRelationFlipsJoinOrder) {
  // Tombstone-bloat regression: after erasing most of `shrunk`, its storage
  // still holds every dead row, but the cost model must price it by live
  // count. 400 stored / 4 live flips the scan leader from `keep` (40 rows)
  // to `shrunk`; a model built on raw counts would keep the old order.
  std::string program = "join(X, Y) :- shrunk(X, Z), keep(Z, Y).\n";
  for (size_t i = 0; i < 400; ++i) {
    StrAppend(program, "shrunk(a", i, ", k", i % 4, ").\n");
  }
  for (size_t i = 0; i < 40; ++i) {
    StrAppend(program, "keep(k", i % 4, ", v", i, ").\n");
  }
  Session session;
  ASSERT_TRUE(session.Load(program).ok());
  ASSERT_TRUE(session.Evaluate().ok());

  const RuleIr* join_rule = nullptr;
  for (const RuleIr& rule : session.program().rules) {
    if (rule.body.size() == 2) join_rule = &rule;
  }
  ASSERT_NE(join_rule, nullptr);

  CostModel before = CostModel::Snapshot(session.database(), session.catalog());
  auto order_before =
      OrderBodyLiteralsCostBased(session.catalog(), *join_rule, before);
  ASSERT_TRUE(order_before.ok()) << order_before.status();
  // 40-row keep leads while shrunk holds 400 live rows.
  EXPECT_EQ((*order_before)[0], 1);

  // Tombstone all but a0..a3 in place. Retracting them through
  // RemoveFacts would not do: the maintenance pass that applies the
  // deletions compacts a relation this dead, and the dead rows are gone.
  PredId shrunk = session.catalog().Find("shrunk", 2);
  ASSERT_NE(shrunk, kInvalidPred);
  Relation& shrunk_rel = session.database().relation(shrunk);
  const std::vector<std::string> kept = {"a0", "a1", "a2", "a3"};
  for (const Tuple& tuple : shrunk_rel.Snapshot()) {
    const std::string name = session.factory().ToString(tuple[0]);
    if (std::find(kept.begin(), kept.end(), name) == kept.end()) {
      ASSERT_TRUE(shrunk_rel.Erase(tuple));
    }
  }
  RelationStats stats = shrunk_rel.Stats();
  EXPECT_EQ(stats.rows, 4u);
  EXPECT_EQ(stats.raw_rows, 400u);

  CostModel after = CostModel::Snapshot(session.database(), session.catalog());
  EXPECT_EQ(after.Card(shrunk).rows, 4.0);
  auto order_after =
      OrderBodyLiteralsCostBased(session.catalog(), *join_rule, after);
  ASSERT_TRUE(order_after.ok()) << order_after.status();
  // 4 live rows beat 40: the mostly-deleted relation now leads.
  EXPECT_EQ((*order_after)[0], 0);
}

TEST(Planner, ProfileRecordsEstimatedRows) {
  std::string program = SkewedProgram(/*n=*/64, /*fan_out=*/4);
  Session session;
  ASSERT_TRUE(session.Load(program).ok());
  EvalOptions options;
  options.profile = true;
  ASSERT_TRUE(session.Evaluate(options).ok());
  uint64_t est_rows = 0;
  uint64_t solutions = 0;
  for (const RuleProfileEntry& entry : session.last_eval_profile().rules()) {
    if (entry.rule_index < 0) continue;
    est_rows += entry.counters.est_rows;
    solutions += entry.counters.solutions;
  }
  // The estimate need not be exact, but must be present and in the right
  // ballpark for this exactly-estimable workload (64 join results).
  EXPECT_GT(est_rows, 0u);
  EXPECT_GT(solutions, 0u);
  EXPECT_LE(est_rows, 4 * solutions);
  EXPECT_GE(4 * est_rows, solutions);
}

}  // namespace
}  // namespace ldl
