// Incremental model maintenance (Engine::Maintain via Session::AddFacts and
// Session::RemoveFacts): after EDB insertions, deletions and mixed batches
// the maintained model must be bit-identical to a from-scratch evaluation
// -- across the corpus programs (positive recursion, stratified negation,
// grouping, magic-rewritten stored queries), every QueryStrategy, and 1-
// and 4-thread evaluation -- while strata are skipped / delta-resumed /
// regrown / shrunk / recomputed exactly as the paper's >= / > layering
// edges (§3.1) dictate, and a maintenance pass that fails drops the model.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ldl/ldl.h"
#include "ldl/service.h"
#include "program/impact.h"
#include "semantics/model.h"
#include "workload/workload.h"

namespace ldl {
namespace {

std::vector<std::string> CorpusPrograms() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(LDL1_CORPUS_DIR)) {
    if (entry.path().extension() == ".ldl") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// The full model as text: predicate name -> sorted formatted tuples
// (comparable across sessions; interned pointers differ per factory).
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

// Stored-query answers under `strategy`, with errors folded into the
// result so both sessions must agree on failures too.
std::vector<std::string> StoredQueryAnswers(Session& session,
                                            QueryStrategy strategy,
                                            const EvalOptions& eval) {
  std::vector<std::string> all;
  AstPrinter printer(&session.interner());
  QueryOptions query_options;
  query_options.strategy = strategy;
  query_options.eval = eval;
  for (const QueryAst& query : session.stored_queries()) {
    std::string goal = printer.ToString(query.goal);
    auto result = session.Query(goal, query_options);
    if (!result.ok()) {
      all.push_back(goal + " -> error: " + result.status().ToString());
      continue;
    }
    for (const Tuple& tuple : result->tuples) {
      all.push_back(goal + " -> " + session.FormatTuple(tuple));
    }
  }
  std::sort(all.begin(), all.end());
  return all;
}

bool PlainAtomText(const std::string& text) {
  if (text.empty() || text[0] < 'a' || text[0] > 'z') return false;
  return text.find_first_not_of(
             "abcdefghijklmnopqrstuvwxyz"
             "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_") == std::string::npos;
}

// `count` random new fact lines over the session's EDB predicates:
// columns recombined from existing tuples (hitting live join keys), with
// an occasional fresh atom so unseen constants appear too.
std::vector<std::string> GenerateFacts(Session& session, size_t count,
                                       uint64_t seed) {
  Rng rng(seed);
  struct PredFacts {
    std::string name;
    std::vector<Tuple> tuples;
  };
  std::vector<PredFacts> preds;
  for (PredId pred : session.edb_preds()) {
    if (session.catalog().info(pred).arity == 0) continue;
    std::vector<Tuple> tuples = session.database().relation(pred).Snapshot();
    if (tuples.empty()) continue;
    std::string name = session.catalog().DebugName(pred);
    preds.push_back({name.substr(0, name.rfind('/')), std::move(tuples)});
  }
  std::vector<std::string> facts;
  if (preds.empty()) return facts;
  size_t fresh = 0;
  for (size_t i = 0; i < count; ++i) {
    const PredFacts& p = preds[rng.Below(preds.size())];
    const size_t arity = p.tuples[0].size();
    std::string text = p.name + "(";
    for (size_t col = 0; col < arity; ++col) {
      if (col > 0) text += ", ";
      const Tuple& donor = p.tuples[rng.Below(p.tuples.size())];
      std::string rendered = session.factory().ToString(donor[col]);
      if (rng.Below(4) == 0 && PlainAtomText(rendered)) {
        rendered = "zz" + std::to_string(fresh++);
      }
      text += rendered;
    }
    text += ").";
    facts.push_back(std::move(text));
  }
  return facts;
}

// `count` random removal lines sampled from the session's live EDB rows
// (Snapshot() returns live rows only, so every line names a present fact).
std::vector<std::string> GenerateRemovals(Session& session, size_t count,
                                          uint64_t seed) {
  Rng rng(seed);
  struct PredFacts {
    std::string name;
    std::vector<Tuple> tuples;
  };
  std::vector<PredFacts> preds;
  for (PredId pred : session.edb_preds()) {
    if (session.catalog().info(pred).arity == 0) continue;
    std::vector<Tuple> tuples = session.database().relation(pred).Snapshot();
    if (tuples.empty()) continue;
    std::string name = session.catalog().DebugName(pred);
    preds.push_back({name.substr(0, name.rfind('/')), std::move(tuples)});
  }
  std::vector<std::string> removals;
  if (preds.empty()) return removals;
  for (size_t i = 0; i < count; ++i) {
    const PredFacts& p = preds[rng.Below(preds.size())];
    const Tuple& victim = p.tuples[rng.Below(p.tuples.size())];
    std::string text = p.name + "(";
    for (size_t col = 0; col < victim.size(); ++col) {
      if (col > 0) text += ", ";
      text += session.factory().ToString(victim[col]);
    }
    text += ").";
    removals.push_back(std::move(text));
  }
  return removals;
}

constexpr QueryStrategy kStrategies[] = {
    QueryStrategy::kModel, QueryStrategy::kMagic,
    QueryStrategy::kMagicSupplementary, QueryStrategy::kTopDown};

// The tentpole equivalence: randomized insert batches over every corpus
// program; the incrementally maintained session must match a from-scratch
// session on the full model and on stored-query answers under every
// strategy -- without ever re-materializing.
TEST(Incremental, RandomizedInsertsMatchScratchAcrossCorpus) {
  std::vector<std::string> programs = CorpusPrograms();
  ASSERT_FALSE(programs.empty());
  uint64_t seed = 17;
  for (const std::string& path : programs) {
    // Generate the insert batches once per program, from a throwaway
    // evaluated session.
    std::vector<std::string> all_facts;
    {
      Session generator;
      ASSERT_TRUE(generator.LoadFile(path).ok()) << path;
      ASSERT_TRUE(generator.Evaluate().ok()) << path;
      all_facts = GenerateFacts(generator, /*count=*/12, ++seed);
    }
    if (all_facts.empty()) continue;  // no non-nullary EDB to perturb

    EvalOptions options;

    Session incremental;
    ASSERT_TRUE(incremental.LoadFile(path).ok()) << path;
    ASSERT_TRUE(incremental.Evaluate(options).ok()) << path;
    Session scratch;
    ASSERT_TRUE(scratch.LoadFile(path).ok()) << path;

    // Three batches of four facts, re-evaluating after each batch.
    for (size_t batch = 0; batch < all_facts.size(); batch += 4) {
      std::string text;
      for (size_t i = batch; i < batch + 4 && i < all_facts.size(); ++i) {
        text += all_facts[i] + "\n";
      }
      ASSERT_TRUE(incremental.AddFacts(text).ok()) << path << "\n" << text;
      ASSERT_TRUE(incremental.Evaluate(options).ok()) << path;
      ASSERT_TRUE(scratch.Load(text).ok()) << path;
    }
    ASSERT_TRUE(scratch.Evaluate(options).ok()) << path;

    // Pure EDB inserts must never force a re-materialization: one full
    // evaluation up front, then only cache hits and incremental rounds.
    EXPECT_EQ(incremental.full_evals(), 1u) << path;
    EXPECT_EQ(Materialize(incremental), Materialize(scratch)) << path;
    for (QueryStrategy strategy : kStrategies) {
      EXPECT_EQ(StoredQueryAnswers(incremental, strategy, options),
                StoredQueryAnswers(scratch, strategy, options))
          << path << " strategy=" << ToString(strategy);
    }
  }
}

// Repeated single-fact inserts into a recursive positive program, checked
// against scratch after every round (the watermark bookkeeping must stay
// right across many incremental rounds).
TEST(Incremental, RepeatedSingleInsertsStayConsistent) {
  const std::string rules =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";
  const std::string base = RandomGraph(/*nodes=*/24, /*edges=*/60, /*seed=*/3);
  Rng rng(99);
  EvalOptions options;
  Session incremental;
  ASSERT_TRUE(incremental.Load(base + rules).ok());
  ASSERT_TRUE(incremental.Evaluate(options).ok());
  std::string accumulated;
  for (int round = 0; round < 10; ++round) {
    std::string fact = "edge(n" + std::to_string(rng.Below(24)) + ", n" +
                       std::to_string(rng.Below(24)) + ").";
    accumulated += fact + "\n";
    ASSERT_TRUE(incremental.AddFacts(fact).ok());
    ASSERT_TRUE(incremental.Evaluate(options).ok());
    Session scratch;
    ASSERT_TRUE(scratch.Load(base + rules + accumulated).ok());
    ASSERT_TRUE(scratch.Evaluate(options).ok());
    ASSERT_EQ(Materialize(incremental), Materialize(scratch))
        << "round=" << round;
  }
  EXPECT_EQ(incremental.full_evals(), 1u);
}

TEST(Incremental, PositiveChainResumesWithoutRecompute) {
  Session session;
  ASSERT_TRUE(session
                  .Load("e(n0, n1). e(n1, n2).\n"
                        "tc(X, Y) :- e(X, Y).\n"
                        "tc(X, Y) :- tc(X, Z), e(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.AddFacts("e(n2, n3).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.incremental_evals(), 1u);
  const EvalStats& stats = session.last_eval_stats();
  EXPECT_EQ(stats.strata_recomputed, 0u);
  EXPECT_GE(stats.strata_delta, 1u);
  auto result = session.Query("tc(n0, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 3u);  // n1, n2, n3
}

TEST(Incremental, NegationInsertionRetractsDerivedFacts) {
  Session session;
  ASSERT_TRUE(session
                  .Load("item(a). item(b). blocked(b).\n"
                        "ok(X) :- item(X), !blocked(X).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  PredId ok = session.catalog().Find("ok", 1);
  ASSERT_NE(ok, kInvalidPred);
  EXPECT_EQ(session.database().relation(ok).size(), 1u);  // ok(a)

  // Inserting below a `>` edge retracts ok(a): the stratum must be
  // recomputed, not delta-resumed.
  ASSERT_TRUE(session.AddFacts("blocked(a).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.incremental_evals(), 1u);
  EXPECT_GE(session.last_eval_stats().strata_recomputed, 1u);
  EXPECT_EQ(session.database().relation(ok).size(), 0u);
}

TEST(Incremental, GroupingInsertionRegrowsGroups) {
  Session session;
  ASSERT_TRUE(session
                  .Load("supplies(s1, p1).\n"
                        "by_supplier(S, <P>) :- supplies(S, P).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.AddFacts("supplies(s1, p2).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.incremental_evals(), 1u);
  // A sole-rule, negation-free grouping head over an insert-only delta is
  // regrown in place: no stratum is cleared and recomputed.
  EXPECT_GE(session.last_eval_stats().strata_regrown, 1u);
  EXPECT_GE(session.last_eval_stats().group_regrows, 1u);
  EXPECT_EQ(session.last_eval_stats().strata_recomputed, 0u);
  // The old group fact by_supplier(s1, {p1}) must be gone, replaced by the
  // regrown set -- the retraction grouping's `>` edge exists for.
  PredId by = session.catalog().Find("by_supplier", 2);
  ASSERT_NE(by, kInvalidPred);
  auto rows = session.database().relation(by).Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(session.FormatTuple(rows[0]), "(s1, {p1, p2})");
}

// A fresh partition key appearing in the delta must insert a brand-new
// group fact, while existing keys keep their facts untouched (pointer
// identity through the regrow, since the untouched partition is never
// re-canonicalized).
TEST(Incremental, GroupRegrowInsertsFreshKeys) {
  Session session;
  ASSERT_TRUE(session
                  .Load("supplies(s1, p1).\n"
                        "by_supplier(S, <P>) :- supplies(S, P).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  PredId by = session.catalog().Find("by_supplier", 2);
  ASSERT_NE(by, kInvalidPred);
  ASSERT_EQ(session.database().relation(by).size(), 1u);
  const Term* s1_set = session.database().relation(by).row(0)[1];

  ASSERT_TRUE(session.AddFacts("supplies(s2, p2).\nsupplies(s2, p3).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_GE(session.last_eval_stats().strata_regrown, 1u);
  auto rows = session.database().relation(by).Snapshot();
  std::vector<std::string> formatted;
  for (const Tuple& row : rows) formatted.push_back(session.FormatTuple(row));
  std::sort(formatted.begin(), formatted.end());
  ASSERT_EQ(formatted.size(), 2u);
  EXPECT_EQ(formatted[0], "(s1, {p1})");
  EXPECT_EQ(formatted[1], "(s2, {p2, p3})");
  // The untouched s1 partition still holds the identical interned set.
  for (const Tuple& row : session.database().relation(by).Snapshot()) {
    if (session.FormatTuple(row) == "(s1, {p1})") EXPECT_EQ(row[1], s1_set);
  }
}

// Insert-driven regrowth must agree with a from-scratch evaluation on the
// full model and on query answers under every strategy. The randomized
// batches recombine live join keys, so existing partitions grow, duplicate
// members arrive, and fresh keys appear.
TEST(Incremental, GroupRegrowMatchesScratchRandomized) {
  const std::string rules = "by_supplier(S, <P>) :- supplies(S, P).\n";
  std::string base;
  Rng rng(1234);
  for (int i = 0; i < 20; ++i) {
    base += "supplies(s" + std::to_string(rng.Below(5)) + ", part" +
            std::to_string(rng.Below(9)) + ").\n";
  }
  auto answers = [](Session& session, QueryStrategy strategy,
                    const EvalOptions& eval) {
    std::vector<std::string> all;
    QueryOptions query_options;
    query_options.strategy = strategy;
    query_options.eval = eval;
    auto result = session.Query("by_supplier(s1, PS).", query_options);
    if (!result.ok()) {
      all.push_back("error: " + result.status().ToString());
    } else {
      for (const Tuple& tuple : result->tuples) {
        all.push_back(session.FormatTuple(tuple));
      }
    }
    std::sort(all.begin(), all.end());
    return all;
  };
  EvalOptions options;
  Session incremental;
  ASSERT_TRUE(incremental.Load(base + rules).ok());
  ASSERT_TRUE(incremental.Evaluate(options).ok());
  std::string accumulated;
  size_t regrown = 0;
  for (int round = 0; round < 8; ++round) {
    std::string fact = "supplies(s" + std::to_string(rng.Below(7)) +
                       ", part" + std::to_string(rng.Below(11)) + ").";
    accumulated += fact + "\n";
    ASSERT_TRUE(incremental.AddFacts(fact).ok());
    ASSERT_TRUE(incremental.Evaluate(options).ok());
    regrown += incremental.last_eval_stats().strata_regrown;
    // The pure grouping program never needs a clear-and-recompute.
    EXPECT_EQ(incremental.last_eval_stats().strata_recomputed, 0u);

    // Materialize before any queries: a kMagic query would register its
    // rewrite scratch predicates in the catalog and skew the comparison.
    Session scratch;
    ASSERT_TRUE(scratch.Load(base + rules + accumulated).ok());
    ASSERT_TRUE(scratch.Evaluate(options).ok());
    ASSERT_EQ(Materialize(incremental), Materialize(scratch))
        << "round=" << round;
  }
  EXPECT_EQ(incremental.full_evals(), 1u);
  EXPECT_GE(regrown, 1u);

  Session scratch;
  ASSERT_TRUE(scratch.Load(base + rules + accumulated).ok());
  ASSERT_TRUE(scratch.Evaluate(options).ok());
  for (QueryStrategy strategy : kStrategies) {
    EXPECT_EQ(answers(incremental, strategy, options),
              answers(scratch, strategy, options))
        << "strategy=" << ToString(strategy);
  }
}

// Deletions reaching a grouping stratum widen past both the regrow fast
// path and DRed (a grouped set can shrink, which neither expresses): the
// stratum is cleared and recomputed -- but inside one incremental
// maintenance pass, with the model staying alive throughout.
TEST(Incremental, GroupDeletionRecomputesStratumIncrementally) {
  Session session;
  ASSERT_TRUE(session
                  .Load("supplies(s1, p1).\n"
                        "supplies(s1, p2).\n"
                        "by_supplier(S, <P>) :- supplies(S, P).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.full_evals(), 1u);
  ASSERT_TRUE(session.RemoveFacts("supplies(s1, p2).").ok());
  EXPECT_TRUE(session.evaluated());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.full_evals(), 1u);
  EXPECT_EQ(session.incremental_evals(), 1u);
  EXPECT_GE(session.last_eval_stats().strata_recomputed, 1u);
  EXPECT_EQ(session.last_eval_stats().strata_overdeleted, 0u);
  EXPECT_EQ(session.last_eval_stats().strata_regrown, 0u);
  EXPECT_EQ(session.last_eval_stats().group_regrows, 0u);
  PredId by = session.catalog().Find("by_supplier", 2);
  ASSERT_NE(by, kInvalidPred);
  auto rows = session.database().relation(by).Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(session.FormatTuple(rows[0]), "(s1, {p1})");
}

TEST(Incremental, RecomputeCascadesDownstream) {
  Session session;
  ASSERT_TRUE(session
                  .Load("supplies(s1, p1).\n"
                        "flagged(s9).\n"
                        "by_supplier(S, <P>) :- supplies(S, P).\n"
                        "summary(S) :- by_supplier(S, P), !flagged(S).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.AddFacts("supplies(s2, p2).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  // The grouping head and its downstream consumer are both classified
  // kRecompute (the minimal stratification may fold them into one layer,
  // so count strata >= 1 and check both relations re-derived correctly).
  EXPECT_GE(session.last_eval_stats().strata_recomputed, 1u);
  PredId by = session.catalog().Find("by_supplier", 2);
  ASSERT_NE(by, kInvalidPred);
  EXPECT_EQ(session.database().relation(by).size(), 2u);
  PredId summary = session.catalog().Find("summary", 1);
  ASSERT_NE(summary, kInvalidPred);
  EXPECT_EQ(session.database().relation(summary).size(), 2u);
}

TEST(Incremental, UntouchedStrataAreSkipped) {
  // Two independent branches; the negation puts `safe` in a higher
  // stratum than the tc fixpoint. Touching only `e` must skip it.
  Session session;
  ASSERT_TRUE(session
                  .Load("e(n0, n1).\n"
                        "tc(X, Y) :- e(X, Y).\n"
                        "tc(X, Y) :- tc(X, Z), e(Z, Y).\n"
                        "f(m1). g(m2).\n"
                        "safe(X) :- f(X), !g(X).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.AddFacts("e(n1, n2).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  const EvalStats& stats = session.last_eval_stats();
  EXPECT_GE(stats.strata_skipped, 1u);
  EXPECT_GE(stats.strata_delta, 1u);
  EXPECT_EQ(stats.strata_recomputed, 0u);
}

TEST(Incremental, NewPredicateFactsSkipEveryStratum) {
  Session session;
  ASSERT_TRUE(session
                  .Load("e(n0, n1). tc(X, Y) :- e(X, Y).\n"
                        "tc(X, Y) :- tc(X, Z), e(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  // A fact of a brand-new predicate touches no rule at all.
  ASSERT_TRUE(session.AddFacts("zzz(9).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.incremental_evals(), 1u);
  const EvalStats& stats = session.last_eval_stats();
  EXPECT_EQ(stats.strata_delta, 0u);
  EXPECT_EQ(stats.strata_recomputed, 0u);
  auto result = session.Query("zzz(X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 1u);
}

TEST(Incremental, DuplicateInsertIsCacheHit) {
  Session session;
  ASSERT_TRUE(session.Load("e(n0, n1). tc(X, Y) :- e(X, Y).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  // Re-adding an existing fact appends no rows: the model stays current
  // and the next Evaluate must not run at all.
  ASSERT_TRUE(session.AddFacts("e(n0, n1).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.eval_cache_hits(), 1u);
  EXPECT_EQ(session.incremental_evals(), 0u);
  EXPECT_EQ(session.full_evals(), 1u);
}

TEST(Incremental, IdbFactFallsBackToFullEvaluation) {
  Session session;
  ASSERT_TRUE(session
                  .Load("e(n0, n1). tc(X, Y) :- e(X, Y).\n"
                        "tc(X, Y) :- tc(X, Z), e(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  // tc has rules: the fact must take part in stratification, so AddFacts
  // degrades to Load() and the next Evaluate re-materializes.
  ASSERT_TRUE(session.AddFacts("tc(q1, q2).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.full_evals(), 2u);
  EXPECT_EQ(session.incremental_evals(), 0u);
  auto result = session.Query("tc(q1, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 1u);
}

TEST(Incremental, RuleTextFallsBackToLoad) {
  Session session;
  ASSERT_TRUE(session.Load("e(n0, n1). tc(X, Y) :- e(X, Y).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.AddFacts("rev(Y, X) :- e(X, Y).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.full_evals(), 2u);
  auto result = session.Query("rev(n1, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 1u);
}

TEST(Incremental, RemoveFactsMaintainsModelViaDRed) {
  Session session;
  ASSERT_TRUE(session
                  .Load("e(n0, n1). e(n1, n2).\n"
                        "tc(X, Y) :- e(X, Y).\n"
                        "tc(X, Y) :- tc(X, Z), e(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.RemoveFacts("e(n1, n2).").ok());
  // The model survives the deletion: the next Evaluate() runs DRed
  // maintenance instead of dropping the fixpoint.
  EXPECT_TRUE(session.evaluated());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.full_evals(), 1u);
  EXPECT_EQ(session.incremental_evals(), 1u);
  EXPECT_GE(session.last_eval_stats().strata_overdeleted, 1u);
  auto result = session.Query("tc(n0, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 1u);  // only n1 remains reachable

  // The removal survives re-analysis (a later Load re-analyzes from the
  // AST, which still carries the removed clause) ...
  ASSERT_TRUE(session.Load("f(k).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  result = session.Query("tc(n0, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 1u);

  // ... while re-Loading the fact itself brings it back.
  ASSERT_TRUE(session.Load("e(n1, n2).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  result = session.Query("tc(n0, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 2u);
}

TEST(Incremental, RemoveAbsentFactIsNoOp) {
  Session session;
  ASSERT_TRUE(session.Load("e(n0, n1). tc(X, Y) :- e(X, Y).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.RemoveFacts("e(z8, z9).").ok());
  EXPECT_TRUE(session.evaluated());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.eval_cache_hits(), 1u);
  EXPECT_FALSE(session.RemoveFacts("tc(n0, n1).").ok());  // derived pred
  EXPECT_FALSE(session.RemoveFacts("bad(X) :- e(X, Y).").ok());  // not a fact
}

// Satellite bugfix: a batch that fails validation partway through must not
// have removed its earlier (valid) facts -- RemoveFacts is all-or-nothing.
TEST(Incremental, RemoveFactsBatchIsAtomicOnError) {
  Session session;
  ASSERT_TRUE(session
                  .Load("e(n0, n1). e(n1, n2).\n"
                        "tc(X, Y) :- e(X, Y).\n"
                        "tc(X, Y) :- tc(X, Z), e(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());

  // Valid fact first, derived-predicate error second.
  EXPECT_FALSE(session.RemoveFacts("e(n0, n1). tc(n0, n1).").ok());
  EXPECT_TRUE(session.evaluated());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.eval_cache_hits(), 1u);  // nothing pending: cache hit

  // Valid fact first, non-ground error second.
  EXPECT_FALSE(session.RemoveFacts("e(n0, n1). e(X, n2).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.eval_cache_hits(), 2u);

  auto result = session.Query("tc(n0, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 2u);  // e(n0, n1) was never removed
  QueryOptions magic;
  magic.strategy = QueryStrategy::kMagic;
  result = session.Query("tc(n0, X)", magic);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 2u);
}

// Satellite bugfix: the EDB is a multiset. Each RemoveFacts line cancels
// exactly one occurrence; the model only loses the fact when the last
// occurrence goes, and the cancellation count survives re-analysis.
TEST(Incremental, DuplicateOccurrencesCancelOneAtATime) {
  Session session;
  ASSERT_TRUE(
      session.Load("e(n0, n1). e(n0, n1).\ntc(X, Y) :- e(X, Y).").ok());
  ASSERT_TRUE(session.Evaluate().ok());

  // First removal cancels one of two occurrences: the model is unchanged.
  ASSERT_TRUE(session.RemoveFacts("e(n0, n1).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.eval_cache_hits(), 1u);
  auto result = session.Query("tc(n0, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 1u);

  // Second removal cancels the last occurrence: incremental deletion.
  ASSERT_TRUE(session.RemoveFacts("e(n0, n1).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.incremental_evals(), 1u);
  result = session.Query("tc(n0, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tuples.empty());

  // Re-analysis replays both cancellations against the AST's two clauses.
  ASSERT_TRUE(session.Load("f(q).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  result = session.Query("tc(n0, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tuples.empty());
}

// Non-recursive strata keep per-row derivation counts: deleting one
// supporting fact is a counter decrement, and a row with an alternative
// derivation survives without any rederivation pass.
TEST(Incremental, CountingDecrementHandlesAlternativeDerivations) {
  Session session;
  ASSERT_TRUE(session
                  .Load("a(p). a(q). b(p).\n"
                        "r(X) :- a(X).\n"
                        "r(X) :- b(X).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());

  // r(p) is derived twice (via a and via b): removing a(p) decrements its
  // count to one and the row stays live.
  ASSERT_TRUE(session.RemoveFacts("a(p).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.incremental_evals(), 1u);
  EXPECT_GE(session.last_eval_stats().count_decrements, 1u);
  EXPECT_EQ(session.last_eval_stats().strata_overdeleted, 0u);
  auto result = session.Query("r(X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 2u);  // r(p), r(q)

  // Removing b(p) drops the last derivation: r(p) goes.
  ASSERT_TRUE(session.RemoveFacts("b(p).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_GE(session.last_eval_stats().count_decrements, 1u);
  result = session.Query("r(X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 1u);  // r(q)
}

// Recursive strata run full DRed: the over-delete phase marks everything
// transitively supported by the removed fact, and the rederive phase
// restores the rows that have an alternative proof from surviving facts.
TEST(Incremental, DRedRederivesAlternativePaths) {
  const std::string rules =
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), e(Z, Y).\n";
  Session session;
  ASSERT_TRUE(
      session.Load("e(a, b). e(b, c). e(a, c). e(c, d).\n" + rules).ok());
  ASSERT_TRUE(session.Evaluate().ok());

  // Removing e(b, c) over-deletes tc(a, c) and tc(a, d) too (they were
  // derived through b), but both rederive via the surviving e(a, c).
  ASSERT_TRUE(session.RemoveFacts("e(b, c).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.incremental_evals(), 1u);
  EXPECT_GE(session.last_eval_stats().strata_overdeleted, 1u);
  EXPECT_GE(session.last_eval_stats().rederive_rounds, 1u);

  auto result = session.Query("tc(b, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tuples.empty());
  result = session.Query("tc(a, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 3u);  // b, c, d all still reachable

  Session scratch;
  ASSERT_TRUE(scratch.Load("e(a, b). e(a, c). e(c, d).\n" + rules).ok());
  ASSERT_TRUE(scratch.Evaluate().ok());
  EXPECT_EQ(Materialize(session), Materialize(scratch));
}

// Removes `removed` from a session over `edb` + `rules`, then re-adds it.
// After each step the maintained model must equal a model evaluated from
// scratch, and the removal must have gone through DRed rederivation, whose
// head-seeded plans bind the head variables by unifying the rule head with
// each over-deleted fact.
void CheckDRedRemoveReadd(const std::string& rules, const std::string& edb,
                          const std::string& removed) {
  EvalOptions options;
  Session session;
  ASSERT_TRUE(session.Load(edb + removed + "\n" + rules).ok());
  ASSERT_TRUE(session.Evaluate(options).ok());

  ASSERT_TRUE(session.RemoveFacts(removed).ok());
  ASSERT_TRUE(session.Evaluate(options).ok());
  EXPECT_EQ(session.incremental_evals(), 1u);
  EXPECT_GE(session.last_eval_stats().rederive_rounds, 1u);
  Session without;
  ASSERT_TRUE(without.Load(edb + rules).ok());
  ASSERT_TRUE(without.Evaluate(options).ok());
  EXPECT_EQ(Materialize(session), Materialize(without))
      << "after removing " << removed;

  ASSERT_TRUE(session.AddFacts(removed).ok());
  ASSERT_TRUE(session.Evaluate(options).ok());
  Session with;
  ASSERT_TRUE(with.Load(edb + removed + "\n" + rules).ok());
  ASSERT_TRUE(with.Evaluate(options).ok());
  EXPECT_EQ(Materialize(session), Materialize(with))
      << "after re-adding " << removed;
}

// Removing e(b, a) over-deletes tc(a, a); only the repeated-variable rule
// rederives it, and only diagonal facts unify with its head tc(X, X).
TEST(Incremental, DRedRederivesThroughRepeatedHeadVariable) {
  CheckDRedRemoveReadd(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), e(Z, Y).\n"
      "tc(X, X) :- loopy(X).\n",
      "e(a, b). e(b, c). loopy(a).\n", "e(b, a).");
}

// Removing e(b, c) over-deletes tc(a, hub) and tc(b, hub); the rule with a
// constant head argument rederives tc(a, hub) through spoke(b), and facts
// whose second column is not hub never unify with its head.
TEST(Incremental, DRedRederivesThroughConstantHeadArgument) {
  CheckDRedRemoveReadd(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), e(Z, Y).\n"
      "tc(X, hub) :- e(X, Y), spoke(Y).\n",
      "e(a, b). e(c, hub). spoke(b).\n", "e(b, c).");
}

// Heads with a function symbol and with a set: the over-deleted facts
// reach(f(a), c) and grp({a}, c) rederive through e(a, c) once the head
// unifier binds X = a.
TEST(Incremental, DRedRederivesThroughComplexHeadTerms) {
  CheckDRedRemoveReadd(
      "reach(f(X), Y) :- e(X, Y).\n"
      "reach(f(X), Y) :- reach(f(X), Z), e(Z, Y).\n"
      "grp({X}, Y) :- e(X, Y).\n"
      "grp({X}, Y) :- grp({X}, Z), e(Z, Y).\n",
      "e(a, b). e(a, c). e(c, d).\n", "e(b, c).");
}

// A batch mixing insertions and deletions resolves in one incremental
// round: deletions settle first (DRed), then the insert delta resumes.
TEST(Incremental, MixedInsertDeleteBatchMatchesScratch) {
  const std::string rules =
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), e(Z, Y).\n";
  EvalOptions options;
  Session session;
  ASSERT_TRUE(session.Load("e(a, b). e(b, c). e(c, d).\n" + rules).ok());
  ASSERT_TRUE(session.Evaluate(options).ok());
  ASSERT_TRUE(session.AddFacts("e(d, f). e(b, g).").ok());
  ASSERT_TRUE(session.RemoveFacts("e(a, b).").ok());
  ASSERT_TRUE(session.Evaluate(options).ok());
  EXPECT_EQ(session.full_evals(), 1u);
  EXPECT_EQ(session.incremental_evals(), 1u);

  Session scratch;
  ASSERT_TRUE(
      scratch.Load("e(b, c). e(c, d). e(d, f). e(b, g).\n" + rules).ok());
  ASSERT_TRUE(scratch.Evaluate(options).ok());
  EXPECT_EQ(Materialize(session), Materialize(scratch));
}

// Removing a fact and re-adding it before the next Evaluate() cancels the
// pending deletion: the model is unchanged and never re-materialized.
TEST(Incremental, RemoveThenReaddBeforeEvaluateCancelsOut) {
  Session session;
  ASSERT_TRUE(session
                  .Load("e(n0, n1). e(n1, n2).\n"
                        "tc(X, Y) :- e(X, Y).\n"
                        "tc(X, Y) :- tc(X, Z), e(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.RemoveFacts("e(n1, n2).").ok());
  ASSERT_TRUE(session.AddFacts("e(n1, n2).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_TRUE(session.evaluated());
  EXPECT_EQ(session.full_evals(), 1u);
  auto result = session.Query("tc(n0, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 2u);
}

// Removing a fact, evaluating, and re-adding the same fact must restore
// the original model (the engine falls back to a full pass if the re-add
// revives a tombstoned row below the delta watermark).
TEST(Incremental, RemoveThenReaddAfterEvaluateStaysConsistent) {
  Session session;
  ASSERT_TRUE(session
                  .Load("e(n0, n1). e(n1, n2).\n"
                        "tc(X, Y) :- e(X, Y).\n"
                        "tc(X, Y) :- tc(X, Z), e(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.RemoveFacts("e(n1, n2).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.AddFacts("e(n1, n2).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  auto result = session.Query("tc(n0, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 2u);  // n1 and n2 both reachable again
}

// An IDB fact deleted by one write and re-derived by a later one comes back
// as a fresh row inside the delta window, so the facts above it are
// re-derived too. Here anc(p0, p3) dies with parent(p1, p3) and returns
// through parent(p2, p3); anc(r, p3) must follow it.
constexpr const char* kRevivalProgram =
    "anc(X, Y) :- parent(X, Y).\n"
    "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n"
    "parent(r, p0). parent(p0, p1). parent(p0, p2). parent(p1, p3).\n";

TEST(Incremental, RevivedIdbRowReachesFactsAboveItSession) {
  EvalOptions options;
  Session session;
  ASSERT_TRUE(session.Load(kRevivalProgram).ok());
  ASSERT_TRUE(session.Evaluate(options).ok());
  ASSERT_TRUE(session.RemoveFacts("parent(p1, p3).").ok());
  ASSERT_TRUE(session.Evaluate(options).ok());
  ASSERT_TRUE(session.AddFacts("parent(p2, p3).").ok());
  ASSERT_TRUE(session.Evaluate(options).ok());
  EXPECT_EQ(session.full_evals(), 1u);
  auto result = session.Query("anc(r, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(FormatFacts(session, session.catalog().Find("anc", 2),
                        result->tuples),
            (std::vector<std::string>{"anc(r, p0)", "anc(r, p1)",
                                      "anc(r, p2)", "anc(r, p3)"}));

  Session scratch;
  ASSERT_TRUE(scratch
                  .Load("anc(X, Y) :- parent(X, Y).\n"
                        "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n"
                        "parent(r, p0). parent(p0, p1). parent(p0, p2).\n"
                        "parent(p2, p3).\n")
                  .ok());
  ASSERT_TRUE(scratch.Evaluate(options).ok());
  EXPECT_EQ(Materialize(session), Materialize(scratch));
}

TEST(Incremental, RevivedIdbRowReachesFactsAboveItService) {
  EvalOptions options;
  Service service(options);
  ASSERT_TRUE(service.Load(kRevivalProgram).ok());
  ASSERT_TRUE(service.RemoveFacts("parent(p1, p3).").ok());
  ASSERT_TRUE(service.AddFacts("parent(p2, p3).").ok());
  for (QueryStrategy strategy : kStrategies) {
    QueryOptions query_options;
    query_options.strategy = strategy;
    auto result = service.Query("anc(r, X)", query_options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->tuples.size(), 4u) << "strategy=" << ToString(strategy);
  }
}

// A counted (non-recursive) fact that dies and is re-derived in the same
// batch lands in a fresh row. The stratum above must both decrement the
// solutions that used the old row and count the ones through the new row,
// or a later deletion leaves its consequences alive.
TEST(Incremental, RevivedCountedRowKeepsCountsExact) {
  // The negations only layer the program (nothing they read changes):
  // b sits in layer 1 and h, above !w, in layer 2, so b's deletion reaches
  // h through the shrink ledger.
  const std::string rules =
      "b(X) :- e(X), !z(X).\n"
      "b(X) :- f(X), !z(X).\n"
      "w(X) :- d(X), !z(X).\n"
      "h(X) :- b(X), c(X), !w(X).\n"
      "z(9). d(8).\n";
  EvalOptions options;
  Session session;
  ASSERT_TRUE(session.Load("e(1). c(1).\n" + rules).ok());
  ASSERT_TRUE(session.Evaluate(options).ok());
  ASSERT_TRUE(session.RemoveFacts("e(1).").ok());
  ASSERT_TRUE(session.AddFacts("f(1).").ok());
  ASSERT_TRUE(session.Evaluate(options).ok());
  auto result = session.Query("h(X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 1u);

  ASSERT_TRUE(session.RemoveFacts("f(1).").ok());
  ASSERT_TRUE(session.Evaluate(options).ok());
  EXPECT_EQ(session.full_evals(), 1u);
  EXPECT_GE(session.last_eval_stats().count_decrements, 2u);
  result = session.Query("h(X)");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tuples.empty());

  Session scratch;
  ASSERT_TRUE(scratch.Load("c(1).\n" + rules).ok());
  ASSERT_TRUE(scratch.Evaluate(options).ok());
  EXPECT_EQ(Materialize(session), Materialize(scratch));
}

// The deletion-side tentpole equivalence: alternating randomized insert
// and removal batches over every corpus program; the DRed-maintained
// session must match a scratch session that replays the same script,
// on the full model and on stored-query answers under every strategy.
TEST(Incremental, RandomizedInsertDeleteMatchesScratchAcrossCorpus) {
  std::vector<std::string> programs = CorpusPrograms();
  ASSERT_FALSE(programs.empty());
  uint64_t seed = 400;
  for (const std::string& path : programs) {
    EvalOptions options;

    Session incremental;
    ASSERT_TRUE(incremental.LoadFile(path).ok()) << path;
    ASSERT_TRUE(incremental.Evaluate(options).ok()) << path;

    // Alternate insert and removal batches, re-evaluating after each;
    // record the script so a scratch session can replay it verbatim.
    std::vector<std::pair<bool, std::string>> script;  // {is_removal, text}
    for (int round = 0; round < 6; ++round) {
      const bool removing = (round % 2) == 1;
      std::vector<std::string> lines =
          removing ? GenerateRemovals(incremental, 3, ++seed)
                   : GenerateFacts(incremental, 3, ++seed);
      if (lines.empty()) continue;  // no non-nullary EDB rows to touch
      std::string text;
      for (const std::string& line : lines) text += line + "\n";
      if (removing) {
        ASSERT_TRUE(incremental.RemoveFacts(text).ok()) << path << "\n" << text;
      } else {
        ASSERT_TRUE(incremental.AddFacts(text).ok()) << path << "\n" << text;
      }
      ASSERT_TRUE(incremental.Evaluate(options).ok()) << path;
      script.emplace_back(removing, std::move(text));
    }
    if (script.empty()) continue;

    Session scratch;
    ASSERT_TRUE(scratch.LoadFile(path).ok()) << path;
    for (const auto& [removing, text] : script) {
      if (removing) {
        ASSERT_TRUE(scratch.RemoveFacts(text).ok()) << path << "\n" << text;
      } else {
        ASSERT_TRUE(scratch.AddFacts(text).ok()) << path << "\n" << text;
      }
    }
    ASSERT_TRUE(scratch.Evaluate(options).ok()) << path;

    EXPECT_EQ(Materialize(incremental), Materialize(scratch)) << path;
    for (QueryStrategy strategy : kStrategies) {
      EXPECT_EQ(StoredQueryAnswers(incremental, strategy, options),
                StoredQueryAnswers(scratch, strategy, options))
          << path << " strategy=" << ToString(strategy);
    }
  }
}

// Satellite regression: a Relation reference (with a built index) held
// across an incremental recompute round stays valid -- the clear keeps the
// index nodes linked, bumps the epoch, and repopulates on re-derivation.
TEST(Incremental, HeldRelationReferenceSurvivesRecompute) {
  // The negated body literal makes the grouping rule ineligible for
  // in-place regrowth, so the insertion still takes the clear-and-recompute
  // path this test exercises.
  Session session;
  ASSERT_TRUE(session
                  .Load("supplies(s1, p1).\n"
                        "banned(p9).\n"
                        "by_supplier(S, <P>) :- supplies(S, P), !banned(P).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  PredId by = session.catalog().Find("by_supplier", 2);
  PredId supplies = session.catalog().Find("supplies", 2);
  ASSERT_NE(by, kInvalidPred);
  const Relation& held = session.database().relation(by);
  const Term* s1 = session.database().relation(supplies).row(0)[0];
  // Build a column-0 index on the held reference before the update.
  std::vector<size_t> rows;
  held.Probe(0, s1, 0, held.row_count(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  const uint64_t epoch_before = held.epoch();
  const size_t indexes_before = held.index_count();

  ASSERT_TRUE(session.AddFacts("supplies(s1, p2).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_GE(session.last_eval_stats().strata_recomputed, 1u);

  // Same relation object, new epoch; the retained index answers probes
  // over the recomputed rows.
  EXPECT_EQ(&held, &session.database().relation(by));
  EXPECT_GT(held.epoch(), epoch_before);
  EXPECT_GE(held.index_count(), indexes_before);
  held.Probe(0, s1, 0, held.row_count(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(session.FormatTuple(Tuple(held.row(rows[0]).begin(),
                                      held.row(rows[0]).end())),
            "(s1, {p1, p2})");
}

// ComputeImpact unit coverage: the classification the per-stratum
// decisions are built on.
TEST(Incremental, ImpactClassification) {
  Session session;
  ASSERT_TRUE(session
                  .Load("e(n0, n1).\n"
                        "tc(X, Y) :- e(X, Y).\n"
                        "tc(X, Y) :- tc(X, Z), e(Z, Y).\n"
                        "lonely(X) :- tc(X, X), !e(X, X).\n"
                        "members(X, <Y>) :- tc(X, Y).\n"
                        "viewm(X, S) :- members(X, S).\n"
                        "guarded(X, <Y>) :- tc(X, Y), !e(X, X).\n"
                        "dual(X, <Y>) :- tc(X, Y).\n"
                        "dual(n7, n8).\n"
                        "other(m7).")
                  .ok());
  ASSERT_TRUE(session.Analyze().ok());
  const Catalog& catalog = session.catalog();
  std::vector<bool> changed(catalog.size(), false);
  changed[catalog.Find("e", 2)] = true;
  std::vector<bool> none(catalog.size(), false);
  std::vector<PredImpact> impact =
      ComputeImpact(catalog, session.program(), changed, none);
  EXPECT_EQ(impact[catalog.Find("e", 2)], PredImpact::kDelta);
  EXPECT_EQ(impact[catalog.Find("tc", 2)], PredImpact::kDelta);
  // lonely consumes e through a negated literal: strict edge.
  EXPECT_EQ(impact[catalog.Find("lonely", 1)], PredImpact::kRecompute);
  // members groups over a delta body as its head's sole negation-free
  // rule: regrown in place.
  EXPECT_EQ(impact[catalog.Find("members", 2)], PredImpact::kGroupRegrow);
  // A consumer of a regrown predicate sees retract-and-reinsert
  // replacements, which the monotone delta machinery cannot track.
  EXPECT_EQ(impact[catalog.Find("viewm", 2)], PredImpact::kRecompute);
  // A negated body literal disqualifies the grouping rule from regrowth.
  EXPECT_EQ(impact[catalog.Find("guarded", 2)], PredImpact::kRecompute);
  // A second rule for the head (here a fact) does too: foreign facts make
  // keyed replacement unsound.
  EXPECT_EQ(impact[catalog.Find("dual", 2)], PredImpact::kRecompute);
  EXPECT_EQ(impact[catalog.Find("other", 1)], PredImpact::kClean);

  // Deletion seeding: a shrunk EDB classifies downstream positive
  // consumers as kShrink (DRed-maintainable); grouping and negation over
  // a shrinking body still escalate to recompute.
  std::vector<bool> shrunk(catalog.size(), false);
  shrunk[catalog.Find("e", 2)] = true;
  impact = ComputeImpact(catalog, session.program(), none, shrunk);
  EXPECT_EQ(impact[catalog.Find("e", 2)], PredImpact::kShrink);
  EXPECT_EQ(impact[catalog.Find("tc", 2)], PredImpact::kShrink);
  EXPECT_EQ(impact[catalog.Find("lonely", 1)], PredImpact::kRecompute);
  EXPECT_EQ(impact[catalog.Find("members", 2)], PredImpact::kRecompute);
  EXPECT_EQ(impact[catalog.Find("viewm", 2)], PredImpact::kRecompute);
  EXPECT_EQ(impact[catalog.Find("other", 1)], PredImpact::kClean);

  // Deletions dominate insertions: a predicate both changed and shrunk is
  // classified kShrink, not kDelta.
  impact = ComputeImpact(catalog, session.program(), changed, shrunk);
  EXPECT_EQ(impact[catalog.Find("e", 2)], PredImpact::kShrink);
  EXPECT_EQ(impact[catalog.Find("tc", 2)], PredImpact::kShrink);
}

// A maintenance pass that fails partway leaves derived rows behind. A
// retry from the same watermarks would count each of them again -- r(q)
// would reach derivation count 2 and outlive the removal of its only
// support a(q) -- so any failed pass must drop the model instead.
TEST(Incremental, FailedInsertMaintenanceRebuildsModel) {
  const std::string program =
      "n(1). n(2). n(3). n(4). n(5). n(6). n(7). n(8).\n"
      "a(p). z(zz).\n"
      "r(X) :- a(X).\n"
      "t(X, Y) :- r(X), n(Y), !z(X).\n";
  EvalOptions options;
  Session session;
  ASSERT_TRUE(session.Load(program).ok());
  ASSERT_TRUE(session.Evaluate(options).ok());
  ASSERT_TRUE(session.AddFacts("a(q).").ok());
  EvalOptions limited = options;
  limited.max_facts = session.database().TotalFacts() + 3;
  Status failed = session.Evaluate(limited);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted) << failed;

  const size_t full_before = session.full_evals();
  ASSERT_TRUE(session.Evaluate(options).ok());
  EXPECT_EQ(session.full_evals(), full_before + 1);
  ASSERT_TRUE(session.RemoveFacts("a(q).").ok());
  ASSERT_TRUE(session.Evaluate(options).ok());

  Session scratch;
  ASSERT_TRUE(scratch.Load(program).ok());
  ASSERT_TRUE(scratch.Evaluate(options).ok());
  EXPECT_EQ(Materialize(session), Materialize(scratch));
  for (const char* goal : {"r(X)", "t(X, Y)"}) {
    auto maintained = session.Query(goal);
    auto expected = scratch.Query(goal);
    ASSERT_TRUE(maintained.ok() && expected.ok()) << goal;
    EXPECT_EQ(maintained->tuples.size(), expected->tuples.size()) << goal;
  }
}

// A stratum can hold a grouping head regrown by this batch's insertions
// next to a plain head that loses support to its deletions (g and s both
// sit in layer 1). Both must be maintained in the same pass.
TEST(Incremental, MixedBatchShrinksNextToRegrownGroup) {
  const std::string program =
      "a(x). b(u). b(v). c(w).\n"
      "g(<X>) :- a(X).\n"
      "s(X) :- b(X), !c(X).\n";
  EvalOptions options;
  options.profile = true;
  Session session;
  ASSERT_TRUE(session.Load(program).ok());
  ASSERT_TRUE(session.Evaluate(options).ok());
  ASSERT_TRUE(session.AddFacts("a(y).").ok());
  ASSERT_TRUE(session.RemoveFacts("b(u).").ok());
  ASSERT_TRUE(session.Evaluate(options).ok());
  EXPECT_EQ(session.full_evals(), 1u);
  // The grouping rule keeps the stratum uncounted, so s goes through
  // DRed; the stratum counts as both regrown and over-deleted.
  EXPECT_EQ(session.last_eval_stats().group_regrows, 1u);
  EXPECT_EQ(session.last_eval_stats().strata_regrown, 1u);
  EXPECT_EQ(session.last_eval_stats().strata_overdeleted, 1u);

  Session scratch;
  ASSERT_TRUE(scratch.Load(program).ok());
  ASSERT_TRUE(scratch.AddFacts("a(y).").ok());
  ASSERT_TRUE(scratch.RemoveFacts("b(u).").ok());
  ASSERT_TRUE(scratch.Evaluate(options).ok());
  EXPECT_EQ(Materialize(session), Materialize(scratch));
}

// One program per maintenance mode, each with a write whose maintenance
// trips a resource limit inside that mode's stratum.
struct FaultCase {
  const char* mode;     // StratumMode the write takes its stratum through
  const char* program;
  const char* add;      // the write: facts added, then facts removed
  const char* remove;
  bool limit_rounds;    // trip max_rounds (else max_facts)
  const char* goal;     // answers compared across the failed write
};

constexpr FaultCase kFaultCases[] = {
    {"delta",
     "e(1, 2). e(2, 3).\n"
     "t(X, Y) :- e(X, Y).\n"
     "t(X, Y) :- t(X, Z), e(Z, Y).\n",
     "e(3, 4). e(4, 5).", "", false, "t(1, Y)"},
    {"group-regrow",
     "kv(1, x). kv(2, y).\n"
     "g(K, <V>) :- kv(K, V).\n",
     "kv(3, z). kv(4, w). kv(1, v).", "", false, "g(K, S)"},
    {"shrink",  // counting: non-recursive, counted heads
     "e(a, b). e(b, c). n(a). n(b).\n"
     "src(X) :- e(X, Y).\n"
     "pair(X, Z) :- e(X, Y), n(Z).\n",
     "e(c, d). e(d, a).", "e(a, b).", false, "pair(X, Z)"},
    {"shrink",  // DRed: recursive
     "e(1, 2). e(2, 3).\n"
     "t(X, Y) :- e(X, Y).\n"
     "t(X, Y) :- t(X, Z), e(Z, Y).\n",
     "e(3, 4). e(4, 5). e(5, 6). e(6, 7).", "e(1, 2).", true, "t(X, Y)"},
    {"recomputed",
     "n(1). n(2). n(3). b(1).\n"
     "nb(X) :- n(X), !b(X).\n",
     "n(4). n(5). b(2).", "", false, "nb(X)"},
};

Status ApplyWrite(Session& session, const FaultCase& c) {
  LDL_RETURN_IF_ERROR(session.AddFacts(c.add));
  return session.RemoveFacts(c.remove);
}

std::vector<std::string> ServiceAnswers(Service& service, const char* goal) {
  auto result = service.Query(goal);
  EXPECT_TRUE(result.ok()) << goal;
  std::vector<std::string> rows;
  if (!result.ok()) return rows;
  const TermFactory& factory = service.snapshot()->factory();
  for (const Tuple& tuple : result->tuples) {
    std::string row;
    for (const Term* term : tuple) row += factory.ToString(term) + " ";
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// A failed maintenance pass is one error path for every mode: the write
// reports the error, a Service keeps serving the previous snapshot, and the
// next Session evaluation rebuilds a model equal to a scratch one.
TEST(Incremental, FailedMaintenanceInEveryModeRebuildsModel) {
  for (const FaultCase& c : kFaultCases) {
    const std::string where = std::string(c.mode) + " " + c.goal;
    EvalOptions options;

    // Probe with default limits: the write must go through the mode
    // under test, and its maintenance must need more than the limit.
    Session probe;
    EvalOptions profiled = options;
    profiled.profile = true;
    ASSERT_TRUE(probe.Load(c.program).ok()) << where;
    ASSERT_TRUE(probe.Evaluate(profiled).ok()) << where;
    const size_t load_rounds = probe.last_eval_stats().iterations;
    ASSERT_TRUE(ApplyWrite(probe, c).ok()) << where;
    const size_t staged_facts = probe.database().TotalFacts();
    ASSERT_TRUE(probe.Evaluate(profiled).ok()) << where;
    ASSERT_EQ(probe.incremental_evals(), 1u) << where;
    bool mode_seen = false;
    for (const StratumProfile& stratum : probe.last_eval_profile().strata()) {
      mode_seen = mode_seen || std::string(ToString(stratum.mode)) == c.mode;
    }
    EXPECT_TRUE(mode_seen) << where;
    EvalOptions limited = options;
    if (c.limit_rounds) {
      ASSERT_GT(probe.last_eval_stats().iterations, load_rounds) << where;
      limited.max_rounds = load_rounds + 1;
    } else {
      limited.max_facts = staged_facts;
    }

    // Session: the failed write drops the model.
    Session session;
    ASSERT_TRUE(session.Load(c.program).ok()) << where;
    ASSERT_TRUE(session.Evaluate(limited).ok()) << where;
    ASSERT_TRUE(ApplyWrite(session, c).ok()) << where;
    Status failed = session.Evaluate(limited);
    EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted)
        << where << ": " << failed;
    const size_t full_before = session.full_evals();
    ASSERT_TRUE(session.Evaluate(options).ok()) << where;
    EXPECT_EQ(session.full_evals(), full_before + 1) << where;

    Session scratch;
    ASSERT_TRUE(scratch.Load(c.program).ok()) << where;
    ASSERT_TRUE(ApplyWrite(scratch, c).ok()) << where;
    ASSERT_TRUE(scratch.Evaluate(options).ok()) << where;
    EXPECT_EQ(Materialize(session), Materialize(scratch)) << where;
    std::string why;
    auto is_model = IsModel(session.factory(), session.catalog(),
                            session.program(), session.database(), &why);
    ASSERT_TRUE(is_model.ok()) << where << ": " << is_model.status();
    EXPECT_TRUE(*is_model) << where << ": " << why;

    // Service: the failed write leaves the published snapshot serving.
    // A Service write is either insert-only or delete-only, and a
    // delete-only pass never adds facts or rounds, so the mixed-batch
    // (shrink) rows are covered through the Session alone.
    if (c.remove[0] != '\0') continue;
    Service service(limited);
    ASSERT_TRUE(service.Load(c.program).ok()) << where;
    const uint64_t version = service.snapshot()->version();
    const std::vector<std::string> answers = ServiceAnswers(service, c.goal);
    Status write = service.AddFacts(c.add);
    EXPECT_EQ(write.code(), StatusCode::kResourceExhausted)
        << where << ": " << write;
    EXPECT_EQ(service.snapshot()->version(), version) << where;
    EXPECT_EQ(ServiceAnswers(service, c.goal), answers) << where;
  }
}

}  // namespace
}  // namespace ldl
