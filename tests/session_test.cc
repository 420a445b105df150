// Facade behaviors: incremental loading, re-analysis, error propagation,
// formatting, stored queries.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "base/str_util.h"
#include "ldl/ldl.h"

namespace ldl {
namespace {

// The evaluated model as text, predicate name -> sorted facts (comparable
// across sessions, whose interned pointers differ).
std::map<std::string, std::vector<std::string>> ModelOf(Session& session) {
  EXPECT_TRUE(session.Evaluate().ok());
  std::map<std::string, std::vector<std::string>> model;
  for (PredId pred = 0; pred < session.catalog().size(); ++pred) {
    std::vector<std::string> facts = FormatFacts(
        session, pred, session.database().relation(pred).Snapshot());
    if (!facts.empty()) model[session.catalog().DebugName(pred)] = facts;
  }
  return model;
}

TEST(Session, IncrementalLoadInvalidatesAnalysis) {
  Session session;
  ASSERT_TRUE(session.Load("p(a).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.Load("q(X) :- p(X).").ok());
  auto result = session.Query("q(X)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 1u);
}

TEST(Session, ParseErrorsSurface) {
  Session session;
  Status status = session.Load("p(a");
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

TEST(Session, AnalysisErrorsSurfaceOnQuery) {
  Session session;
  ASSERT_TRUE(session.Load("p(1). p(<X>) :- p(X).").ok());
  auto result = session.Query("p(X)");
  EXPECT_EQ(result.status().code(), StatusCode::kNotAdmissible);
}

TEST(Session, QueryValidation) {
  Session session;
  ASSERT_TRUE(session.Load("p(a).").ok());
  EXPECT_FALSE(session.Query("!p(X)").ok());
  EXPECT_FALSE(session.Query("X = 1").ok());
  EXPECT_FALSE(session.Query("p(").ok());
}

TEST(Session, QueryOnUnknownPredicate) {
  Session session;
  ASSERT_TRUE(session.Load("p(a).").ok());
  // Unknown predicates simply have empty relations.
  auto result = session.Query("zzz(X)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->tuples.empty());
}

TEST(Session, StoredQueriesAreKept) {
  Session session;
  ASSERT_TRUE(session.Load("p(a).\n? p(X).").ok());
  ASSERT_EQ(session.stored_queries().size(), 1u);
}

TEST(Session, FormatFactRendersSets) {
  Session session;
  ASSERT_TRUE(session.Load("p(a, {1, 2}).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  PredId p = session.catalog().Find("p", 2);
  auto rows = session.database().relation(p).Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(session.FormatFact(p, rows[0]), "p(a, {1, 2})");
  EXPECT_EQ(session.FormatTuple(rows[0]), "(a, {1, 2})");
}

TEST(Session, EvaluateIsRepeatable) {
  Session session;
  ASSERT_TRUE(session.Load("e(1, 2). e(2, 3).\n"
                           "t(X, Y) :- e(X, Y).\n"
                           "t(X, Y) :- t(X, Z), e(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  size_t first = session.database().TotalFacts();
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.database().TotalFacts(), first);
}

TEST(Session, RepeatEvaluateIsACacheHit) {
  Session session;
  ASSERT_TRUE(session.Load("e(1, 2). t(X, Y) :- e(X, Y).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.full_evals(), 1u);
  EXPECT_EQ(session.eval_cache_hits(), 2u);

  // A different evaluation configuration is not a hit...
  EvalOptions naive;
  naive.mode = EvalOptions::Mode::kNaive;
  ASSERT_TRUE(session.Evaluate(naive).ok());
  EXPECT_EQ(session.full_evals(), 2u);
  // ... but repeating it is.
  ASSERT_TRUE(session.Evaluate(naive).ok());
  EXPECT_EQ(session.eval_cache_hits(), 3u);

  // InvalidateModel forces the next Evaluate to rematerialize.
  session.InvalidateModel();
  EXPECT_FALSE(session.evaluated());
  ASSERT_TRUE(session.Evaluate(naive).ok());
  EXPECT_EQ(session.full_evals(), 3u);
}

TEST(Session, MagicFallsBackForExtensionalGoals) {
  Session session;
  ASSERT_TRUE(session.Load("p(a, b).").ok());
  QueryOptions options;
  options.strategy = ldl::QueryStrategy::kMagic;
  auto result = session.Query("p(a, X)", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 1u);
}

TEST(Session, MagicQueryDoesNotPolluteSessionDatabase) {
  Session session;
  ASSERT_TRUE(session.Load("p(a, b). p(b, c).\n"
                           "anc(X, Y) :- p(X, Y).\n"
                           "anc(X, Y) :- p(X, Z), anc(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  size_t facts = session.database().TotalFacts();
  QueryOptions options;
  options.strategy = ldl::QueryStrategy::kMagic;
  ASSERT_TRUE(session.Query("anc(a, X)", options).ok());
  EXPECT_EQ(session.database().TotalFacts(), facts);
}

TEST(Session, DuplicateFactsCollapse) {
  Session session;
  ASSERT_TRUE(session.Load("p(a). p(a). p({1, 1}). p({1}).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  PredId p = session.catalog().Find("p", 1);
  EXPECT_EQ(session.database().relation(p).size(), 2u);  // p(a), p({1})
}

TEST(Session, SconsFactsEvaluate) {
  Session session;
  ASSERT_TRUE(session.Load("p(scons(1, scons(2, {}))).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  auto result = session.Query("p({1, 2})");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 1u);
}

TEST(Session, ConstIntrospectionAccessors) {
  Session session;
  ASSERT_TRUE(session.Load("p(a). q(X) :- p(X).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  const Session& view = session;
  PredId p = view.catalog().Find("p", 1);
  ASSERT_NE(p, kInvalidPred);
  EXPECT_EQ(view.database().relation(p).size(), 1u);
  EXPECT_FALSE(view.program().rules.empty());
  EXPECT_GT(view.interner().size(), 0u);
  EXPECT_EQ(view.factory().interner(), &view.interner());
  EXPECT_EQ(view.engine().catalog(), &view.catalog());
}

TEST(Session, QueryStrategyToStringParseRoundTrip) {
  for (QueryStrategy strategy :
       {QueryStrategy::kModel, QueryStrategy::kMagic,
        QueryStrategy::kMagicSupplementary, QueryStrategy::kTopDown}) {
    auto parsed = ParseQueryStrategy(ToString(strategy));
    ASSERT_TRUE(parsed.ok()) << ToString(strategy);
    EXPECT_EQ(*parsed, strategy);
  }
  // Aliases accepted by Parse but never printed by ToString.
  EXPECT_EQ(*ParseQueryStrategy("magic-supplementary"),
            QueryStrategy::kMagicSupplementary);
  EXPECT_EQ(*ParseQueryStrategy("sup"), QueryStrategy::kMagicSupplementary);
  EXPECT_EQ(*ParseQueryStrategy("top-down"), QueryStrategy::kTopDown);
  // Unknown names fail with a message enumerating the canonical names.
  auto bad = ParseQueryStrategy("bottom-up");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find(QueryStrategyNames()),
            std::string::npos);
}

TEST(Session, PreparedQueryReuseAcrossStrategies) {
  Session session;
  ASSERT_TRUE(session.Load(R"(
    edge(1, 2). edge(2, 3). edge(3, 4).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )").ok());
  auto prepared = session.Prepare("path(1, X)");
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->valid());
  EXPECT_EQ(prepared->text(), "path(1, X)");
  for (QueryStrategy strategy :
       {QueryStrategy::kModel, QueryStrategy::kMagic,
        QueryStrategy::kMagicSupplementary, QueryStrategy::kTopDown}) {
    QueryOptions options;
    options.strategy = strategy;
    auto result = session.Query(*prepared, options);
    ASSERT_TRUE(result.ok()) << ToString(strategy);
    EXPECT_EQ(result->tuples.size(), 3u) << ToString(strategy);
  }
}

TEST(Session, PreparedQuerySurvivesAddFacts) {
  Session session;
  ASSERT_TRUE(session.Load("edge(1, 2). path(X, Y) :- edge(X, Y).").ok());
  auto prepared = session.Prepare("path(X, Y)");
  ASSERT_TRUE(prepared.ok());
  auto before = session.Query(*prepared);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->tuples.size(), 1u);
  // Answers reflect the model at query time, not preparation time.
  ASSERT_TRUE(session.AddFacts("edge(2, 3).").ok());
  auto after = session.Query(*prepared);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->tuples.size(), 2u);
}

TEST(Session, DefaultPreparedQueryRejected) {
  Session session;
  ASSERT_TRUE(session.Load("p(a).").ok());
  PreparedQuery unprepared;
  EXPECT_FALSE(unprepared.valid());
  EXPECT_FALSE(session.Query(unprepared).ok());
}

TEST(Session, LastEvalStatsPopulated) {
  Session session;
  ASSERT_TRUE(session.Load("e(1, 2).\nt(X, Y) :- e(X, Y).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_GT(session.last_eval_stats().rule_firings, 0u);
  EXPECT_GT(session.last_eval_stats().facts_derived, 0u);
}

// Facts written through AddFacts live in the EDB multiset, not the AST, and
// removing them leaves no cancellation behind: a long run of fresh writes
// leaves the loaded program where it was.
TEST(Session, AddRemoveCyclesDoNotGrowTheProgram) {
  Session session;
  ASSERT_TRUE(session
                  .Load("anc(X, Y) :- parent(X, Y).\n"
                        "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n"
                        "parent(a, b).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  const size_t loaded_rules = session.ast().rules.size();
  for (int i = 0; i < 10000; ++i) {
    const std::string fact = StrCat("parent(b, leaf", i, ").");
    ASSERT_TRUE(session.AddFacts(fact).ok());
    ASSERT_TRUE(session.Evaluate().ok());
    ASSERT_TRUE(session.RemoveFacts(fact).ok());
    ASSERT_TRUE(session.Evaluate().ok());
  }
  EXPECT_EQ(session.ast().rules.size(), loaded_rules);
  EXPECT_EQ(session.full_evals(), 1u);
  auto result = session.Query("anc(a, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 1u);
}

// A Load after incremental writes re-analyzes; the facts AddFacts committed
// must survive it and the model must equal a fresh session's over the net
// EDB.
TEST(Session, LoadAfterWritesKeepsAddedFacts) {
  Session session;
  ASSERT_TRUE(session.Load("p(a). q(X) :- p(X).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.AddFacts("p(b). p(c). p(c).").ok());
  ASSERT_TRUE(session.RemoveFacts("p(a). p(c).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.Load("r(X) :- q(X).").ok());

  Session fresh;
  ASSERT_TRUE(fresh.Load("p(b). p(c). q(X) :- p(X). r(X) :- q(X).").ok());
  EXPECT_EQ(ModelOf(session), ModelOf(fresh));
  EXPECT_EQ(session.ast().rules.size(), 3u);  // p(a), q's rule, r's rule
}

// A fact added to an extensional predicate that later loaded text gives a
// proper rule becomes a program fact, as if its clause had been loaded:
// every strategy sees it, and it can no longer be removed as EDB.
TEST(Session, AddedFactOfPredicateThatGainsARule) {
  Session session;
  ASSERT_TRUE(session.Load("base(a). s(X) :- base(X).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.AddFacts("t(x). t(y).").ok());
  ASSERT_TRUE(session.RemoveFacts("t(y).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.Load("t(Z) :- base(Z).").ok());

  Session fresh;
  ASSERT_TRUE(
      fresh.Load("base(a). s(X) :- base(X). t(x). t(Z) :- base(Z).").ok());
  EXPECT_EQ(ModelOf(session), ModelOf(fresh));
  for (QueryStrategy strategy :
       {QueryStrategy::kModel, QueryStrategy::kMagic,
        QueryStrategy::kMagicSupplementary, QueryStrategy::kTopDown}) {
    QueryOptions options;
    options.strategy = strategy;
    auto answers = session.Query("t(X)", options);
    ASSERT_TRUE(answers.ok()) << ToString(strategy);
    EXPECT_EQ(answers->tuples.size(), 2u) << ToString(strategy);
  }
  EXPECT_FALSE(session.RemoveFacts("t(x).").ok());
  EXPECT_FALSE(fresh.RemoveFacts("t(x).").ok());
  // Still there after another re-analysis.
  ASSERT_TRUE(session.Load("u(X) :- t(X).").ok());
  ASSERT_TRUE(fresh.Load("u(X) :- t(X).").ok());
  EXPECT_EQ(ModelOf(session), ModelOf(fresh));
}

// Removing a loaded fact records a cancellation that a later Load replays
// against the re-read text; removing an added fact erases it outright,
// even when the same fact was also loaded.
TEST(Session, LoadAfterRemovingLoadedFactsKeepsThemRemoved) {
  const std::string rules =
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), e(Z, Y).\n";
  Session session;
  ASSERT_TRUE(session.Load("e(1, 2). e(2, 3). e(2, 3).\n" + rules).ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.RemoveFacts("e(1, 2). e(2, 3).").ok());
  ASSERT_TRUE(session.AddFacts("e(3, 4). e(1, 2).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.RemoveFacts("e(1, 2).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.Load("e(5, 6).").ok());

  Session fresh;
  ASSERT_TRUE(fresh.Load("e(2, 3). e(3, 4). e(5, 6).\n" + rules).ok());
  EXPECT_EQ(ModelOf(session), ModelOf(fresh));
  // One e(2, 3) occurrence is left on both sides.
  ASSERT_TRUE(session.RemoveFacts("e(2, 3).").ok());
  ASSERT_TRUE(fresh.RemoveFacts("e(2, 3).").ok());
  EXPECT_EQ(ModelOf(session), ModelOf(fresh));
}

}  // namespace
}  // namespace ldl
