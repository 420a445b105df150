// Facade behaviors: incremental loading, re-analysis, error propagation,
// formatting, stored queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "base/str_util.h"
#include "ldl/ldl.h"

namespace ldl {

// Reads what no public accessor shows: the EDB list's slot count,
// tombstones included.
class SessionTestPeer {
 public:
  static size_t EdbSlots(const Session& session) {
    return session.edb_facts_.size();
  }
};

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
// leaves the loaded program where it was. The EDB list keeps a removed
// fact's slot only while DiscardWrites() could need it back, so it stays
// bounded by the net EDB too, also in a session that never evaluates and
// only answers magic queries (slots written since the last Evaluate()
// compact on their own).
TEST(Session, AddRemoveCyclesDoNotGrowTheProgram) {
  for (bool evaluate : {true, false}) {
    SCOPED_TRACE(evaluate ? "Evaluate after each write" : "magic queries only");
    Session session;
    ASSERT_TRUE(session
                    .Load("anc(X, Y) :- parent(X, Y).\n"
                          "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n"
                          "parent(a, b).")
                    .ok());
    if (evaluate) ASSERT_TRUE(session.Evaluate().ok());
    const size_t loaded_rules = session.ast().rules.size();
    QueryOptions magic;
    magic.strategy = QueryStrategy::kMagic;
    for (int i = 0; i < (evaluate ? 10000 : 2000); ++i) {
      const std::string fact = StrCat("parent(b, leaf", i, ").");
      ASSERT_TRUE(session.AddFacts(fact).ok());
      if (evaluate) {
        ASSERT_TRUE(session.Evaluate().ok());
      } else {
        auto grown = session.Query("anc(a, X)", magic);
        ASSERT_TRUE(grown.ok()) << grown.status();
        ASSERT_EQ(grown->tuples.size(), 2u);
      }
      ASSERT_TRUE(session.RemoveFacts(fact).ok());
      if (evaluate) ASSERT_TRUE(session.Evaluate().ok());
    }
    EXPECT_EQ(session.ast().rules.size(), loaded_rules);
    EXPECT_EQ(session.full_evals(), evaluate ? 1u : 0u);
    EXPECT_LE(SessionTestPeer::EdbSlots(session), 1u + 64u);
    auto result = session.Query("anc(a, X)");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->tuples.size(), 1u);
  }
}

// Predicate ids follow registration: a written ground fact registers its
// predicate when it is written, a rule's predicates when the analysis
// lowers it. So a batch's facts take ids before its rules' predicates
// (q's rule precedes p(a) in the text, yet p gets the lower id), and
// programs that list their facts first keep text order. Stratification and
// the REPL's :preds and :strata list predicates in id order.
TEST(Session, PredIdsFollowWriteOrder) {
  auto id = [](const Session& session, const char* name) {
    return session.catalog().Find(std::string_view(name), 1);
  };
  Session rules_first;
  ASSERT_TRUE(rules_first.Load("q(X) :- p(X). r(X) :- q(X). p(a).").ok());
  ASSERT_TRUE(rules_first.Analyze().ok());
  EXPECT_LT(id(rules_first, "p"), id(rules_first, "q"));
  EXPECT_LT(id(rules_first, "q"), id(rules_first, "r"));

  Session facts_first;
  ASSERT_TRUE(facts_first.Load("s(b). p(a). q(X) :- p(X). r(X) :- q(X).").ok());
  ASSERT_TRUE(facts_first.Analyze().ok());
  EXPECT_LT(id(facts_first, "s"), id(facts_first, "p"));
  EXPECT_LT(id(facts_first, "p"), id(facts_first, "q"));
  EXPECT_LT(id(facts_first, "q"), id(facts_first, "r"));
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
  EXPECT_EQ(session.ast().rules.size(), 2u);  // q's rule, r's rule
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

// A removed loaded fact stays removed when its predicate later gains a
// proper rule: the multiset it was erased from is never rebuilt from the
// loaded text.
TEST(Session, RemovedLoadedFactStaysRemovedWhenItsPredicateGainsARule) {
  Session session;
  ASSERT_TRUE(session.Load("b(a). b(z). s(X) :- b(X).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.RemoveFacts("b(z).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.Load("k(k). b(X) :- k(X).").ok());

  Session fresh;
  ASSERT_TRUE(fresh.Load("b(a). s(X) :- b(X). k(k). b(X) :- k(X).").ok());
  auto answers = session.Query("s(X)");
  ASSERT_TRUE(answers.ok()) << answers.status();
  std::vector<std::string> got;
  for (const Tuple& tuple : answers->tuples) {
    got.push_back(session.FormatTuple(tuple));
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::string>{"(a)", "(k)"}));
  EXPECT_EQ(ModelOf(session), ModelOf(fresh));
}

// A written fact whose predicate later gains a proper rule is a program
// fact, not an EDB row: the model keeps it when the rule's support for it
// is removed and maintained away.
TEST(Session, ProgramFactOutlivesItsRuleSupport) {
  Session session;
  ASSERT_TRUE(session.Load("base(a). base(x). s(X) :- base(X).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.AddFacts("t(x).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.Load("t(Z) :- base(Z).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.RemoveFacts("base(x).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.incremental_evals(), 2u);

  Session fresh;
  ASSERT_TRUE(
      fresh.Load("base(a). s(X) :- base(X). t(x). t(Z) :- base(Z).").ok());
  EXPECT_EQ(ModelOf(session), ModelOf(fresh));
}

// DiscardWrites returns to the last successful Evaluate: loaded rules,
// added and removed facts and stored queries are undone, the model the
// writes touched is rebuilt, and the session answers as before them.
TEST(Session, DiscardWritesReturnsToTheLastEvaluate) {
  Session session;
  ASSERT_TRUE(session.Load("e(1, 2). e(2, 3). e(2, 3).\n"
                           "tc(X, Y) :- e(X, Y).\n"
                           "tc(X, Y) :- tc(X, Z), e(Z, Y).\n")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  const auto before = ModelOf(session);
  const size_t rules = session.ast().rules.size();

  ASSERT_TRUE(session.AddFacts("e(3, 4). e(1, 2).").ok());
  ASSERT_TRUE(session.RemoveFacts("e(2, 3). e(1, 2). e(1, 2).").ok());
  ASSERT_TRUE(session.Load("u(X) :- tc(X, Y). ? u(X).").ok());
  session.DiscardWrites();
  EXPECT_EQ(session.ast().rules.size(), rules);
  EXPECT_TRUE(session.stored_queries().empty());
  EXPECT_EQ(ModelOf(session), before);

  // The model a maintained write appended to is dropped, not patched.
  ASSERT_TRUE(session.AddFacts("e(3, 4).").ok());
  ASSERT_TRUE(session.RemoveFacts("e(1, 2).").ok());
  const size_t full = session.full_evals();
  session.DiscardWrites();
  EXPECT_EQ(ModelOf(session), before);
  EXPECT_EQ(session.full_evals(), full + 1);

  // The multiset is back too: each removal cancels one restored
  // occurrence.
  ASSERT_TRUE(session.RemoveFacts("e(2, 3).").ok());
  Session fresh;
  ASSERT_TRUE(fresh.Load("e(1, 2). e(2, 3).\n"
                         "tc(X, Y) :- e(X, Y).\n"
                         "tc(X, Y) :- tc(X, Z), e(Z, Y).\n")
                  .ok());
  EXPECT_EQ(ModelOf(session), ModelOf(fresh));
}

}  // namespace
}  // namespace ldl
