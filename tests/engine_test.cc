#include <gtest/gtest.h>

#include <algorithm>

#include "base/str_util.h"
#include "ldl/ldl.h"
#include "workload/workload.h"

namespace ldl {
namespace {

// Evaluates `source` and returns the sorted fact strings for `pred/arity`.
StatusOr<std::vector<std::string>> Facts(Session& session, const char* pred,
                                         uint32_t arity) {
  LDL_RETURN_IF_ERROR(session.Evaluate());
  PredId id = session.catalog().Find(pred, arity);
  if (id == kInvalidPred) return NotFoundError(pred);
  std::vector<Tuple> tuples = session.database().relation(id).Snapshot();
  return FormatFacts(session, id, tuples);
}

TEST(Engine, TransitiveClosureChain) {
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(5)).ok());
  ASSERT_TRUE(session
                  .Load("anc(X, Y) :- parent(X, Y).\n"
                        "anc(X, Y) :- parent(X, Z), anc(Z, Y).")
                  .ok());
  auto facts = Facts(session, "anc", 2);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(facts->size(), 15u);  // chain of 6 nodes: 5+4+3+2+1
}

TEST(Engine, NaiveAndSemiNaiveAgree) {
  for (auto mode : {EvalOptions::Mode::kNaive, EvalOptions::Mode::kSemiNaive}) {
    Session session;
    ASSERT_TRUE(session.Load(ParentRandomTree(40, 7)).ok());
    ASSERT_TRUE(session
                    .Load("anc(X, Y) :- parent(X, Y).\n"
                          "anc(X, Y) :- anc(X, Z), parent(Z, Y).")
                    .ok());
    EvalOptions options;
    options.mode = mode;
    ASSERT_TRUE(session.Evaluate(options).ok());
    PredId anc = session.catalog().Find("anc", 2);
    static size_t naive_count = 0;
    if (mode == EvalOptions::Mode::kNaive) {
      naive_count = session.database().relation(anc).size();
    } else {
      EXPECT_EQ(session.database().relation(anc).size(), naive_count);
    }
  }
}

TEST(Engine, TwoGroupingRulesInOneStratum) {
  // Both grouping rules fire once over the stratum's input model.
  std::string program =
      "p(1, 2). p(1, 7). p(2, 3). p(2, 4). p(3, 5). p(3, 6).\n"
      "part(P, <S>) :- p(P, S).\n"
      "rev(S, <P>) :- p(P, S).\n";
  Session session;
  ASSERT_TRUE(session.Load(program).ok());
  ASSERT_TRUE(session.Evaluate().ok());
  PredId part = session.catalog().Find("part", 2);
  EXPECT_EQ(
      FormatFacts(session, part, session.database().relation(part).Snapshot()),
      (std::vector<std::string>{"part(1, {2, 7})", "part(2, {3, 4})",
                                "part(3, {5, 6})"}));
  PredId rev = session.catalog().Find("rev", 2);
  EXPECT_EQ(session.database().relation(rev).size(), 6u);
}

TEST(Engine, SemiNaiveDoesLessMatching) {
  auto run = [&](EvalOptions::Mode mode) {
    Session session;
    EXPECT_TRUE(session.Load(ParentChain(60)).ok());
    EXPECT_TRUE(session
                    .Load("anc(X, Y) :- parent(X, Y).\n"
                          "anc(X, Y) :- anc(X, Z), parent(Z, Y).")
                    .ok());
    EvalOptions options;
    options.mode = mode;
    EXPECT_TRUE(session.Evaluate(options).ok());
    return session.last_eval_stats();
  };
  EvalStats naive = run(EvalOptions::Mode::kNaive);
  EvalStats semi = run(EvalOptions::Mode::kSemiNaive);
  EXPECT_EQ(naive.facts_derived, semi.facts_derived);
  EXPECT_LT(semi.solutions, naive.solutions)
      << "semi-naive must not re-derive old facts each round";
}

TEST(Engine, PlanCacheHitsAcrossFixpointRounds) {
  // A fixpoint looks each (rule, order) plan up once, when it resolves its
  // orders, and every round reuses it: one evaluation leaves exactly one
  // plan per (rule, order) in the shared cache, and evaluating the same
  // program again hits on every lookup.
  PlanCache plans;
  Session session(&plans);
  ASSERT_TRUE(session.Load(ParentChain(30)).ok());
  ASSERT_TRUE(session
                  .Load("anc(X, Y) :- parent(X, Y).\n"
                        "anc(X, Y) :- anc(X, Z), parent(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  const EvalStats first = session.last_eval_stats();
  // The base rule's order, and the recursive rule's, which already fronts
  // its one delta occurrence (anc): its delta variant hits.
  EXPECT_EQ(plans.size(), 2u);
  EXPECT_EQ(first.plan_cache_hits, 1u);
  // 30 rounds of firings, 3 lookups.
  EXPECT_GT(first.rule_firings, 30u);
  EXPECT_GT(first.probe_hits, 0u);

  session.InvalidateModel();
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(plans.size(), 2u);
  EXPECT_EQ(session.last_eval_stats().plan_cache_hits,
            first.plan_cache_hits + plans.size());
}

TEST(Engine, CompositeProbesReduceMatching) {
  // The join on (X, Y) is selective only when both columns probe together:
  // each X has 10 wide(X, Y, _) rows but only one matches a given Y.
  std::string facts;
  for (int x = 0; x < 10; ++x) {
    facts += StrCat("narrow(", x, ", ", x, ").\n");
    for (int y = 0; y < 10; ++y) {
      facts += StrCat("wide(", x, ", ", y, ", ", 10 * x + y, ").\n");
    }
  }
  Session session;
  ASSERT_TRUE(session.Load(facts).ok());
  ASSERT_TRUE(session.Load("out(X, Z) :- narrow(X, Y), wide(X, Y, Z).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  const EvalStats& planned = session.last_eval_stats();
  // The plan scans the 10 narrow rows, then probes the composite (X, Y)
  // index once per narrow row and matches exactly its one hit.
  EXPECT_EQ(planned.tuples_matched, 20u);
  EXPECT_EQ(planned.solutions, 10u);
  EXPECT_EQ(planned.facts_derived, 10u);
  // A single-column probe on X filters the other 10 wide(X, _, _) rows per
  // narrow row: the since-removed substitution interpreter, which probed
  // that way, matched this many tuples on this program.
  constexpr size_t kSingleColumnProbeTuplesMatched = 110;
  EXPECT_LT(planned.tuples_matched, kSingleColumnProbeTuplesMatched / 2);
}

TEST(Engine, DoubleRecursionWorks) {
  // a(X,Y) :- a(X,Z), a(Z,Y): two recursive occurrences in one rule.
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(8, "e")).ok());
  ASSERT_TRUE(session
                  .Load("a(X, Y) :- e(X, Y).\n"
                        "a(X, Y) :- a(X, Z), a(Z, Y).")
                  .ok());
  auto facts = Facts(session, "a", 2);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(facts->size(), 36u);  // 9 nodes: C(9,2)
}

TEST(Engine, GroupingCollectsPerKey) {
  Session session;
  ASSERT_TRUE(session
                  .Load("p(1, 2). p(1, 7). p(2, 3). p(2, 4). p(3, 5). p(3, 6).\n"
                        "part(P, <S>) :- p(P, S).")
                  .ok());
  auto facts = Facts(session, "part", 2);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(*facts, (std::vector<std::string>{
                        "part(1, {2, 7})", "part(2, {3, 4})", "part(3, {5, 6})"}));
}

TEST(Engine, GroupingNeverProducesEmptySets) {
  Session session;
  ASSERT_TRUE(session
                  .Load("q(1).\n"
                        "g(X, <Y>) :- q(X), p(X, Y).")  // p is empty
                  .ok());
  auto facts = Facts(session, "g", 2);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_TRUE(facts->empty());
}

TEST(Engine, GroupingKeyedByZVariables) {
  // The key is the set of variables in non-grouped head args; f(A) counts.
  Session session;
  ASSERT_TRUE(session
                  .Load("r(1, a). r(1, b). r(2, c).\n"
                        "g(f(K), <V>) :- r(K, V).")
                  .ok());
  auto facts = Facts(session, "g", 2);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(*facts, (std::vector<std::string>{"g(f(1), {a, b})", "g(f(2), {c})"}));
}

TEST(Engine, GroupedVariableAlsoInKeyGivesSingletons) {
  // §2.2: when X appears both plainly and as <X>, groups are singletons.
  Session session;
  ASSERT_TRUE(session.Load("q(1). q(2).\ns(X, <X>) :- q(X).").ok());
  auto facts = Facts(session, "s", 2);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(*facts, (std::vector<std::string>{"s(1, {1})", "s(2, {2})"}));
}

TEST(Engine, StratifiedNegation) {
  Session session;
  ASSERT_TRUE(session
                  .Load("node(a). node(b). node(c).\n"
                        "edge(a, b).\n"
                        "reach(a).\n"
                        "reach(Y) :- reach(X), edge(X, Y).\n"
                        "unreach(X) :- node(X), !reach(X).")
                  .ok());
  auto facts = Facts(session, "unreach", 1);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(*facts, (std::vector<std::string>{"unreach(c)"}));
}

TEST(Engine, ExistentialNegation) {
  // leaf(X) :- node(X), !edge(X, Z): Z existential under the negation.
  Session session;
  ASSERT_TRUE(session
                  .Load("node(a). node(b). node(c).\n"
                        "edge(a, b). edge(b, c).\n"
                        "leaf(X) :- node(X), !edge(X, Z).")
                  .ok());
  auto facts = Facts(session, "leaf", 1);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(*facts, (std::vector<std::string>{"leaf(c)"}));
}

TEST(Engine, SetEnumerationHeads) {
  Session session;
  ASSERT_TRUE(session
                  .Load("item(1). item(2).\n"
                        "pair({X, Y}) :- item(X), item(Y), X < Y.")
                  .ok());
  auto facts = Facts(session, "pair", 1);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(*facts, (std::vector<std::string>{"pair({1, 2})"}));
}

TEST(Engine, SetPatternsInBodies) {
  Session session;
  ASSERT_TRUE(session
                  .Load("s({1, 2}). s({3}). s({}).\n"
                        "both(X, Y) :- s({X, Y}), X /= Y.")
                  .ok());
  auto facts = Facts(session, "both", 2);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(*facts, (std::vector<std::string>{"both(1, 2)", "both(2, 1)"}));
}

TEST(Engine, SconsInHeadBuildsSets) {
  Session session;
  ASSERT_TRUE(session
                  .Load("base({2}).\n"
                        "bigger(scons(1, S)) :- base(S).")
                  .ok());
  auto facts = Facts(session, "bigger", 1);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(*facts, (std::vector<std::string>{"bigger({1, 2})"}));
}

TEST(Engine, SconsOnNonSetProducesNoFact) {
  Session session;
  ASSERT_TRUE(session
                  .Load("base(a).\n"
                        "bad(scons(1, X)) :- base(X).")
                  .ok());
  auto facts = Facts(session, "bad", 1);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_TRUE(facts->empty());
}

// Positive literals with complex arguments (functors, set constructors,
// scons) in the join plan: a column whose variables are all bound is a key
// column instantiated under the row's bindings, and an unbound complex
// column is matched by unification. Answers are hand-computed and must hold
// under every query strategy.
struct ComplexLiteralCase {
  const char* what;
  const char* program;
  const char* goal;
  std::vector<std::string> answers;  // sorted tuples
};

const ComplexLiteralCase kComplexLiteralCases[] = {
    {"unbound functor column",
     "r(a, f(1)). r(b, g(2)). r(c, f(3)).\n"
     "q(X, Y) :- r(X, f(Y)).\n",
     "q(X, Y)", {"(a, 1)", "(c, 3)"}},
    {"unbound functor column, bound goal",
     "r(a, f(1)). r(b, g(2)). r(c, f(3)).\n"
     "q(X, Y) :- r(X, f(Y)).\n",
     "q(c, Y)", {"(c, 3)"}},
    // {X} matches singletons only, so {a, b} is no answer.
    {"set-constructor column, unbound",
     "cost({a}, 1). cost({b}, 2). cost({a, b}, 3).\n"
     "single(X, C) :- cost({X}, C).\n",
     "single(X, C)", {"(a, 1)", "(b, 2)"}},
    {"set-constructor column, bound by the goal",
     "cost({a}, 1). cost({b}, 2). cost({a, b}, 3).\n"
     "single(X, C) :- cost({X}, C).\n",
     "single(a, C)", {"(a, 1)"}},
    // scons(1, 7) is not an element of U: the d(7) row has no answer.
    {"bound scons column outside U",
     "d(7). d({2}). v({1}, p). v({1, 2}, q).\n"
     "w(Y, Z) :- d(Y), v(scons(1, Y), Z).\n",
     "w(Y, Z)", {"({2}, q)"}},
    {"bound scons column outside U, bound goal",
     "d(7). d({2}). v({1}, p). v({1, 2}, q).\n"
     "w(Y, Z) :- d(Y), v(scons(1, Y), Z).\n",
     "w(7, Z)", {}},
    {"complex column next to a repeated variable",
     "t(a, a, f(1)). t(a, b, f(2)). t(c, c, g(3)). t(d, d, f(4)).\n"
     "q(X, Y) :- t(X, X, f(Y)).\n",
     "q(X, Y)", {"(a, 1)", "(d, 4)"}},
    {"complex column next to a repeated variable, bound goal",
     "t(a, a, f(1)). t(a, b, f(2)). t(c, c, g(3)). t(d, d, f(4)).\n"
     "q(X, Y) :- t(X, X, f(Y)).\n",
     "q(d, Y)", {"(d, 4)"}},
    {"all-complex full key",
     "k(a, 1). k(b, 3).\n"
     "pair(f(a), {1}). pair(f(b), {2}). pair(f(c), {3}). pair(f(d), {4}).\n"
     "hit(X, Y) :- k(X, Y), pair(f(X), {Y}).\n",
     "hit(X, Y)", {"(a, 1)"}},
};

TEST(Engine, ComplexPositiveLiterals) {
  for (const ComplexLiteralCase& row : kComplexLiteralCases) {
    SCOPED_TRACE(row.what);
    Session session;
    ASSERT_TRUE(session.Load(row.program).ok());
    for (QueryStrategy strategy :
         {QueryStrategy::kModel, QueryStrategy::kMagic,
          QueryStrategy::kMagicSupplementary, QueryStrategy::kTopDown}) {
      QueryOptions options;
      options.strategy = strategy;
      auto result = session.Query(row.goal, options);
      ASSERT_TRUE(result.ok()) << ToString(strategy) << ": " << result.status();
      std::vector<std::string> answers;
      for (const Tuple& t : result->tuples) answers.push_back(session.FormatTuple(t));
      std::sort(answers.begin(), answers.end());
      EXPECT_EQ(answers, row.answers) << ToString(strategy);
    }
  }
}

// A set-constructor column bound by the magic seed is a key column: the
// rewritten rule probes cost on the instantiated {a}.
TEST(Engine, BoundSetConstructorColumnProbes) {
  Session session;
  ASSERT_TRUE(session
                  .Load("cost({a}, 1). cost({b}, 2). cost({a, b}, 3).\n"
                        "single(X, C) :- cost({X}, C).\n")
                  .ok());
  QueryOptions options;
  options.strategy = QueryStrategy::kMagic;
  auto result = session.Query("single(a, C)", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 1u);
  EXPECT_GE(result->stats.index_probes, 1u);
  EXPECT_GE(result->stats.probe_hits, 1u);
}

// A key column that instantiates outside U skips its row without a probe:
// of d's two rows only Y = {2} probes v.
TEST(Engine, KeyOutsideUniverseCountsNoProbe) {
  Session session;
  ASSERT_TRUE(session
                  .Load("d(7). d({2}). v({1}, p). v({1, 2}, q).\n"
                        "w(Y, Z) :- d(Y), v(scons(1, Y), Z).\n")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.last_eval_stats().index_probes, 1u);
  EXPECT_EQ(session.last_eval_stats().probe_hits, 1u);
}

// Complex key columns covering every column name at most one fact, which
// the relation's dedup table finds: no composite index is built.
TEST(Engine, AllComplexFullKeyUsesTheDedupTable) {
  Session session;
  ASSERT_TRUE(session
                  .Load("k(a, 1). k(b, 3).\n"
                        "pair(f(a), {1}). pair(f(b), {2}). pair(f(c), {3}). "
                        "pair(f(d), {4}).\n"
                        "hit(X, Y) :- k(X, Y), pair(f(X), {Y}).\n")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  const Relation& pair = session.database().relation(session.catalog().Find("pair", 2));
  EXPECT_EQ(session.last_eval_stats().index_probes, 2u);  // one per k row
  EXPECT_EQ(session.last_eval_stats().probe_hits, 1u);    // pair(f(a), {1})
  EXPECT_EQ(pair.index_count(), 0u);
  QueryOptions options;
  options.strategy = QueryStrategy::kMagic;
  auto result = session.Query("hit(a, Y)", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 1u);
  EXPECT_EQ(pair.index_count(), 0u);
}

// A goal whose every argument is ground names at most one fact: the model
// lookup and top-down's EDB subgoal find it in the dedup table and build no
// index, still counting one probe per lookup (plus a hit when the fact is
// there).
TEST(Engine, FullyGroundGoalUsesTheDedupTable) {
  Session session;
  ASSERT_TRUE(session.Load("k(a, 1). k(b, 3).\nq(X, Y) :- k(X, Y).\n").ok());
  auto hit = session.Query("k(a, 1)");
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(hit->tuples.size(), 1u);
  const Relation& k = session.database().relation(session.catalog().Find("k", 2));
  auto miss = session.Query("k(a, 3)");
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_TRUE(miss->tuples.empty());
  EXPECT_EQ(k.index_count(), 0u);

  // Top-down re-runs the subgoal until its answer table settles: every
  // probe of the present fact hits it, and the absent one is probed once.
  QueryOptions options;
  options.strategy = QueryStrategy::kTopDown;
  auto found = session.Query("q(b, 3)", options);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(found->tuples.size(), 1u);
  EXPECT_GE(found->stats.index_probes, 1u);
  EXPECT_EQ(found->stats.probe_hits, found->stats.index_probes);
  auto absent = session.Query("q(b, 1)", options);
  ASSERT_TRUE(absent.ok()) << absent.status();
  EXPECT_TRUE(absent->tuples.empty());
  EXPECT_EQ(absent->stats.index_probes, 1u);
  EXPECT_EQ(absent->stats.probe_hits, 0u);
  EXPECT_EQ(absent->stats.tuples_matched, 0u);
  EXPECT_EQ(k.index_count(), 0u);
}

TEST(Engine, ArithmeticChains) {
  Session session;
  ASSERT_TRUE(session
                  .Load("n(1). n(2). n(3).\n"
                        "sumsq(X, R) :- n(X), *(X, X, S), +(S, 1, R).")
                  .ok());
  auto facts = Facts(session, "sumsq", 2);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(*facts, (std::vector<std::string>{"sumsq(1, 2)", "sumsq(2, 5)",
                                              "sumsq(3, 10)"}));
}

TEST(Engine, NonTerminatingProgramHitsLimit) {
  Session session;
  ASSERT_TRUE(session
                  .Load("n(z).\n"
                        "n(s(X)) :- n(X).")
                  .ok());
  EvalOptions options;
  options.max_facts = 1000;
  Status status = session.Evaluate(options);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(Engine, QueryMatchesPatterns) {
  Session session;
  ASSERT_TRUE(session.Load("p(1, {1, 2}). p(2, {3}). p(3, {1, 2}).").ok());
  auto result = session.Query("p(X, {1, 2})");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 2u);
  auto all = session.Query("p(X, S)");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->tuples.size(), 3u);
  auto none = session.Query("p(9, S)");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->tuples.empty());
}

TEST(Engine, MultipleStrataPipeline) {
  // Grouping output feeds negation feeds grouping again.
  Session session;
  ASSERT_TRUE(session
                  .Load("owns(ann, dog). owns(ann, cat). owns(bob, dog).\n"
                        "pets(P, <A>) :- owns(P, A).\n"
                        "multi(P) :- pets(P, S), card(S, N), N > 1.\n"
                        "single(P) :- owns(P, _), !multi(P).\n"
                        "singles(<P>) :- single(P).")
                  .ok());
  auto facts = Facts(session, "singles", 1);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(*facts, (std::vector<std::string>{"singles({bob})"}));
}

TEST(Engine, FactsForIntensionalPredicates) {
  // A predicate with both facts and rules: facts participate in the fixpoint.
  Session session;
  ASSERT_TRUE(session
                  .Load("anc(x, y).\n"
                        "parent(y, z).\n"
                        "anc(A, B) :- parent(A, B).\n"
                        "anc(A, B) :- anc(A, C), anc(C, B).")
                  .ok());
  auto facts = Facts(session, "anc", 2);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(*facts, (std::vector<std::string>{"anc(x, y)", "anc(x, z)",
                                              "anc(y, z)"}));
}

TEST(Engine, SaturatingReconcilesRegrownGroups) {
  // A deliberately non-layered program (the shape magic rewriting emits):
  // the grouping rule fires before the negation rule adds another p fact,
  // so the group must regrow monotonically and the stale group fact must be
  // replaced, not duplicated.
  Session session;
  ASSERT_TRUE(session
                  .Load("m(a).\n"
                        "e(a, 1). e(a, 2).\n"
                        "p(X, Y) :- m(X), e(X, Y).\n"
                        "p(X, 3) :- m(X), !blocked(X).\n"
                        "g(X, <Y>) :- p(X, Y).")
                  .ok());
  ASSERT_TRUE(session.Analyze().ok());
  Database db(&session.catalog());
  EvalStats stats;
  // Feed EDB facts and run the saturating scheduler directly on the whole
  // rule set (ignoring layers).
  ASSERT_TRUE(session.EvaluateInto(session.stratification(), &db).ok());
  Database db2(&session.catalog());
  Session session2;  // fresh session to get raw EDB + saturating run
  ASSERT_TRUE(session2.Load("m(a).\ne(a, 1). e(a, 2).\n"
                            "p(X, Y) :- m(X), e(X, Y).\n"
                            "p(X, 3) :- m(X), !blocked(X).\n"
                            "g(X, <Y>) :- p(X, Y).")
                  .ok());
  ASSERT_TRUE(session2.Analyze().ok());
  Database sat_db(&session2.catalog());
  // Seed EDB via EvaluateInto on an empty stratification? Simpler: evaluate
  // normally (the program *is* stratified), then compare with saturating.
  ASSERT_TRUE(session2.EvaluateInto(session2.stratification(), &sat_db).ok());
  Database sat_db2(&session2.catalog());
  PredId m = session2.catalog().Find("m", 1);
  PredId e = session2.catalog().Find("e", 2);
  sat_db2.CopyFrom(sat_db, {m, e});
  EvalStats sat_stats;
  ASSERT_TRUE(session2.engine()
                  .EvaluateSaturating(session2.program(), &sat_db2, {}, &sat_stats)
                  .ok());
  PredId g = session2.catalog().Find("g", 2);
  auto groups = sat_db2.relation(g).Snapshot();
  ASSERT_EQ(groups.size(), 1u) << "stale group must be replaced";
  EXPECT_EQ(session2.FormatFact(g, groups[0]), "g(a, {1, 2, 3})");
}

// Parameterized: naive and semi-naive produce identical models on random
// graph workloads of varying density.
class ModeEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ModeEquivalenceSweep, SameModel) {
  int seed = GetParam();
  auto run = [&](EvalOptions::Mode mode) {
    Session session;
    EXPECT_TRUE(session.Load(RandomGraph(12, 30, seed)).ok());
    EXPECT_TRUE(session
                    .Load("tc(X, Y) :- edge(X, Y).\n"
                          "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"
                          "sink(X) :- edge(_, X), !edge(X, _).\n"
                          "reachset(X, <Y>) :- tc(X, Y).")
                    .ok());
    EvalOptions options;
    options.mode = mode;
    EXPECT_TRUE(session.Evaluate(options).ok());
    std::vector<std::string> all;
    for (const char* pred : {"tc", "sink", "reachset"}) {
      uint32_t arity = std::string(pred) == "sink" ? 1 : 2;
      PredId id = session.catalog().Find(pred, arity);
      auto tuples = session.database().relation(id).Snapshot();
      for (const auto& f : FormatFacts(session, id, tuples)) all.push_back(f);
    }
    std::sort(all.begin(), all.end());
    return all;
  };
  EXPECT_EQ(run(EvalOptions::Mode::kNaive), run(EvalOptions::Mode::kSemiNaive));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeEquivalenceSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 17, 23));

}  // namespace
}  // namespace ldl
