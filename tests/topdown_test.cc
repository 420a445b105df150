// The memoized top-down (QSQ-style) engine: correctness against the
// stratified bottom-up reference on recursion, negation, grouping and sets.
#include <gtest/gtest.h>

#include <algorithm>

#include "base/str_util.h"
#include "ldl/ldl.h"
#include "parser/parser.h"
#include "workload/workload.h"

namespace ldl {
namespace {

std::vector<std::string> Render(Session& session, const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const Tuple& tuple : tuples) out.push_back(session.FormatTuple(tuple));
  std::sort(out.begin(), out.end());
  return out;
}

// Runs the goal through both engines and expects identical answers.
void ExpectAgreement(Session& session, const std::string& goal) {
  auto full = session.Query(goal);
  ASSERT_TRUE(full.ok()) << goal << ": " << full.status();
  QueryOptions topdown;
  topdown.strategy = ldl::QueryStrategy::kTopDown;
  auto td = session.Query(goal, topdown);
  ASSERT_TRUE(td.ok()) << goal << ": " << td.status();
  EXPECT_EQ(Render(session, full->tuples), Render(session, td->tuples)) << goal;
}

TEST(TopDown, LinearRecursionBoundAndFree) {
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(40, "p")).ok());
  ASSERT_TRUE(session
                  .Load("a(X, Y) :- p(X, Y).\n"
                        "a(X, Y) :- p(X, Z), a(Z, Y).")
                  .ok());
  ExpectAgreement(session, "a(p5, X)");
  ExpectAgreement(session, "a(X, p39)");
  ExpectAgreement(session, "a(p0, p39)");
  ExpectAgreement(session, "a(p39, X)");  // empty
}

TEST(TopDown, NonLinearRecursion) {
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(16, "e")).ok());
  ASSERT_TRUE(session
                  .Load("t(X, Y) :- e(X, Y).\n"
                        "t(X, Y) :- t(X, Z), t(Z, Y).")
                  .ok());
  ExpectAgreement(session, "t(p0, X)");
  ExpectAgreement(session, "t(X, Y)");
}

TEST(TopDown, BoundQueryTouchesLessThanFullEvaluation) {
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(200, "p")).ok());
  ASSERT_TRUE(session
                  .Load("a(X, Y) :- p(X, Y).\n"
                        "a(X, Y) :- p(X, Z), a(Z, Y).")
                  .ok());
  QueryOptions topdown;
  topdown.strategy = ldl::QueryStrategy::kTopDown;
  auto result = session.Query("a(p190, X)", topdown);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 10u);
  // Only the suffix is tabled: far fewer than the 20k facts of the closure.
  EXPECT_LT(result->stats.facts_derived, 200u);
}

// Top-down reports in the bottom-up engines' EvalStats terms: the EDB rows
// its probes return and the table rows it reads count like a join's, and
// expansions/answers/restarts keep their rule_firings/facts_derived/
// iterations mapping, which the profile rollup mirrors.
TEST(TopDown, BoundGoalReportsMatchingCounters) {
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(20, "p")).ok());
  ASSERT_TRUE(session
                  .Load("anc(X, Y) :- p(X, Y).\n"
                        "anc(X, Y) :- p(X, Z), anc(Z, Y).")
                  .ok());
  QueryOptions topdown;
  topdown.strategy = ldl::QueryStrategy::kTopDown;
  topdown.eval.profile = true;
  auto result = session.Query("anc(p10, X)", topdown);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 10u);  // p11 .. p20
  EXPECT_GT(result->stats.tuples_matched, 0u);
  EXPECT_GT(result->stats.index_probes, 0u);
  EXPECT_GT(result->stats.probe_hits, 0u);
  EXPECT_LE(result->stats.probe_hits, result->stats.tuples_matched);
  const TopDownProfile& rollup = result->profile.topdown();
  EXPECT_EQ(result->stats.rule_firings, rollup.expansions);
  EXPECT_EQ(result->stats.facts_derived, rollup.answers);
  EXPECT_EQ(result->stats.iterations, rollup.restarts);
  EXPECT_GT(rollup.calls, 0u);
}

TEST(TopDown, StratifiedNegation) {
  Session session;
  ASSERT_TRUE(session
                  .Load("node(a). node(b). node(c). edge(a, b).\n"
                        "reach(a).\n"
                        "reach(Y) :- reach(X), edge(X, Y).\n"
                        "unreach(X) :- node(X), !reach(X).")
                  .ok());
  ExpectAgreement(session, "unreach(X)");
  ExpectAgreement(session, "unreach(c)");
  ExpectAgreement(session, "unreach(a)");  // empty
}

TEST(TopDown, ExistentialNegation) {
  Session session;
  ASSERT_TRUE(session
                  .Load("node(a). node(b). node(c).\n"
                        "edge(a, b). edge(b, c).\n"
                        "leaf(X) :- node(X), !edge(X, Z).")
                  .ok());
  ExpectAgreement(session, "leaf(X)");
}

TEST(TopDown, GroupingPerCall) {
  Session session;
  ASSERT_TRUE(session
                  .Load("e(1, a). e(1, b). e(2, c).\n"
                        "g(K, <V>) :- e(K, V).")
                  .ok());
  ExpectAgreement(session, "g(1, S)");
  ExpectAgreement(session, "g(K, S)");
  // Bound grouped argument: footnote 6 -- the binding must not restrict
  // the body; it filters the produced group.
  ExpectAgreement(session, "g(1, {a, b})");
  ExpectAgreement(session, "g(1, {a})");  // empty: the group is {a, b}
}

TEST(TopDown, YoungRunningExample) {
  SameGenerationWorkload workload = MakeSameGeneration(3, 2, 3);
  Session session;
  ASSERT_TRUE(session.Load(workload.facts).ok());
  ASSERT_TRUE(session
                  .Load("a(X, Y) :- p(X, Y).\n"
                        "a(X, Y) :- a(X, Z), a(Z, Y).\n"
                        "sg(X, Y) :- siblings(X, Y).\n"
                        "sg(X, Y) :- p(Z1, X), sg(Z1, Z2), p(Z2, Y).\n"
                        "young(X, <Y>) :- !a(X, Z), sg(X, Y).")
                  .ok());
  ExpectAgreement(session, StrCat("young(", workload.a_leaf, ", S)"));
  ExpectAgreement(session, StrCat("young(", workload.an_inner, ", S)"));
  ExpectAgreement(session, StrCat("sg(", workload.a_leaf, ", X)"));
}

TEST(TopDown, SetsAndBuiltins) {
  Session session;
  ASSERT_TRUE(session
                  .Load("s({1, 2}). s({3}).\n"
                        "u(U) :- s(A), s(B), union(A, B, U).\n"
                        "elem(X) :- s(S), member(X, S).")
                  .ok());
  ExpectAgreement(session, "u(U)");
  ExpectAgreement(session, "elem(X)");
  ExpectAgreement(session, "u({1, 2, 3})");
}

TEST(TopDown, BomCostQuery) {
  BomWorkload workload = MakeBom(14, 5);
  Session session;
  ASSERT_TRUE(session.Load(workload.facts).ok());
  ASSERT_TRUE(session
                  .Load("p(P, S) :- part_of(P, S).\n"
                        "q(X, C) :- cost(X, C).\n"
                        "part(P, <S>) :- p(P, S).\n"
                        "tc({X}, C) :- q(X, C).\n"
                        "tc({X}, C) :- part(X, S), tc(S, C).\n"
                        "tc(S, C) :- partition(S, S1, S2), tc(S1, C1), "
                        "tc(S2, C2), +(C1, C2, C).\n"
                        "result(X, C) :- tc({X}, C).")
                  .ok());
  // Compare against magic (full evaluation is exponential in parts).
  QueryOptions magic;
  magic.strategy = ldl::QueryStrategy::kMagic;
  QueryOptions topdown;
  topdown.strategy = ldl::QueryStrategy::kTopDown;
  std::string goal = StrCat("result(", workload.root, ", C)");
  auto a = session.Query(goal, magic);
  auto b = session.Query(goal, topdown);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(Render(session, a->tuples), Render(session, b->tuples));
}

TEST(TopDown, EdbGoalsPassThrough) {
  Session session;
  ASSERT_TRUE(session.Load("p(a, b). p(a, c).").ok());
  QueryOptions topdown;
  topdown.strategy = ldl::QueryStrategy::kTopDown;
  auto result = session.Query("p(a, X)", topdown);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 2u);
}

// EDB subgoals and EDB goals probe the relation on their bound arguments,
// reading a frozen view of the model in place (what ldl::Service publishes):
// answers agree with the model, and the lazy indexes the probes build stay
// on the view's relation for the next query.
TEST(TopDown, EdbLiteralsProbeBoundArguments) {
  Session session;
  ASSERT_TRUE(session.Load(ParentRandomTree(300, 7, "p")).ok());
  ASSERT_TRUE(session
                  .Load("s({1, 2}). s({3}).\n"
                        "a(X, Y) :- p(X, Y).\n"
                        "a(X, Y) :- p(X, Z), a(Z, Y).\n"
                        "leaf_child(X, Y) :- p(X, Y), !p(Y, W).\n"
                        "holds(X) :- p(p0, X), s({1, 2}).\n"
                        "loop(X) :- p(X, X).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  Database model(&session.catalog());
  model.ShareFrom(session.database());
  const Relation* p = model.FindRelation(session.catalog().Find("p", 2));
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->index_count(), 0u);

  auto ask = [&](const std::string& goal) -> std::vector<std::string> {
    auto prepared = session.Prepare(goal);
    EXPECT_TRUE(prepared.ok()) << goal;
    QueryOptions options;
    options.strategy = QueryStrategy::kTopDown;
    auto result = QueryViaTopDown(&session.factory(), &session.catalog(),
                                  session.program(), session.stratification(),
                                  prepared->goal(), options, model);
    EXPECT_TRUE(result.ok()) << goal << ": " << result.status();
    return result.ok() ? Render(session, result->tuples)
                       : std::vector<std::string>{};
  };
  for (const std::string goal :
       {"a(p3, Y)", "a(X, p299)", "leaf_child(p2, Y)", "holds(X)", "loop(X)",
        "p(X, p77)", "p(p1, Y)"}) {
    auto want = session.Query(goal);
    ASSERT_TRUE(want.ok()) << goal;
    EXPECT_EQ(ask(goal), Render(session, want->tuples)) << goal;
  }
  // Column 0 (a's bound first argument, the negated p(Y, W)) and column 1
  // (the EDB goal p(X, p77)) each got an index; asking again builds none.
  const size_t built = p->index_count();
  EXPECT_GE(built, 2u);
  ask("a(p5, Y)");
  ask("p(X, p78)");
  EXPECT_EQ(p->index_count(), built);
}

TEST(TopDown, RecursionDepthGuard) {
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(64, "p")).ok());
  ASSERT_TRUE(session
                  .Load("a(X, Y) :- p(X, Y).\n"
                        "a(X, Y) :- p(X, Z), a(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Analyze().ok());
  // Engine-level options with a tiny depth cap.
  Database edb(&session.catalog());
  // Reuse Session's EDB by evaluating (cheap) and copying base facts.
  ASSERT_TRUE(session.Evaluate().ok());
  PredId p = session.catalog().Find("p", 2);
  session.database().relation(p).ForEachRow(
      0, session.database().relation(p).row_count(),
      [&](size_t, RowRef t) { edb.AddFact(p, t); });
  TopDownOptions options;
  options.max_call_depth = 4;
  TopDownEngine engine(&session.factory(), &session.catalog(), &session.program(),
                       &session.stratification(), &edb, options);
  auto goal_ast = ParseLiteralText("a(p0, X)", &session.interner());
  ASSERT_TRUE(goal_ast.ok());
  auto goal = LowerLiteral(session.factory(), session.catalog(), *goal_ast);
  ASSERT_TRUE(goal.ok());
  auto result = engine.Query(*goal);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace ldl
