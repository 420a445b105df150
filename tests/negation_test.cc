// Negation as failure (§2.2, §3.1) against its naive definition.
//
// `out(V) :- dom(V), !L` keeps a dom row iff the literal L has no matching
// fact under it, which is exactly "the positive rule `hit(V) :- dom(V), L`
// has no solution for that row". The executor answers the negation with an
// anti-join (probe on the bound columns, stop at the first match); the
// positive rule enumerates every match. Each case checks the model against
// that definition and a hand-computed answer, and checks the answers of
// every query strategy (top-down evaluates negation separately).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "ldl/ldl.h"

namespace ldl {
namespace {

std::vector<std::string> Sorted(std::vector<std::string> facts) {
  std::sort(facts.begin(), facts.end());
  return facts;
}

// `facts` plus out/hit over `dom(vars)` and `literal`; expects `out` to hold
// exactly `expected` (formatted out(...) facts).
void ExpectNegation(const std::string& facts, const std::string& vars,
                    const std::string& literal, std::vector<std::string> expected) {
  SCOPED_TRACE(literal);
  Session session;
  const std::string body = "dom(" + vars + "), ";
  ASSERT_TRUE(session
                  .Load(facts + "\nout(" + vars + ") :- " + body + "!" + literal +
                        ".\nhit(" + vars + ") :- " + body + literal + ".\n")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  const uint32_t arity =
      static_cast<uint32_t>(std::count(vars.begin(), vars.end(), ',') + 1);
  const PredId dom = session.catalog().Find("dom", arity);
  const PredId hit = session.catalog().Find("hit", arity);
  const PredId out = session.catalog().Find("out", arity);
  ASSERT_NE(dom, kInvalidPred);

  // The naive definition: dom rows without a positive match.
  const std::vector<Tuple> hits = session.database().relation(hit).Snapshot();
  const std::set<Tuple> hit_set(hits.begin(), hits.end());
  std::vector<std::string> naive;
  for (const Tuple& row : session.database().relation(dom).Snapshot()) {
    if (hit_set.count(row) == 0) naive.push_back(session.FormatFact(out, row));
  }
  expected = Sorted(std::move(expected));
  EXPECT_EQ(Sorted(naive), expected) << "hand-computed answer disagrees";
  EXPECT_EQ(FormatFacts(session, out, session.database().relation(out).Snapshot()),
            expected);

  for (QueryStrategy strategy :
       {QueryStrategy::kModel, QueryStrategy::kMagic,
        QueryStrategy::kMagicSupplementary, QueryStrategy::kTopDown}) {
    QueryOptions options;
    options.strategy = strategy;
    auto result = session.Query("out(" + vars + ")", options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(Sorted(FormatFacts(session, out, result->tuples)), expected)
        << "strategy " << static_cast<int>(strategy);
  }
}

constexpr char kDom[] = "dom(a). dom(b). dom(c). dom(d).";

TEST(Negation, RepeatedLocalVariable) {
  // !q(X, Z, Z): some q(X, v, v). Only a and c have one.
  ExpectNegation(std::string(kDom) + " q(a, 1, 1). q(b, 1, 2). q(c, 2, 2). q(c, 1, 3).",
                 "X", "q(X, Z, Z)", {"out(b)", "out(d)"});
}

TEST(Negation, LocalVariableInsideFunctor) {
  ExpectNegation(std::string(kDom) + " r(a, f(1)). r(b, g(1)). r(c, f(2)).", "X",
                 "r(X, f(Z))", {"out(b)", "out(d)"});
  // A functor mixing a bound and a local variable.
  ExpectNegation("dom(a, 1). dom(a, 2). dom(b, 2). dom(c, 1).\n"
                 "r(a, f(1, x)). r(b, f(2, y)). r(c, f(2, z)).",
                 "X, Y", "r(X, f(Y, Z))", {"out(a, 2)", "out(c, 1)"});
}

TEST(Negation, LocalVariableInsideSetPattern) {
  // {1, Z} matches a set of one or two elements containing 1.
  ExpectNegation(std::string(kDom) + " s(a, {1, 2}). s(b, {3}). s(c, {}). s(d, {1, 2, 3}).",
                 "X", "s(X, {1, Z})", {"out(b)", "out(c)", "out(d)"});
  // scons(Z, S) matches every non-empty set.
  ExpectNegation(std::string(kDom) + " s(a, {1, 2}). s(b, {3}). s(c, {}).", "X",
                 "s(X, scons(Z, S))", {"out(c)", "out(d)"});
}

TEST(Negation, ConstantColumn) {
  // Every column bound: one lookup of the whole fact.
  ExpectNegation(std::string(kDom) + " t(a, yes). t(b, no).", "X", "t(X, yes)",
                 {"out(b)", "out(c)", "out(d)"});
  // A constant and a bound variable probing past a local column.
  ExpectNegation(std::string(kDom) + " u(red, a, 1). u(blue, b, 2). u(red, c, 3).", "X",
                 "u(red, X, Z)", {"out(b)", "out(d)"});
}

TEST(Negation, BoundValueOutsideUniverse) {
  // scons(1, Y) with Y = 7 is not an element of U, so no fact matches it
  // and the negation holds; the other rows instantiate to {1} and {1, 2}.
  const std::string facts =
      "dom(a, {}). dom(b, {2}). dom(a, 7). dom(c, {5}).\n"
      "v(a, {1}). v(b, {1, 2}).\n"
      "w(a, {1}, p). w(c, {1, 5}, q).";
  ExpectNegation(facts, "X, Y", "v(X, scons(1, Y))", {"out(a, 7)", "out(c, {5})"});
  ExpectNegation(facts, "X, Y", "w(X, scons(1, Y), Z)", {"out(a, 7)", "out(b, {2})"});
}

TEST(Negation, NoBoundColumn) {
  // !e(Z): e has a fact, so the negation fails for every row.
  ExpectNegation(std::string(kDom) + " e(1).", "X", "e(Z)", {});
  ExpectNegation(std::string(kDom) + " e(1, 2). e(3, 3).", "X", "e(Z, Z)", {});
  ExpectNegation(std::string(kDom) + " e(1, 2).", "X", "e(Z, Z)",
                 {"out(a)", "out(b)", "out(c)", "out(d)"});
}

TEST(Negation, PredicateWithNoRelation) {
  // `none` has no facts and no rules: every negation of it holds.
  const std::vector<std::string> all = {"out(a)", "out(b)", "out(c)", "out(d)"};
  ExpectNegation(kDom, "X", "none(X)", all);
  ExpectNegation(kDom, "X", "none(X, Z)", all);
  ExpectNegation(kDom, "X", "none(Z)", all);
}

}  // namespace
}  // namespace ldl
