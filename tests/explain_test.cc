// Why-provenance over the materialized model.
#include <gtest/gtest.h>

#include "ldl/ldl.h"

namespace ldl {
namespace {

TEST(Explain, TransitiveChainWitness) {
  Session session;
  ASSERT_TRUE(session
                  .Load("parent(a, b). parent(b, c). parent(c, d).\n"
                        "anc(X, Y) :- parent(X, Y).\n"
                        "anc(X, Y) :- parent(X, Z), anc(Z, Y).")
                  .ok());
  auto tree = session.Explain("anc(a, d)");
  ASSERT_TRUE(tree.ok()) << tree.status();
  // The witness bottoms out in EDB leaves and cites both rules.
  EXPECT_NE(tree->find("anc(a, d)"), std::string::npos);
  EXPECT_NE(tree->find("parent(c, d)   [edb]"), std::string::npos);
  EXPECT_NE(tree->find("[rule"), std::string::npos);
}

TEST(Explain, EdbFactIsLeaf) {
  Session session;
  ASSERT_TRUE(session.Load("p(a, b).").ok());
  auto tree = session.Explain("p(a, b)");
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_EQ(*tree, "p(a, b)   [edb]\n");
}

TEST(Explain, MissingFactIsNotFound) {
  Session session;
  ASSERT_TRUE(session.Load("p(a).").ok());
  EXPECT_EQ(session.Explain("p(zzz)").status().code(), StatusCode::kNotFound);
}

TEST(Explain, PatternsAreRejected) {
  Session session;
  ASSERT_TRUE(session.Load("p(a).").ok());
  EXPECT_EQ(session.Explain("p(X)").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Explain, NegationJustifiedByAbsence) {
  Session session;
  ASSERT_TRUE(session
                  .Load("node(a). node(b). edge(a, b).\n"
                        "sink(X) :- node(X), !edge(X, Z).")
                  .ok());
  auto tree = session.Explain("sink(b)");
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_NE(tree->find("node(b)   [edb]"), std::string::npos);
  EXPECT_NE(tree->find("no matching edge/2 fact"), std::string::npos);
}

TEST(Explain, GroupingListsContributors) {
  Session session;
  ASSERT_TRUE(session
                  .Load("e(1, a). e(1, b). e(2, c).\n"
                        "g(K, <V>) :- e(K, V).")
                  .ok());
  auto tree = session.Explain("g(1, {a, b})");
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_NE(tree->find("grouped 2 element(s)"), std::string::npos);
  EXPECT_NE(tree->find("e(1, a)"), std::string::npos);
  EXPECT_NE(tree->find("e(1, b)"), std::string::npos);
  EXPECT_EQ(tree->find("e(2, c)"), std::string::npos)
      << "other partitions do not support this group";
}

TEST(Explain, BuiltinsAppearAsNotes) {
  Session session;
  ASSERT_TRUE(session
                  .Load("n(2). n(3).\n"
                        "sum(X, Y, S) :- n(X), n(Y), +(X, Y, S).")
                  .ok());
  auto tree = session.Explain("sum(2, 3, 5)");
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_NE(tree->find("plus(2, 3, 5) holds"), std::string::npos);
}

TEST(Explain, SetFactsExplainable) {
  Session session;
  ASSERT_TRUE(session
                  .Load("s({1, 2}).\n"
                        "twice(U) :- s(A), union(A, A, U).")
                  .ok());
  auto tree = session.Explain("twice({1, 2})");
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_NE(tree->find("s({1, 2})   [edb]"), std::string::npos);
}

TEST(Explain, DepthLimitTruncates) {
  Session session;
  ASSERT_TRUE(session.Load(
                         "e(n0, n1). e(n1, n2). e(n2, n3). e(n3, n4).\n"
                         "t(X, Y) :- e(X, Y).\n"
                         "t(X, Y) :- e(X, Z), t(Z, Y).")
                  .ok());
  ExplainOptions options;
  options.max_depth = 2;
  auto tree = session.Explain("t(n0, n4)", options);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_NE(tree->find("max depth reached"), std::string::npos);
}

TEST(Explain, AssertedIntensionalFact) {
  // A fact loaded for a predicate that also has rules.
  Session session;
  ASSERT_TRUE(session
                  .Load("anc(x, y).\n"
                        "parent(q, r).\n"
                        "anc(A, B) :- parent(A, B).")
                  .ok());
  auto tree = session.Explain("anc(x, y)");
  ASSERT_TRUE(tree.ok()) << tree.status();
  // Program facts follow the rules: the fact is rule 2, after anc's rule.
  EXPECT_NE(tree->find("[rule 2]"), std::string::npos);
}

}  // namespace
}  // namespace ldl
