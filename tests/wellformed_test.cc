#include <gtest/gtest.h>

#include "base/str_util.h"
#include "ldl/service.h"
#include "parser/parser.h"
#include "program/lower.h"
#include "program/wellformed.h"

namespace ldl {
namespace {

class WellformedTest : public ::testing::Test {
 protected:
  Status Check(const std::string& source, const WellformedOptions& options = {}) {
    auto ast = ParseProgram(source, &interner_);
    if (!ast.ok()) return ast.status();
    auto ir = LowerProgram(factory_, catalog_, *ast);
    if (!ir.ok()) return ir.status();
    return CheckProgramWellformed(catalog_, *ir, options);
  }

  Interner interner_;
  TermFactory factory_{&interner_};
  Catalog catalog_{&interner_};
};

TEST_F(WellformedTest, SimpleRulesPass) {
  EXPECT_TRUE(Check("a(X, Y) :- p(X, Z), q(Z, Y).").ok());
}

TEST_F(WellformedTest, HeadVariableMustBeBound) {
  Status status = Check("a(X, Y) :- p(X, X).");
  EXPECT_EQ(status.code(), StatusCode::kNotWellFormed);
  EXPECT_NE(status.message().find("Y"), std::string::npos);
}

TEST_F(WellformedTest, FactsMustBeGround) {
  EXPECT_EQ(Check("p(X).").code(), StatusCode::kNotWellFormed);
  EXPECT_TRUE(Check("p(a). p({1, 2}). p(f(a, {b})).").ok());
}

TEST_F(WellformedTest, BuiltinsBindOutputs) {
  // C is bound by +(C1, C2, C) once C1, C2 are bound.
  EXPECT_TRUE(Check("t(C) :- q(C1), q(C2), +(C1, C2, C).").ok());
  // X is bound by member once S is bound.
  EXPECT_TRUE(Check("m(X) :- s(S), member(X, S).").ok());
  // S3 bound by union of two bound sets.
  EXPECT_TRUE(Check("u(S3) :- s(S1), s(S2), union(S1, S2, S3).").ok());
  // partition binds both parts from the whole.
  EXPECT_TRUE(Check("pp(A, B) :- s(S), partition(S, A, B).").ok());
  // card binds the count.
  EXPECT_TRUE(Check("c(N) :- s(S), card(S, N).").ok());
  // equality chains propagate.
  EXPECT_TRUE(Check("e(Y) :- p(X), Y = X.").ok());
  EXPECT_TRUE(Check("e2(Z) :- p(X), Y = X, Z = Y.").ok());
}

TEST_F(WellformedTest, UnboundBuiltinChainsFail) {
  EXPECT_EQ(Check("t(C) :- q(C1), +(C1, C2, C).").code(),
            StatusCode::kNotWellFormed);
  EXPECT_EQ(Check("m(X) :- member(X, S).").code(), StatusCode::kNotWellFormed);
  EXPECT_EQ(Check("e(Y) :- Y = Z.").code(), StatusCode::kNotWellFormed);
}

// div and mod run forward only (the evaluator has no backward mode for
// them), so a rule that could bind the quotient's dividend only backwards
// fails the range restriction when loaded, while + runs backwards.
TEST_F(WellformedTest, DivModRunForwardOnlyAtLoad) {
  for (const char* builtin : {"div", "mod"}) {
    Service service;
    Status status = service.Load(
        StrCat("q(10).\np(X) :- q(Z), ", builtin, "(X, 2, Z).\n"));
    EXPECT_EQ(status.code(), StatusCode::kNotWellFormed) << builtin;
    EXPECT_NE(status.message().find("range restriction, paper §7"),
              std::string::npos)
        << builtin << ": " << status;
    EXPECT_NE(status.message().find("variable X"), std::string::npos)
        << builtin << ": " << status;
  }
  Service service;
  ASSERT_TRUE(service.Load("q(10).\np(X) :- q(Z), plus(X, 2, Z).\n").ok());
  auto answers = service.Query("p(X)");
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->tuples.size(), 1u);
  EXPECT_EQ(answers->tuples[0][0]->int_value(), 8);
}

TEST_F(WellformedTest, ComparisonsNeedBothSidesBound) {
  EXPECT_TRUE(Check("lt(X) :- p(X), X < 10.").ok());
  EXPECT_EQ(Check("lt(X) :- p(X), X < Y.").code(), StatusCode::kNotWellFormed);
}

TEST_F(WellformedTest, ExistentialNegationVariablesAreAllowed) {
  // The paper's §6 rule 5: Z occurs only under the negation.
  EXPECT_TRUE(Check("young(X, <Y>) :- !a(X, Z), sg(X, Y).").ok());
}

TEST_F(WellformedTest, SharedUnboundNegationVariableFails) {
  // W is shared between two negated literals and bound nowhere.
  Status status = Check("bad(X) :- p(X), !q(X, W), !r(W).");
  EXPECT_EQ(status.code(), StatusCode::kNotWellFormed);
}

TEST_F(WellformedTest, NegatedBuiltinNeedsGroundArgs) {
  EXPECT_TRUE(Check("n(X) :- p(X), s(S), !member(X, S).").ok());
  EXPECT_EQ(Check("n(X) :- p(X), !member(X, S).").code(),
            StatusCode::kNotWellFormed);
}

TEST_F(WellformedTest, GroupingWithNegationDependsOnOption) {
  const char* source = "young(X, <Y>) :- !a(X, Z), sg(X, Y).";
  EXPECT_TRUE(Check(source).ok());  // relaxed default (the paper's §6 usage)
  WellformedOptions strict;
  strict.strict_grouping_positivity = true;
  EXPECT_EQ(Check(source, strict).code(), StatusCode::kNotWellFormed);
}

TEST_F(WellformedTest, RangeRestrictionCanBeDisabled) {
  WellformedOptions options;
  options.require_range_restriction = false;
  EXPECT_TRUE(Check("a(X, Y) :- p(X, X).", options).ok());
}

TEST_F(WellformedTest, MultipleGroupsInHeadRejectedAtLowering) {
  auto ast = ParseProgram("g(<X>, <Y>) :- p(X, Y).", &interner_);
  ASSERT_TRUE(ast.ok());
  auto ir = LowerProgram(factory_, catalog_, *ast);
  EXPECT_EQ(ir.status().code(), StatusCode::kNotWellFormed);
}

TEST_F(WellformedTest, BodyGroupRejectedAtLowering) {
  auto ast = ParseProgram("g(X) :- p(<X>).", &interner_);
  ASSERT_TRUE(ast.ok());
  auto ir = LowerProgram(factory_, catalog_, *ast);
  EXPECT_EQ(ir.status().code(), StatusCode::kNotWellFormed);
}

TEST_F(WellformedTest, NonVariableGroupRejectedAtLowering) {
  auto ast = ParseProgram("g(<f(X)>) :- p(X).", &interner_);
  ASSERT_TRUE(ast.ok());
  auto ir = LowerProgram(factory_, catalog_, *ast);
  EXPECT_EQ(ir.status().code(), StatusCode::kNotWellFormed);
}

TEST_F(WellformedTest, GroupedVariableCountsAsHeadBinding) {
  // The grouped variable must itself be bound by the body.
  EXPECT_TRUE(Check("g(P, <S>) :- p(P, S).").ok());
  EXPECT_EQ(Check("g(P, <S>) :- p(P, P2), q(P2).").code(),
            StatusCode::kNotWellFormed);
}

}  // namespace
}  // namespace ldl
