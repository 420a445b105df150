#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>

#include "eval/builtins.h"
#include "parser/parser.h"
#include "program/lower.h"
#include "program/wellformed.h"

namespace ldl {
namespace {

class BuiltinsTest : public ::testing::Test {
 protected:
  LiteralIr Lit(BuiltinKind kind, std::initializer_list<const char*> args,
                bool negated = false) {
    LiteralIr literal;
    literal.builtin = kind;
    literal.negated = negated;
    for (const char* text : args) {
      auto expr = ParseTermText(text, &interner_);
      EXPECT_TRUE(expr.ok()) << text << ": " << expr.status();
      auto term = LowerTerm(factory_, *expr);
      EXPECT_TRUE(term.ok()) << text;
      literal.args.push_back(*term);
    }
    return literal;
  }

  // Runs the builtin with an optional pre-binding; returns solutions as
  // sorted strings.
  StatusOr<std::multiset<std::string>> Run(
      const LiteralIr& literal,
      std::initializer_list<std::pair<const char*, const char*>> bindings = {}) {
    Subst subst;
    for (auto [var, value] : bindings) {
      auto expr = ParseTermText(value, &interner_);
      EXPECT_TRUE(expr.ok());
      auto term = LowerTerm(factory_, *expr);
      EXPECT_TRUE(term.ok());
      subst.Bind(interner_.Intern(var), *term);
    }
    std::multiset<std::string> solutions;
    size_t base = subst.size();
    bool keep_going = true;
    Status status = EvalBuiltin(
        factory_, literal, &subst,
        [&]() {
          std::vector<std::string> parts;
          for (size_t i = base; i < subst.trail().size(); ++i) {
            parts.push_back(std::string(interner_.Lookup(subst.trail()[i].first)) +
                            "=" + factory_.ToString(subst.trail()[i].second));
          }
          std::sort(parts.begin(), parts.end());
          std::string joined;
          for (const auto& p : parts) joined += p + ";";
          solutions.insert(joined);
          return true;
        },
        &keep_going);
    if (!status.ok()) return status;
    return solutions;
  }

  // The static mode table's answer with the named variables bound.
  bool Ready(const LiteralIr& literal,
             std::initializer_list<const char*> bound_vars) {
    std::vector<Symbol> bound;
    for (const char* var : bound_vars) bound.push_back(interner_.Intern(var));
    return LiteralStaticallyReady(literal, /*negation_shared=*/{}, bound);
  }

  size_t Count(const LiteralIr& literal,
               std::initializer_list<std::pair<const char*, const char*>> b = {}) {
    auto result = Run(literal, b);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result->size() : 0;
  }

  Interner interner_;
  TermFactory factory_{&interner_};
};

// --------------------------------------------------------------- equality --

TEST_F(BuiltinsTest, EqBindsEitherSide) {
  auto sols = Run(Lit(BuiltinKind::kEq, {"X", "{1, 2}"}));
  ASSERT_TRUE(sols.ok());
  ASSERT_EQ(sols->size(), 1u);
  EXPECT_EQ(*sols->begin(), "X={1, 2};");
  EXPECT_EQ(Count(Lit(BuiltinKind::kEq, {"3", "Y"})), 1u);
}

TEST_F(BuiltinsTest, EqChecksGroundTerms) {
  EXPECT_EQ(Count(Lit(BuiltinKind::kEq, {"{1, 2}", "{2, 1}"})), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kEq, {"{1}", "{2}"})), 0u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kEq, {"a", "a"})), 1u);
}

TEST_F(BuiltinsTest, EqNormalizesArithmetic) {
  // C = 1 + 2 binds C to 3 (the paper's tc example uses +(C1,C2,C)).
  auto sols = Run(Lit(BuiltinKind::kEq, {"C", "X"}), {{"X", "3"}});
  ASSERT_TRUE(sols.ok());
  EXPECT_EQ(*sols->begin(), "C=3;");
}

TEST_F(BuiltinsTest, EqEnumeratesSetPatterns) {
  // {A, B} = {1, 2} has two solutions.
  EXPECT_EQ(Count(Lit(BuiltinKind::kEq, {"{A, B}", "{1, 2}"})), 2u);
}

TEST_F(BuiltinsTest, EqEvaluatesScons) {
  EXPECT_EQ(Count(Lit(BuiltinKind::kEq, {"scons(1, {2})", "{1, 2}"})), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kEq, {"scons(1, {1})", "{1}"})), 1u);
  // scons on a non-set is outside U: equality is false.
  EXPECT_EQ(Count(Lit(BuiltinKind::kEq, {"scons(1, a)", "{1}"})), 0u);
}

TEST_F(BuiltinsTest, Neq) {
  EXPECT_EQ(Count(Lit(BuiltinKind::kNeq, {"1", "2"})), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kNeq, {"{1}", "{1}"})), 0u);
}

// ------------------------------------------------------------ comparisons --

TEST_F(BuiltinsTest, Comparisons) {
  EXPECT_EQ(Count(Lit(BuiltinKind::kLt, {"1", "2"})), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kLt, {"2", "2"})), 0u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kLe, {"2", "2"})), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kGt, {"3", "2"})), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kGe, {"2", "3"})), 0u);
  // Non-integers compare false (paper's "otherwise false" convention).
  EXPECT_EQ(Count(Lit(BuiltinKind::kLt, {"a", "b"})), 0u);
}

// ---------------------------------------------------------------- member --

TEST_F(BuiltinsTest, MemberEnumerates) {
  EXPECT_EQ(Count(Lit(BuiltinKind::kMember, {"X", "{1, 2, 3}"})), 3u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kMember, {"2", "{1, 2, 3}"})), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kMember, {"9", "{1, 2, 3}"})), 0u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kMember, {"X", "{}"})), 0u);
}

TEST_F(BuiltinsTest, MemberOnNonSetIsFalse) {
  EXPECT_EQ(Count(Lit(BuiltinKind::kMember, {"X", "a"})), 0u);
}

TEST_F(BuiltinsTest, MemberWithPatternElement) {
  // member(f(X), {f(1), g(2), f(3)}) enumerates X in {1, 3}.
  EXPECT_EQ(Count(Lit(BuiltinKind::kMember, {"f(X)", "{f(1), g(2), f(3)}"})), 2u);
}

TEST_F(BuiltinsTest, NegatedMember) {
  EXPECT_EQ(Count(Lit(BuiltinKind::kMember, {"4", "{1, 2}"}, true)), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kMember, {"1", "{1, 2}"}, true)), 0u);
}

// ------------------------------------------------------------------ union --

TEST_F(BuiltinsTest, UnionForward) {
  auto sols = Run(Lit(BuiltinKind::kUnion, {"{1, 2}", "{2, 3}", "S"}));
  ASSERT_TRUE(sols.ok());
  ASSERT_EQ(sols->size(), 1u);
  EXPECT_EQ(*sols->begin(), "S={1, 2, 3};");
  EXPECT_EQ(Count(Lit(BuiltinKind::kUnion, {"{1}", "{2}", "{1, 2}"})), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kUnion, {"{1}", "{2}", "{1, 2, 3}"})), 0u);
}

TEST_F(BuiltinsTest, UnionBackwardEnumeratesSplits) {
  // union(S1, S2, {1, 2}): each element in S1 only, S2 only, or both: 9.
  EXPECT_EQ(Count(Lit(BuiltinKind::kUnion, {"S1", "S2", "{1, 2}"})), 9u);
  // Singleton: 3 splits.
  EXPECT_EQ(Count(Lit(BuiltinKind::kUnion, {"S1", "S2", "{1}"})), 3u);
}

TEST_F(BuiltinsTest, UnionOneSideKnown) {
  // union({1}, S2, {1, 2}): S2 must contain 2, may contain 1: 2 solutions.
  EXPECT_EQ(Count(Lit(BuiltinKind::kUnion, {"{1}", "S2", "{1, 2}"})), 2u);
  // union({3}, S2, {1, 2}): 3 not in result: no solutions.
  EXPECT_EQ(Count(Lit(BuiltinKind::kUnion, {"{3}", "S2", "{1, 2}"})), 0u);
}

TEST_F(BuiltinsTest, UnionEnumerationLimit) {
  std::string big = "{";
  for (int i = 0; i < 14; ++i) big += (i ? ", " : "") + std::to_string(i);
  big += "}";
  LiteralIr literal = Lit(BuiltinKind::kUnion, {"S1", "S2", big.c_str()});
  auto result = Run(literal);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(BuiltinsTest, IntersectionAndDifference) {
  auto sols = Run(Lit(BuiltinKind::kIntersection, {"{1, 2, 3}", "{2, 3, 4}", "S"}));
  ASSERT_TRUE(sols.ok());
  EXPECT_EQ(*sols->begin(), "S={2, 3};");
  EXPECT_EQ(Count(Lit(BuiltinKind::kIntersection, {"{1}", "{2}", "{}"})), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kIntersection, {"{1}", "{1}", "{2}"})), 0u);
  sols = Run(Lit(BuiltinKind::kDifference, {"{1, 2, 3}", "{2}", "S"}));
  ASSERT_TRUE(sols.ok());
  EXPECT_EQ(*sols->begin(), "S={1, 3};");
  EXPECT_EQ(Count(Lit(BuiltinKind::kDifference, {"{1}", "{1}", "{}"})), 1u);
  // Non-sets make the predicate false.
  EXPECT_EQ(Count(Lit(BuiltinKind::kIntersection, {"a", "{1}", "S"})), 0u);
  // Both inputs must be bound.
  EXPECT_FALSE(Ready(Lit(BuiltinKind::kDifference, {"{1}", "S2", "S3"}), {}));
}

// ---------------------------------------------------------------- subset --

TEST_F(BuiltinsTest, SubsetCheckAndEnumerate) {
  EXPECT_EQ(Count(Lit(BuiltinKind::kSubset, {"{1}", "{1, 2}"})), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kSubset, {"{3}", "{1, 2}"})), 0u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kSubset, {"{}", "{1, 2}"})), 1u);
  // Enumeration: all 2^3 subsets.
  EXPECT_EQ(Count(Lit(BuiltinKind::kSubset, {"S", "{1, 2, 3}"})), 8u);
}

// -------------------------------------------------------------- partition --

TEST_F(BuiltinsTest, PartitionModes) {
  // Forward: compute the whole from disjoint parts.
  EXPECT_EQ(Count(Lit(BuiltinKind::kPartition, {"S", "{1}", "{2}"})), 1u);
  // Overlapping parts are not a partition.
  EXPECT_EQ(Count(Lit(BuiltinKind::kPartition, {"S", "{1, 2}", "{2}"})), 0u);
  // Backward: enumerate all 2^n disjoint splits.
  EXPECT_EQ(Count(Lit(BuiltinKind::kPartition, {"{1, 2}", "A", "B"})), 4u);
  // One part known.
  EXPECT_EQ(Count(Lit(BuiltinKind::kPartition, {"{1, 2}", "{1}", "B"})), 1u);
  auto sols = Run(Lit(BuiltinKind::kPartition, {"{1, 2}", "{1}", "B"}));
  ASSERT_TRUE(sols.ok());
  EXPECT_EQ(*sols->begin(), "B={2};");
  // All three ground: verify.
  EXPECT_EQ(Count(Lit(BuiltinKind::kPartition, {"{1, 2}", "{1}", "{2}"})), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kPartition, {"{1, 2}", "{1}", "{1, 2}"})), 0u);
}

// ------------------------------------------------------------------- card --

TEST_F(BuiltinsTest, Card) {
  auto sols = Run(Lit(BuiltinKind::kCard, {"{a, b, c}", "N"}));
  ASSERT_TRUE(sols.ok());
  EXPECT_EQ(*sols->begin(), "N=3;");
  EXPECT_EQ(Count(Lit(BuiltinKind::kCard, {"{}", "0"})), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kCard, {"{a}", "2"})), 0u);
}

// ------------------------------------------------------------- arithmetic --

TEST_F(BuiltinsTest, PlusAllModes) {
  auto sols = Run(Lit(BuiltinKind::kPlus, {"1", "2", "C"}));
  ASSERT_TRUE(sols.ok());
  EXPECT_EQ(*sols->begin(), "C=3;");
  sols = Run(Lit(BuiltinKind::kPlus, {"1", "B", "3"}));
  EXPECT_EQ(*sols->begin(), "B=2;");
  sols = Run(Lit(BuiltinKind::kPlus, {"A", "2", "3"}));
  EXPECT_EQ(*sols->begin(), "A=1;");
  EXPECT_EQ(Count(Lit(BuiltinKind::kPlus, {"1", "2", "3"})), 1u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kPlus, {"1", "2", "4"})), 0u);
}

TEST_F(BuiltinsTest, MinusModes) {
  auto sols = Run(Lit(BuiltinKind::kMinus, {"5", "2", "C"}));
  EXPECT_EQ(*sols->begin(), "C=3;");
  sols = Run(Lit(BuiltinKind::kMinus, {"5", "B", "3"}));
  EXPECT_EQ(*sols->begin(), "B=2;");
  sols = Run(Lit(BuiltinKind::kMinus, {"A", "2", "3"}));
  EXPECT_EQ(*sols->begin(), "A=5;");
}

TEST_F(BuiltinsTest, TimesModes) {
  auto sols = Run(Lit(BuiltinKind::kTimes, {"3", "4", "C"}));
  EXPECT_EQ(*sols->begin(), "C=12;");
  sols = Run(Lit(BuiltinKind::kTimes, {"3", "B", "12"}));
  EXPECT_EQ(*sols->begin(), "B=4;");
  // Non-divisible: no solution.
  EXPECT_EQ(Count(Lit(BuiltinKind::kTimes, {"3", "B", "13"})), 0u);
  // 0 * B = 5: false.
  EXPECT_EQ(Count(Lit(BuiltinKind::kTimes, {"0", "B", "5"})), 0u);
}

TEST_F(BuiltinsTest, DivMod) {
  auto sols = Run(Lit(BuiltinKind::kDiv, {"7", "2", "C"}));
  EXPECT_EQ(*sols->begin(), "C=3;");
  sols = Run(Lit(BuiltinKind::kMod, {"7", "2", "C"}));
  EXPECT_EQ(*sols->begin(), "C=1;");
  EXPECT_EQ(Count(Lit(BuiltinKind::kDiv, {"7", "0", "C"})), 0u);
}

TEST_F(BuiltinsTest, ArithmeticOnNonIntegersIsFalse) {
  EXPECT_EQ(Count(Lit(BuiltinKind::kPlus, {"a", "2", "C"})), 0u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kPlus, {"{1}", "2", "C"})), 0u);
}

// ------------------------------------------------- int64 overflow guards --
//
// Regression tests for the signed-overflow UB fix: every arithmetic mode
// must treat an out-of-range result as "builtin unsatisfied" (no solution),
// the same contract as division by zero -- never wrap around or trap.

TEST_F(BuiltinsTest, CheckedHelpersAtInt64Boundaries) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_FALSE(CheckedAdd(kMax, 1).has_value());
  EXPECT_FALSE(CheckedAdd(kMin, -1).has_value());
  EXPECT_EQ(CheckedAdd(kMax, 0).value_or(0), kMax);
  EXPECT_EQ(CheckedAdd(kMin, kMax).value_or(0), -1);
  EXPECT_FALSE(CheckedSub(kMin, 1).has_value());
  EXPECT_FALSE(CheckedSub(kMax, -1).has_value());
  EXPECT_FALSE(CheckedSub(0, kMin).has_value());  // -kMin is out of range
  EXPECT_EQ(CheckedSub(kMin, 0).value_or(0), kMin);
  EXPECT_FALSE(CheckedMul(kMax, 2).has_value());
  EXPECT_FALSE(CheckedMul(kMin, -1).has_value());
  EXPECT_FALSE(CheckedMul(kMin, 2).has_value());
  EXPECT_EQ(CheckedMul(kMin, 1).value_or(0), kMin);
  EXPECT_EQ(CheckedMul(kMax, -1).value_or(0), kMin + 1);
  EXPECT_FALSE(CheckedDiv(kMin, -1).has_value());
  EXPECT_FALSE(CheckedDiv(1, 0).has_value());
  EXPECT_EQ(CheckedDiv(kMin, 1).value_or(0), kMin);
  EXPECT_EQ(CheckedDiv(kMin, -2).value_or(0), kMin / -2);
  EXPECT_FALSE(CheckedMod(kMin, -1).has_value());
  EXPECT_FALSE(CheckedMod(1, 0).has_value());
  EXPECT_EQ(CheckedMod(kMin, 2).value_or(1), 0);
}

TEST_F(BuiltinsTest, PlusOverflowIsUnsatisfied) {
  // Forward: MAX + 1 has no int64 value.
  EXPECT_EQ(Count(Lit(BuiltinKind::kPlus, {"9223372036854775807", "1", "C"})), 0u);
  // Backward (A + b = c solved as A = c - b): MAX - (-1) overflows.
  EXPECT_EQ(Count(Lit(BuiltinKind::kPlus, {"A", "-1", "9223372036854775807"})), 0u);
  // In-range boundary results still satisfy.
  EXPECT_EQ(Count(Lit(BuiltinKind::kPlus, {"9223372036854775806", "1",
                                           "9223372036854775807"})), 1u);
}

TEST_F(BuiltinsTest, MinusOverflowIsUnsatisfied) {
  // Forward: MAX - (-1) overflows.
  EXPECT_EQ(Count(Lit(BuiltinKind::kMinus, {"9223372036854775807", "-1", "C"})), 0u);
  // Backward (B from a - B = c solved as B = a - c): -2 - MAX overflows
  // (-1 - MAX is exactly INT64_MIN, so it still satisfies).
  EXPECT_EQ(Count(Lit(BuiltinKind::kMinus, {"-2", "B", "9223372036854775807"})), 0u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kMinus, {"-1", "B", "9223372036854775807"})), 1u);
  // Backward (A from A - b = c solved as A = c + b): MAX + 1 overflows.
  EXPECT_EQ(Count(Lit(BuiltinKind::kMinus, {"A", "1", "9223372036854775807"})), 0u);
}

TEST_F(BuiltinsTest, TimesOverflowIsUnsatisfied) {
  // Forward: 2^62 * 2 = 2^63 is out of range.
  EXPECT_EQ(Count(Lit(BuiltinKind::kTimes, {"4611686018427387904", "2", "C"})), 0u);
  EXPECT_EQ(Count(Lit(BuiltinKind::kTimes, {"3037000500", "3037000500", "C"})), 0u);
  // Backward solve at the boundary (2^62 * B = MAX-1): the checked div/mod
  // path reports non-divisible instead of misbehaving.
  EXPECT_EQ(Count(Lit(BuiltinKind::kTimes, {"4611686018427387904", "B",
                                            "9223372036854775806"})), 0u);
}

TEST_F(BuiltinsTest, DivModMinByMinusOneIsUnsatisfied) {
  // INT64_MIN is not writable as a literal (the lexer rejects
  // 9223372036854775808), so splice the boundary operands in directly.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  LiteralIr div = Lit(BuiltinKind::kDiv, {"A", "B", "C"});
  div.args[0] = factory_.MakeInt(kMin);
  div.args[1] = factory_.MakeInt(-1);
  EXPECT_EQ(Count(div), 0u);
  LiteralIr mod = Lit(BuiltinKind::kMod, {"A", "B", "C"});
  mod.args[0] = factory_.MakeInt(kMin);
  mod.args[1] = factory_.MakeInt(-1);
  EXPECT_EQ(Count(mod), 0u);
  // kMin / 1 is fine.
  div.args[1] = factory_.MakeInt(1);
  EXPECT_EQ(Count(div), 1u);
}

TEST_F(BuiltinsTest, EvalArithOverflowIsNullopt) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  auto binop = [&](const char* functor, int64_t a, int64_t b) {
    const Term* args[] = {factory_.MakeInt(a), factory_.MakeInt(b)};
    return EvalArith(factory_, factory_.MakeFunc(functor, args));
  };
  EXPECT_FALSE(binop("$add", kMax, 1).has_value());
  EXPECT_FALSE(binop("$sub", kMin, 1).has_value());
  EXPECT_FALSE(binop("$mul", kMax, kMax).has_value());
  EXPECT_FALSE(binop("$div", kMin, -1).has_value());
  EXPECT_EQ(binop("$add", kMax, -1).value_or(0), kMax - 1);
}

// -------------------------------------------------------------- readiness --

// The static mode table (program/wellformed.h) the planners, the sip and
// range restriction share; the evaluator runs a built-in only in these modes.
TEST_F(BuiltinsTest, ReadyChecks) {
  EXPECT_FALSE(Ready(Lit(BuiltinKind::kMember, {"X", "S"}), {}));
  EXPECT_TRUE(Ready(Lit(BuiltinKind::kMember, {"X", "{1}"}), {}));
  EXPECT_FALSE(Ready(Lit(BuiltinKind::kEq, {"X", "Y"}), {}));
  EXPECT_TRUE(Ready(Lit(BuiltinKind::kEq, {"X", "1"}), {}));
  EXPECT_FALSE(Ready(Lit(BuiltinKind::kPlus, {"A", "B", "3"}), {}));
  EXPECT_TRUE(Ready(Lit(BuiltinKind::kPlus, {"1", "B", "3"}), {}));
  EXPECT_TRUE(Ready(Lit(BuiltinKind::kMember, {"X", "S"}), {"S"}));
  // div and mod run forward only: the dividend and divisor must be bound.
  EXPECT_FALSE(Ready(Lit(BuiltinKind::kDiv, {"X", "2", "10"}), {}));
  EXPECT_FALSE(Ready(Lit(BuiltinKind::kMod, {"X", "2", "10"}), {}));
  EXPECT_TRUE(Ready(Lit(BuiltinKind::kDiv, {"10", "2", "Z"}), {}));
}

// ---------------------------------------------------------- EvalArith unit --

TEST_F(BuiltinsTest, EvalArithExpressions) {
  auto term = [&](const char* text) {
    auto expr = ParseTermText(text, &interner_);
    EXPECT_TRUE(expr.ok());
    auto lowered = LowerTerm(factory_, *expr);
    EXPECT_TRUE(lowered.ok());
    return *lowered;
  };
  // The parser lowers infix arithmetic inside comparison contexts; here we
  // construct $add terms via the factory.
  const Term* one = factory_.MakeInt(1);
  const Term* two = factory_.MakeInt(2);
  const Term* add_args[] = {one, two};
  const Term* add = factory_.MakeFunc("$add", add_args);
  EXPECT_EQ(EvalArith(factory_, add).value_or(-1), 3);
  EXPECT_EQ(NormalizeArith(factory_, add), factory_.MakeInt(3));
  EXPECT_FALSE(EvalArith(factory_, term("a")).has_value());
  const Term* div_args[] = {one, factory_.MakeInt(0)};
  EXPECT_FALSE(EvalArith(factory_, factory_.MakeFunc("$div", div_args)).has_value());
}

}  // namespace
}  // namespace ldl
