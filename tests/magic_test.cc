// §6: sips, adornment, Generalized Magic Sets, and the equivalence theorems.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "base/str_util.h"
#include "eval/profile.h"
#include "ldl/ldl.h"
#include "ldl/service.h"
#include "parser/parser.h"
#include "program/wellformed.h"
#include "rewrite/adorn.h"
#include "rewrite/magic.h"
#include "rewrite/sip.h"
#include "workload/workload.h"

namespace ldl {
namespace {

constexpr const char* kAncestorRules =
    "a(X, Y) :- p(X, Y).\n"
    "a(X, Y) :- a(X, Z), a(Z, Y).\n";

constexpr const char* kYoungRules =
    // The paper's §6 running example, rules 1-5.
    "a(X, Y) :- p(X, Y).\n"
    "a(X, Y) :- a(X, Z), a(Z, Y).\n"
    "sg(X, Y) :- siblings(X, Y).\n"
    "sg(X, Y) :- p(Z1, X), sg(Z1, Z2), p(Z2, Y).\n"
    "young(X, <Y>) :- !a(X, Z), sg(X, Y).\n";

// ------------------------------------------------------------------- sips --

TEST(Sip, BoundFirstBindingFlow) {
  Session session;
  ASSERT_TRUE(session.Load(kAncestorRules).ok());
  ASSERT_TRUE(session.Analyze().ok());
  // Rule 2: a(X, Y) :- a(X, Z), a(Z, Y) with head adornment bf.
  const RuleIr* rule2 = nullptr;
  for (const RuleIr& rule : session.program().rules) {
    if (rule.body.size() == 2) rule2 = &rule;
  }
  ASSERT_NE(rule2, nullptr);
  Sip sip = BuildSip(session.catalog(), *rule2, "bf");
  // First occurrence sees X bound from the head: "bf"; it runs first and
  // binds Z, so the second sees "bf" too -- the paper's sip for rule 2,
  // whose arc into occurrence 1 comes from the head and occurrence 0.
  EXPECT_EQ(sip.order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sip.literal_adornments[0], "bf");
  EXPECT_EQ(sip.literal_adornments[1], "bf");
}

TEST(Sip, FreeFirstGoalBindsTheRecursiveLiteralFirst) {
  Session session;
  ASSERT_TRUE(session.Load(
      "anc(X, Y) :- parent(X, Y).\n"
      "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n").ok());
  ASSERT_TRUE(session.Analyze().ok());
  const RuleIr* recursive = nullptr;
  for (const RuleIr& rule : session.program().rules) {
    if (rule.body.size() == 2) recursive = &rule;
  }
  ASSERT_NE(recursive, nullptr);
  // Under fb only Y is bound: anc(Z, Y) has one bound position, parent(X, Z)
  // none, so anc goes first and its Z binds parent's second argument.
  Sip sip = BuildSip(session.catalog(), *recursive, "fb");
  EXPECT_EQ(sip.order, (std::vector<int>{1, 0}));
  EXPECT_EQ(sip.literal_adornments[0], "fb");
  EXPECT_EQ(sip.literal_adornments[1], "fb");
}

TEST(Sip, GroupedHeadArgumentPassesNoBindings) {
  Session session;
  ASSERT_TRUE(session.Load(kYoungRules).ok());
  ASSERT_TRUE(session.Analyze().ok());
  const RuleIr* young_rule = nullptr;
  for (const RuleIr& rule : session.program().rules) {
    if (rule.is_grouping()) young_rule = &rule;
  }
  ASSERT_NE(young_rule, nullptr);
  // Even if a caller somehow bound the grouped position, its variable must
  // not flow into the body.
  Sip sip = BuildSip(session.catalog(), *young_rule, "bb");
  // Body: !a(X, Z), sg(X, Y). X is bound (head position 0), Y is not.
  EXPECT_EQ(sip.literal_adornments[0], "bf");
  EXPECT_EQ(sip.literal_adornments[1], "bf");
}

TEST(Sip, QueryAdornmentForcesGroupedPositionsFree) {
  Session session;
  ASSERT_TRUE(session.Load(kYoungRules).ok());
  ASSERT_TRUE(session.Analyze().ok());
  Interner& interner = session.interner();
  auto goal_ast = ParseLiteralText("young(john, {a})", &interner);
  ASSERT_TRUE(goal_ast.ok());
  auto goal = LowerLiteral(session.factory(), session.catalog(), *goal_ast);
  ASSERT_TRUE(goal.ok());
  // Both args are ground, but position 1 is grouped: adornment stays bf.
  EXPECT_EQ(QueryAdornment(session.catalog(), *goal), "bf");
}

// -------------------------------------------------------------- adornment --

TEST(Adorn, ProducesReachableAdornedRules) {
  Session session;
  ASSERT_TRUE(session.Load(kYoungRules).ok());
  ASSERT_TRUE(session.Analyze().ok());
  auto goal_ast = ParseLiteralText("young(john, S)", &session.interner());
  ASSERT_TRUE(goal_ast.ok());
  auto goal = LowerLiteral(session.factory(), session.catalog(), *goal_ast);
  ASSERT_TRUE(goal.ok());
  auto adorned = AdornProgram(session.program(), &session.catalog(), *goal);
  ASSERT_TRUE(adorned.ok()) << adorned.status();
  EXPECT_EQ(adorned->query_adornment, "bf");
  // The paper's adorned program: young__bf, a__bf, sg__bf (5 rules).
  EXPECT_EQ(adorned->rules.rules.size(), 5u);
  Catalog& catalog = session.catalog();
  EXPECT_NE(catalog.Find("young__bf", 2), kInvalidPred);
  EXPECT_NE(catalog.Find("a__bf", 2), kInvalidPred);
  EXPECT_NE(catalog.Find("sg__bf", 2), kInvalidPred);
  // No free-free versions are reachable.
  EXPECT_EQ(catalog.Find("a__ff", 2), kInvalidPred);
}

TEST(Adorn, GoalOnExtensionalPredicateFails) {
  Session session;
  ASSERT_TRUE(session.Load("p(a, b).\n").ok());
  ASSERT_TRUE(session.Analyze().ok());
  auto goal_ast = ParseLiteralText("p(a, X)", &session.interner());
  ASSERT_TRUE(goal_ast.ok());
  auto goal = LowerLiteral(session.factory(), session.catalog(), *goal_ast);
  ASSERT_TRUE(goal.ok());
  EXPECT_FALSE(AdornProgram(session.program(), &session.catalog(), *goal).ok());
}

// ------------------------------------------------------------ magic rules --

TEST(Magic, RewriteShapeMatchesPaper) {
  // The paper's rewritten rule set 1'-11' (modulo rule numbering) less the
  // deletable 1': one seed, magic rules for a, sg, and five modified rules.
  Session session;
  ASSERT_TRUE(session.Load(kYoungRules).ok());
  ASSERT_TRUE(session.Analyze().ok());
  auto goal_ast = ParseLiteralText("young(john, S)", &session.interner());
  auto goal = LowerLiteral(session.factory(), session.catalog(), *goal_ast);
  ASSERT_TRUE(goal.ok());
  auto magic = MagicRewrite(session.program(), &session.catalog(), *goal);
  ASSERT_TRUE(magic.ok()) << magic.status();
  Catalog& catalog = session.catalog();
  PredId m_young = catalog.Find("m_young__bf", 1);
  PredId m_a = catalog.Find("m_a__bf", 1);
  PredId m_sg = catalog.Find("m_sg__bf", 1);
  ASSERT_NE(m_young, kInvalidPred);
  ASSERT_NE(m_a, kInvalidPred);
  ASSERT_NE(m_sg, kInvalidPred);

  size_t seeds = 0;
  size_t magic_rules = 0;
  size_t modified = 0;
  for (const RuleIr& rule : magic->rules.rules) {
    if (rule.head_pred == m_young || rule.head_pred == m_a ||
        rule.head_pred == m_sg) {
      if (rule.is_fact()) {
        ++seeds;
      } else {
        ++magic_rules;
        // Every magic rule starts from a magic literal.
        EXPECT_FALSE(rule.body.empty());
      }
    } else {
      ++modified;
      // Every modified rule is guarded by its head's magic literal.
      ASSERT_FALSE(rule.body.empty());
      EXPECT_TRUE(rule.body[0].pred == m_young || rule.body[0].pred == m_a ||
                  rule.body[0].pred == m_sg);
    }
  }
  EXPECT_EQ(seeds, 1u);      // 11': magic_young(john)
  EXPECT_EQ(modified, 5u);   // 6'-10'
  // Rules 2 (x2), 4 and 5 produce 5 magic rules, but one of rule 2's is
  // 1', the trivially cyclic magic rule the paper notes "may be deleted",
  // and the generator deletes it: 4 remain.
  EXPECT_EQ(magic_rules, 4u);
}

TEST(Magic, AnswersMatchFullEvaluationOnBoundQuery) {
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(30, "p")).ok());
  ASSERT_TRUE(session.Load(kAncestorRules).ok());
  auto full = session.Query("a(p0, X)");
  ASSERT_TRUE(full.ok()) << full.status();
  QueryOptions magic_options;
  magic_options.strategy = ldl::QueryStrategy::kMagic;
  auto magic = session.Query("a(p0, X)", magic_options);
  ASSERT_TRUE(magic.ok()) << magic.status();
  EXPECT_EQ(full->tuples.size(), 30u);
  EXPECT_EQ(magic->tuples.size(), 30u);
}

TEST(Magic, TouchesFewerTuplesThanFullEvaluation) {
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(120, "p")).ok());
  ASSERT_TRUE(session
                  .Load("a(X, Y) :- p(X, Y).\n"
                        "a(X, Y) :- p(X, Z), a(Z, Y).")
                  .ok());
  QueryOptions magic_options;
  magic_options.strategy = ldl::QueryStrategy::kMagic;
  auto magic = session.Query("a(p110, X)", magic_options);
  ASSERT_TRUE(magic.ok()) << magic.status();
  EXPECT_EQ(magic->tuples.size(), 10u);
  auto full = session.Query("a(p110, X)");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->tuples.size(), 10u);
  // §6's efficiency claim: the bound query restricts computation.
  EXPECT_LT(magic->stats.facts_derived, full->stats.facts_derived / 10);
}

TEST(Magic, FreeFirstGoalTouchesOnlyItsAncestors) {
  // anc(X, p4095) asks for the ancestors of the last person of a random
  // forest. Under the bound-first sip the magic set holds p4095 and its
  // ancestors only, so the matched tuples follow the answers, not the EDB.
  Service service;
  ASSERT_TRUE(service
                  .Load(ParentRandomTree(4096, /*seed=*/11) +
                        "anc(X, Y) :- parent(X, Y).\n"
                        "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n")
                  .ok());
  auto goal = service.Prepare("anc(X, p4095)");
  ASSERT_TRUE(goal.ok()) << goal.status();
  auto query = [&](QueryStrategy strategy) {
    QueryOptions options;
    options.strategy = strategy;
    auto result = service.Query(*goal, options);
    EXPECT_TRUE(result.ok()) << result.status();
    QueryResult sorted = result.ok() ? *std::move(result) : QueryResult{};
    std::sort(sorted.tuples.begin(), sorted.tuples.end());
    return sorted;
  };
  const QueryResult model = query(QueryStrategy::kModel);
  ASSERT_FALSE(model.tuples.empty());
  for (QueryStrategy strategy :
       {QueryStrategy::kMagic, QueryStrategy::kMagicSupplementary}) {
    const QueryResult result = query(strategy);
    EXPECT_EQ(result.tuples, model.tuples) << ToString(strategy);
    EXPECT_LT(result.stats.tuples_matched, 10 * model.tuples.size())
        << ToString(strategy);
  }
}

TEST(Magic, YoungRunningExampleEndToEnd) {
  SameGenerationWorkload workload = MakeSameGeneration(3, 2, 3);
  Session session;
  ASSERT_TRUE(session.Load(workload.facts).ok());
  ASSERT_TRUE(session.Load(kYoungRules).ok());

  QueryOptions magic_options;
  magic_options.strategy = ldl::QueryStrategy::kMagic;
  std::string goal = StrCat("young(", workload.a_leaf, ", S)");
  auto magic = session.Query(goal, magic_options);
  ASSERT_TRUE(magic.ok()) << magic.status();
  auto full = session.Query(goal);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(magic->tuples.size(), full->tuples.size());
  if (!full->tuples.empty()) {
    EXPECT_EQ(session.FormatTuple(magic->tuples[0]),
              session.FormatTuple(full->tuples[0]));
  }
  // A person with descendants is not young -- the magic query fails like the
  // full one.
  std::string inner_goal = StrCat("young(", workload.an_inner, ", S)");
  auto inner = session.Query(inner_goal, magic_options);
  ASSERT_TRUE(inner.ok()) << inner.status();
  EXPECT_TRUE(inner->tuples.empty());
}

// Saturation fires a negation (or grouping) rule only once the literals it
// reads are complete for the current magic facts. Each row's negated
// literal gets its bindings, or its facts, from a grouping or negation
// rule, so firing it over the first positive saturation would answer
// wrongly and never retract.
struct NegationCase {
  const char* program;
  const char* goal;
  size_t model_answers;
};

constexpr NegationCase kNegationCases[] = {
    // S comes from a grouped literal placed after the negation.
    {"b(a). e(a, 1). e(a, 2). f(a, {1, 2}).\n"
     "r(X, S) :- f(X, S).\n"
     "t(X, <Y>) :- e(X, Y).\n"
     "p(X) :- b(X), !r(X, S), t(X, S).\n",
     "p(a)", 0},
    // The same with the grouped literal textually first.
    {"b(a). e(a, 1). e(a, 2). f(a, {1, 2}).\n"
     "r(X, S) :- f(X, S).\n"
     "t(X, <Y>) :- e(X, Y).\n"
     "p(X) :- b(X), t(X, S), !r(X, S).\n",
     "p(a)", 0},
    // The negated predicate is itself derived through a negation.
    {"b(a). c(a). s(z).\n"
     "r(X) :- c(X), !s(X).\n"
     "p(X) :- b(X), !r(X).\n",
     "p(a)", 0},
    // The negated predicate reads a group whose demand appears only after
    // another group fired.
    {"b(a). e(a, 1). e(a, 2).\n"
     "t(X, <Y>) :- e(X, Y).\n"
     "g(X, <Y>) :- e(X, Y).\n"
     "r(X, S) :- g(X, S).\n"
     "p(X) :- b(X), t(X, S), !r(X, S).\n",
     "p(a)", 0},
    // The negated predicate's demand comes from p's own facts (nonlinear
    // recursion), so p and r meet in one component of the rewritten
    // program; r is still finished first.
    {"e(a, b). e(b, c). c(a). c(b). s(z).\n"
     "r(X) :- c(X), !s(X).\n"
     "p(X, Y) :- e(X, Y), !r(X).\n"
     "p(X, Z) :- p(X, Y), p(Y, Z).\n",
     "p(a, Y)", 0},
    // A negation that holds still answers.
    {"b(a). b(d). c(a). s(a).\n"
     "r(X) :- c(X), !s(X).\n"
     "p(X) :- b(X), !r(X).\n",
     "p(X)", 2},
};

TEST(Magic, NegationWaitsForCompleteInputs) {
  for (const NegationCase& row : kNegationCases) {
    SCOPED_TRACE(row.program);
    Session session;
    ASSERT_TRUE(session.Load(row.program).ok());
    auto answers = [&](QueryStrategy strategy) {
      QueryOptions query_options;
      query_options.strategy = strategy;
      auto result = session.Query(row.goal, query_options);
      EXPECT_TRUE(result.ok()) << ToString(strategy) << ": " << result.status();
      std::vector<std::string> out;
      if (!result.ok()) return out;
      for (const Tuple& t : result->tuples) out.push_back(session.FormatTuple(t));
      std::sort(out.begin(), out.end());
      return out;
    };
    const std::vector<std::string> model = answers(QueryStrategy::kModel);
    EXPECT_EQ(model.size(), row.model_answers);
    EXPECT_EQ(answers(QueryStrategy::kMagic), model);
    EXPECT_EQ(answers(QueryStrategy::kMagicSupplementary), model);
    EXPECT_EQ(answers(QueryStrategy::kTopDown), model);
  }
}

// Property sweep (Theorems 3/4): on random workloads, the magic-rewritten
// program computes exactly the answers of the stratified evaluation, for
// queries over recursion, negation and grouping.
struct MagicCase {
  const char* name;
  const char* rules;
  const char* goal_pattern;  // %s replaced by a constant
  const char* goal_constant;
  const char* facts_kind;    // "tree" or "sg"
};

class MagicEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(MagicEquivalenceSweep, MagicEqualsStratified) {
  int seed = GetParam();
  SameGenerationWorkload workload = MakeSameGeneration(2, 2, 2 + seed % 2);
  Session session;
  ASSERT_TRUE(session.Load(workload.facts).ok());
  ASSERT_TRUE(session.Load(ParentRandomTree(25, seed, "p")).ok());
  ASSERT_TRUE(session.Load(kYoungRules).ok());

  for (const std::string& goal :
       {StrCat("a(x0, X)"), StrCat("sg(", workload.a_leaf, ", X)"),
        StrCat("young(", workload.a_leaf, ", S)")}) {
    auto full = session.Query(goal);
    ASSERT_TRUE(full.ok()) << goal << ": " << full.status();
    QueryOptions magic_options;
    magic_options.strategy = ldl::QueryStrategy::kMagic;
    auto magic = session.Query(goal, magic_options);
    ASSERT_TRUE(magic.ok()) << goal << ": " << magic.status();

    auto render = [&](const std::vector<Tuple>& tuples) {
      std::vector<std::string> out;
      for (const Tuple& tuple : tuples) out.push_back(session.FormatTuple(tuple));
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(render(full->tuples), render(magic->tuples)) << goal;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MagicEquivalenceSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Adorn, MultipleAdornmentsForOnePredicate) {
  // anc is consulted bound-first by one rule and bound-second by another:
  // both adorned versions must be generated, each with its own magic
  // predicate, and the answers must match full evaluation.
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(20, "p")).ok());
  ASSERT_TRUE(session
                  .Load("anc(X, Y) :- p(X, Y).\n"
                        "anc(X, Y) :- p(X, Z), anc(Z, Y).\n"
                        "rel(A, B) :- anc(A, B).\n"
                        "rel(A, B) :- anc(B, A).")
                  .ok());
  ASSERT_TRUE(session.Analyze().ok());
  auto goal_ast = ParseLiteralText("rel(p5, X)", &session.interner());
  ASSERT_TRUE(goal_ast.ok());
  auto goal = LowerLiteral(session.factory(), session.catalog(), *goal_ast);
  ASSERT_TRUE(goal.ok());
  auto adorned = AdornProgram(session.program(), &session.catalog(), *goal);
  ASSERT_TRUE(adorned.ok()) << adorned.status();
  EXPECT_NE(session.catalog().Find("anc__bf", 2), kInvalidPred);
  EXPECT_NE(session.catalog().Find("anc__fb", 2), kInvalidPred);

  QueryOptions magic;
  magic.strategy = ldl::QueryStrategy::kMagic;
  auto full = session.Query("rel(p5, X)");
  auto fast = session.Query("rel(p5, X)", magic);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(fast.ok()) << fast.status();
  EXPECT_EQ(full->tuples.size(), fast->tuples.size());
  EXPECT_EQ(fast->tuples.size(), 20u);  // 15 descendants + 5 ancestors of p5
}

// Supplementary magic ([BR87]) computes the same answers with shared
// prefix joins.
TEST(SupplementaryMagic, AnswersMatchPlainMagic) {
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(60, "p")).ok());
  ASSERT_TRUE(session.Load(kYoungRules).ok());
  ASSERT_TRUE(session.Load(MakeSameGeneration(2, 2, 3).facts).ok());

  for (const char* goal : {"a(x0, X)", "sg(x3, X)", "young(x3, S)"}) {
    QueryOptions plain;
    plain.strategy = ldl::QueryStrategy::kMagic;
    QueryOptions supplementary = plain;
    supplementary.strategy = ldl::QueryStrategy::kMagicSupplementary;
    auto a = session.Query(goal, plain);
    auto b = session.Query(goal, supplementary);
    ASSERT_TRUE(a.ok()) << goal << ": " << a.status();
    ASSERT_TRUE(b.ok()) << goal << ": " << b.status();
    auto render = [&](const std::vector<Tuple>& tuples) {
      std::vector<std::string> out;
      for (const Tuple& t : tuples) out.push_back(session.FormatTuple(t));
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(render(a->tuples), render(b->tuples)) << goal;
  }
}

// Each row: a program, a bound goal, and the fewest sup$ rules its
// supplementary rewrite must emit (one sup_0 per rewritten rule, plus one
// per later chain step). A rule that fell back to plain magic would emit
// none, so the count shows the chain was built; the answers must equal
// those of plain magic and of the materialized model.
struct SupChainCase {
  const char* rules;
  const char* facts;
  const char* goal;
  size_t min_sup_rules;
};

constexpr SupChainCase kSupChainCases[] = {
    {kYoungRules,
     "p(mary, john). p(mary, ann). p(sue, mary). p(sue, bob). p(bob, carl).\n"
     "siblings(mary, bob). siblings(bob, mary). siblings(john, ann).\n",
     "young(john, S)", 5},
    // A comparison in the recursive rule: 1 sup$ rule for the exit rule, 2
    // for the recursive one.
    {"r(X, Y) :- e(X, Y).\n"
     "r(X, Y) :- e(X, Z), Z != X, r(Z, Y).\n",
     "e(a, b). e(b, a). e(b, c). e(c, c). e(c, d).\n", "r(a, Y)", 3},
};

TEST(SupplementaryMagic, EmitsSupChains) {
  for (const SupChainCase& row : kSupChainCases) {
    SCOPED_TRACE(row.goal);
    Session session;
    ASSERT_TRUE(session.Load(row.rules).ok());
    ASSERT_TRUE(session.Load(row.facts).ok());
    ASSERT_TRUE(session.Analyze().ok());
    auto goal_ast = ParseLiteralText(row.goal, &session.interner());
    ASSERT_TRUE(goal_ast.ok());
    auto goal = LowerLiteral(session.factory(), session.catalog(), *goal_ast);
    ASSERT_TRUE(goal.ok());
    MagicOptions options;
    options.supplementary = true;
    auto magic =
        MagicRewrite(session.program(), &session.catalog(), *goal, options);
    ASSERT_TRUE(magic.ok()) << magic.status();
    size_t sup_rules = 0;
    for (const RuleIr& rule : magic->rules.rules) {
      std::string name(session.interner().Lookup(
          session.catalog().info(rule.head_pred).name));
      if (name.rfind("sup$", 0) == 0) ++sup_rules;
    }
    EXPECT_GE(sup_rules, row.min_sup_rules);

    auto answers = [&](QueryStrategy strategy) {
      QueryOptions query_options;
      query_options.strategy = strategy;
      auto result = session.Query(row.goal, query_options);
      EXPECT_TRUE(result.ok()) << ToString(strategy) << ": " << result.status();
      std::vector<std::string> out;
      if (!result.ok()) return out;
      for (const Tuple& t : result->tuples) out.push_back(session.FormatTuple(t));
      std::sort(out.begin(), out.end());
      return out;
    };
    const std::vector<std::string> model = answers(QueryStrategy::kModel);
    EXPECT_FALSE(model.empty());
    EXPECT_EQ(answers(QueryStrategy::kMagic), model);
    EXPECT_EQ(answers(QueryStrategy::kMagicSupplementary), model);
  }
}

// The corpus programs the rewrite golden pins, each with its stored goals.
std::vector<std::filesystem::path> CorpusPrograms() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(LDL1_CORPUS_DIR)) {
    if (entry.path().extension() == ".ldl") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// The rewrite of `goal_ast` over `session`'s program under kMagic, or
// under kMagicSupplementary when `supplementary` is set.
StatusOr<MagicProgram> RewriteGoal(Session& session, const LiteralAst& goal_ast,
                                   bool supplementary) {
  LDL_ASSIGN_OR_RETURN(
      LiteralIr goal,
      LowerLiteral(session.factory(), session.catalog(), goal_ast));
  MagicOptions options;
  options.supplementary = supplementary;
  return MagicRewrite(session.program(), &session.catalog(), goal, options);
}

std::string PredName(const Session& session, PredId pred) {
  return std::string(
      session.interner().Lookup(session.catalog().info(pred).name));
}

// The magic rule of path(Z, Y) keeps the member that enumerates S.
constexpr char kMemberProgram[] =
    "e(1, 2). e(2, 3). e(3, 4). e(5, 6). e(6, 7). g({1, 5}).\n"
    "path(X, Y) :- e(X, Y).\n"
    "path(X, Y) :- e(X, Z), path(Z, Y).\n"
    "reach(S, Y) :- g(S), member(X, S), e(X, Z), path(Z, Y).\n";

// True when `body` keeps a partition or member that binds a variable no
// literal before it binds: one solution per split or element.
bool KeepsEnumerator(const std::vector<LiteralIr>& body) {
  std::vector<Symbol> bound;
  for (const LiteralIr& literal : body) {
    std::vector<Symbol> vars;
    BindLiteralVars(literal, &vars);
    if (literal.is_builtin() &&
        (literal.builtin == BuiltinKind::kMember ||
         literal.builtin == BuiltinKind::kPartition) &&
        std::any_of(vars.begin(), vars.end(), [&](Symbol var) {
          return std::find(bound.begin(), bound.end(), var) == bound.end();
        })) {
      return true;
    }
    bound.insert(bound.end(), vars.begin(), vars.end());
  }
  return false;
}

// Checks the magic rules of `goal_ast`'s rewrite in both modes: none is
// the paper's deletable 1' -- a rule whose only source is its own head's
// magic set, directly, m_p(X) :- m_p(X), or through the copy a step-0 sup
// predicate makes of it, sup$p$n$0(X) :- m_p(X) -- and none re-runs an
// enumerator, which the emitter stores once as a sup$ predicate instead.
void ExpectMagicRulesCopyAndEnumerateNothing(Session& session,
                                             const LiteralAst& goal_ast,
                                             const std::string& label) {
  for (bool supplementary : {false, true}) {
    auto magic = RewriteGoal(session, goal_ast, supplementary);
    ASSERT_TRUE(magic.ok()) << label << ": " << magic.status();
    // The rules that only copy one literal: what each head copies.
    std::map<PredId, const LiteralIr*> copies;
    for (const RuleIr& rule : magic->rules.rules) {
      if (rule.body.size() == 1) copies[rule.head_pred] = &rule.body[0];
    }
    std::vector<PredId> magic_preds;
    for (const auto& [adorned, magic_pred] : magic->magic_of) {
      magic_preds.push_back(magic_pred);
    }
    for (const RuleIr& rule : magic->rules.rules) {
      if (std::find(magic_preds.begin(), magic_preds.end(), rule.head_pred) ==
          magic_preds.end()) {
        continue;
      }
      const std::string where = StrCat(
          label, supplementary ? " magic-sup: " : " magic: ",
          FormatRuleLabel(session.factory(), session.catalog(), rule));
      EXPECT_FALSE(KeepsEnumerator(rule.body)) << where;
      if (rule.body.size() != 1) continue;
      const LiteralIr* source = &rule.body[0];
      if (PredName(session, source->pred).starts_with("sup$") &&
          copies.count(source->pred) > 0) {
        source = copies[source->pred];
      }
      EXPECT_FALSE(source->pred == rule.head_pred &&
                   source->args == rule.head_args)
          << where;
    }
  }
}

TEST(Magic, SupplementaryEmitsNoSelfCopy) {
  size_t goals = 0;
  for (const std::filesystem::path& path : CorpusPrograms()) {
    Session session;
    ASSERT_TRUE(session.LoadFile(path.string()).ok()) << path;
    ASSERT_TRUE(session.Analyze().ok()) << path;
    for (const QueryAst& query : session.stored_queries()) {
      ExpectMagicRulesCopyAndEnumerateNothing(session, query.goal,
                                              path.filename().string());
      ++goals;
    }
  }
  EXPECT_EQ(goals, 6u);
  Session session;
  ASSERT_TRUE(session.Load(kMemberProgram).ok());
  ASSERT_TRUE(session.Analyze().ok());
  auto goal_ast = ParseLiteralText("reach({1, 5}, Y)", &session.interner());
  ASSERT_TRUE(goal_ast.ok());
  ExpectMagicRulesCopyAndEnumerateNothing(session, *goal_ast, "reach");
}

// kMagic materializes a rule's prefix as a sup$ predicate only where a
// magic rule would enumerate (keep a partition or member that binds a
// variable); every other rule is rewritten as plain magic. Each row: a
// corpus program (or, without a .ldl suffix, program text), a goal, and the
// adorned head whose rule is chained (nullptr: none is).
struct ChainCase {
  const char* program;
  const char* goal;
  const char* chained_head;
};

constexpr ChainCase kChainCases[] = {
    {"ancestor.ldl", "ancestor(abe, X)", nullptr},
    {"ancestor.ldl", "ancestor(X, dina)", nullptr},
    {"young.ldl", "young(ella, S)", nullptr},
    {"young.ldl", "sg(ella, Y)", nullptr},
    {"sets.ldl", "elems(X)", nullptr},
    // tc(S, C) :- partition(S, S1, S2), tc(S1, C1), ...: the magic rule of
    // tc(S1, C1) would keep the partition that enumerates S1, so the prefix
    // through it is stored once, as sup$tc__bf$2$1(S, S1, S2).
    {"bom.ldl", "result(1, C)", "tc__bf"},
    {kMemberProgram, "reach({1, 5}, Y)", "reach__bf"},
    // The magic rule of the second grouping literal joins r and part$0, but
    // a join alone does not chain.
    {"school.ldl", "by_teacher(smith, S, D)", nullptr},
};

TEST(Magic, ChainsOnlyWhereThePrefixEnumerates) {
  for (const ChainCase& row : kChainCases) {
    SCOPED_TRACE(row.goal);
    Session session;
    const std::string program = row.program;
    ASSERT_TRUE(
        (program.ends_with(".ldl")
             ? session.LoadFile(StrCat(LDL1_CORPUS_DIR, "/", program))
             : session.Load(program))
            .ok());
    ASSERT_TRUE(session.Analyze().ok());
    auto goal_ast = ParseLiteralText(row.goal, &session.interner());
    ASSERT_TRUE(goal_ast.ok());
    auto magic = RewriteGoal(session, *goal_ast, /*supplementary=*/false);
    ASSERT_TRUE(magic.ok()) << magic.status();
    size_t sup_rules = 0;
    for (const RuleIr& rule : magic->rules.rules) {
      std::string name = PredName(session, rule.head_pred);
      if (!name.starts_with("sup$")) continue;
      ++sup_rules;
      ASSERT_NE(row.chained_head, nullptr) << name;
      EXPECT_TRUE(name.starts_with(StrCat("sup$", row.chained_head, "$")))
          << name;
    }
    EXPECT_EQ(sup_rules > 0, row.chained_head != nullptr);

    auto answers = [&](QueryStrategy strategy) {
      QueryOptions options;
      options.strategy = strategy;
      auto result = session.Query(row.goal, options);
      EXPECT_TRUE(result.ok()) << ToString(strategy) << ": " << result.status();
      std::vector<std::string> out;
      if (!result.ok()) return out;
      for (const Tuple& t : result->tuples) {
        out.push_back(session.FormatTuple(t));
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    const std::vector<std::string> model = answers(QueryStrategy::kModel);
    EXPECT_FALSE(model.empty());
    EXPECT_EQ(answers(QueryStrategy::kMagic), model);
  }
}

// The §1 bill of materials over MakeBom's part_of/cost facts (bench_bom).
constexpr char kBomProgram[] =
    "p(P, S) :- part_of(P, S).\n"
    "q(X, C) :- cost(X, C).\n"
    "part(P, <S>) :- p(P, S).\n"
    "tc({X}, C) :- q(X, C).\n"
    "tc({X}, C) :- part(X, S), tc(S, C).\n"
    "tc(S, C) :- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), +(C1, C2, C).\n"
    "result(X, C) :- tc({X}, C).\n";

TEST(SupplementaryMagic, BomPartitionRuleWorks) {
  // The partition built-in precedes its inputs textually; the sip order
  // must place it once its input is bound and still give an evaluable
  // supplementary chain.
  BomWorkload workload = MakeBom(16, 3);
  Session session;
  ASSERT_TRUE(session.Load(workload.facts).ok());
  ASSERT_TRUE(session.Load(kBomProgram).ok());
  QueryOptions plain;
  plain.strategy = ldl::QueryStrategy::kMagic;
  QueryOptions supplementary = plain;
  supplementary.strategy = ldl::QueryStrategy::kMagicSupplementary;
  std::string goal = StrCat("result(", workload.root, ", C)");
  auto a = session.Query(goal, plain);
  auto b = session.Query(goal, supplementary);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(a->tuples.size(), 1u);
  ASSERT_EQ(b->tuples.size(), 1u);
  EXPECT_EQ(a->tuples[0][1], b->tuples[0][1]);
}

// With m_tc__bf(S), partition(S, S1, S2) stored once as a sup$ predicate,
// a new tc(S1, C1) fact probes the splits that asked for S1 instead of
// rescanning m_tc__bf and re-splitting every set in it. The bound sits
// below the 27.5k tuples a rewrite that re-runs the partition matches here
// in either mode.
TEST(Magic, BomStoresThePartitionPrefixOnce) {
  const BomWorkload workload = MakeBom(48, 21);
  const std::string goal = StrCat("result(", workload.root, ", C)");
  struct Run {
    std::vector<std::string> answers;
    uint64_t matched = 0;
  };
  auto run = [&](QueryStrategy strategy) {
    Run out;
    Session session;
    EXPECT_TRUE(session.Load(workload.facts).ok());
    EXPECT_TRUE(session.Load(kBomProgram).ok());
    QueryOptions options;
    options.strategy = strategy;
    auto result = session.Query(goal, options);
    EXPECT_TRUE(result.ok()) << ToString(strategy) << ": " << result.status();
    if (!result.ok()) return out;
    for (const Tuple& t : result->tuples) {
      out.answers.push_back(session.FormatTuple(t));
    }
    std::sort(out.answers.begin(), out.answers.end());
    out.matched = result->stats.tuples_matched;
    return out;
  };
  const Run topdown = run(QueryStrategy::kTopDown);
  ASSERT_EQ(topdown.answers.size(), 1u);
  for (QueryStrategy strategy :
       {QueryStrategy::kMagic, QueryStrategy::kMagicSupplementary}) {
    SCOPED_TRACE(ToString(strategy));
    const Run magic = run(strategy);
    EXPECT_EQ(magic.answers, topdown.answers);
    EXPECT_LT(magic.matched, 15000u);
  }
}

}  // namespace
}  // namespace ldl
