// EvalProfile: per-rule attribution, per-stratum rollups, JSON export, and
// the profiling-off path.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eval/profile.h"
#include "ldl/ldl.h"

namespace ldl {
namespace {

// parent chain n0 -> n1 -> ... -> n<n>, plus the transitive closure rules.
std::string AncestorChain(int length) {
  std::string src;
  for (int i = 0; i < length; ++i) {
    src += "parent(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
  }
  src +=
      "anc(X, Y) :- parent(X, Y).\n"
      "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n";
  return src;
}

// The deterministic (non-timing) counters per touched rule, keyed by rule
// index, plus the rule's stratum and label.
struct RuleSnapshot {
  int stratum;
  std::string label;
  std::map<std::string, uint64_t> counters;
  bool operator==(const RuleSnapshot& other) const {
    return stratum == other.stratum && label == other.label &&
           counters == other.counters;
  }
};

std::map<int, RuleSnapshot> NonTimingFields(const EvalProfile& profile) {
  std::map<int, RuleSnapshot> out;
  for (const RuleProfileEntry& entry : profile.rules()) {
    if (entry.rule_index < 0) continue;
    RuleSnapshot snapshot;
    snapshot.stratum = entry.stratum;
    snapshot.label = entry.label;
    entry.counters.ForEachField(
        [&](const char* name, uint64_t value) { snapshot.counters[name] = value; },
        /*include_timing=*/false);
    out[entry.rule_index] = std::move(snapshot);
  }
  return out;
}

EvalProfile ProfiledEvaluate(const std::string& source) {
  Session session;
  EXPECT_TRUE(session.Load(source).ok());
  EvalOptions options;
  options.profile = true;
  Status status = session.Evaluate(options);
  EXPECT_TRUE(status.ok()) << status;
  return session.last_eval_profile();
}

TEST(Profile, CollectsPerRuleCounters) {
  EvalProfile profile = ProfiledEvaluate(AncestorChain(10));
  std::map<int, RuleSnapshot> rules = NonTimingFields(profile);
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].label, "anc(X, Y) :- parent(X, Y)");
  EXPECT_EQ(rules[1].label, "anc(X, Y) :- parent(X, Z), anc(Z, Y)");
  // The base rule fires once (round 0) and derives every parent edge.
  EXPECT_EQ(rules[0].counters["firings"], 1u);
  EXPECT_EQ(rules[0].counters["facts_derived"], 10u);
  // The recursive rule re-fires per semi-naive round and derives the rest
  // of the closure: 10*11/2 total anc facts, minus the 10 base edges.
  EXPECT_GT(rules[1].counters["firings"], 1u);
  EXPECT_EQ(rules[1].counters["facts_derived"], 45u);
  EXPECT_GT(rules[1].counters["delta_rows"], 0u);
  ASSERT_EQ(profile.strata().size(), 1u);
  EXPECT_EQ(profile.strata()[0].stratum, 0);
  EXPECT_GT(profile.strata()[0].rounds, 1u);
  EXPECT_EQ(profile.strata()[0].facts_derived, 55u);
  EXPECT_FALSE(profile.topdown().used);
}

TEST(Profile, OffByDefaultCollectsNothing) {
  Session session;
  ASSERT_TRUE(session.Load(AncestorChain(5)).ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_TRUE(session.last_eval_profile().rules().empty());
  EXPECT_TRUE(session.last_eval_profile().strata().empty());
  EXPECT_EQ(session.last_eval_profile().total_wall_ns(), 0u);
}

TEST(Profile, StratifiedProgramReportsPerStratumRollups) {
  EvalProfile profile = ProfiledEvaluate(
      "edge(a, b). edge(b, c).\n"
      "reach(X, Y) :- edge(X, Y).\n"
      "reach(X, Y) :- edge(X, Z), reach(Z, Y).\n"
      "unreachable(X, Y) :- edge(X, _), edge(_, Y), ~reach(X, Y).\n");
  // Negation forces >= 2 strata; each evaluated stratum reports a rollup.
  EXPECT_GE(profile.strata().size(), 2u);
  std::map<int, RuleSnapshot> rules = NonTimingFields(profile);
  bool saw_negation = false;
  for (const auto& [index, rule] : rules) {
    if (rule.label.find('!') != std::string::npos) {
      saw_negation = true;
      EXPECT_GT(rule.stratum, 0) << rule.label;
    }
  }
  EXPECT_TRUE(saw_negation);
}

TEST(Profile, ProfiledQueryAfterUnprofiledEvaluationReevaluates) {
  Session session;
  ASSERT_TRUE(session.Load(AncestorChain(5)).ok());
  // First query materializes the model without profiling...
  ASSERT_TRUE(session.Query("anc(n0, X)").ok());
  EXPECT_TRUE(session.last_eval_profile().rules().empty());
  // ...so a later profiled query must re-evaluate, not return the empty
  // profile of the cached model.
  QueryOptions options;
  options.eval.profile = true;
  auto result = session.Query("anc(n0, X)", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 5u);
  EXPECT_FALSE(result->profile.rules().empty());
  EXPECT_FALSE(result->profile.strata().empty());
}

TEST(Profile, MagicQueryProfilesRewrittenRules) {
  Session session;
  ASSERT_TRUE(session.Load(AncestorChain(10)).ok());
  QueryOptions options;
  options.strategy = QueryStrategy::kMagic;
  options.eval.profile = true;
  auto result = session.Query("anc(n0, X)", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 10u);
  // The profile covers the rewritten (magic) program: unlayered, so every
  // rule and the single pseudo-stratum carry stratum -1.
  EXPECT_FALSE(result->profile.rules().empty());
  for (const RuleProfileEntry& entry : result->profile.rules()) {
    if (entry.rule_index < 0) continue;
    EXPECT_EQ(entry.stratum, -1);
  }
  ASSERT_EQ(result->profile.strata().size(), 1u);
  EXPECT_EQ(result->profile.strata()[0].stratum, -1);
  EXPECT_GT(result->profile.strata()[0].facts_derived, 0u);
}

TEST(Profile, TopDownQueryFillsRollup) {
  Session session;
  ASSERT_TRUE(session.Load(AncestorChain(10)).ok());
  QueryOptions options;
  options.strategy = QueryStrategy::kTopDown;
  options.eval.profile = true;
  auto result = session.Query("anc(n0, X)", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 10u);
  EXPECT_TRUE(result->profile.topdown().used);
  EXPECT_GT(result->profile.topdown().calls, 0u);
  EXPECT_GT(result->profile.topdown().expansions, 0u);
  EXPECT_GT(result->profile.topdown().tables, 0u);
  std::map<int, RuleSnapshot> rules = NonTimingFields(result->profile);
  ASSERT_FALSE(rules.empty());
  uint64_t firings = 0;
  for (auto& [index, rule] : rules) firings += rule.counters["firings"];
  EXPECT_EQ(firings, result->profile.topdown().expansions);
}

TEST(Profile, ToJsonShape) {
  EvalProfile profile = ProfiledEvaluate(AncestorChain(5));
  std::string json = profile.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"total_wall_ns\"", "\"strata\"", "\"rules\"", "\"label\"",
        "\"firings\"", "\"delta_rows\"", "\"wall_ns\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Labels are quoted rule renderings; braces stay balanced.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(Profile, LabelEscapesJsonMetacharacters) {
  Session session;
  // p needs a proper rule so its quoted-string fact stays in the profiled
  // program instead of being split off as pure EDB.
  ASSERT_TRUE(
      session.Load("p(\"a\\\"b\"). p(X) :- q(X). q(c). q(X) :- p(X).").ok());
  EvalOptions options;
  options.profile = true;
  ASSERT_TRUE(session.Evaluate(options).ok());
  std::string json = session.last_eval_profile().ToJson();
  // The embedded quote in the constant must arrive escaped.
  EXPECT_EQ(json.find("a\"b"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
}

}  // namespace
}  // namespace ldl
