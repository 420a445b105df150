// Equivalence of the evaluation strategies over the .ldl example corpus:
// naive and semi-naive fixpoints must produce identical models (including
// the grouping and stratified-negation programs), and so must the syntactic
// and cost-based join orderers. Stored queries (which exercise the magic-rewritten
// saturating evaluation) must agree too. tests/golden_test.cc pins the
// models, answers and counters themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ldl/ldl.h"

namespace ldl {
namespace {

std::vector<std::string> CorpusPrograms() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(LDL1_CORPUS_DIR)) {
    if (entry.path().extension() == ".ldl") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// The full model as text: predicate name -> sorted formatted tuples.
// Formatting makes snapshots comparable across sessions (interned term
// pointers differ between factories).
using ModelText = std::map<std::string, std::vector<std::string>>;

ModelText Materialize(Session& session) {
  ModelText model;
  for (PredId pred = 0; pred < session.catalog().size(); ++pred) {
    std::vector<std::string> rows;
    for (const Tuple& tuple : session.database().relation(pred).Snapshot()) {
      rows.push_back(session.FormatTuple(tuple));
    }
    std::sort(rows.begin(), rows.end());
    model[session.catalog().DebugName(pred)] = std::move(rows);
  }
  return model;
}

// Answers stored queries through the magic-set rewriting, so the saturating
// evaluator (grouping reconciliation and all) runs under `eval` too.
std::vector<std::string> StoredQueryAnswers(
    Session& session, const EvalOptions& eval,
    QueryStrategy strategy = QueryStrategy::kMagic) {
  std::vector<std::string> all;
  AstPrinter printer(&session.interner());
  QueryOptions query_options;
  query_options.strategy = strategy;
  query_options.eval = eval;
  for (const QueryAst& query : session.stored_queries()) {
    std::string goal = printer.ToString(query.goal);
    auto result = session.Query(goal, query_options);
    EXPECT_TRUE(result.ok()) << goal << ": " << result.status();
    if (!result.ok()) continue;
    for (const Tuple& tuple : result->tuples) {
      all.push_back(goal + " -> " + session.FormatTuple(tuple));
    }
  }
  std::sort(all.begin(), all.end());
  return all;
}

struct Config {
  const char* name;
  EvalOptions::Mode mode;
};

constexpr Config kConfigs[] = {
    {"naive", EvalOptions::Mode::kNaive},
    {"semi-naive", EvalOptions::Mode::kSemiNaive},
};

TEST(Equivalence, CorpusModelsAgreeAcrossStrategies) {
  std::vector<std::string> programs = CorpusPrograms();
  ASSERT_FALSE(programs.empty());
  for (const std::string& path : programs) {
    ModelText reference;
    std::vector<std::string> reference_answers;
    for (const Config& config : kConfigs) {
      Session session;
      ASSERT_TRUE(session.LoadFile(path).ok()) << path;
      EvalOptions options;
      options.mode = config.mode;
      Status status = session.Evaluate(options);
      ASSERT_TRUE(status.ok()) << path << " [" << config.name << "]: " << status;
      ModelText model = Materialize(session);
      std::vector<std::string> answers = StoredQueryAnswers(session, options);
      if (&config == &kConfigs[0]) {
        reference = std::move(model);
        reference_answers = std::move(answers);
        EXPECT_FALSE(reference.empty()) << path;
        continue;
      }
      EXPECT_EQ(model, reference) << path << " [" << config.name
                                  << "] diverges from " << kConfigs[0].name;
      EXPECT_EQ(answers, reference_answers)
          << path << " [" << config.name << "] query answers diverge";
    }
  }
}

// Cost-based join ordering must be invisible in the model: over the whole
// corpus, the cost-based orderer produces the same models and stored-query
// answers as the syntactic orderer, under every query strategy.
TEST(Equivalence, CostBasedMatchesSyntacticAcrossStrategies) {
  constexpr QueryStrategy kStrategies[] = {
      QueryStrategy::kModel, QueryStrategy::kMagic,
      QueryStrategy::kMagicSupplementary, QueryStrategy::kTopDown};
  std::vector<std::string> programs = CorpusPrograms();
  ASSERT_FALSE(programs.empty());
  for (const std::string& path : programs) {
    Session reference;
    ASSERT_TRUE(reference.LoadFile(path).ok()) << path;
    EvalOptions syntactic;
    syntactic.cost_based = false;
    Status status = reference.Evaluate(syntactic);
    ASSERT_TRUE(status.ok()) << path << ": " << status;
    ModelText reference_model = Materialize(reference);
    std::map<QueryStrategy, std::vector<std::string>> reference_answers;
    for (QueryStrategy strategy : kStrategies) {
      reference_answers[strategy] =
          StoredQueryAnswers(reference, syntactic, strategy);
    }

    Session session;
    ASSERT_TRUE(session.LoadFile(path).ok()) << path;
    EvalOptions cost_based;
    cost_based.cost_based = true;
    status = session.Evaluate(cost_based);
    ASSERT_TRUE(status.ok()) << path << ": " << status;
    EXPECT_EQ(Materialize(session), reference_model)
        << path << " [cost-based] diverges from the syntactic order";
    for (QueryStrategy strategy : kStrategies) {
      EXPECT_EQ(StoredQueryAnswers(session, cost_based, strategy),
                reference_answers[strategy])
          << path << " [cost-based " << ToString(strategy)
          << "] query answers diverge";
    }
  }
}

}  // namespace
}  // namespace ldl
