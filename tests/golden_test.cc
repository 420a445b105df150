// Golden corpus test: pins the observable behaviour of every program under
// examples/programs against a checked-in text file in tests/golden/.
//
// Each golden file records, for one program:
//   * the materialized model (naive evaluation; semi-naive at 1 and 4
//     threads must reproduce it),
//   * the stored-query answers under all four query strategies,
//   * per-fact derivation counts of the counted relations,
//   * the full-evaluation EvalStats and the deterministic per-rule profile
//     lines at 1 and 4 threads.
//
// The files were recorded when the engine still carried three independent
// rule executors that had been cross-checked against each other, so they
// stand in for that cross-check now that only the block executor remains.
// On a mismatch the test writes the actual rendering next to the test binary
// (golden_actual/<program>.golden); after an intended behaviour change,
// review the diff and copy that file over the checked-in one.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "ldl/ldl.h"

namespace ldl {
namespace {

std::vector<std::filesystem::path> CorpusPrograms() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(LDL1_CORPUS_DIR)) {
    if (entry.path().extension() == ".ldl") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

using Lines = std::vector<std::string>;

// Every predicate's live facts, formatted and sorted.
Lines ModelLines(Session& session) {
  Lines lines;
  for (PredId pred = 0; pred < session.catalog().size(); ++pred) {
    std::string name = session.catalog().DebugName(pred);
    Lines rows;
    for (const Tuple& tuple : session.database().relation(pred).Snapshot()) {
      rows.push_back(name + session.FormatTuple(tuple));
    }
    std::sort(rows.begin(), rows.end());
    lines.insert(lines.end(), rows.begin(), rows.end());
  }
  return lines;
}

// Stored-query answers under `strategy`, sorted.
Lines AnswerLines(Session& session, const EvalOptions& eval,
                  QueryStrategy strategy) {
  Lines lines;
  AstPrinter printer(&session.interner());
  QueryOptions query_options;
  query_options.strategy = strategy;
  query_options.eval = eval;
  for (const QueryAst& query : session.stored_queries()) {
    std::string goal = printer.ToString(query.goal);
    auto result = session.Query(goal, query_options);
    if (!result.ok()) {
      lines.push_back(goal + " -> error: " + result.status().ToString());
      continue;
    }
    for (const Tuple& tuple : result->tuples) {
      lines.push_back(goal + " -> " + session.FormatTuple(tuple));
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

constexpr QueryStrategy kStrategies[] = {
    QueryStrategy::kModel, QueryStrategy::kMagic,
    QueryStrategy::kMagicSupplementary, QueryStrategy::kTopDown};

// Derivation count of every live fact in a counted relation.
Lines DerivationCountLines(Session& session) {
  Lines lines;
  for (PredId pred = 0; pred < session.catalog().size(); ++pred) {
    const Relation& relation = session.database().relation(pred);
    if (!relation.counted()) continue;
    std::string name = session.catalog().DebugName(pred);
    for (size_t row = 0; row < relation.row_count(); ++row) {
      if (!relation.IsLive(row)) continue;
      Tuple tuple(relation.row(row).begin(), relation.row(row).end());
      lines.push_back(name + session.FormatTuple(tuple) + " = " +
                      std::to_string(relation.derivation_count(row)));
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

Lines StatsLines(const EvalStats& stats) {
  Lines lines;
  stats.ForEachField([&](const char* name, size_t value) {
    lines.push_back(std::string(name) + "=" + std::to_string(value));
  });
  return lines;
}

// One line per profiled rule with its non-timing counters, in rule order.
Lines ProfileLines(const EvalProfile& profile) {
  Lines lines;
  for (const RuleProfileEntry& entry : profile.rules()) {
    std::string line = "#" + std::to_string(entry.rule_index) + "@" +
                       std::to_string(entry.stratum) + " " + entry.label;
    entry.counters.ForEachField(
        [&](const char* name, uint64_t value) {
          line += " " + std::string(name) + "=" + std::to_string(value);
        },
        /*include_timing=*/false);
    lines.push_back(std::move(line));
  }
  return lines;
}

void AppendSection(const std::string& title, const Lines& body, Lines* out) {
  out->push_back("== " + title);
  out->insert(out->end(), body.begin(), body.end());
}

Lines ReadLines(const std::filesystem::path& path) {
  Lines lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void WriteLines(const std::filesystem::path& path, const Lines& lines) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << '\n';
}

// Renders the golden text for the program at `path`.
Lines Render(const std::filesystem::path& path) {
  Lines golden;

  // Naive evaluation: model and stored-query answers.
  Session naive;
  EXPECT_TRUE(naive.LoadFile(path.string()).ok()) << path;
  EvalOptions naive_options;
  naive_options.mode = EvalOptions::Mode::kNaive;
  Status status = naive.Evaluate(naive_options);
  EXPECT_TRUE(status.ok()) << path << " naive: " << status;
  const Lines model = ModelLines(naive);
  AppendSection("model", model, &golden);
  std::map<QueryStrategy, Lines> answers;
  for (QueryStrategy strategy : kStrategies) {
    answers[strategy] = AnswerLines(naive, naive_options, strategy);
    AppendSection(std::string("answers ") + ToString(strategy),
                  answers[strategy], &golden);
  }

  // Default (semi-naive, profiled) evaluation at 1 and 4 threads: the model
  // and answers must match the naive ones; counters are pinned per width.
  Lines counts;
  for (int threads : {1, 4}) {
    const std::string width = "t" + std::to_string(threads);
    Session session;
    EXPECT_TRUE(session.LoadFile(path.string()).ok()) << path;
    EvalOptions options;
    options.num_threads = threads;
    options.profile = true;
    status = session.Evaluate(options);
    EXPECT_TRUE(status.ok()) << path << " " << width << ": " << status;
    EXPECT_EQ(ModelLines(session), model)
        << path << " " << width << " model diverges from naive evaluation";
    if (threads == 1) {
      counts = DerivationCountLines(session);
      AppendSection("derivation counts", counts, &golden);
    } else {
      EXPECT_EQ(DerivationCountLines(session), counts)
          << path << " " << width << " derivation counts diverge";
    }
    AppendSection("stats " + width, StatsLines(session.last_eval_stats()),
                  &golden);
    AppendSection("profile " + width,
                  ProfileLines(session.last_eval_profile()), &golden);
    for (QueryStrategy strategy : kStrategies) {
      EXPECT_EQ(AnswerLines(session, options, strategy), answers[strategy])
          << path << " " << width << " " << ToString(strategy)
          << " answers diverge from naive evaluation";
    }
  }
  return golden;
}

TEST(Golden, CorpusMatchesRecordedBehaviour) {
  std::vector<std::filesystem::path> programs = CorpusPrograms();
  ASSERT_FALSE(programs.empty());
  for (const std::filesystem::path& path : programs) {
    const std::string name = path.stem().string() + ".golden";
    Lines actual = Render(path);
    Lines expected =
        ReadLines(std::filesystem::path(LDL1_GOLDEN_DIR) / name);
    if (actual == expected) continue;
    std::filesystem::path dump =
        std::filesystem::path(LDL1_GOLDEN_ACTUAL_DIR) / name;
    WriteLines(dump, actual);
    size_t i = 0;
    while (i < actual.size() && i < expected.size() && actual[i] == expected[i]) {
      ++i;
    }
    ADD_FAILURE() << name << " differs from the recorded golden at line "
                  << i + 1 << ":\n  expected: "
                  << (i < expected.size() ? expected[i] : "<end of file>")
                  << "\n  actual:   "
                  << (i < actual.size() ? actual[i] : "<end of file>")
                  << "\nfull rendering written to " << dump;
  }
}

}  // namespace
}  // namespace ldl
