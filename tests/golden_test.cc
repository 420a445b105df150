// Golden corpus test: pins the observable behaviour of every program under
// examples/programs against a checked-in text file in tests/golden/.
//
// Each golden file records, for one program:
//   * the materialized model (naive evaluation; semi-naive evaluation must
//     reproduce it),
//   * the stored-query answers under all four query strategies,
//   * per-fact derivation counts of the counted relations,
//   * the full-evaluation EvalStats and the deterministic per-rule profile
//     lines.
//
// The files were recorded when the engine still carried three independent
// rule executors that had been cross-checked against each other, so they
// stand in for that cross-check now that only the block executor remains.
// On a mismatch the test writes the actual rendering next to the test binary
// (golden_actual/<program>.golden); after an intended behaviour change,
// review the diff and copy that file over the checked-in one.
//
// A second set of files, tests/golden/maintenance/<program>.golden, pins
// incremental maintenance: per program a fixed sequence of insert, delete
// and mixed insert+delete batches, recording after each
// step the EvalStats counters, the per-stratum maintenance modes, the
// derivation counts and the model (which must also equal a from-scratch
// evaluation of the updated program).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
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

  // Default (semi-naive, profiled) evaluation: the model and answers must
  // match the naive ones. The "t1" section titles are kept from the files'
  // first recording.
  Session session;
  EXPECT_TRUE(session.LoadFile(path.string()).ok()) << path;
  EvalOptions options;
  options.profile = true;
  status = session.Evaluate(options);
  EXPECT_TRUE(status.ok()) << path << ": " << status;
  EXPECT_EQ(ModelLines(session), model)
      << path << " model diverges from naive evaluation";
  AppendSection("derivation counts", DerivationCountLines(session), &golden);
  AppendSection("stats t1", StatsLines(session.last_eval_stats()), &golden);
  AppendSection("profile t1", ProfileLines(session.last_eval_profile()),
                &golden);
  for (QueryStrategy strategy : kStrategies) {
    EXPECT_EQ(AnswerLines(session, options, strategy), answers[strategy])
        << path << " " << ToString(strategy)
        << " answers diverge from naive evaluation";
  }
  return golden;
}

// One maintenance step: facts to add and facts to remove, then Evaluate().
struct MaintenanceStep {
  const char* add;
  const char* remove;
};

// Fixed update sequences per corpus program. Each covers an insert-only
// batch, a delete-only batch and a mixed batch; re-adding a retracted fact
// exercises the rebuild a tombstoned EDB row forces. The corpus reaches
// neither the derivation-count deletion path nor in-place group regrowth,
// so two inline programs (kInlineMaintenancePrograms) add those.
const std::map<std::string, std::vector<MaintenanceStep>>& MaintenanceSteps() {
  static const auto* steps =
      new std::map<std::string, std::vector<MaintenanceStep>>{
          {"ancestor",
           {{"parent(dina, eve).", ""},
            {"", "parent(bob, carl)."},
            {"parent(carl, fred).", "parent(abe, bea)."},
            {"parent(bob, carl).", ""}}},
          {"bom",
           {{"q(8, 5). p(7, 8).", ""},
            {"", "q(4, 20)."},
            {"q(4, 25).", "q(5, 10)."}}},
          {"school",
           {{"r(jones, cy, bio, fri).", ""},
            {"", "r(smith, bob, art, mon)."},
            {"r(lee, dan, art, tue).", "r(jones, ann, bio, thu)."}}},
          {"sets",
           {{"s({5}).", ""},
            {"", "s({2, 4})."},
            {"s({1, 4}).", "s({})."}}},
          {"young",
           {{"p(ella, fay).", ""},
            {"", "siblings(eve, adam)."},
            {"siblings(carl, ella).", "p(bob, carl)."}}},
          {"counted",
           {{"e(c, d).", ""},
            {"", "e(a, b)."},
            {"e(d, a).", "e(b, c)."}}},
          {"regrow",
           {{"kv(1, z). kv(3, x).", ""},
            {"kv(2, y).", ""},
            {"", "kv(1, x)."}}},
      };
  return *steps;
}

// Programs outside the corpus, by name: a non-recursive stratum whose
// deletions decrement derivation counts, and a sole-rule grouping head
// regrown in place on insertions.
constexpr std::pair<const char*, const char*> kInlineMaintenancePrograms[] = {
    {"counted",
     "e(a, b). e(b, c). e(a, c). n(a). n(b). n(c).\n"
     "src(X) :- e(X, Y).\n"
     "pair(X, Z) :- e(X, Y), n(Z).\n"
     "lonely(X) :- n(X), !src(X).\n"},
    {"regrow",
     "kv(1, x). kv(1, y). kv(2, x).\n"
     "g(K, <V>) :- kv(K, V).\n"
     "sizes(<N>) :- g(K, S), card(S, N).\n"},
};

std::string ReadText(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Lines StratumModeLines(const EvalProfile& profile) {
  Lines lines;
  for (const StratumProfile& stratum : profile.strata()) {
    lines.push_back(std::to_string(stratum.stratum) + " " +
                    ToString(stratum.mode));
  }
  return lines;
}

// Renders the maintenance golden text for program `name` (source text
// `source`): its update sequence replayed on one live session. Step titles
// keep the "t1" prefix of the files' first recording.
Lines RenderMaintenance(const std::string& name, const std::string& source) {
  const std::vector<MaintenanceStep>& steps = MaintenanceSteps().at(name);
  Lines golden;
  Session session;
  EXPECT_TRUE(session.Load(source).ok()) << name;
  EvalOptions options;
  options.profile = true;
  Status status = session.Evaluate(options);
  EXPECT_TRUE(status.ok()) << name << ": " << status;
  for (size_t i = 0; i < steps.size(); ++i) {
    const MaintenanceStep& step = steps[i];
    const std::string title = "t1 step " + std::to_string(i + 1) + " +[" +
                              step.add + "] -[" + step.remove + "]";
    const size_t full_before = session.full_evals();
    if (*step.add != '\0') {
      EXPECT_TRUE(session.AddFacts(step.add).ok()) << title;
    }
    if (*step.remove != '\0') {
      EXPECT_TRUE(session.RemoveFacts(step.remove).ok()) << title;
    }
    status = session.Evaluate(options);
    EXPECT_TRUE(status.ok()) << name << " " << title << ": " << status;
    golden.push_back("== " + title + (session.full_evals() > full_before
                                          ? " (full)"
                                          : " (incremental)"));
    AppendSection("stats", StatsLines(session.last_eval_stats()), &golden);
    AppendSection("strata", StratumModeLines(session.last_eval_profile()),
                  &golden);
    AppendSection("derivation counts", DerivationCountLines(session),
                  &golden);
    const Lines model = ModelLines(session);
    AppendSection("model", model, &golden);

    // The same updates applied before the first evaluation.
    Session scratch;
    EXPECT_TRUE(scratch.Load(source).ok()) << name;
    for (size_t j = 0; j <= i; ++j) {
      EXPECT_TRUE(scratch.AddFacts(steps[j].add).ok()) << title;
      EXPECT_TRUE(scratch.RemoveFacts(steps[j].remove).ok()) << title;
    }
    EXPECT_TRUE(scratch.Evaluate().ok()) << title;
    EXPECT_EQ(ModelLines(scratch), model)
        << name << " " << title << ": maintained model diverges from "
        << "a from-scratch evaluation";
  }
  return golden;
}

// Compares `actual` with the checked-in golden `dir`/`name`; on a mismatch
// writes `actual` under golden_actual/`subdir` and reports the first
// differing line.
void ExpectMatchesGolden(const std::filesystem::path& dir,
                         const std::string& subdir, const std::string& name,
                         const Lines& actual) {
  Lines expected = ReadLines(dir / name);
  if (actual == expected) return;
  std::filesystem::path dump =
      std::filesystem::path(LDL1_GOLDEN_ACTUAL_DIR) / subdir / name;
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

TEST(Golden, CorpusMatchesRecordedBehaviour) {
  std::vector<std::filesystem::path> programs = CorpusPrograms();
  ASSERT_FALSE(programs.empty());
  for (const std::filesystem::path& path : programs) {
    ExpectMatchesGolden(LDL1_GOLDEN_DIR, "", path.stem().string() + ".golden",
                        Render(path));
  }
}

TEST(Golden, MaintenanceMatchesRecordedBehaviour) {
  std::vector<std::filesystem::path> programs = CorpusPrograms();
  ASSERT_FALSE(programs.empty());
  std::vector<std::pair<std::string, std::string>> sources;
  for (const std::filesystem::path& path : programs) {
    sources.emplace_back(path.stem().string(), ReadText(path));
  }
  for (const auto& [name, source] : kInlineMaintenancePrograms) {
    sources.emplace_back(name, source);
  }
  for (const auto& [name, source] : sources) {
    ASSERT_EQ(MaintenanceSteps().count(name), 1u)
        << name << " has no maintenance sequence";
    ExpectMatchesGolden(std::filesystem::path(LDL1_GOLDEN_DIR) / "maintenance",
                        "maintenance", name + ".golden",
                        RenderMaintenance(name, source));
  }
}

}  // namespace
}  // namespace ldl
