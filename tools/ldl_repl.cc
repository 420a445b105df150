// ldl_repl -- an interactive LDL1 shell.
//
//   $ ldl_repl [file.ldl ...]
//
// Lines ending in '.' are fed to the session as program text (facts, rules,
// or "? goal." queries). Meta-commands:
//
//   :help                this text
//   :quit                exit
//   :strata              show the layering of the analyzed program
//   :preds               list predicates with arities and fact counts
//   :facts p/2           print the facts of a predicate
//   :retract f(a).       remove ground EDB facts; the next query maintains
//                        the model incrementally
//   :why f(a)            provenance tree of a derived fact
//   :plan p/2            cost-based join orders for the predicate's rules
//   :program             print the expanded (LDL1) program; facts entered
//                        after the first query join the EDB (see :facts)
//   :warnings            §7 finiteness warnings
//   :strategy [name]     query strategy: model, magic, magic-sup, topdown
//   :rewrite goal        the rules the current magic :strategy rewrites
//                        goal's binding pattern into, one per line
//   :naive on|off        switch the fixpoint engine (default: semi-naive)
//   :stats               stats of the last evaluation + per-predicate
//                        dead-row (tombstone) ratios
//   :serve [N] goal      answer goal from N concurrent ldl::Service readers
//                        under the current :strategy
//   :profile [on|off]    collect per-rule/per-stratum profiles on queries
//   :profile dump [file] last collected profile as JSON (stdout or file)
//
// Errors go to stderr. In batch mode (stdin is not a tty) the process exits
// nonzero if any statement or command failed, so scripts can rely on the
// exit status.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/str_util.h"
#include "eval/cost.h"
#include "eval/profile.h"
#include "ldl/ldl.h"
#include "ldl/service.h"
#include "rewrite/magic.h"

namespace {

struct ReplState {
  ldl::Session session;
  ldl::QueryStrategy strategy = ldl::QueryStrategy::kModel;
  bool naive = false;
  bool profile = false;
  // Profile of the most recent profiled query (what :profile dump shows).
  ldl::EvalProfile last_profile;
  // The goal most recently prepared, reused while consecutive queries
  // repeat the same text (skips the per-call reparse).
  std::string last_goal_text;
  ldl::PreparedQuery last_prepared;
  // Everything fed to the session as program text, replayed by :serve to
  // stand up an ldl::Service over the same program.
  std::string program_text;
  bool any_failed = false;
};

// All user-visible errors funnel through here: stderr, not stdout, and the
// failure is remembered for the batch-mode exit status.
void Fail(ReplState& state, const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  state.any_failed = true;
}

void PrintHelp() {
  std::printf(
      "enter LDL1 clauses terminated by '.', e.g.\n"
      "    parent(a, b).\n"
      "    anc(X, Y) :- parent(X, Y).\n"
      "    anc(X, Y) :- parent(X, Z), anc(Z, Y).\n"
      "    ? anc(a, X).\n"
      "meta: :help :quit :strata :preds :facts p/2 :plan p/2 :program\n"
      "      :warnings :why f(a)\n"
      "      :retract f(a).\n"
      "      :strategy [%s]  :rewrite goal\n"
      "      :naive on|off  :stats\n"
      "      :serve [N] goal\n"
      "      :profile [on|off]  :profile dump [file]\n",
      ldl::QueryStrategyNames());
}

void RunQuery(ReplState& state, const std::string& goal) {
  ldl::QueryOptions options;
  options.strategy = state.strategy;
  options.eval.mode = state.naive ? ldl::EvalOptions::Mode::kNaive
                                  : ldl::EvalOptions::Mode::kSemiNaive;
  options.eval.profile = state.profile;
  // Repeated queries of the same text reuse the prepared goal instead of
  // reparsing it.
  if (goal != state.last_goal_text || !state.last_prepared.valid()) {
    auto prepared = state.session.Prepare(goal);
    if (!prepared.ok()) {
      Fail(state, prepared.status().ToString());
      return;
    }
    state.last_prepared = *std::move(prepared);
    state.last_goal_text = goal;
  }
  auto result = state.session.Query(state.last_prepared, options);
  if (!result.ok()) {
    Fail(state, result.status().ToString());
    return;
  }
  if (state.profile) state.last_profile = result->profile;
  for (const ldl::Tuple& tuple : result->tuples) {
    std::printf("  %s\n", state.session.FormatTuple(tuple).c_str());
  }
  std::string suffix;
  if (state.strategy != ldl::QueryStrategy::kModel) {
    suffix = std::string(" [") + ldl::ToString(state.strategy) + "]";
  }
  std::printf("%zu answer(s)%s\n", result->tuples.size(), suffix.c_str());
}

void ShowStrata(ReplState& state) {
  ldl::Status status = state.session.Analyze();
  if (!status.ok()) {
    Fail(state, status.ToString());
    return;
  }
  const ldl::Stratification& strat = state.session.stratification();
  ldl::Catalog& catalog = state.session.catalog();
  for (int layer = 0; layer < strat.layer_count(); ++layer) {
    std::string preds;
    for (ldl::PredId p = 0; p < catalog.size(); ++p) {
      if (strat.layer_of_pred[p] == layer) {
        if (!preds.empty()) preds += ", ";
        preds += catalog.DebugName(p);
      }
    }
    std::printf("  layer %d: %s (%zu rule(s))\n", layer, preds.c_str(),
                strat.strata[layer].size());
  }
}

void ShowPreds(ReplState& state) {
  ldl::Status status = state.session.Evaluate();
  if (!status.ok()) {
    Fail(state, status.ToString());
    return;
  }
  ldl::Catalog& catalog = state.session.catalog();
  for (ldl::PredId p = 0; p < catalog.size(); ++p) {
    size_t count = state.session.database().relation(p).size();
    if (count == 0 && !catalog.info(p).has_rules) continue;
    std::printf("  %-24s %6zu fact(s)%s\n", catalog.DebugName(p).c_str(), count,
                catalog.info(p).has_rules ? "  [derived]" : "");
  }
}

void ShowFacts(ReplState& state, const std::string& spec) {
  auto slash = spec.rfind('/');
  if (slash == std::string::npos) {
    Fail(state, "usage: :facts name/arity");
    return;
  }
  std::string name = spec.substr(0, slash);
  uint32_t arity = static_cast<uint32_t>(atoi(spec.c_str() + slash + 1));
  ldl::Status status = state.session.Evaluate();
  if (!status.ok()) {
    Fail(state, status.ToString());
    return;
  }
  ldl::PredId pred = state.session.catalog().Find(name, arity);
  if (pred == ldl::kInvalidPred) {
    Fail(state, ldl::StrCat("unknown predicate ", spec));
    return;
  }
  auto tuples = state.session.database().relation(pred).Snapshot();
  for (const std::string& line : FormatFacts(state.session, pred, tuples)) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("%zu fact(s)\n", tuples.size());
}

void ShowWarnings(ReplState& state) {
  auto warnings = state.session.TerminationWarnings();
  if (!warnings.ok()) {
    Fail(state, warnings.status().ToString());
    return;
  }
  if (warnings->empty()) {
    std::printf("no finiteness warnings\n");
    return;
  }
  for (const ldl::TerminationWarning& warning : *warnings) {
    std::printf("  warning: %s\n", warning.message.c_str());
  }
}

void ShowProgram(ReplState& state) {
  ldl::Status status = state.session.Analyze();
  if (!status.ok()) {
    Fail(state, status.ToString());
    return;
  }
  ldl::AstPrinter printer(&state.session.interner());
  std::printf("%s", printer.ToString(state.session.expanded_ast()).c_str());
}

// :serve [N] goal -- stands up an ldl::Service over the program entered so
// far and answers `goal` under the current :strategy from N concurrent
// reader threads, then prints the service's serving counters. A smoke-scale
// demo of the concurrent serving facade (bench/bench_service.cc measures it
// properly).
void RunServe(ReplState& state, int threads, const std::string& goal) {
  ldl::Service service;
  ldl::Status status = service.Load(state.program_text);
  if (!status.ok()) {
    Fail(state, status.ToString());
    return;
  }
  auto prepared = service.Prepare(goal);
  if (!prepared.ok()) {
    Fail(state, prepared.status().ToString());
    return;
  }
  ldl::QueryOptions options;
  options.strategy = state.strategy;
  auto sample = service.Query(*prepared, options);
  if (!sample.ok()) {
    Fail(state, sample.status().ToString());
    return;
  }
  constexpr int kQueriesPerThread = 25;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto result = service.Query(*prepared, options);
        if (!result.ok() || result->tuples.size() != sample->tuples.size()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  if (failures.load() != 0) {
    Fail(state, ldl::StrCat(failures.load(), " of the concurrent queries "
                                             "failed or disagreed"));
    return;
  }
  std::printf("served %d queries over %d thread(s), %zu answer(s) each\n",
              threads * kQueriesPerThread + 1, threads, sample->tuples.size());
  std::printf("  %s\n", ldl::FormatServiceStats(service.stats()).c_str());
}

// :plan p/2 -- for every rule whose head is the predicate, print the join
// order the cost-based planner picks against the current database, one line
// per evaluation step with the estimated intermediate cardinality after it.
void ShowPlan(ReplState& state, const std::string& spec) {
  auto slash = spec.rfind('/');
  if (slash == std::string::npos) {
    Fail(state, "usage: :plan name/arity");
    return;
  }
  std::string name = spec.substr(0, slash);
  uint32_t arity = static_cast<uint32_t>(atoi(spec.c_str() + slash + 1));
  // Plan against the materialized model so IDB statistics are populated.
  ldl::Status status = state.session.Evaluate();
  if (!status.ok()) {
    Fail(state, status.ToString());
    return;
  }
  ldl::PredId pred = state.session.catalog().Find(name, arity);
  if (pred == ldl::kInvalidPred) {
    Fail(state, ldl::StrCat("unknown predicate ", spec));
    return;
  }
  const ldl::Catalog& catalog = state.session.catalog();
  const ldl::TermFactory& factory = state.session.factory();
  ldl::CostModel model =
      ldl::CostModel::Snapshot(state.session.database(), catalog);
  size_t shown = 0;
  for (const ldl::RuleIr& rule : state.session.program().rules) {
    if (rule.head_pred != pred || rule.is_fact()) continue;
    auto order = ldl::OrderBodyLiteralsCostBased(catalog, rule, model);
    if (!order.ok()) {
      Fail(state, order.status().ToString());
      return;
    }
    ldl::OrderCost cost = ldl::EstimateOrderCost(rule, *order, model);
    std::printf("rule: %s\n",
                ldl::FormatRuleLabel(factory, catalog, rule).c_str());
    for (size_t step = 0; step < order->size(); ++step) {
      const ldl::LiteralIr& literal = rule.body[(*order)[step]];
      std::string rendered = ldl::FormatLiteral(factory, catalog, literal);
      std::string rows;
      if (!literal.is_builtin() && !literal.negated) {
        rows = ldl::StrCat("  [", static_cast<size_t>(
                                      model.Card(literal.pred).rows),
                           " rows]");
      }
      std::printf("  %zu. %-32s%s  ~%.1f out\n", step + 1, rendered.c_str(),
                  rows.c_str(), cost.step_rows[step]);
    }
    std::printf("  est total work %.1f, est solutions %.1f\n", cost.total_work,
                cost.out_rows);
    ++shown;
  }
  if (shown == 0) std::printf("no rules for %s\n", spec.c_str());
}

// Prints the magic rewriting of `goal` under the current :strategy as the
// rewrite golden (tests/golden/rewrite/) records it: a "== goal strategy"
// line, then one rule per line in emission order, the seed fact last.
void ShowRewrite(ReplState& state, const std::string& goal) {
  if (state.strategy != ldl::QueryStrategy::kMagic &&
      state.strategy != ldl::QueryStrategy::kMagicSupplementary) {
    Fail(state, ldl::StrCat(":rewrite needs :strategy magic or magic-sup (is ",
                            ldl::ToString(state.strategy), ")"));
    return;
  }
  auto prepared = state.session.Prepare(goal);
  if (!prepared.ok()) {
    Fail(state, prepared.status().ToString());
    return;
  }
  ldl::MagicOptions options;
  options.supplementary =
      state.strategy == ldl::QueryStrategy::kMagicSupplementary;
  auto magic = ldl::MagicRewrite(state.session.program(),
                                 &state.session.catalog(), prepared->goal(),
                                 options);
  if (!magic.ok()) {
    Fail(state, magic.status().ToString());
    return;
  }
  std::printf("== %s %s\n", goal.c_str(), ldl::ToString(state.strategy));
  for (const ldl::RuleIr& rule : magic->rules.rules) {
    std::printf("%s\n", ldl::FormatRuleLabel(state.session.factory(),
                                             state.session.catalog(), rule)
                            .c_str());
  }
}

void ShowStats(ReplState& state) {
  // Generated from the EvalStats X-macro: every counter prints, including
  // ones added later.
  const ldl::EvalStats& stats = state.session.last_eval_stats();
  int on_line = 0;
  stats.ForEachField([&](const char* name, size_t value) {
    std::printf("%s%s=%zu", on_line == 0 ? "  " : " ", name, value);
    if (++on_line == 5) {
      std::printf("\n");
      on_line = 0;
    }
  });
  if (on_line != 0) std::printf("\n");
  // Tombstone bloat per predicate: retracted rows stay in storage as dead
  // rows until the next rebuild, so scans pay for raw_rows while the cost
  // model prices joins with the live count only.
  ldl::Catalog& catalog = state.session.catalog();
  bool header = false;
  for (ldl::PredId p = 0; p < catalog.size(); ++p) {
    ldl::RelationStats rel = state.session.database().relation(p).Stats();
    if (rel.raw_rows == rel.rows) continue;
    if (!header) {
      std::printf("  dead rows (tombstones):\n");
      header = true;
    }
    size_t dead = rel.raw_rows - rel.rows;
    std::printf("    %-24s %zu live / %zu stored (%.0f%% dead)\n",
                catalog.DebugName(p).c_str(), rel.rows, rel.raw_rows,
                100.0 * static_cast<double>(dead) /
                    static_cast<double>(rel.raw_rows));
  }
}

// Returns false on :quit.
bool HandleLine(ReplState& state, const std::string& raw) {
  std::string line(ldl::StripWhitespace(raw));
  if (line.empty()) return true;
  if (line[0] == ':') {
    std::istringstream in(line.substr(1));
    std::string command;
    std::string argument;
    in >> command >> argument;
    if (command == "quit" || command == "q" || command == "exit") return false;
    if (command == "help") {
      PrintHelp();
    } else if (command == "strata") {
      ShowStrata(state);
    } else if (command == "preds") {
      ShowPreds(state);
    } else if (command == "facts") {
      ShowFacts(state, argument);
    } else if (command == "plan") {
      ShowPlan(state, argument);
    } else if (command == "program") {
      ShowProgram(state);
    } else if (command == "warnings") {
      ShowWarnings(state);
    } else if (command == "retract") {
      // :retract e(a, b). -- everything after the command is the fact
      // batch; removal is all-or-nothing and maintained incrementally.
      std::string rest(ldl::StripWhitespace(line.substr(1 + command.size())));
      if (rest.empty()) {
        Fail(state, "usage: :retract fact. [fact. ...]");
      } else {
        ldl::Status status = state.session.RemoveFacts(rest);
        if (!status.ok()) {
          Fail(state, status.ToString());
        } else {
          std::printf("retracted\n");
        }
      }
    } else if (command == "why") {
      // :why anc(a, c) -- everything after the command is the fact.
      std::string rest(ldl::StripWhitespace(line.substr(1 + command.size())));
      if (!rest.empty() && rest.back() == '.') rest.pop_back();
      auto tree = state.session.Explain(rest);
      if (tree.ok()) {
        std::printf("%s", tree->c_str());
      } else {
        Fail(state, tree.status().ToString());
      }
    } else if (command == "stats") {
      ShowStats(state);
    } else if (command == "profile") {
      if (argument.empty() || argument == "on" || argument == "off") {
        if (!argument.empty()) state.profile = argument == "on";
        std::printf("profile: %s\n", state.profile ? "on" : "off");
      } else if (argument == "dump") {
        std::string path;
        in >> path;
        std::string json = state.last_profile.ToJson();
        if (path.empty()) {
          std::printf("%s\n", json.c_str());
        } else {
          std::ofstream out(path);
          if (!out) {
            Fail(state, ldl::StrCat("cannot write ", path));
          } else {
            out << json << '\n';
            std::printf("profile written to %s\n", path.c_str());
          }
        }
      } else {
        Fail(state, "usage: :profile [on|off] or :profile dump [file]");
      }
    } else if (command == "strategy") {
      if (argument.empty()) {
        std::printf("strategy: %s (valid: %s)\n", ldl::ToString(state.strategy),
                    ldl::QueryStrategyNames());
      } else {
        auto strategy = ldl::ParseQueryStrategy(argument);
        if (!strategy.ok()) {
          Fail(state, strategy.status().ToString());
        } else {
          state.strategy = *strategy;
          std::printf("strategy: %s\n", ldl::ToString(state.strategy));
        }
      }
    } else if (command == "serve") {
      // :serve [N] goal -- the thread count is optional.
      int threads = 2;
      std::string goal = argument;
      if (!goal.empty() && goal.find_first_not_of("0123456789") ==
                               std::string::npos) {
        threads = atoi(goal.c_str());
        goal.clear();
      }
      std::string rest;
      std::getline(in, rest);
      goal += rest;
      goal = std::string(ldl::StripWhitespace(goal));
      if (!goal.empty() && goal.back() == '.') goal.pop_back();
      if (goal.empty() || threads < 1) {
        Fail(state, "usage: :serve [N] goal");
      } else {
        RunServe(state, threads, goal);
      }
    } else if (command == "rewrite") {
      // :rewrite anc(a, X) -- everything after the command is the goal.
      std::string goal(ldl::StripWhitespace(line.substr(1 + command.size())));
      if (!goal.empty() && goal.back() == '.') goal.pop_back();
      if (goal.empty()) {
        Fail(state, "usage: :rewrite goal");
      } else {
        ShowRewrite(state, goal);
      }
    } else if (command == "naive") {
      state.naive = argument != "off";
      std::printf("engine: %s\n", state.naive ? "naive" : "semi-naive");
    } else {
      Fail(state, ldl::StrCat("unknown command :", command, " (try :help)"));
    }
    return true;
  }

  // Program text. "? goal." lines become queries.
  if (line[0] == '?') {
    size_t start = line.find_first_not_of("?- \t");
    std::string goal = line.substr(start);
    if (!goal.empty() && goal.back() == '.') goal.pop_back();
    RunQuery(state, goal);
    return true;
  }
  // AddFacts keeps the materialized model alive when the line is pure EDB
  // facts (the next query maintains it incrementally); anything else falls
  // back to Load() semantics inside.
  ldl::Status status = state.session.AddFacts(line);
  if (!status.ok()) {
    Fail(state, status.ToString());
  } else {
    state.program_text += line;
    state.program_text += '\n';
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ReplState state;
  for (int i = 1; i < argc; ++i) {
    std::ifstream file(argv[i]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    ldl::Status status = state.session.Load(buffer.str());
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[i], status.ToString().c_str());
      return 1;
    }
    state.program_text += buffer.str();
    state.program_text += '\n';
    std::printf("loaded %s\n", argv[i]);
  }

  bool interactive = isatty(0);
  if (interactive) {
    std::printf("ldl1 shell -- :help for commands, :quit to exit\n");
  }
  std::string pending;
  std::string line;
  while (true) {
    if (interactive) std::printf(pending.empty() ? "ldl> " : "...> ");
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(ldl::StripWhitespace(line));
    if (trimmed.empty()) continue;
    // Meta-commands and queries are single-line; clauses accumulate until a
    // terminating '.'.
    if (pending.empty() && (trimmed[0] == ':' || trimmed[0] == '?')) {
      if (!HandleLine(state, trimmed)) break;
      continue;
    }
    pending += trimmed;
    pending += ' ';
    if (trimmed.back() == '.') {
      if (!HandleLine(state, pending)) break;
      pending.clear();
    }
  }
  // Batch runs (scripts piped on stdin) report failure through the exit
  // status; interactively the errors were already seen on stderr.
  return !interactive && state.any_failed ? 1 : 0;
}
