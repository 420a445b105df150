// End-to-end test of the ldl_repl binary: pipe a script through it and
// check the rendered answers, strata, provenance and warnings.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace ldl {
namespace {

// Runs the repl with `input` on stdin; returns the merged stdout+stderr and
// optionally the process exit code.
std::string RunRepl(const std::string& input, const std::string& args = "",
                    int* exit_code = nullptr) {
  std::string command = "printf '%s' '" + input + "' | " +
                        std::string(LDL1_REPL_BINARY) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  char buffer[512];
  while (fgets(buffer, sizeof buffer, pipe) != nullptr) output += buffer;
  int status = pclose(pipe);
  if (exit_code != nullptr) {
    *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return output;
}

// As RunRepl, but keeps the streams separate: returns stdout, stores stderr.
std::string RunReplSplit(const std::string& input, std::string* err_out,
                         int* exit_code = nullptr) {
  std::string err_file = ::testing::TempDir() + "/repl_stderr.txt";
  std::string command = "printf '%s' '" + input + "' | " +
                        std::string(LDL1_REPL_BINARY) + " 2>" + err_file;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  char buffer[512];
  while (fgets(buffer, sizeof buffer, pipe) != nullptr) output += buffer;
  int status = pclose(pipe);
  if (exit_code != nullptr) {
    *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  err_out->clear();
  FILE* err = fopen(err_file.c_str(), "r");
  if (err != nullptr) {
    while (fgets(buffer, sizeof buffer, err) != nullptr) *err_out += buffer;
    fclose(err);
    remove(err_file.c_str());
  }
  return output;
}

TEST(Repl, AnswersQueries) {
  std::string out = RunRepl(
      "parent(a,b).\n"
      "parent(b,c).\n"
      "anc(X,Y) :- parent(X,Y).\n"
      "anc(X,Y) :- parent(X,Z), anc(Z,Y).\n"
      "? anc(a,X).\n"
      ":quit\n");
  EXPECT_NE(out.find("(a, b)"), std::string::npos) << out;
  EXPECT_NE(out.find("(a, c)"), std::string::npos) << out;
  EXPECT_NE(out.find("2 answer(s)"), std::string::npos) << out;
}

TEST(Repl, StrataAndPreds) {
  std::string out = RunRepl(
      "p(a). q(X) :- p(X), !r(X). r(a).\n"
      ":strata\n"
      ":preds\n"
      ":quit\n");
  EXPECT_NE(out.find("layer 0"), std::string::npos) << out;
  EXPECT_NE(out.find("layer 1"), std::string::npos) << out;
  EXPECT_NE(out.find("q/1"), std::string::npos) << out;
}

TEST(Repl, MagicModeAndStats) {
  std::string out = RunRepl(
      "e(1,2). e(2,3).\n"
      "t(X,Y) :- e(X,Y).\n"
      "t(X,Y) :- e(X,Z), t(Z,Y).\n"
      ":strategy magic\n"
      "? t(1,X).\n"
      ":stats\n"
      ":quit\n");
  EXPECT_NE(out.find("[magic]"), std::string::npos) << out;
  EXPECT_NE(out.find("firings="), std::string::npos) << out;
}

// :rewrite prints the current strategy's rewritten rules in the rewrite
// golden's format; a strategy that rewrites nothing is an error.
TEST(Repl, RewritePrintsTheRewrittenRules) {
  const std::string corpus = std::string(LDL1_CORPUS_DIR) + "/ancestor.ldl";
  std::string out = RunRepl(
      ":strategy magic\n"
      ":rewrite ancestor(X, dina)\n"
      ":quit\n",
      corpus);
  EXPECT_NE(out.find("== ancestor(X, dina) magic\n"
                     "ancestor__fb(X, Y) :- m_ancestor__fb(Y), parent(X, Y)\n"
                     "ancestor__fb(X, Y) :- m_ancestor__fb(Y), parent(X, Z), "
                     "ancestor__fb(Z, Y)\n"
                     "m_ancestor__fb(dina)\n"),
            std::string::npos)
      << out;
  int exit_code = 0;
  out = RunRepl(":rewrite ancestor(X, dina)\n:quit\n", corpus, &exit_code);
  EXPECT_NE(out.find(":rewrite needs :strategy magic or magic-sup (is model)"),
            std::string::npos)
      << out;
  EXPECT_NE(exit_code, 0);
}

TEST(Repl, PlanDumpsJoinOrderWithEstimates) {
  // sel has 2 rows against big's 6: the cost-based planner schedules it
  // first and the step lines carry row counts and estimated output sizes.
  std::string out = RunRepl(
      "big(b1, k1). big(b2, k1). big(b3, k1).\n"
      "big(b4, k2). big(b5, k2). big(b6, k2).\n"
      "sel(k1, s1). sel(k9, s9).\n"
      "join(X, Y) :- big(X, Z), sel(Z, Y).\n"
      ":plan join/2\n"
      ":stats\n"
      ":quit\n");
  EXPECT_NE(out.find("rule: join(X, Y) :- big(X, Z), sel(Z, Y)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("1. sel(Z, Y)"), std::string::npos) << out;
  EXPECT_NE(out.find("[2 rows]"), std::string::npos) << out;
  EXPECT_NE(out.find("2. big(X, Z)"), std::string::npos) << out;
  EXPECT_NE(out.find("est total work"), std::string::npos) << out;
  // The planner counters surface in :stats alongside the engine counters.
  EXPECT_NE(out.find("plans_reordered="), std::string::npos) << out;
  EXPECT_NE(out.find("replans="), std::string::npos) << out;
}

TEST(Repl, StrategyListsValidNames) {
  std::string out = RunRepl(
      ":strategy\n"
      ":strategy warp\n"
      ":quit\n");
  EXPECT_NE(out.find("strategy: model (valid: model, magic, magic-sup, topdown)"),
            std::string::npos)
      << out;
  // Unknown names report the same list.
  EXPECT_NE(out.find("expected one of: model, magic, magic-sup, topdown"),
            std::string::npos)
      << out;
}

TEST(Repl, ServeAnswersConcurrently) {
  std::string out = RunRepl(
      "e(1,2). e(2,3). e(3,4).\n"
      "t(X,Y) :- e(X,Y).\n"
      "t(X,Y) :- e(X,Z), t(Z,Y).\n"
      ":serve 2 t(1, X)\n"
      ":quit\n");
  EXPECT_NE(out.find("served 51 queries over 2 thread(s), 3 answer(s) each"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("queries_served=51"), std::string::npos) << out;
  EXPECT_NE(out.find("snapshots_published=2"), std::string::npos) << out;
}

// :serve answers under the current :strategy: the bound strategies read the
// published snapshot in place and agree with the model.
TEST(Repl, ServeUsesCurrentStrategy) {
  for (const char* strategy : {"magic", "magic-sup", "topdown"}) {
    std::string out = RunRepl(std::string("e(1,2). e(2,3). e(3,4).\n"
                                          "t(X,Y) :- e(X,Y).\n"
                                          "t(X,Y) :- e(X,Z), t(Z,Y).\n"
                                          ":strategy ") +
                              strategy + "\n:serve 2 t(1, X)\n:quit\n");
    EXPECT_NE(out.find("served 51 queries over 2 thread(s), 3 answer(s) each"),
              std::string::npos)
        << strategy << ": " << out;
  }
}

TEST(Repl, RetractRemovesFacts) {
  std::string out = RunRepl(
      "e(1,2). e(2,3).\n"
      "t(X,Y) :- e(X,Y).\n"
      "t(X,Y) :- e(X,Z), t(Z,Y).\n"
      "? t(1,X).\n"
      ":retract e(2,3).\n"
      "? t(1,X).\n"
      ":retract t(1,2).\n"
      ":quit\n");
  EXPECT_NE(out.find("2 answer(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("retracted"), std::string::npos) << out;
  EXPECT_NE(out.find("1 answer(s)"), std::string::npos) << out;
  // Derived predicates cannot be retracted; the error is reported inline.
  EXPECT_NE(out.find("derived predicate"), std::string::npos) << out;
}

TEST(Repl, WhyProvenance) {
  std::string out = RunRepl(
      "parent(a,b).\n"
      "anc(X,Y) :- parent(X,Y).\n"
      ":why anc(a, b)\n"
      ":quit\n");
  EXPECT_NE(out.find("anc(a, b)   [rule"), std::string::npos) << out;
  EXPECT_NE(out.find("parent(a, b)   [edb]"), std::string::npos) << out;
}

TEST(Repl, WarningsCommand) {
  std::string out = RunRepl(
      "int(z).\n"
      "int(s(X)) :- int(X).\n"
      ":warnings\n"
      ":quit\n");
  EXPECT_NE(out.find("may be infinite"), std::string::npos) << out;
}

TEST(Repl, ErrorsAreReportedNotFatal) {
  std::string out = RunRepl(
      "p(a.\n"          // parse error
      "p(a).\n"         // still works afterwards
      "? p(X).\n"
      ":quit\n");
  EXPECT_NE(out.find("parse_error"), std::string::npos) << out;
  EXPECT_NE(out.find("1 answer(s)"), std::string::npos) << out;
}

TEST(Repl, BatchModeExitsNonzeroOnFailure) {
  int code = -1;
  RunRepl("p(a.\np(a).\n? p(X).\n:quit\n", "", &code);
  EXPECT_EQ(code, 1);  // a statement failed, even though later ones worked
  RunRepl("p(a).\n? p(X).\n:quit\n", "", &code);
  EXPECT_EQ(code, 0);
  RunRepl(":bogus\n:quit\n", "", &code);
  EXPECT_EQ(code, 1);
}

TEST(Repl, ErrorsGoToStderrNotStdout) {
  std::string err;
  int code = -1;
  std::string out = RunReplSplit("p(a.\np(a).\n? p(X).\n:quit\n", &err, &code);
  EXPECT_EQ(code, 1);
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(err.find("parse_error"), std::string::npos) << err;
  EXPECT_NE(out.find("1 answer(s)"), std::string::npos) << out;
}

TEST(Repl, ProfileDumpEmitsJson) {
  std::string out = RunRepl(
      "parent(a,b).\n"
      "parent(b,c).\n"
      "anc(X,Y) :- parent(X,Y).\n"
      "anc(X,Y) :- parent(X,Z), anc(Z,Y).\n"
      ":profile on\n"
      "? anc(a,X).\n"
      ":profile dump\n"
      ":quit\n");
  EXPECT_NE(out.find("profile: on"), std::string::npos) << out;
  EXPECT_NE(out.find("\"total_wall_ns\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"rules\""), std::string::npos) << out;
  EXPECT_NE(out.find("anc(X, Y) :- parent(X, Z), anc(Z, Y)"), std::string::npos)
      << out;
}

TEST(Repl, ProfileDumpToFile) {
  std::string path = ::testing::TempDir() + "/repl_profile.json";
  std::string out = RunRepl(
      "e(1,2).\n"
      "t(X,Y) :- e(X,Y).\n"
      ":profile on\n"
      "? t(1,X).\n"
      ":profile dump " + path + "\n"
      ":quit\n");
  EXPECT_NE(out.find("profile written to"), std::string::npos) << out;
  FILE* file = fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buffer[512];
  while (fgets(buffer, sizeof buffer, file) != nullptr) contents += buffer;
  fclose(file);
  remove(path.c_str());
  EXPECT_NE(contents.find("\"firings\""), std::string::npos) << contents;
}

TEST(Repl, LoadsCorpusFile) {
  std::string out = RunRepl("? young(ella, S).\n:quit\n",
                            std::string(LDL1_CORPUS_DIR) + "/young.ldl");
  EXPECT_NE(out.find("loaded"), std::string::npos) << out;
  EXPECT_NE(out.find("{bob}"), std::string::npos) << out;
}

}  // namespace
}  // namespace ldl
