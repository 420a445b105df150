// B3: naive vs semi-naive bottom-up evaluation (the Theorem 1 computation).
// On transitive closure over a chain, naive evaluation re-derives every old
// fact each round (O(depth) redundant passes); semi-naive only extends the
// frontier. Expected shape: semi-naive wins by roughly the chain depth in
// body solutions, and in wall-clock by a growing factor.
#include "bench/bench_util.h"
#include "workload/workload.h"

namespace {

constexpr const char* kLinearRules =
    "t(X, Y) :- e(X, Y).\n"
    "t(X, Y) :- t(X, Z), e(Z, Y).\n";

// Non-linear closure doubles the path length each round; stresses the
// two-delta-variant machinery.
constexpr const char* kNonLinearRules =
    "t(X, Y) :- e(X, Y).\n"
    "t(X, Y) :- t(X, Z), t(Z, Y).\n";

void RunClosure(benchmark::State& state, ldl::EvalOptions::Mode mode,
                const char* rules, const char* name) {
  size_t n = static_cast<size_t>(state.range(0));
  std::string facts = ldl::ParentChain(n, "e");
  ldl::EvalOptions options;
  options.mode = mode;
  options.profile = ldl_bench::ProfileRequested();
  ldl::EvalStats last;
  ldl::EvalProfile last_profile;
  for (auto _ : state) {
    auto session = ldl_bench::MakeSession(state, facts, rules);
    if (session == nullptr) return;
    ldl::Status status = session->Evaluate(options);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    last = session->last_eval_stats();
    if (options.profile) last_profile = session->last_eval_profile();
  }
  ldl_bench::RecordStats(state, last);
  ldl_bench::MaybeDumpProfile(name + ("/" + std::to_string(n)), last_profile);
}

void BM_TcNaive(benchmark::State& state) {
  RunClosure(state, ldl::EvalOptions::Mode::kNaive, kLinearRules, "TcNaive");
}
void BM_TcSemiNaive(benchmark::State& state) {
  RunClosure(state, ldl::EvalOptions::Mode::kSemiNaive, kLinearRules,
             "TcSemiNaive");
}
void BM_TcNonLinearSemiNaive(benchmark::State& state) {
  RunClosure(state, ldl::EvalOptions::Mode::kSemiNaive, kNonLinearRules,
             "TcNonLinearSemiNaive");
}

void BM_TcRandomGraph(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::string facts = ldl::RandomGraph(n, 3 * n, /*seed=*/5, "e");
  ldl::EvalOptions options;
  options.mode = state.range(1) == 0 ? ldl::EvalOptions::Mode::kNaive
                                     : ldl::EvalOptions::Mode::kSemiNaive;
  options.profile = ldl_bench::ProfileRequested();
  ldl::EvalStats last;
  ldl::EvalProfile last_profile;
  for (auto _ : state) {
    auto session = ldl_bench::MakeSession(state, facts, kLinearRules);
    if (session == nullptr) return;
    ldl::Status status = session->Evaluate(options);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    last = session->last_eval_stats();
    if (options.profile) last_profile = session->last_eval_profile();
  }
  ldl_bench::RecordStats(state, last);
  ldl_bench::MaybeDumpProfile("TcRandomGraph/" + std::to_string(n) + "/" +
                                  std::to_string(state.range(1)),
                              last_profile);
}

}  // namespace

BENCHMARK(BM_TcNaive)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TcSemiNaive)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TcNonLinearSemiNaive)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TcRandomGraph)
    ->Args({64, 0})->Args({64, 1})->Args({128, 0})->Args({128, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
