// B13: block-at-a-time execution (DESIGN.md §12) on two join-heavy
// materializations, where a tuple-at-a-time executor would pay a deep
// recursive call per binding and a hash-index touch per probe:
//
// TcDense: semi-naive transitive closure over a dense expander-ish digraph
// (out-degree 3, tiny diameter). Deltas stay thousands of rows wide for the
// few rounds the fixpoint needs, so per-round fixed costs vanish and the
// timed region is the classic Datalog hot loop: probe the delta block
// against e's hash index, once per (delta row x successor).
//
// ProjJoin: the skewed three-way join from B12 projected onto its 4-value
// join key, under the (default) cost-based order. The body enumerates
// n x fan-out solutions but the head dedupes them into 16 facts, so
// insertion cost disappears and what remains is pure per-row executor
// overhead -- exactly what blocks amortize.
//
// Both run at the fixed block size kDefaultBlockRows (256); EXPERIMENTS.md
// B13 records the sweep that chose it.
#include <string>

#include "base/str_util.h"
#include "bench/bench_util.h"

namespace {

constexpr const char* kTcRules =
    "t(X, Y) :- e(X, Y).\n"
    "t(X, Y) :- e(X, Z), t(Z, Y).\n";

// n nodes, each with three deterministic out-edges: the successor ring plus
// two multiplicative strides. The ring makes the graph strongly connected
// (closure = n^2 facts); the strides shrink the diameter to a handful of
// rounds, so deltas are n^2-scale wide.
std::string TcFacts(size_t n) {
  std::string facts;
  facts.reserve(n * 50);
  for (size_t i = 0; i < n; ++i) {
    ldl::StrAppend(facts, "e(c", i, ", c", (i + 1) % n, ").\n");
    ldl::StrAppend(facts, "e(c", i, ", c", (i * 7 + 3) % n, ").\n");
    ldl::StrAppend(facts, "e(c", i, ", c", (i * 13 + 5) % n, ").\n");
  }
  return facts;
}

constexpr const char* kJoinRules =
    "hub(Z, Y) :- big(X, Z), fan(Z, W), sel(W, Y).\n";

constexpr size_t kFanOut = 32;

std::string JoinFacts(size_t n) {
  std::string facts;
  facts.reserve(n * 24);
  for (size_t i = 0; i < n; ++i) {
    ldl::StrAppend(facts, "big(b", i, ", k", i % 4, ").\n");
  }
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < kFanOut; ++j) {
      ldl::StrAppend(facts, "fan(k", i, ", w", i, "_", j, ").\n");
      ldl::StrAppend(facts, "sel(w", i, "_", j, ", s", i % 4, ").\n");
    }
  }
  return facts;
}

// Full materialization under the default configuration (cost-based
// planning, semi-naive mode).
void RunBatch(benchmark::State& state, const std::string& facts,
              const char* rules, const char* name) {
  ldl::EvalOptions options;
  options.profile = ldl_bench::ProfileRequested();
  ldl::EvalStats last;
  ldl::EvalProfile last_profile;
  auto session = ldl_bench::MakeSession(state, facts, rules);
  if (session == nullptr) return;
  for (auto _ : state) {
    session->InvalidateModel();
    ldl::Status status = session->Evaluate(options);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    last = session->last_eval_stats();
    if (options.profile) last_profile = session->last_eval_profile();
  }
  ldl_bench::RecordStats(state, last);
  ldl_bench::MaybeDumpProfile(
      name + ("/" + std::to_string(state.range(0))), last_profile);
}

void BM_TcDense(benchmark::State& state) {
  RunBatch(state, TcFacts(static_cast<size_t>(state.range(0))), kTcRules,
           "TcDense");
}
void BM_ProjJoin(benchmark::State& state) {
  RunBatch(state, JoinFacts(static_cast<size_t>(state.range(0))), kJoinRules,
           "ProjJoin");
}

}  // namespace

BENCHMARK(BM_TcDense)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProjJoin)->Arg(1 << 14)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
