// B8: the §1 bill-of-materials workload end-to-end. The paper's tc program
// partitions sets bottom-up, which derives a cost for *every* disjoint
// union of part sets -- exponential in the number of parts. The magic-set
// rewriting restricts partitioning to the sets actually reachable from the
// queried root, which is what makes the program usable. Expected shape:
// full evaluation blows up past ~12 parts; magic scales to hundreds. The
// supplementary-magic and top-down arms answer the same goal, so magic's
// standing against top-down (ROADMAP item 1) is measured on one host.
#include "base/str_util.h"
#include "bench/bench_util.h"
#include "workload/workload.h"

namespace {

constexpr const char* kProgram =
    "p(P, S) :- part_of(P, S).\n"
    "q(X, C) :- cost(X, C).\n"
    "part(P, <S>) :- p(P, S).\n"
    "tc({X}, C) :- q(X, C).\n"
    "tc({X}, C) :- part(X, S), tc(S, C).\n"
    "tc(S, C) :- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), +(C1, C2, C).\n"
    "result(X, C) :- tc({X}, C).\n";

void RunBom(benchmark::State& state, ldl::QueryStrategy strategy,
            const char* name) {
  size_t parts = static_cast<size_t>(state.range(0));
  ldl::BomWorkload workload = ldl::MakeBom(parts, /*seed=*/21);
  std::string goal = ldl::StrCat("result(", workload.root, ", C)");
  ldl::QueryOptions options;
  options.strategy = strategy;
  options.eval.profile = ldl_bench::ProfileRequested();
  ldl::EvalStats last;
  ldl::EvalProfile last_profile;
  for (auto _ : state) {
    auto session = ldl_bench::MakeSession(state, workload.facts, kProgram);
    if (session == nullptr) return;
    auto result = session->Query(goal, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    if (result->tuples.empty()) {
      state.SkipWithError("no cost derived for the root");
      return;
    }
    last = result->stats;
    if (options.eval.profile) last_profile = result->profile;
  }
  state.counters["leaves"] = static_cast<double>(workload.leaf_count);
  ldl_bench::RecordStats(state, last);
  ldl_bench::MaybeDumpProfile(
      ldl::StrCat(name, "/", parts), last_profile);
}

void BM_BomFull(benchmark::State& state) {
  RunBom(state, ldl::QueryStrategy::kModel, "BomFull");
}
void BM_BomMagic(benchmark::State& state) {
  RunBom(state, ldl::QueryStrategy::kMagic, "BomMagic");
}
void BM_BomMagicSup(benchmark::State& state) {
  RunBom(state, ldl::QueryStrategy::kMagicSupplementary, "BomMagicSup");
}
void BM_BomTopDown(benchmark::State& state) {
  RunBom(state, ldl::QueryStrategy::kTopDown, "BomTopDown");
}

}  // namespace

// Full evaluation derives O(2^parts) tc facts: keep the sweep tiny.
BENCHMARK(BM_BomFull)->Arg(8)->Arg(10)->Arg(12)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BomMagic)->Arg(8)->Arg(12)->Arg(24)->Arg(48)->Arg(96)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BomMagicSup)->Arg(8)->Arg(12)->Arg(24)->Arg(48)->Arg(96)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BomTopDown)->Arg(8)->Arg(12)->Arg(24)->Arg(48)->Arg(96)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
