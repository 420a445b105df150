// B2: the paper's §6 running example end-to-end. young(<leaf>, S) over a
// family forest; magic evaluation explores only the queried person's
// ancestor chain and generation, while full evaluation materializes a, sg
// and young for everyone. Expected shape: the gap grows with the forest
// depth; magic never loses on bound queries. The *Repeated arms time only
// Session::Query on a session that is already loaded and has answered the
// goal once.
#include "base/str_util.h"
#include "bench/bench_util.h"
#include "workload/workload.h"

namespace {

constexpr const char* kRules =
    "a(X, Y) :- p(X, Y).\n"
    "a(X, Y) :- a(X, Z), a(Z, Y).\n"
    "sg(X, Y) :- siblings(X, Y).\n"
    "sg(X, Y) :- p(Z1, X), sg(Z1, Z2), p(Z2, Y).\n"
    "young(X, <Y>) :- !a(X, Z), sg(X, Y).\n";

void RunYoung(benchmark::State& state, bool magic, bool supplementary = false) {
  size_t depth = static_cast<size_t>(state.range(0));
  ldl::SameGenerationWorkload workload = ldl::MakeSameGeneration(3, 2, depth);
  std::string goal = ldl::StrCat("young(", workload.a_leaf, ", S)");
  ldl::QueryOptions options;
  options.strategy = supplementary ? ldl::QueryStrategy::kMagicSupplementary
                     : magic        ? ldl::QueryStrategy::kMagic
                                    : ldl::QueryStrategy::kModel;
  options.eval.profile = ldl_bench::ProfileRequested();
  ldl::EvalStats last;
  ldl::EvalProfile last_profile;
  for (auto _ : state) {
    auto session = ldl_bench::MakeSession(state, workload.facts, kRules);
    if (session == nullptr) return;
    auto result = session->Query(goal, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    if (result->tuples.size() != 1) {
      state.SkipWithError("expected exactly one young answer");
      return;
    }
    last = result->stats;
    if (options.eval.profile) last_profile = result->profile;
  }
  state.counters["people"] = static_cast<double>(workload.person_count);
  ldl_bench::RecordStats(state, last);
  ldl_bench::MaybeDumpProfile(
      ldl::StrCat(supplementary ? "YoungSupplementary/"
                  : magic       ? "YoungMagic/"
                                : "YoungFull/",
                  depth),
      last_profile);
}

// The repeated-query arm: one Session, loaded, analyzed and queried once
// outside the timed loop, so each iteration times Session::Query alone --
// the magic shape is compiled by then, as it is for a serving session.
void RunYoungRepeated(benchmark::State& state, bool supplementary) {
  size_t depth = static_cast<size_t>(state.range(0));
  ldl::SameGenerationWorkload workload = ldl::MakeSameGeneration(3, 2, depth);
  std::string goal = ldl::StrCat("young(", workload.a_leaf, ", S)");
  ldl::QueryOptions options;
  options.strategy = supplementary ? ldl::QueryStrategy::kMagicSupplementary
                                   : ldl::QueryStrategy::kMagic;
  auto session = ldl_bench::MakeSession(state, workload.facts, kRules);
  if (session == nullptr) return;
  auto warm = session->Query(goal, options);
  if (!warm.ok() || warm->tuples.size() != 1) {
    state.SkipWithError("expected exactly one young answer");
    return;
  }
  ldl::EvalStats last;
  for (auto _ : state) {
    auto result = session->Query(goal, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->tuples);
    last = result->stats;
  }
  state.counters["people"] = static_cast<double>(workload.person_count);
  ldl_bench::RecordStats(state, last);
}

void BM_YoungFull(benchmark::State& state) { RunYoung(state, false); }
void BM_YoungMagic(benchmark::State& state) { RunYoung(state, true); }
void BM_YoungSupplementary(benchmark::State& state) {
  RunYoung(state, true, /*supplementary=*/true);
}
void BM_YoungMagicRepeated(benchmark::State& state) {
  RunYoungRepeated(state, /*supplementary=*/false);
}
void BM_YoungSupplementaryRepeated(benchmark::State& state) {
  RunYoungRepeated(state, /*supplementary=*/true);
}

}  // namespace

BENCHMARK(BM_YoungFull)->Arg(3)->Arg(4)->Arg(5)->Arg(6)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_YoungMagic)->Arg(3)->Arg(4)->Arg(5)->Arg(6)->Arg(7)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_YoungSupplementary)->Arg(3)->Arg(5)->Arg(7)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_YoungMagicRepeated)->Arg(3)->Arg(4)->Arg(5)->Arg(6)->Arg(7)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_YoungSupplementaryRepeated)->Arg(3)->Arg(5)->Arg(7)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
