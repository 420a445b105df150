// B1: §6's efficiency claim on the classic recursive workload. A bound
// ancestor query over a parent chain of n people: full (semi-naive)
// evaluation materializes the O(n^2) closure, magic evaluation touches only
// the ~n/12 relevant suffix. Expected shape: magic wins by a factor that
// grows with n.
#include "base/str_util.h"
#include "bench/bench_util.h"
#include "workload/workload.h"

namespace {

constexpr const char* kRules =
    "a(X, Y) :- p(X, Y).\n"
    "a(X, Y) :- p(X, Z), a(Z, Y).\n";

// The query target sits near the end of the chain: only a short suffix is
// relevant.
std::string Goal(size_t n) {
  return ldl::StrCat("a(p", n - n / 12 - 1, ", X)");
}

void BM_AncestorFull(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::string facts = ldl::ParentChain(n, "p");
  std::string goal = Goal(n);
  ldl::QueryOptions options;
  options.eval.profile = ldl_bench::ProfileRequested();
  ldl::EvalStats last;
  ldl::EvalProfile last_profile;
  for (auto _ : state) {
    auto session = ldl_bench::MakeSession(state, facts, kRules);
    if (session == nullptr) return;
    auto result = session->Query(goal, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->tuples.size());
    last = result->stats;
    if (options.eval.profile) last_profile = result->profile;
  }
  ldl_bench::RecordStats(state, last);
  ldl_bench::MaybeDumpProfile(ldl::StrCat("AncestorFull/", n), last_profile);
}

void BM_AncestorMagic(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::string facts = ldl::ParentChain(n, "p");
  std::string goal = Goal(n);
  ldl::QueryOptions options;
  options.strategy = ldl::QueryStrategy::kMagic;
  options.eval.profile = ldl_bench::ProfileRequested();
  ldl::EvalStats last;
  ldl::EvalProfile last_profile;
  for (auto _ : state) {
    auto session = ldl_bench::MakeSession(state, facts, kRules);
    if (session == nullptr) return;
    auto result = session->Query(goal, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->tuples.size());
    last = result->stats;
    if (options.eval.profile) last_profile = result->profile;
  }
  ldl_bench::RecordStats(state, last);
  ldl_bench::MaybeDumpProfile(ldl::StrCat("AncestorMagic/", n), last_profile);
}

// Random-tree variant: the relevant subgraph is the subtree below the
// queried node.
// Memoized top-down baseline: the strategy magic sets mimic bottom-up.
void BM_AncestorTopDown(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::string facts = ldl::ParentChain(n, "p");
  std::string goal = Goal(n);
  ldl::QueryOptions options;
  options.strategy = ldl::QueryStrategy::kTopDown;
  options.eval.profile = ldl_bench::ProfileRequested();
  ldl::EvalStats last;
  ldl::EvalProfile last_profile;
  for (auto _ : state) {
    auto session = ldl_bench::MakeSession(state, facts, kRules);
    if (session == nullptr) return;
    auto result = session->Query(goal, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->tuples.size());
    last = result->stats;
    if (options.eval.profile) last_profile = result->profile;
  }
  ldl_bench::RecordStats(state, last);
  ldl_bench::MaybeDumpProfile(ldl::StrCat("AncestorTopDown/", n), last_profile);
}

// Supplementary-magic ablation: same answers, shared prefix joins.
void BM_AncestorSupplementary(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::string facts = ldl::ParentChain(n, "p");
  std::string goal = Goal(n);
  ldl::QueryOptions options;
  options.strategy = ldl::QueryStrategy::kMagicSupplementary;
  options.eval.profile = ldl_bench::ProfileRequested();
  ldl::EvalStats last;
  ldl::EvalProfile last_profile;
  for (auto _ : state) {
    auto session = ldl_bench::MakeSession(state, facts, kRules);
    if (session == nullptr) return;
    auto result = session->Query(goal, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->tuples.size());
    last = result->stats;
    if (options.eval.profile) last_profile = result->profile;
  }
  ldl_bench::RecordStats(state, last);
  ldl_bench::MaybeDumpProfile(ldl::StrCat("AncestorSupplementary/", n),
                              last_profile);
}

void BM_AncestorTreeMagic(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::string facts = ldl::ParentRandomTree(n, /*seed=*/17, "p");
  std::string goal = ldl::StrCat("a(p", n / 2, ", X)");
  ldl::QueryOptions options;
  options.strategy = ldl::QueryStrategy::kMagic;
  options.eval.profile = ldl_bench::ProfileRequested();
  ldl::EvalStats last;
  ldl::EvalProfile last_profile;
  for (auto _ : state) {
    auto session = ldl_bench::MakeSession(state, facts, kRules);
    if (session == nullptr) return;
    auto result = session->Query(goal, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    last = result->stats;
    if (options.eval.profile) last_profile = result->profile;
  }
  ldl_bench::RecordStats(state, last);
  ldl_bench::MaybeDumpProfile(ldl::StrCat("AncestorTreeMagic/", n),
                              last_profile);
}

}  // namespace

// Full evaluation is quadratic in n; cap its sweep lower.
BENCHMARK(BM_AncestorFull)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AncestorMagic)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AncestorSupplementary)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AncestorTopDown)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AncestorTreeMagic)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
