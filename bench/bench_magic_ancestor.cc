// B1: §6's efficiency claim on the classic recursive workload. A bound
// ancestor query over a parent chain of n people: full (semi-naive)
// evaluation materializes the O(n^2) closure, magic evaluation touches only
// the ~n/12 relevant suffix. Expected shape: magic wins by a factor that
// grows with n.
//
// The serving arm (BM_AncestorServe*) answers bound goals from one
// long-lived ldl::Service over random forests of 1k-64k people: bound-first
// anc(p<k>, Y) (a person's descendants) and, in BM_AncestorServeFreeFirst*,
// free-first anc(X, p<k>) (a person's ancestors). Expected shape: per-query
// p50 stays flat as n grows -- a bound query reads the published snapshot in
// place, and the sip passes the bound argument into the recursive call
// whichever side it is on, so its work follows the answer, not the EDB.
#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include "base/str_util.h"
#include "bench/bench_util.h"
#include "ldl/service.h"
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

// --- B1 serving arm --------------------------------------------------------

constexpr const char* kServeRules =
    "anc(X, Y) :- parent(X, Y).\n"
    "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n";
constexpr size_t kServeGoals = 16;
constexpr size_t kMaxServeAnswers = 32;

// Which argument of anc a serve goal binds to the target person.
enum class GoalShape {
  kBoundFirst,  // anc(p<k>, Y): the target's descendants
  kFreeFirst,   // anc(X, p<k>): the target's ancestors
};

// One Service per forest size, loaded on first use and shared by the
// strategy and goal-shape arms (a long-lived server answers every strategy).
struct ServeFixture {
  ldl::Service service;
  std::vector<ldl::PreparedQuery> bound_first;
  std::vector<ldl::PreparedQuery> free_first;
};

// People of ParentRandomTree(n, 7) with 1 to kMaxServeAnswers descendants:
// the first kServeGoals of them from person n / 16 on. Replays the
// generator's parent draws (person i's parent is uniform in [0, i)). Their
// ancestor counts, a random recursive tree's depths, stay far below the
// answer bound too (about ln n).
std::vector<size_t> ServeTargets(size_t n) {
  ldl::Rng rng(7);
  std::vector<size_t> parent(n, 0);
  for (size_t i = 1; i < n; ++i) parent[i] = rng.Below(i);
  std::vector<size_t> descendants(n, 0);
  for (size_t i = n; i-- > 1;) descendants[parent[i]] += descendants[i] + 1;
  std::vector<size_t> targets;
  for (size_t k = n / 16; k < n && targets.size() < kServeGoals; ++k) {
    if (descendants[k] >= 1 && descendants[k] <= kMaxServeAnswers) {
      targets.push_back(k);
    }
  }
  return targets;
}

ServeFixture* GetServeFixture(benchmark::State& state, size_t n) {
  static std::map<size_t, std::unique_ptr<ServeFixture>> fixtures;
  std::unique_ptr<ServeFixture>& fixture = fixtures[n];
  if (fixture != nullptr) return fixture.get();
  auto fresh = std::make_unique<ServeFixture>();
  ldl::Status status =
      fresh->service.Load(ldl::ParentRandomTree(n, /*seed=*/7) + kServeRules);
  auto prepare = [&](const std::string& text,
                     std::vector<ldl::PreparedQuery>* goals) {
    if (!status.ok()) return;
    auto goal = fresh->service.Prepare(text);
    status = goal.status();
    if (goal.ok()) goals->push_back(std::move(goal).value());
  };
  for (size_t k : ServeTargets(n)) {
    prepare(ldl::StrCat("anc(p", k, ", Y)"), &fresh->bound_first);
    prepare(ldl::StrCat("anc(X, p", k, ")"), &fresh->free_first);
  }
  if (!status.ok() || fresh->bound_first.empty()) {
    state.SkipWithError(status.ok() ? "no serve targets"
                                    : status.ToString().c_str());
    return nullptr;
  }
  fixture = std::move(fresh);
  return fixture.get();
}

// Per-query latency of `shape` goals, rotating over the fixture's targets.
// Every goal runs once untimed first, so the timed queries find the
// snapshot's indexes built.
void AncestorServe(benchmark::State& state, ldl::QueryStrategy strategy,
                   GoalShape shape) {
  const size_t n = static_cast<size_t>(state.range(0));
  ServeFixture* fixture = GetServeFixture(state, n);
  if (fixture == nullptr) return;
  const std::vector<ldl::PreparedQuery>& goals =
      shape == GoalShape::kBoundFirst ? fixture->bound_first
                                      : fixture->free_first;
  std::shared_ptr<const ldl::ModelSnapshot> snapshot =
      fixture->service.snapshot();
  ldl::QueryOptions options;
  options.strategy = strategy;
  size_t answers = 0;
  auto run = [&](const ldl::PreparedQuery& goal) {
    auto result = snapshot->Query(goal, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return false;
    }
    if (result->tuples.size() > kMaxServeAnswers) {
      state.SkipWithError("a serve goal exceeded the answer bound");
      return false;
    }
    benchmark::DoNotOptimize(result->tuples.data());
    answers += result->tuples.size();
    return true;
  };
  for (const ldl::PreparedQuery& goal : goals) {
    if (!run(goal)) return;
  }
  answers = 0;
  std::vector<double> latencies_us;
  size_t next = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!run(goals[next])) return;
    latencies_us.push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    next = (next + 1) % goals.size();
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  state.counters["p50_us"] =
      latencies_us.empty() ? 0 : latencies_us[latencies_us.size() / 2];
  state.counters["answers_per_query"] =
      latencies_us.empty()
          ? 0
          : static_cast<double>(answers) / static_cast<double>(latencies_us.size());
  state.counters["edb_rows"] = static_cast<double>(n - 1);
}

void BM_AncestorServeMagic(benchmark::State& state) {
  AncestorServe(state, ldl::QueryStrategy::kMagic, GoalShape::kBoundFirst);
}
void BM_AncestorServeMagicSup(benchmark::State& state) {
  AncestorServe(state, ldl::QueryStrategy::kMagicSupplementary,
                GoalShape::kBoundFirst);
}
void BM_AncestorServeTopDown(benchmark::State& state) {
  AncestorServe(state, ldl::QueryStrategy::kTopDown, GoalShape::kBoundFirst);
}
void BM_AncestorServeFreeFirstMagic(benchmark::State& state) {
  AncestorServe(state, ldl::QueryStrategy::kMagic, GoalShape::kFreeFirst);
}
void BM_AncestorServeFreeFirstMagicSup(benchmark::State& state) {
  AncestorServe(state, ldl::QueryStrategy::kMagicSupplementary,
                GoalShape::kFreeFirst);
}
void BM_AncestorServeFreeFirstTopDown(benchmark::State& state) {
  AncestorServe(state, ldl::QueryStrategy::kTopDown, GoalShape::kFreeFirst);
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
BENCHMARK(BM_AncestorServeMagic)->RangeMultiplier(4)->Range(1024, 65536)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AncestorServeMagicSup)->RangeMultiplier(4)->Range(1024, 65536)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AncestorServeTopDown)->RangeMultiplier(4)->Range(1024, 65536)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AncestorServeFreeFirstMagic)->RangeMultiplier(4)
    ->Range(1024, 65536)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AncestorServeFreeFirstMagicSup)->RangeMultiplier(4)
    ->Range(1024, 65536)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AncestorServeFreeFirstTopDown)->RangeMultiplier(4)
    ->Range(1024, 65536)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
