// B11: concurrent serving throughput (ldl::Service). N reader threads
// answer a prepared kModel goal against the published snapshot, optionally
// while one writer thread applies fresh EDB deltas (AddFacts ->
// incremental maintenance -> snapshot republication). Reported counters:
//
//   qps         reader queries per second of wall time (manual timing)
//   lat_p50_us  per-query latency, 50th percentile (microseconds)
//   lat_p99_us  per-query latency, 99th percentile
//   snapshots   versions published over the whole run (writer arm only > 2)
//
// readers=1/writer=0 bounds the facade overhead against a bare
// Session::Query; the reader sweep shows snapshot reads scaling (on a
// multi-core host -- a single-core container serializes the threads, so
// qps stays flat there and only the isolation properties are exercised).
//
// BM_ServiceWrite is the write arm: write->visible latency against model
// size. Over an ancestor forest of `people` people, one writer adds a fresh
// leaf under a random person and removes it again; each AddFacts /
// RemoveFacts call returns once the maintained model is published, so its
// wall time is the write->visible latency. Reported counters:
//
//   write_p50_us  write->visible latency, 50th percentile (microseconds)
//   write_p99_us  write->visible latency, 99th percentile
//   model_facts   facts in the published model (anc + parent)
//
// BM_ServiceReparent is the reparent write of the anc_serve workload on the
// same 1,500-person forest: move a random person under a new parent at its
// old parent's depth (AddFacts of the new edge, then RemoveFacts of the old
// one; depths, and so the model size, stay put, and no cycle can form).
// Every 20th write re-adds a removed edge instead, moving a person back
// under an earlier parent: a tombstoned EDB row comes back through the
// insert delta. The removed rows pile up as tombstones until maintenance
// compacts their relation. Reported counters:
//
//   write_p50_us    write->visible latency, 50th percentile (microseconds)
//   write_p99_us    write->visible latency, 99th percentile
//   compactions     relations compacted over the run (ServiceStats)
//   dead_row_ratio  tombstoned share of the published model's rows,
//                   sum(raw_rows - rows) / sum(raw_rows), averaged over
//                   the writes
//
// BM_ServiceModelRead is the point-read arm: one reader asks warm kModel
// goals anc(X, p<i>) (the ancestors of a random person) over the 1,500-
// person ParentRandomTree forest of BM_ServiceWrite, each goal prepared and
// read once before timing, so its lookup is compiled and the anc index
// built. Each read is timed on
// its own. Reported counters:
//
//   read_p50_ns  Service::Query latency, 50th percentile (nanoseconds)
//   read_p99_ns  Service::Query latency, 99th percentile
//   answers      mean answers per read
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "ldl/service.h"
#include "workload/workload.h"

namespace {

constexpr size_t kChain = 256;            // anc over a 256-node parent chain
constexpr size_t kQueriesPerReader = 128;  // per iteration
constexpr size_t kWriterUpdates = 8;       // per iteration (writer arm)

double Percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0;
  size_t index = static_cast<size_t>(q * (sorted->size() - 1));
  return (*sorted)[index];
}

// args: {readers, with_writer}
void BM_ServiceServe(benchmark::State& state) {
  const size_t readers = static_cast<size_t>(state.range(0));
  const bool with_writer = state.range(1) != 0;

  ldl::Service service;
  std::string program = ldl::ParentChain(kChain, "parent");
  program +=
      "anc(X, Y) :- parent(X, Y).\n"
      "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n";
  ldl::Status status = service.Load(program);
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  auto prepared = service.Prepare("anc(p0, X)");
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  // Warm: materialize + compile the probe plan before timing.
  auto warm = service.Query(*prepared);
  if (!warm.ok() || warm->tuples.size() != kChain) {
    state.SkipWithError("warmup query failed");
    return;
  }

  std::vector<double> latencies_us;
  size_t total_queries = 0;
  std::atomic<size_t> fresh_constant{0};  // unique insert per writer update
  std::atomic<size_t> errors{0};
  for (auto _ : state) {
    std::vector<std::vector<double>> per_reader(readers);
    auto begin = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(readers + 1);
    for (size_t r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        std::vector<double>& latencies = per_reader[r];
        latencies.reserve(kQueriesPerReader);
        for (size_t i = 0; i < kQueriesPerReader; ++i) {
          auto t0 = std::chrono::steady_clock::now();
          auto result = service.Query(*prepared);
          auto t1 = std::chrono::steady_clock::now();
          // Writers only ever append disconnected components, so the
          // answer set of the probed chain never changes.
          if (!result.ok() || result->tuples.size() != kChain) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          latencies.push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
      });
    }
    if (with_writer) {
      threads.emplace_back([&] {
        for (size_t w = 0; w < kWriterUpdates; ++w) {
          size_t id = fresh_constant.fetch_add(1, std::memory_order_relaxed);
          std::string fact = "parent(zza" + std::to_string(id) + ", zzb" +
                             std::to_string(id) + ").";
          if (!service.AddFacts(fact).ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    auto end = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(end - begin).count());
    total_queries += readers * kQueriesPerReader;
    for (std::vector<double>& latencies : per_reader) {
      latencies_us.insert(latencies_us.end(), latencies.begin(),
                          latencies.end());
    }
  }
  if (errors.load() != 0) {
    state.SkipWithError("concurrent queries failed or saw a torn model");
    return;
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  state.counters["qps"] = benchmark::Counter(static_cast<double>(total_queries),
                                             benchmark::Counter::kIsRate);
  state.counters["lat_p50_us"] = Percentile(&latencies_us, 0.50);
  state.counters["lat_p99_us"] = Percentile(&latencies_us, 0.99);
  state.counters["snapshots"] =
      static_cast<double>(service.stats().snapshots_published);
}

constexpr size_t kWritesPerIteration = 32;  // leaf add + remove pairs

// args: {people}
void BM_ServiceWrite(benchmark::State& state) {
  const size_t people = static_cast<size_t>(state.range(0));
  ldl::Service service;
  std::string program = ldl::ParentRandomTree(people, /*seed=*/11);
  program +=
      "anc(X, Y) :- parent(X, Y).\n"
      "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n";
  ldl::Status status = service.Load(program);
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  const size_t model_facts = service.snapshot()->total_facts();

  ldl::Rng rng(7);
  size_t next_leaf = 0;
  std::vector<double> latencies_us;
  auto timed_write = [&](const std::string& fact, bool add) {
    auto t0 = std::chrono::steady_clock::now();
    ldl::Status write = add ? service.AddFacts(fact) : service.RemoveFacts(fact);
    auto t1 = std::chrono::steady_clock::now();
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    return write.ok();
  };
  for (auto _ : state) {
    const size_t first = latencies_us.size();
    for (size_t w = 0; w < kWritesPerIteration; ++w) {
      const std::string fact = "parent(p" + std::to_string(rng.Below(people)) +
                               ", leaf" + std::to_string(next_leaf++) + ").";
      if (!timed_write(fact, true) || !timed_write(fact, false)) {
        state.SkipWithError("write failed");
        return;
      }
    }
    double seconds = 0;
    for (size_t i = first; i < latencies_us.size(); ++i) {
      seconds += latencies_us[i] * 1e-6;
    }
    state.SetIterationTime(seconds);
  }
  if (service.snapshot()->total_facts() != model_facts) {
    state.SkipWithError("leaf writes did not cancel out");
    return;
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  state.counters["write_p50_us"] = Percentile(&latencies_us, 0.50);
  state.counters["write_p99_us"] = Percentile(&latencies_us, 0.99);
  state.counters["model_facts"] = static_cast<double>(model_facts);
}

constexpr size_t kReparentPeople = 1500;
constexpr size_t kReparentsPerIteration = 16;  // two writes each
constexpr size_t kReaddEvery = 10;             // reparents: every 20th write

// sum(raw_rows - rows) / sum(raw_rows) over the snapshot's relations.
double DeadRowRatio(const ldl::ModelSnapshot& snapshot) {
  const ldl::Database& db = snapshot.database();
  size_t raw = 0;
  size_t live = 0;
  for (ldl::PredId pred = 0; pred < db.catalog()->size(); ++pred) {
    if (const ldl::Relation* relation = db.FindRelation(pred)) {
      raw += relation->row_count();
      live += relation->size();
    }
  }
  return raw == 0 ? 0 : static_cast<double>(raw - live) / static_cast<double>(raw);
}

void BM_ServiceReparent(benchmark::State& state) {
  // The ParentRandomTree law: person i > 0 gets a parent uniform in [0, i).
  ldl::Rng tree_rng(11);
  std::vector<size_t> parent(kReparentPeople, 0);
  std::vector<size_t> depth(kReparentPeople, 0);
  std::vector<std::vector<size_t>> by_depth(1, std::vector<size_t>{0});
  std::string program;
  for (size_t i = 1; i < kReparentPeople; ++i) {
    parent[i] = tree_rng.Below(i);
    depth[i] = depth[parent[i]] + 1;
    if (by_depth.size() <= depth[i]) by_depth.resize(depth[i] + 1);
    by_depth[depth[i]].push_back(i);
    program += "parent(p" + std::to_string(parent[i]) + ", p" +
               std::to_string(i) + ").\n";
  }
  program +=
      "anc(X, Y) :- parent(X, Y).\n"
      "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n";
  ldl::Service service;
  ldl::Status status = service.Load(program);
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  const size_t model_facts = service.snapshot()->total_facts();

  auto edge = [](size_t from, size_t child) {
    return "parent(p" + std::to_string(from) + ", p" + std::to_string(child) +
           ").";
  };
  ldl::Rng rng(7);
  // (old parent, child) of the moves since the last re-add.
  std::vector<std::pair<size_t, size_t>> removed;
  std::vector<double> latencies_us;
  double dead_ratio_sum = 0;
  size_t reparents = 0;
  auto timed_write = [&](const std::string& fact, bool add) {
    auto t0 = std::chrono::steady_clock::now();
    ldl::Status write = add ? service.AddFacts(fact) : service.RemoveFacts(fact);
    auto t1 = std::chrono::steady_clock::now();
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    dead_ratio_sum += DeadRowRatio(*service.snapshot());
    return write.ok();
  };
  for (auto _ : state) {
    const size_t first = latencies_us.size();
    for (size_t r = 0; r < kReparentsPerIteration; ++r) {
      size_t child = 0;
      size_t to = 0;
      // A re-add moves a person back under a parent it had since the last
      // re-add, so its edge row is still a tombstone unless compaction
      // dropped it. That parent sits at the current parent's depth; edges
      // whose move was already undone are skipped.
      if (++reparents % kReaddEvery == 0) {
        while (child == 0 && !removed.empty()) {
          const size_t pick = rng.Below(removed.size());
          const auto [old_parent, moved] = removed[pick];
          removed[pick] = removed.back();
          removed.pop_back();
          if (parent[moved] != old_parent) {
            child = moved;
            to = old_parent;
          }
        }
        removed.clear();
      }
      while (child == 0) {
        const size_t candidate = 1 + rng.Below(kReparentPeople - 1);
        const std::vector<size_t>& peers = by_depth[depth[candidate] - 1];
        const size_t peer = peers[rng.Below(peers.size())];
        if (peer != parent[candidate]) {
          child = candidate;
          to = peer;
        }
      }
      const size_t from = parent[child];
      if (!timed_write(edge(to, child), true) ||
          !timed_write(edge(from, child), false)) {
        state.SkipWithError("write failed");
        return;
      }
      parent[child] = to;
      removed.emplace_back(from, child);
    }
    double seconds = 0;
    for (size_t i = first; i < latencies_us.size(); ++i) {
      seconds += latencies_us[i] * 1e-6;
    }
    state.SetIterationTime(seconds);
  }
  if (service.snapshot()->total_facts() != model_facts) {
    state.SkipWithError("same-depth moves changed the model size");
    return;
  }
  const double writes = static_cast<double>(latencies_us.size());
  std::sort(latencies_us.begin(), latencies_us.end());
  state.counters["write_p50_us"] = Percentile(&latencies_us, 0.50);
  state.counters["write_p99_us"] = Percentile(&latencies_us, 0.99);
  state.counters["compactions"] =
      static_cast<double>(service.stats().compactions);
  state.counters["dead_row_ratio"] = writes == 0 ? 0 : dead_ratio_sum / writes;
}

constexpr size_t kReadsPerIteration = 256;

void BM_ServiceModelRead(benchmark::State& state) {
  ldl::Service service;
  std::string program = ldl::ParentRandomTree(kReparentPeople, /*seed=*/11);
  program +=
      "anc(X, Y) :- parent(X, Y).\n"
      "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n";
  ldl::Status status = service.Load(program);
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  std::vector<ldl::PreparedQuery> goals;
  for (size_t i = 0; i < kReparentPeople; ++i) {
    ldl::StatusOr<ldl::PreparedQuery> goal =
        service.Prepare("anc(X, p" + std::to_string(i) + ")");
    if (!goal.ok() || !service.Query(*goal).ok()) {
      state.SkipWithError("warm-up read failed");
      return;
    }
    goals.push_back(std::move(*goal));
  }
  ldl::Rng rng(7);
  std::vector<double> latencies_ns;
  size_t answers = 0;
  for (auto _ : state) {
    double seconds = 0;
    for (size_t r = 0; r < kReadsPerIteration; ++r) {
      const ldl::PreparedQuery& goal = goals[rng.Below(goals.size())];
      auto t0 = std::chrono::steady_clock::now();
      ldl::StatusOr<ldl::QueryResult> result = service.Query(goal);
      auto t1 = std::chrono::steady_clock::now();
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(result->tuples.data());
      answers += result->tuples.size();
      const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
      latencies_ns.push_back(ns);
      seconds += ns * 1e-9;
    }
    state.SetIterationTime(seconds);
  }
  const double reads = static_cast<double>(latencies_ns.size());
  std::sort(latencies_ns.begin(), latencies_ns.end());
  state.counters["read_p50_ns"] = Percentile(&latencies_ns, 0.50);
  state.counters["read_p99_ns"] = Percentile(&latencies_ns, 0.99);
  state.counters["answers"] = reads == 0 ? 0 : static_cast<double>(answers) / reads;
}

}  // namespace

BENCHMARK(BM_ServiceReparent)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_ServiceModelRead)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_ServiceWrite)
    ->UseManualTime()
    ->ArgNames({"people"})
    ->Arg(1500)
    ->Arg(6000)
    ->Arg(24000)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_ServiceServe)
    ->UseManualTime()
    ->ArgNames({"readers", "writer"})
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
