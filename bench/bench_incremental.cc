// B9: incremental model maintenance (Session::AddFacts/RemoveFacts +
// Engine::Maintain) vs full re-materialization on EDB inserts and deletes.
// Each iteration inserts one fresh fact into an already-materialized model
// and re-evaluates, then answers a query against the maintained model. The
// incremental arm resumes the affected strata from the delta; the full arm
// forces InvalidateModel() so the same insert pays a from-scratch
// evaluation. Expected shape: on positive recursive programs (tc, ancestor)
// the incremental arm wins by orders of magnitude at >= 1k-fact EDBs; on
// grouping programs an insert-only delta takes the partition-regrow path
// (strata_regrown/group_regrows counters), so the incremental arm stays
// flat while the full arm rebuilds every group. A no-op Evaluate (cache
// hit) bounds the bookkeeping overhead from below.
#include <string>

#include "bench/bench_util.h"
#include "workload/workload.h"

namespace {

struct Workload {
  std::string facts;
  std::string rules;
  // Makes the i-th inserted fact (fresh constants: disconnected component).
  std::string (*insert)(size_t i);
  const char* query;  // goal answered after each insert
};

std::string TcInsert(size_t i) {
  return "e(zza" + std::to_string(i) + ", zzb" + std::to_string(i) + ").";
}
std::string AncestorInsert(size_t i) {
  return "parent(zza" + std::to_string(i) + ", zzb" + std::to_string(i) + ").";
}
std::string GroupingInsert(size_t i) {
  return "supplies(zzs" + std::to_string(i) + ", part" +
         std::to_string(i % 7) + ").";
}

Workload MakeTc(size_t edb) {
  return {ldl::RandomGraph(/*nodes=*/edb / 4, /*edges=*/edb, /*seed=*/11, "e"),
          "t(X, Y) :- e(X, Y).\n"
          "t(X, Y) :- t(X, Z), e(Z, Y).\n",
          TcInsert, "t(zza0, X)"};
}
Workload MakeAncestor(size_t edb) {
  return {ldl::ParentChain(edb, "parent"),
          "anc(X, Y) :- parent(X, Y).\n"
          "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
          AncestorInsert, "anc(zza0, X)"};
}
Workload MakeGrouping(size_t edb) {
  return {ldl::SupplierParts(/*suppliers=*/edb / 16, /*parts_per=*/16,
                             /*part_pool=*/128, /*seed=*/11),
          "by_supplier(S, <P>) :- supplies(S, P).\n",
          GroupingInsert, "by_supplier(zzs0, X)"};
}

// One insert -> re-evaluate -> query round per iteration. `incremental`
// keeps the maintained model; the baseline invalidates it first so every
// round re-materializes from scratch. The EDB grows by one fact per
// iteration in both arms (identical work, and negligible next to the IDB).
void RunInsertQuery(benchmark::State& state, const Workload& workload,
                    bool incremental, const char* name) {
  auto session = ldl_bench::MakeSession(state, workload.facts, workload.rules);
  if (session == nullptr) return;
  ldl::EvalOptions options;
  options.profile = ldl_bench::ProfileRequested();
  ldl::Status status = session->Evaluate(options);
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  ldl::QueryOptions query_options;
  query_options.eval = options;
  size_t i = 0;
  size_t answers = 0;
  for (auto _ : state) {
    status = session->AddFacts(workload.insert(i++));
    if (status.ok() && !incremental) {
      session->InvalidateModel();
    }
    if (status.ok()) status = session->Evaluate(options);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    auto result = session->Query(workload.query, query_options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    answers = result->tuples.size();
  }
  benchmark::DoNotOptimize(answers);
  ldl_bench::RecordStats(state, session->last_eval_stats());
  state.counters["incremental_evals"] =
      static_cast<double>(session->incremental_evals());
  state.counters["full_evals"] = static_cast<double>(session->full_evals());
  ldl_bench::MaybeDumpProfile(
      name + ("/" + std::to_string(state.range(0))),
      session->last_eval_profile());
}

void BM_TcInsertIncremental(benchmark::State& state) {
  RunInsertQuery(state, MakeTc(state.range(0)), /*incremental=*/true,
                 "TcInsertIncremental");
}
void BM_TcInsertFull(benchmark::State& state) {
  RunInsertQuery(state, MakeTc(state.range(0)), /*incremental=*/false,
                 "TcInsertFull");
}
void BM_AncestorInsertIncremental(benchmark::State& state) {
  RunInsertQuery(state, MakeAncestor(state.range(0)), /*incremental=*/true,
                 "AncestorInsertIncremental");
}
void BM_AncestorInsertFull(benchmark::State& state) {
  RunInsertQuery(state, MakeAncestor(state.range(0)), /*incremental=*/false,
                 "AncestorInsertFull");
}
void BM_GroupingInsertIncremental(benchmark::State& state) {
  RunInsertQuery(state, MakeGrouping(state.range(0)), /*incremental=*/true,
                 "GroupingInsertIncremental");
}
void BM_GroupingInsertFull(benchmark::State& state) {
  RunInsertQuery(state, MakeGrouping(state.range(0)), /*incremental=*/false,
                 "GroupingInsertFull");
}

// One delete -> re-evaluate -> query round per iteration. The deleted fact
// is a disconnected component inserted (and settled) outside the timed
// region, so each round measures exactly one single-fact deletion against
// an already-materialized model. The incremental arm runs DRed (recursive
// strata, strata_overdeleted) or counter decrements (non-recursive strata,
// count_decrements); the baseline invalidates the model so the same
// deletion pays a from-scratch evaluation.
void RunDeleteQuery(benchmark::State& state, const Workload& workload,
                    bool incremental, const char* name) {
  auto session = ldl_bench::MakeSession(state, workload.facts, workload.rules);
  if (session == nullptr) return;
  ldl::EvalOptions options;
  options.profile = ldl_bench::ProfileRequested();
  ldl::Status status = session->Evaluate(options);
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  ldl::QueryOptions query_options;
  query_options.eval = options;
  size_t i = 0;
  size_t answers = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string fact = workload.insert(i++);
    status = session->AddFacts(fact);
    if (status.ok()) status = session->Evaluate(options);
    state.ResumeTiming();
    if (status.ok()) status = session->RemoveFacts(fact);
    if (status.ok() && !incremental) {
      session->InvalidateModel();
    }
    if (status.ok()) status = session->Evaluate(options);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    auto result = session->Query(workload.query, query_options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    answers = result->tuples.size();
  }
  benchmark::DoNotOptimize(answers);
  ldl_bench::RecordStats(state, session->last_eval_stats());
  state.counters["incremental_evals"] =
      static_cast<double>(session->incremental_evals());
  state.counters["full_evals"] = static_cast<double>(session->full_evals());
  ldl_bench::MaybeDumpProfile(
      name + ("/" + std::to_string(state.range(0))),
      session->last_eval_profile());
}

// Non-recursive projection over the same random graph: deletions here are
// pure derivation-counter decrements, no DRed over-delete pass.
Workload MakeProjection(size_t edb) {
  return {ldl::RandomGraph(/*nodes=*/edb / 4, /*edges=*/edb, /*seed=*/11, "e"),
          "r(X) :- e(X, Y).\n", TcInsert, "r(zza0)"};
}

void BM_TcDeleteIncremental(benchmark::State& state) {
  RunDeleteQuery(state, MakeTc(state.range(0)), /*incremental=*/true,
                 "TcDeleteIncremental");
}
void BM_TcDeleteFull(benchmark::State& state) {
  RunDeleteQuery(state, MakeTc(state.range(0)), /*incremental=*/false,
                 "TcDeleteFull");
}
void BM_AncestorDeleteIncremental(benchmark::State& state) {
  RunDeleteQuery(state, MakeAncestor(state.range(0)), /*incremental=*/true,
                 "AncestorDeleteIncremental");
}
void BM_AncestorDeleteFull(benchmark::State& state) {
  RunDeleteQuery(state, MakeAncestor(state.range(0)), /*incremental=*/false,
                 "AncestorDeleteFull");
}
void BM_ProjectionDeleteIncremental(benchmark::State& state) {
  RunDeleteQuery(state, MakeProjection(state.range(0)), /*incremental=*/true,
                 "ProjectionDeleteIncremental");
}
void BM_ProjectionDeleteFull(benchmark::State& state) {
  RunDeleteQuery(state, MakeProjection(state.range(0)), /*incremental=*/false,
                 "ProjectionDeleteFull");
}

// Evaluate() with a current model and no pending delta: the cache-hit
// floor every maintained round sits on top of.
void BM_NoopEvaluateCacheHit(benchmark::State& state) {
  Workload workload = MakeTc(state.range(0));
  auto session = ldl_bench::MakeSession(state, workload.facts, workload.rules);
  if (session == nullptr) return;
  ldl::Status status = session->Evaluate();
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    status = session->Evaluate();
    benchmark::DoNotOptimize(status.ok());
  }
  state.counters["cache_hits"] =
      static_cast<double>(session->eval_cache_hits());
}

}  // namespace

BENCHMARK(BM_TcInsertIncremental)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TcInsertFull)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AncestorInsertIncremental)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AncestorInsertFull)->Arg(1024)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GroupingInsertIncremental)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GroupingInsertFull)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TcDeleteIncremental)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TcDeleteFull)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AncestorDeleteIncremental)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AncestorDeleteFull)->Arg(1024)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ProjectionDeleteIncremental)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ProjectionDeleteFull)->Arg(1024)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_NoopEvaluateCacheHit)->Arg(1024)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
