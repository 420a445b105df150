// ldl::Service -- concurrent serving facade over a Session.
//
// A Service multiplexes many concurrent read queries against an immutable,
// refcounted ModelSnapshot while serializing writes through the Session's
// incremental-maintenance path:
//
//   ldl::Service service;
//   LDL_RETURN_IF_ERROR(service.Load("edge(1, 2). path(X, Y) :- ..."));
//   LDL_ASSIGN_OR_RETURN(ldl::PreparedQuery goal, service.Prepare("path(1, X)"));
//   // Any number of threads, concurrently with AddFacts/RemoveFacts:
//   auto result = service.Query(goal);
//
// Concurrency contract:
//   * Load/AddFacts/RemoveFacts are serialized on a writer mutex. Each
//     successful write re-evaluates the model (incrementally when the
//     update is a pure EDB delta) and atomically publishes a fresh
//     snapshot. Failed writes publish nothing; readers keep the last good
//     model.
//   * Query/Prepare run concurrently with each other and with writes.
//     Readers never block writers and writes never block readers: a reader
//     holds whichever snapshot was current when it started and keeps it
//     alive (shared_ptr) even if the writer publishes past it.
//   * kModel queries match directly against the snapshot's frozen database
//     (lock-free: the relation index list publishes atomically). kMagic and
//     kTopDown build per-call scratch databases seeded from the snapshot;
//     the magic rewrite mutates the shared catalog, so rewrites serialize
//     on a catalog mutex (shared with write-side analysis) while the
//     evaluation itself runs outside any lock. Compiled plans are shared
//     across all of this through one internally-synchronized PlanCache.
//
// Every observed answer set therefore equals what a serial Session would
// produce at some published version -- the linearization point is the
// snapshot acquisition.
#ifndef LDL1_LDL_SERVICE_H_
#define LDL1_LDL_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/snapshot.h"
#include "ldl/ldl.h"

namespace ldl {

// X-macro over the Service serving counters: X(name, description). Drives
// the ServiceStats struct, FormatServiceStats and the REPL's stats display,
// so a counter added here shows up everywhere.
#define LDL_SERVICE_STATS_FIELDS(X)                                         \
  X(queries_served, "queries answered (all strategies, all snapshots)")     \
  X(prepares, "goals prepared")                                             \
  X(writes_applied, "successful Load/AddFacts/RemoveFacts calls")           \
  X(snapshots_published, "model snapshots published")                       \
  X(analyses_shared, "publications that reused the prior analysis")         \
  X(snapshot_refs, "references on the live snapshot (incl. the service's)") \
  X(catalog_preds, "predicates in the shared catalog")                      \
  X(cached_plans, "compiled plans in the shared plan cache")

// A point-in-time copy of the serving counters (Service::stats()).
struct ServiceStats {
#define LDL_SERVICE_STAT_MEMBER(name, description) uint64_t name = 0;
  LDL_SERVICE_STATS_FIELDS(LDL_SERVICE_STAT_MEMBER)
#undef LDL_SERVICE_STAT_MEMBER
};

// "queries_served=12 snapshots_published=3 ..." -- one line, field order as
// declared in LDL_SERVICE_STATS_FIELDS.
std::string FormatServiceStats(const ServiceStats& stats);

// One published, immutable model version. Snapshots are refcounted: a
// reader that acquired one keeps it valid for as long as it holds the
// pointer, across any number of later publications. All members are frozen
// after publication; Query is genuinely const and thread-safe.
class ModelSnapshot {
 public:
  ModelSnapshot(const ModelSnapshot&) = delete;
  ModelSnapshot& operator=(const ModelSnapshot&) = delete;

  // Answers `prepared` against this snapshot's model. Thread-safe: kModel
  // probes the frozen database; kMagic/kTopDown evaluate in per-call
  // scratch databases seeded from it. `stats` of a kModel result are those
  // of the evaluation that built the snapshot.
  StatusOr<QueryResult> Query(const PreparedQuery& prepared,
                              const QueryOptions& options = {}) const;

  // Publication number (1 for the first snapshot the Service published).
  uint64_t version() const { return version_; }
  // The frozen materialized model.
  const Database& database() const { return *db_; }
  size_t total_facts() const { return db_->TotalFacts(); }
  // The service-shared term factory (for formatting answers).
  const TermFactory& factory() const { return *factory_; }

 private:
  friend class Service;

  // Analyzed-program state, shared between consecutive snapshots while the
  // rule set is unchanged (EDB-only deltas republish the model without
  // copying the program).
  struct Analysis {
    ProgramIr program;
    Stratification stratification;
    std::vector<PredId> edb_preds;
    uint64_t epoch = 0;  // Session::analysis_epoch() this was captured at
  };

  ModelSnapshot() = default;

  // Shared thread-safe infrastructure owned by the Service (terms, catalog
  // and compiled plans are append-only across snapshots).
  TermFactory* factory_ = nullptr;
  Catalog* catalog_ = nullptr;
  PlanCache* plans_ = nullptr;
  std::mutex* catalog_mu_ = nullptr;  // serializes magic rewrites vs. analysis

  std::shared_ptr<const Analysis> analysis_;
  std::unique_ptr<Database> db_;  // frozen view of the writer's rows
  std::vector<char> has_rules_;   // per-pred, captured at publication
  EvalStats eval_stats_;          // of the evaluation that built the model
  uint64_t version_ = 0;
};

class Service {
 public:
  // `eval` configures the write-side evaluations (mode, profiling, limits); it is fixed at construction so writes need no extra locking
  // around options.
  explicit Service(const EvalOptions& eval = {});

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // --- Write path: serialized, each success publishes a snapshot. ---

  // Loads program text (rules, facts, stored queries), re-evaluates and
  // publishes. Parse/analysis errors leave the previous snapshot serving.
  Status Load(std::string_view source);
  // Adds ground EDB facts; the model is maintained incrementally when
  // possible (Session::AddFacts semantics) and republished.
  Status AddFacts(std::string_view source);
  // Removes ground EDB facts; re-evaluates and republishes.
  Status RemoveFacts(std::string_view source);

  // --- Read path: concurrent, wait-free against writers. ---

  // Parses, checks and lowers `goal_text` once for repeated querying.
  // Thread-safe (interner, term factory and catalog are internally
  // synchronized); may register a new predicate for unseen goals.
  StatusOr<PreparedQuery> Prepare(std::string_view goal_text);

  // Answers `prepared` against the currently published snapshot.
  StatusOr<QueryResult> Query(const PreparedQuery& prepared,
                              const QueryOptions& options = {}) const;
  // Prepare() + Query() for one-off goals.
  StatusOr<QueryResult> Query(std::string_view goal_text,
                              const QueryOptions& options = {});

  // The current snapshot, pinned for the caller's lifetime of the pointer.
  // Never null: the constructor publishes an (empty) version 1.
  std::shared_ptr<const ModelSnapshot> snapshot() const {
    return slot_.Acquire();
  }

  // Point-in-time serving counters.
  ServiceStats stats() const;

 private:
  // Runs `mutate` + re-evaluation on the writer session and publishes the
  // result; everything under write_mu_, the catalog-mutating parts also
  // under catalog_mu_.
  template <typename Fn>
  Status Apply(Fn&& mutate);
  // Builds and publishes a snapshot of the writer's current model. Caller
  // holds write_mu_ (and nothing else).
  void PublishLocked();

  const EvalOptions eval_options_;
  PlanCache plans_;  // internally synchronized; shared by all engines
  mutable std::mutex write_mu_;  // serializes writers
  // Serializes catalog mutation: write-side lowering/analysis and
  // read-side magic rewrites. Never held during evaluation.
  mutable std::mutex catalog_mu_;
  Session writer_;  // guarded by write_mu_
  SnapshotSlot<ModelSnapshot> slot_;

  mutable std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> prepares_{0};
  std::atomic<uint64_t> writes_applied_{0};
  std::atomic<uint64_t> analyses_shared_{0};
};

}  // namespace ldl

#endif  // LDL1_LDL_SERVICE_H_
