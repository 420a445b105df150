// Shared machinery of the end-to-end benchmark: latency samples, the span
// recorder of the traced run, the two backends the workloads drive (the
// public ldl::Service, and the same work composed from the public Session /
// Engine / rewrite / program calls with a span around each), and the
// end-of-run model check.
//
// A workload never talks to the engine directly; it generates program text
// and goal text from its seed, issues them through a Backend, and checks
// every answer against its own oracle. The untraced run measures the
// end-to-end metrics through ServiceBackend; the traced run replays the same
// op stream through TracedBackend to attribute time to layers.
#ifndef LDL1_E2E_BENCH_HARNESS_H_
#define LDL1_E2E_BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"
#include "eval/engine.h"
#include "ldl/ldl.h"
#include "workload/workload.h"

namespace ldl_bench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Latency samples of one metric, in the unit they were added in.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  // True when at least ten samples lie beyond the p99, the smallest sample
  // a p99 may be reported from.
  bool SupportsP99() const { return values_.size() >= 1000; }
  // Medians of the first and of the second half of the samples, in the
  // order they were taken (drift check).
  double FirstHalfMedian() const;
  double SecondHalfMedian() const;

 private:
  static double QuantileOf(std::vector<double> values, double q);
  std::vector<double> values_;
};

// One recorded span. Times are tracer time (wall time minus paused time),
// in nanoseconds since the tracer was created.
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;  // index into the span list, -1 for an op's root span
  uint32_t op;     // op id shared by every span of one op
};

// In-memory span recorder. Spans nest strictly (one client thread), so a
// span's self time is its duration minus the durations of its direct
// children. Work the benchmark does for itself inside an op (oracle checks,
// diffing snapshots) runs between Pause() and Resume() and is invisible to
// every span.
class Tracer {
 public:
  Tracer();

  // Opens the root span of a new op; spans are recorded only while an op
  // is open.
  void BeginOp(const char* name);
  void EndOp();
  bool in_op() const { return open_ >= 0; }

  int32_t Open(const char* name);
  void Close(int32_t index);

  void Pause();
  void Resume();

  const std::vector<Span>& spans() const { return spans_; }

  // Writes {"spans": [...]} to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  uint64_t Now() const;

  Clock::time_point origin_;
  uint64_t paused_ns_ = 0;
  Clock::time_point pause_start_;
  int pause_depth_ = 0;
  std::vector<Span> spans_;
  int32_t open_ = -1;  // innermost open span
  uint32_t next_op_ = 0;
};

// RAII span; a null tracer, or a tracer with no open op, records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer != nullptr && tracer->in_op() ? tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->Open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

// Per-strategy end-to-end latency samples, filled by ServiceBackend.
struct E2eSamples {
  Samples model_query_us;
  Samples magic_query_us;
  Samples magic_sup_query_us;
  Samples topdown_query_us;
  Samples write_visible_us;
  Samples materialize_ms;

  // The read strategies' samples; a strategy the workload does not issue
  // has none.
  std::vector<const Samples*> reads() const {
    return {&model_query_us, &magic_query_us, &magic_sup_query_us,
            &topdown_query_us};
  }
};

// Counters the traced backend reads from the engine at layer boundaries.
// Every field is a deterministic function of the seeded op stream.
struct LayerCounters {
  ldl::EvalStats full;      // full materializations (EvaluateProgram)
  ldl::EvalStats maintain;  // Session::Evaluate after a staged write
  ldl::EvalStats saturate;  // EvaluateSaturating of magic programs
  uint64_t strata = 0;  // layers of the last materialized program
  uint64_t magic_rewrites = 0;
  uint64_t magic_rules = 0;
  uint64_t topdown_expansions = 0;
  uint64_t topdown_answers = 0;
  uint64_t model_queries = 0;
  uint64_t model_answers = 0;
  uint64_t writes = 0;
  uint64_t full_fallbacks = 0;  // writes whose Evaluate rebuilt the model
  uint64_t publishes = 0;
  uint64_t analyses_shared = 0;
  uint64_t rows_copied = 0;
  uint64_t changed_facts = 0;
  double dead_row_ratio = 0;  // of the writer's database after the last write
};

enum class WriteKind { kAdd, kRemove };

// The engine surface a workload drives. `timed` is false for the reads
// that verify a write: they are checked but never measured.
class Backend {
 public:
  virtual ~Backend() = default;

  // Initial load of the full program text; the model is published after.
  virtual ldl::Status Load(std::string_view text) = 0;
  virtual ldl::StatusOr<ldl::PreparedQuery> Prepare(std::string_view goal) = 0;
  virtual ldl::StatusOr<std::vector<ldl::Tuple>> Query(
      const ldl::PreparedQuery& goal, ldl::QueryStrategy strategy,
      bool timed = true) = 0;
  // AddFacts / RemoveFacts; fails unless the write became visible as a new
  // published version.
  virtual ldl::Status Write(WriteKind kind, std::string_view facts) = 0;
  // Materializes `text` from scratch in a fresh instance and discards it.
  virtual ldl::Status Materialize(std::string_view text) = 0;
  // The currently published model and the factory its terms belong to.
  virtual const ldl::Database& published() const = 0;
  virtual const ldl::TermFactory& factory() const = 0;
};

std::unique_ptr<Backend> MakeServiceBackend(E2eSamples* samples);
std::unique_ptr<Backend> MakeTracedBackend(Tracer* tracer,
                                           LayerCounters* counters);

// Compares `maintained` with a fresh materialization of `text` (fact by
// fact, as text) and checks the fresh model with the §2.2 IsModel checker.
ldl::Status CheckFinalModel(const ldl::Database& maintained,
                            const ldl::TermFactory& factory,
                            std::string_view text);

// Σ(raw_rows - rows) / Σ raw_rows over every relation of `db`.
double DeadRowRatio(const ldl::Database& db);

// Peak resident set size of this process (VmHWM), in MB; 0 if unknown.
double PeakRssMb();

// Sorted texts of column `column` of `tuples`.
std::vector<std::string> ColumnTexts(const ldl::TermFactory& factory,
                                     const std::vector<ldl::Tuple>& tuples,
                                     size_t column);
// Sorted element texts of a set term.
std::vector<std::string> SetTexts(const ldl::TermFactory& factory,
                                  const ldl::Term* set);

// Brackets one op: opens its root span in the traced run and separates the
// benchmark's own work (oracle checks) from the op's measured time.
class OpContext {
 public:
  explicit OpContext(Tracer* tracer) : tracer_(tracer) {}

  void BeginOp(const char* name) {
    if (tracer_ != nullptr) tracer_->BeginOp(name);
  }
  void EndOp() {
    if (tracer_ != nullptr) tracer_->EndOp();
  }

  // Runs `fn` outside every span and outside the measured op time. Nests.
  template <typename Fn>
  auto Excluded(Fn&& fn) {
    struct Guard {
      OpContext* ctx;
      Clock::time_point start = Clock::now();
      ~Guard() {
        if (--ctx->depth_ == 0) {
          ctx->excluded_s_ += SecondsBetween(start, Clock::now());
        }
        if (ctx->tracer_ != nullptr) ctx->tracer_->Resume();
      }
    };
    if (tracer_ != nullptr) tracer_->Pause();
    ++depth_;
    Guard guard{this};
    return fn();
  }

  double excluded_s() const { return excluded_s_; }

 private:
  Tracer* tracer_;
  int depth_ = 0;
  double excluded_s_ = 0;
};

// Deals op kinds in shuffled blocks that hold each kind a fixed number of
// times, so every stretch of a run has the workload's exact op mix and runs
// of different seeds differ in order, not in proportions.
class OpSchedule {
 public:
  // counts[k] = occurrences of kind k per block.
  explicit OpSchedule(std::vector<size_t> counts) : counts_(std::move(counts)) {}

  size_t Next(ldl::Rng& rng) {
    if (next_ == block_.size()) {
      block_.clear();
      for (size_t kind = 0; kind < counts_.size(); ++kind) {
        block_.insert(block_.end(), counts_[kind], kind);
      }
      for (size_t i = block_.size(); i > 1; --i) {
        std::swap(block_[i - 1], block_[rng.Below(i)]);
      }
      next_ = 0;
    }
    return block_[next_++];
  }

 private:
  std::vector<size_t> counts_;
  std::vector<size_t> block_;
  size_t next_ = 0;
};

// The result of one op.
struct OpOutcome {
  bool ok = true;
  std::string error;  // first failure reason, for the log
};

// One benchmark workload: a seeded EDB plus a seeded op stream, with its
// own oracle. Ops never depend on engine answers, so the untraced and the
// traced run of one seed execute the same stream.
class Workload {
 public:
  virtual ~Workload() = default;
  // Rules plus the current EDB, as program text.
  virtual std::string ProgramText() const = 0;
  // Prepares the goals the op stream uses (part of set-up).
  virtual ldl::Status PrepareGoals(Backend* backend) = 0;
  // Runs the next op of the stream and checks it against the oracle.
  virtual OpOutcome RunOp(Backend* backend, OpContext* ctx) = 0;
  // Number of ops the traced run replays.
  virtual size_t TracedOps() const = 0;
  // Ops after which the stream moves on to a freshly loaded backend, the
  // old one discarded, outside all timing; 0 keeps one backend throughout.
  virtual size_t OpsPerService() const { return 0; }
  // Sizes for the run record, as a JSON object body ("\"people\": 40").
  virtual std::string SizesJson() const = 0;
  // Op counts by type, as a JSON object body.
  virtual std::string OpCountsJson() const = 0;
};

std::unique_ptr<Workload> MakeAncServe(uint64_t seed);
std::unique_ptr<Workload> MakeYoungMagic(uint64_t seed);
std::unique_ptr<Workload> MakeOrgSets(uint64_t seed);

}  // namespace ldl_bench

#endif  // LDL1_E2E_BENCH_HARNESS_H_
