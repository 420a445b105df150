// Block data structures of the rule executor (RuleEvaluator, rule_eval.h).
//
// Bindings travel through a compiled join plan in TupleBlocks: flat chunks
// of slot rows plus a selection vector. Each LiteralPlan step is a kernel
// that consumes a whole input block before handing its output block
// downstream (see rule_eval.cc):
//
//   * scan kernel      -- gathers the window's live row ids once per input
//                         block (tombstones filtered in one pass, not per
//                         candidate), then runs the match program over the
//                         dense id array;
//   * probe kernel     -- hashes every selected row's probe key in one pass
//                         over the block, then probes the composite index
//                         with the precomputed hashes;
//   * filter kernels   -- output-free comparison built-ins and negation
//                         refine the selection vector in place (no row
//                         copies). Negation is an anti-join: it hashes the
//                         block's keys like the probe kernel, then keeps
//                         the rows whose lookup finds no matching fact,
//                         stopping at the first match;
//   * residual match   -- a scan or probe whose literal has a complex
//                         unbound column (functor, set, scons) matches each
//                         candidate with MatchArgs under the row's inputs
//                         instead of the match program; output-producing
//                         built-ins also run per input row, so set and
//                         complex terms lose nothing;
//   * emit             -- head rows for a whole solution block are built
//                         from plan slots (complex head arguments
//                         instantiated per row) into a flat RowBuffer
//                         (no per-solution Tuple allocation), which the
//                         engine inserts in bulk once the rule application
//                         has enumerated its solutions.
//
// Determinism: kernels enumerate (input row, candidate row) pairs in
// depth-first order -- input rows in selection order, candidates in
// ascending row id -- and blocks drain fully before the next input row
// group, so the solution stream, the derivation counts (each solution
// yields exactly one Insert), and every EvalStats/RuleProfile counter are a
// function of the plan and the database alone. tests/golden_test.cc pins
// them over the corpus; DESIGN.md §12 gives the argument.
#ifndef LDL1_EVAL_BATCH_H_
#define LDL1_EVAL_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "eval/relation.h"
#include "term/term.h"

namespace ldl {

// Rows per block: sized so a block of typical width (a handful of slots)
// stays inside L1/L2 alongside the probe-hash scratch (EXPERIMENTS.md B13).
inline constexpr size_t kDefaultBlockRows = 256;

// A chunk of bound rows. Each row is `width` interned term pointers (one
// per plan slot); `sel` lists the active rows in enumeration order (filter
// kernels narrow it without moving rows; an index may repeat when a
// built-in yields the same binding more than once, preserving duplicate
// solutions). Rows carry an implicit derivation count of one -- every
// selected row is exactly one body solution, which is what keeps
// Relation's per-row derivation counts exact.
//
// `capacity` is the row count at which full() reports true (the flush
// threshold), not an allocation: storage grows as rows are appended and is
// kept across Reset, so a block reused for many small rule applications
// allocates only up to the largest row count it has actually held. Row
// pointers stay valid until the next append.
class TupleBlock {
 public:
  void Reset(size_t width, size_t capacity) {
    width_ = width;
    capacity_ = capacity;
    allocated_rows_ = width == 0 ? SIZE_MAX : data_.size() / width;
    Clear();
  }
  void Clear() {
    sel_.clear();
    rows_ = 0;
  }

  size_t width() const { return width_; }
  size_t row_count() const { return rows_; }
  bool full() const { return rows_ >= capacity_; }
  bool empty() const { return sel_.empty(); }

  const std::vector<uint32_t>& sel() const { return sel_; }
  std::vector<uint32_t>* mutable_sel() { return &sel_; }

  const Term** row(size_t i) { return data_.data() + i * width_; }
  const Term* const* row(size_t i) const { return data_.data() + i * width_; }

  // Appends a copy of `src` (width terms) as a selected row and returns the
  // writable copy (kernels bind new slots into it).
  const Term** AppendRow(const Term* const* src) {
    const Term** dst = Grow();
    std::copy(src, src + width_, dst);
    return dst;
  }
  // Appends a selected row with every slot unbound.
  const Term** AppendUnboundRow() {
    const Term** dst = Grow();
    std::fill(dst, dst + width_, nullptr);
    return dst;
  }
  // Drops the most recently appended row (a match program that failed
  // after binding).
  void PopRow() {
    sel_.pop_back();
    --rows_;
  }

 private:
  const Term** Grow() {
    if (rows_ == allocated_rows_) {
      allocated_rows_ = std::max<size_t>(2 * allocated_rows_, 8);
      data_.resize(allocated_rows_ * width_);
    }
    sel_.push_back(static_cast<uint32_t>(rows_));
    return row(rows_++);
  }

  std::vector<const Term*> data_;
  std::vector<uint32_t> sel_;
  size_t width_ = 0;
  size_t capacity_ = 0;
  size_t rows_ = 0;
  size_t allocated_rows_ = 0;  // rows data_ holds at the current width
};

// Flat accumulator for head tuples of one fixed arity: the emit buffer.
// Replaces std::vector<Tuple> (one heap allocation per solution) with a
// single growing array the engine inserts from after the rule application.
class RowBuffer {
 public:
  explicit RowBuffer(size_t width) : width_(width) {}

  size_t width() const { return width_; }
  size_t size() const { return rows_; }
  RowRef row(size_t i) const { return {data_.data() + i * width_, width_}; }

  // Reserves one row and returns its writable storage (null for arity 0).
  const Term** AppendRow() {
    data_.resize(data_.size() + width_);
    ++rows_;
    return data_.data() + (rows_ - 1) * width_;
  }
  void AppendRow(const Term* const* src) {
    const Term** dst = AppendRow();
    for (size_t i = 0; i < width_; ++i) dst[i] = src[i];
  }
  void PopRow() {
    data_.resize(data_.size() - width_);
    --rows_;
  }
  void Clear() {
    data_.clear();
    rows_ = 0;
  }

 private:
  size_t width_;
  size_t rows_ = 0;
  std::vector<const Term*> data_;
};

// Receives each block of completed body solutions (all plan slots bound,
// `sel` in enumeration order). Return false to stop the enumeration; the
// stop is block-granular (the delivered block was already counted whole),
// so sinks that need exact counters must consume every block -- the
// engine's sinks only stop on error, where counters are moot.
using BlockFn = std::function<bool(const TupleBlock&)>;

// Working storage of one running RuleEvaluator: the root input block, one
// output block per plan step, and the kernels' per-step scratch. Scratch is
// per step, not shared: a flush re-enters the downstream step while the
// upstream step is still iterating its own scratch.
struct BlockStorage {
  struct StepScratch {
    std::vector<const Term*> keys;   // probe keys, step.probe.size() per row
    std::vector<uint64_t> hashes;    // precomputed key hash per selected row
    std::vector<const Term* const*> live_rows;  // gathered live rows (scan)
    std::vector<uint32_t> sel;       // refined selection (filter kernels)
  };
  TupleBlock root;
  std::vector<TupleBlock> blocks;  // blocks[d]: output block of step d
  std::vector<StepScratch> scratch;
};

// Recycles BlockStorage across rule applications, so the blocks' grown
// capacity outlives the short-lived evaluators the engine builds per
// application. An evaluator takes a storage on its first run and returns it
// when destroyed; a storage belongs to one evaluator at a time, so nested
// and concurrent evaluators never share one. The free list is guarded by a
// mutex, so evaluators on different threads may share one pool; within one
// engine's serial evaluation it is uncontended.
class BlockStoragePool {
 public:
  std::unique_ptr<BlockStorage> Acquire();
  void Release(std::unique_ptr<BlockStorage> storage);

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<BlockStorage>> free_;
};

}  // namespace ldl

#endif  // LDL1_EVAL_BATCH_H_
