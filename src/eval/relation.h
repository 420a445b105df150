// Fact storage: tuples of interned terms in append-only row chunks with
// O(1) dedup via an open-addressing row table, lazily built composite
// (multi-column) hash indexes, stable row ids for semi-naive delta windows,
// and tombstone deletion (needed by the magic-set scheduler's group
// reconciliation).
//
// Rows are written once and never moved or overwritten, so a published
// snapshot (ShareFrom) reads the writer's chunks in place: the writer only
// ever appends past the snapshot's row count, and Clear() starts fresh
// chunks instead of reusing the old ones.
//
// Concurrency contract: one writer inserts; any number of readers of a
// published snapshot (ldl::Service queries) probe and scan concurrently. The
// only mutation a *read* can trigger is building a missing lazy index, so
// indexes live in an append-only linked list with an atomic head: readers
// walk the list lock-free, builders serialize on a mutex and publish
// fully-constructed nodes with a release store.
#ifndef LDL1_EVAL_RELATION_H_
#define LDL1_EVAL_RELATION_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "program/catalog.h"
#include "term/term.h"

namespace ldl {

// A fact's argument vector (owning). Terms are interned, so hashing and
// equality are on pointers.
using Tuple = std::vector<const Term*>;
// A non-owning view of a stored fact.
using RowRef = std::span<const Term* const>;

struct TupleHash {
  size_t operator()(const Tuple& tuple) const {
    uint64_t h = 0x12345;
    for (const Term* t : tuple) h = HashCombine(h, t->hash());
    return static_cast<size_t>(h);
  }
};

// Planner-facing snapshot of a relation's statistics: live cardinality plus
// a per-column distinct-value estimate (capped at `rows`). Cheap to take --
// one popcount pass over the fixed-width sketches. `raw_rows` counts
// tombstoned rows too, so raw_rows - rows is the dead-row bloat a scan still
// pays for (`:stats` reports the ratio); the cost model prices with `rows`
// only.
struct RelationStats {
  size_t rows = 0;
  size_t raw_rows = 0;
  std::vector<double> column_distinct;
};

class Relation {
 public:
  explicit Relation(uint32_t arity = 0) : arity_(arity) {}
  ~Relation() { FreeIndexes(); }

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  uint32_t arity() const { return arity_; }
  void set_arity(uint32_t arity) { arity_ = arity; }

  // Inserts a fact; returns false if it was already present. A fact that
  // was erased earlier comes back as a fresh row appended past every
  // existing one (its old row stays a tombstone), so delta windows opened
  // before the re-insert see it like any new fact. On a counted relation a
  // duplicate insert increments the row's derivation count (each Insert
  // call is one derivation) and a fresh row starts at 1.
  bool Insert(RowRef tuple);
  bool Contains(RowRef tuple) const;
  // Removes a fact (tombstones the row). Returns false if absent.
  bool Erase(RowRef tuple);

  // Sentinel for "no such row".
  static constexpr size_t npos = static_cast<size_t>(-1);

  // Row id of `tuple` regardless of liveness (the newest row holding it;
  // tombstoned rows stay in the dedup table until a re-insert supersedes
  // them), or npos. Callers check IsLive() as needed.
  size_t Find(RowRef tuple) const;

  // Toggles a row's tombstone directly by id. Incremental deletion (DRed)
  // uses this to erase removed rows up front and transiently revive them
  // while enumerating joins against the pre-deletion state. No index repair
  // is needed either way: tombstoned rows keep their index entries.
  void SetLive(size_t row, bool live) {
    assert(!frozen_);
    if (live_[row] == live) return;
    live_[row] = live;
    live ? ++live_count_ : --live_count_;
  }

  // --- Derivation counting (incremental deletion fast path) ---------------
  //
  // A counted relation tracks, per row, how many distinct rule-body
  // solutions derived it. Counts are maintained by Insert (see above) and
  // are exact only while every evaluation path that derives into the
  // relation enumerates each solution exactly once; paths that cannot
  // guarantee that (stratum recompute over kept rows, DRed rederivation)
  // call DisableCounts() and deletion falls back to delete-and-rederive.

  // Starts counting. No-op unless the relation is empty: counts for
  // pre-existing rows would be guesses, and a wrong count deletes facts
  // that still have support.
  void EnableCounts() {
    if (row_count_ != 0) return;
    counted_ = true;
    counts_.clear();
  }
  // Abandons the counts (they can no longer be trusted).
  void DisableCounts() {
    counted_ = false;
    counts_.clear();
  }
  bool counted() const { return counted_; }
  uint32_t derivation_count(size_t row) const { return counts_[row]; }

  // Removes one derivation of a live row on a counted relation; tombstones
  // the row when its count reaches zero and returns true iff it did.
  bool DecrementDerivation(size_t row) {
    if (counts_[row] > 1) {
      --counts_[row];
      return false;
    }
    counts_[row] = 0;
    SetLive(row, false);
    return true;
  }

  // Number of live facts.
  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  // Raw row storage; row ids are stable (deletions leave tombstones).
  size_t row_count() const { return row_count_; }
  bool IsLive(size_t row) const { return live_[row]; }
  RowRef row(size_t i) const { return {RowData(i), arity_}; }

  // Calls fn(row_index, tuple) for every live row with index in [from, to).
  template <typename Fn>
  void ForEachRow(size_t from, size_t to, Fn&& fn) const {
    if (to > row_count_) to = row_count_;
    // Chunk by chunk, so the row address is a pointer bump, not a lookup.
    for (size_t i = from; i < to;) {
      const RowSlot slot = Locate(i);
      const size_t end = std::min(to, i + ChunkRows(slot.chunk) - slot.offset);
      const Term* const* data = chunks_[slot.chunk].get() + slot.offset * arity_;
      for (; i < end; ++i, data += arity_) {
        if (live_[i]) fn(i, RowRef{data, arity_});
      }
    }
  }

  // Calls fn(row_index, tuple) for every live row in [from, to) whose
  // `cols` equal `values` component-wise; stops early when fn returns false.
  // Builds a composite hash index over `cols` on first use and maintains it
  // incrementally on Insert. Keys are combined term hashes, so candidate
  // rows are verified against `values` before the callback fires.
  template <typename Fn>
  void ProbeRows(std::span<const uint32_t> cols,
                 std::span<const Term* const> values, size_t from, size_t to,
                 Fn&& fn) const {
    ProbeRowsHashed(cols, values, HashKey(values), from, to,
                    std::forward<Fn>(fn));
  }

  // Combined hash of a probe key, for callers that batch key hashing over a
  // block of bindings before probing (eval/rule_eval.cc). Must be fed back into
  // ProbeRowsHashed with the same `values`.
  static uint64_t ProbeHash(std::span<const Term* const> values) {
    return HashKey(values);
  }

  // ProbeRows with the key hash precomputed via ProbeHash. The batch probe
  // kernel hashes a whole block's keys in one pass, then probes.
  template <typename Fn>
  void ProbeRowsHashed(std::span<const uint32_t> cols,
                       std::span<const Term* const> values, uint64_t hash,
                       size_t from, size_t to, Fn&& fn) const {
    const CompositeIndex& index = EnsureIndex(cols);
    auto it = index.map.find(hash);
    if (it == index.map.end()) return;
    for (uint32_t row : it->second) {
      if (row < from || row >= to || !live_[row]) continue;
      const Term* const* tuple = RowData(row);
      bool match = true;
      for (size_t i = 0; i < cols.size(); ++i) {
        if (tuple[cols[i]] != values[i]) {
          match = false;
          break;
        }
      }
      if (match && !fn(row, RowRef{tuple, arity_})) return;
    }
  }

  // Appends the storage of every live row in [from, to) to `out`, in row
  // order. The batch scan kernel gathers once per input block, amortizing
  // the per-row tombstone branch and chunk lookup across the block's
  // candidates.
  void CollectLiveRows(size_t from, size_t to,
                       std::vector<const Term* const*>* out) const {
    ForEachRow(from, to, [&](size_t, RowRef row) { out->push_back(row.data()); });
  }

  // Row ids of live facts whose `column` equals `value`, restricted to
  // [from, to). Convenience wrapper over ProbeRows for single-column probes.
  void Probe(uint32_t column, const Term* value, size_t from, size_t to,
             std::vector<size_t>* out) const;

  // Number of indexes built so far (single-column and composite).
  size_t index_count() const {
    size_t count = 0;
    for (const CompositeIndex* index = index_head_.load(std::memory_order_acquire);
         index != nullptr; index = index->next) {
      ++count;
    }
    return count;
  }

  // All live tuples (copy, for tests and result reporting).
  std::vector<Tuple> Snapshot() const;

  // Drops every row and bumps epoch(). Row storage restarts in fresh
  // chunks; the old ones live on for as long as a snapshot shares them.
  // Built indexes survive: their nodes stay linked (the append-only
  // contract above means callers may hold references across a clear) with
  // their maps emptied in place, and Insert repopulates them. Incremental
  // maintenance relies on this when it recomputes a stratum in an
  // otherwise-live database.
  void Clear();

  // Makes this empty relation a frozen view of `source`'s current rows. The
  // view shares source's row chunks (no row is copied) and takes its own
  // copy of the live bitmap and the distinct sketches; derivation counts
  // stay with the source. The source may keep changing afterwards -- it
  // only appends past the shared rows or moves to fresh chunks -- and the
  // view never sees it. A frozen relation builds its dedup table and
  // composite indexes lazily on first use (thread-safe, like the indexes
  // of any relation) and asserts that nothing mutates it.
  void ShareFrom(const Relation& source);
  bool frozen() const { return frozen_; }

  // Incremented on every Clear(). Lets holders of a long-lived Relation
  // reference detect that row ids restarted (e.g. across an incremental
  // recompute round) and refresh any cached row positions.
  uint64_t epoch() const { return epoch_; }

  // --- Planner statistics (eval/cost.h) -----------------------------------
  //
  // Per-column distinct-value estimates via linear-counting sketches: a
  // 1024-bit bitmap per column, one bit set per inserted value hash. The
  // sketches are updated when a row is appended and reset by Clear(), so
  // they over-approximate the live distinct count; DistinctEstimate caps
  // the result at size(). Mutation happens in Insert -- single-writer
  // phases only -- and reads happen at round start on the scheduling
  // thread, so the planner never races the sketches.

  // Estimated number of distinct values in `column` among live rows.
  // B * ln(B / zero_bits) with B = 1024, capped at size(); exact for small
  // relations until hash collisions appear (< 2% error below ~300 distinct
  // values).
  double DistinctEstimate(uint32_t column) const;

  // Snapshot of rows + all column estimates, for the cost model.
  RelationStats Stats() const;

 private:
  struct CompositeIndex {
    std::vector<uint32_t> cols;
    // Combined key hash -> row ids. Rows are never removed (tombstoned rows
    // keep their entries, so DRed's SetLive needs no index repair); probes
    // filter on live_.
    std::unordered_map<uint64_t, std::vector<uint32_t>> map;
    // Next-older index; the list is append-at-head and never unlinked
    // outside the destructor (Clear() empties the maps but keeps the nodes
    // linked), so readers can walk it lock-free.
    CompositeIndex* next = nullptr;
  };

  friend class Database;

  // Dedup table entries hold a row id in the low 32 bits and the top 32
  // bits of the row's tuple hash above it. Probes compare those bits before
  // touching row storage, the same bits pick the home slot, and growth
  // re-slots entries from the bits alone.
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};
  static constexpr size_t kNoRow = static_cast<size_t>(-1);
  static uint64_t TableEntry(uint64_t hash, size_t row) {
    return (hash & ~uint64_t{0xffffffff}) | row;
  }
  static size_t EntryRow(uint64_t entry) {
    return static_cast<uint32_t>(entry);
  }

  // Row chunk geometry: chunk c holds 8 << c rows until chunks reach 4096
  // rows, and 4096 rows each from then on. Small first chunks keep the
  // scratch databases of magic and top-down queries (many tiny relations)
  // cheap; the cap bounds the unused tail of a large relation. No row
  // straddles two chunks.
  static constexpr unsigned kFirstChunkShift = 3;  // 8 rows
  static constexpr unsigned kMaxChunkShift = 12;   // 4096 rows
  static constexpr size_t kCapChunk = kMaxChunkShift - kFirstChunkShift;
  static constexpr size_t kCapStart =  // first row of chunk kCapChunk
      (size_t{1} << kMaxChunkShift) - (size_t{1} << kFirstChunkShift);
  // A chunk: ChunkRows(i) * arity_ term slots.
  using Chunk = std::shared_ptr<const Term*[]>;
  struct RowSlot {
    size_t chunk;
    size_t offset;
  };
  static RowSlot Locate(size_t row) {
    if (row >= kCapStart) {
      const size_t past = row - kCapStart;
      return {kCapChunk + (past >> kMaxChunkShift),
              past & ((size_t{1} << kMaxChunkShift) - 1)};
    }
    // Chunk c starts at row 8 * (2^c - 1): shifted by 8 rows, its first
    // row is the power of two 8 << c.
    const size_t shifted = row + (size_t{1} << kFirstChunkShift);
    const size_t first = std::bit_floor(shifted);
    return {static_cast<size_t>(std::countr_zero(first)) - kFirstChunkShift,
            shifted - first};
  }
  static size_t ChunkRows(size_t chunk) {
    return size_t{1} << std::min<size_t>(chunk + kFirstChunkShift,
                                         kMaxChunkShift);
  }
  const Term* const* RowData(size_t row) const {
    const RowSlot slot = Locate(row);
    return chunks_[slot.chunk].get() + slot.offset * arity_;
  }

  static uint64_t HashKey(std::span<const Term* const> values) {
    uint64_t h = 0x7e11ab1eULL;
    for (const Term* value : values) h = HashCombine(h, value->hash());
    return h;
  }

  static uint64_t HashRow(RowRef tuple) {
    uint64_t h = 0x12345;
    for (const Term* t : tuple) h = HashCombine(h, t->hash());
    return h;
  }

  // Open-addressing lookup in table_: the slot holding `tuple`'s row, or
  // the empty slot where it would go. table_ must be non-empty.
  size_t FindSlot(RowRef tuple, uint64_t hash) const;
  // Row of `tuple` (live or not), or kNoRow. Builds a frozen relation's
  // table on first use.
  size_t FindRow(RowRef tuple) const;
  // Doubles table_ (a writer's table grows as rows are appended).
  void GrowTable();

  // Returns the index over `cols`, building and publishing it on first use.
  // Safe to call from concurrent readers; builders serialize on index_mu_.
  const CompositeIndex& EnsureIndex(std::span<const uint32_t> cols) const;
  void FreeIndexes();

  uint32_t arity_;
  // Row storage: row i lives in chunks_[Locate(i).chunk]. Chunks are shared
  // with every snapshot taken by ShareFrom.
  std::vector<Chunk> chunks_;
  size_t row_count_ = 0;
  std::vector<bool> live_;
  size_t live_count_ = 0;
  // Per-row derivation counts (parallel to live_) when counted_; see the
  // derivation-counting section above. Counts saturate at UINT32_MAX, which
  // Insert treats as "counts no longer trustworthy" and disables them.
  std::vector<uint32_t> counts_;
  bool counted_ = false;
  // Dedup table: power-of-two sized, linear probing, entries are row ids.
  // Tombstoned rows stay in the table until a re-insert of their tuple
  // points the slot at the fresh row. Maintained by Insert on a writable
  // relation; built once, on first lookup, on a frozen one.
  mutable std::vector<uint64_t> table_;
  mutable std::once_flag table_once_;
  bool frozen_ = false;
  // Linear-counting distinct sketches, one kSketchWords-word bitmap per
  // column. Lazily sized to arity_ on first insert (set_arity may run after
  // construction).
  static constexpr size_t kSketchWords = 16;  // 1024 bits
  using ColumnSketch = std::array<uint64_t, kSketchWords>;
  std::vector<ColumnSketch> sketches_;
  uint64_t epoch_ = 0;  // bumped by Clear()
  // Built indexes; relations see at most a handful of distinct probe
  // shapes, so a linear walk of the list by column set beats map overhead.
  mutable std::atomic<CompositeIndex*> index_head_{nullptr};
  mutable std::mutex index_mu_;  // serializes index construction
};

// The database: one relation per predicate.
class Database {
 public:
  explicit Database(Catalog* catalog) : catalog_(catalog) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Relation& relation(PredId pred);
  const Relation& relation(PredId pred) const;

  // The relation for `pred`, or nullptr when no relation has been created
  // for it yet. Unlike relation(), never grows the deque, so concurrent
  // readers of a frozen (published) database can look up predicates that
  // were registered in the catalog after the database stopped changing.
  const Relation* FindRelation(PredId pred) const {
    return pred < relations_.size() ? &relations_[pred] : nullptr;
  }

  bool AddFact(PredId pred, RowRef tuple) { return relation(pred).Insert(tuple); }

  // Extends `relations_` to cover every predicate currently registered in
  // the catalog. Called lazily by relation(); exposed for callers that want
  // to pre-size after registering predicates.
  void Grow();

  // Total number of facts across all predicates.
  size_t TotalFacts() const;

  // Copies the facts of `preds` from `other` (used to seed a magic
  // evaluation with the EDB).
  void CopyFrom(const Database& other, const std::vector<PredId>& preds);

  // Makes this fresh database a frozen view of `other`'s current model:
  // grows to the whole catalog and shares every relation's rows
  // (Relation::ShareFrom). Copies a pointer per row chunk and one live bit
  // per row, never a row.
  void ShareFrom(const Database& other);

  Catalog* catalog() const { return catalog_; }

 private:
  Catalog* catalog_;
  // Deque: growth for predicates registered after the first relation access
  // must not invalidate Relation references the evaluator already holds.
  mutable std::deque<Relation> relations_;
};

}  // namespace ldl

#endif  // LDL1_EVAL_RELATION_H_
