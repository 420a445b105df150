// Predicate catalog: maps (name, arity) pairs to dense PredIds and records
// per-predicate metadata discovered during lowering (EDB/IDB, grouped
// argument positions).
//
// Concurrency contract (what ldl::Service relies on): registration
// (GetOrCreate) and Find serialize on an internal shared_mutex, while
// info()/mutable_info()/size() are lock-free. PredicateInfo entries live in
// fixed-size chunks behind atomic chunk pointers, so a registered entry's
// address is stable for the catalog's lifetime and readers never observe a
// partially moved entry. The `name`/`arity`/`grouped_args` fields of an
// entry are written only while the predicate is being registered or by
// passes the caller serializes externally (lowering, magic rewriting);
// `has_rules` flips on re-analysis while concurrent snapshot queries read
// it, so it is a relaxed-atomic flag.
#ifndef LDL1_PROGRAM_CATALOG_H_
#define LDL1_PROGRAM_CATALOG_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/interner.h"
#include "base/status.h"

namespace ldl {

using PredId = uint32_t;
inline constexpr PredId kInvalidPred = static_cast<PredId>(-1);

// Relaxed-atomic bool with value-copy semantics so the structs holding it
// stay copyable. Used for per-predicate flags that concurrent readers
// consult while a (externally serialized) writer updates them.
class AtomicFlag {
 public:
  AtomicFlag(bool value = false) : value_(value) {}  // NOLINT: implicit
  AtomicFlag(const AtomicFlag& other) : value_(other.get()) {}
  AtomicFlag& operator=(const AtomicFlag& other) {
    set(other.get());
    return *this;
  }
  AtomicFlag& operator=(bool value) {
    set(value);
    return *this;
  }
  operator bool() const { return get(); }  // NOLINT: implicit

 private:
  bool get() const { return value_.load(std::memory_order_relaxed); }
  void set(bool value) { value_.store(value, std::memory_order_relaxed); }
  std::atomic<bool> value_;
};

struct PredicateInfo {
  Symbol name = 0;
  uint32_t arity = 0;
  // True once some rule derives this predicate (it is intensional). Atomic:
  // snapshot query paths read it while a writer re-analyzes.
  AtomicFlag has_rules = false;
  // Argument positions that are grouped (<X>) in some rule head deriving
  // this predicate. Magic-set adornment must never bind these (§6,
  // footnote 6).
  std::vector<bool> grouped_args;
};

class Catalog {
 public:
  explicit Catalog(Interner* interner) : interner_(interner) {}
  ~Catalog();

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Returns the id for (name, arity), registering it on first sight.
  // Thread-safe (exclusive lock).
  PredId GetOrCreate(Symbol name, uint32_t arity);
  PredId GetOrCreate(std::string_view name, uint32_t arity);

  // Returns kInvalidPred if unknown. Thread-safe (shared lock).
  PredId Find(Symbol name, uint32_t arity) const;
  PredId Find(std::string_view name, uint32_t arity) const;

  // Lock-free; valid for any id returned by GetOrCreate/Find. The reference
  // is stable for the catalog's lifetime.
  const PredicateInfo& info(PredId id) const { return *Slot(id); }
  PredicateInfo& mutable_info(PredId id) { return *Slot(id); }

  // "name/arity" for diagnostics.
  std::string DebugName(PredId id) const;

  size_t size() const { return count_.load(std::memory_order_acquire); }

  Interner* interner() const { return interner_; }

 private:
  // 512 infos per chunk; 8192 chunk slots cap the catalog at 4M predicates
  // (far beyond any program plus its per-query magic rewrites).
  static constexpr size_t kChunkBits = 9;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kMaxChunks = size_t{1} << 13;

  static uint64_t Key(Symbol name, uint32_t arity) {
    return (static_cast<uint64_t>(name) << 32) | arity;
  }

  PredicateInfo* Slot(PredId id) const {
    return chunks_[id >> kChunkBits].load(std::memory_order_acquire) +
           (id & (kChunkSize - 1));
  }

  Interner* interner_;
  mutable std::shared_mutex mu_;  // guards index_ and chunk creation
  std::unordered_map<uint64_t, PredId> index_;
  // Chunked stable storage: slots are appended under mu_ and published with
  // the release store of count_ (or the caller's own synchronization when it
  // hands the id across threads); readers index without locking.
  std::array<std::atomic<PredicateInfo*>, kMaxChunks> chunks_{};
  std::atomic<size_t> count_{0};
};

}  // namespace ldl

#endif  // LDL1_PROGRAM_CATALOG_H_
