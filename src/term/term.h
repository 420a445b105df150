// Terms of the LDL1 universe (paper §2.2) and their factory.
//
// The LDL1 universe U is the omega-closure of the Herbrand universe under
// finite subsets and (non-scons) function application: U_0 is all variable-
// free simple terms; U_n adds all finite subsets of U_{n-1} and closes under
// function application. This module realizes U with hash-consed immutable
// terms: every structurally distinct term exists exactly once per
// TermFactory, so
//
//   * structural equality is pointer equality,
//   * hashing a term is O(1) (cached),
//   * finite sets are stored sorted and deduplicated under a total term
//     order, so set equality is also pointer equality.
//
// Variables are included as a term kind so that rule patterns can be
// represented uniformly; ground terms (members of U proper) are flagged.
// Terms are allocated from arenas owned by the factory and are never
// individually freed ("manual memory for terms").
//
// Concurrency: interning is striped. The hash table is sharded into
// kStripeCount independent stripes, each with its own mutex, hash set and
// arena; a term lands in the stripe selected by its structural hash. The
// find-or-insert is atomic per stripe, so pointer-equality canonicalization
// holds when ldl::Service's query threads intern concurrently with the
// writer -- two threads racing to create f(a, b) always receive the same
// pointer.
// Terms are immutable once published, so readers never take a lock.
#ifndef LDL1_TERM_TERM_H_
#define LDL1_TERM_TERM_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/arena.h"
#include "base/interner.h"

namespace ldl {

enum class TermKind : uint8_t {
  kInt = 0,    // 64-bit integer constant
  kAtom,       // symbolic constant, e.g. john
  kString,     // quoted string constant, e.g. "War and Peace"
  kFunc,       // f(t1, ..., tn), n >= 1, f != scons
  kSet,        // finite set {t1, ..., tn}, canonical: sorted, deduplicated
  kVar,        // variable; only appears in rule patterns, never in U-facts
};

// Immutable, interned term. Create only through TermFactory.
class Term {
 public:
  Term& operator=(const Term&) = delete;

  TermKind kind() const { return kind_; }
  bool is_int() const { return kind_ == TermKind::kInt; }
  bool is_atom() const { return kind_ == TermKind::kAtom; }
  bool is_string() const { return kind_ == TermKind::kString; }
  bool is_func() const { return kind_ == TermKind::kFunc; }
  bool is_set() const { return kind_ == TermKind::kSet; }
  bool is_var() const { return kind_ == TermKind::kVar; }

  // True iff no variable occurs in the term, i.e. the term is an element
  // of the LDL1 universe U.
  bool ground() const { return ground_; }

  // True iff an scons application occurs anywhere in the term. A ground term
  // with has_scons() still needs evaluation before it denotes an element of
  // U (scons(a, {b}) denotes {a, b}).
  bool has_scons() const { return has_scons_; }

  // Atom / string / function / variable name. Meaningless for kInt, kSet.
  Symbol symbol() const { return symbol_; }

  // Integer payload; only for kInt.
  int64_t int_value() const { return int_value_; }

  // Function arity or set cardinality; 0 for other kinds.
  uint32_t size() const { return size_; }

  // i-th function argument / set element (set elements are sorted by the
  // factory's total term order).
  const Term* arg(uint32_t i) const { return args_[i]; }
  std::span<const Term* const> args() const { return {args_, size_}; }

  uint64_t hash() const { return hash_; }

 private:
  friend class TermFactory;
  Term() = default;
  Term(const Term&) = default;  // factory-internal: copying a probe to the arena

  TermKind kind_;
  bool ground_;
  bool has_scons_;
  uint32_t size_;
  Symbol symbol_;
  int64_t int_value_;
  uint64_t hash_;
  const Term* const* args_;
};

// Total order over terms. Kind rank first (kInt < kAtom < kString < kFunc <
// kSet < kVar), then payload: integers by value; atoms/strings by symbol
// text; functions by name, arity, then args lexicographically; sets by
// cardinality then elements lexicographically; variables by name. Returns
// <0, 0, >0. The order depends on the interner's text, not insertion order,
// so it is stable across runs.
class TermFactory;
int CompareTerms(const TermFactory& factory, const Term* a, const Term* b);

// Creates and interns terms. Thread-safe via striped (lock-sharded) hash
// interning: concurrent Make* calls (ldl::Service query threads next to the
// writer) are safe and return canonical pointers. One factory per engine.
class TermFactory {
 public:
  explicit TermFactory(Interner* interner);

  TermFactory(const TermFactory&) = delete;
  TermFactory& operator=(const TermFactory&) = delete;

  const Term* MakeInt(int64_t value);
  const Term* MakeAtom(Symbol name);
  const Term* MakeAtom(std::string_view name);
  const Term* MakeString(Symbol text);
  const Term* MakeString(std::string_view text);
  const Term* MakeVar(Symbol name);
  const Term* MakeVar(std::string_view name);
  // f(args...); f must not be scons (use SetInsert) and arity must be >= 1.
  const Term* MakeFunc(Symbol name, std::span<const Term* const> args);
  const Term* MakeFunc(std::string_view name, std::span<const Term* const> args);
  // {elements...}: sorts and deduplicates. Elements need not be ground (a
  // non-ground set only appears transiently in rule patterns).
  const Term* MakeSet(std::span<const Term* const> elements);
  const Term* EmptySet() const { return empty_set_; }

  // Accumulates set elements and canonicalizes (sort + dedup + intern) once
  // at Build(), instead of paying a full re-canonicalization per insertion
  // the way an scons-chain of SetInsert calls would. Element hashes are
  // already cached on the interned terms, so Build() costs one sort over
  // cached-hash pointers plus a single interner probe. Reusable: Build()
  // resets the builder. Movable so evaluation-side partition maps can own
  // builders.
  class SetBuilder {
   public:
    explicit SetBuilder(TermFactory* factory) : factory_(factory) {}
    SetBuilder(SetBuilder&&) = default;
    SetBuilder& operator=(SetBuilder&&) = default;

    void Add(const Term* element) { elements_.push_back(element); }
    size_t size() const { return elements_.size(); }
    bool empty() const { return elements_.empty(); }

    // Sorts and dedups the accumulated elements in place, interns the
    // canonical set, and resets the builder for reuse.
    const Term* Build();

   private:
    TermFactory* factory_;
    std::vector<const Term*> elements_;
  };

  // scons(element, set): {element} U set. `set` must be kSet. One binary
  // search plus a linear splice; no re-sort.
  const Term* SetInsert(const Term* element, const Term* set);
  // Set union; both must be kSet. Linear merge of the canonical operands;
  // returns an operand unchanged when the other is a subset of it.
  const Term* SetUnion(const Term* a, const Term* b);
  // Set difference a \ b; both must be kSet. Linear merge.
  const Term* SetDifference(const Term* a, const Term* b);
  // Set intersection; both must be kSet. Linear merge.
  const Term* SetIntersect(const Term* a, const Term* b);
  // Membership test against a canonical set (binary search).
  bool SetContains(const Term* set, const Term* element) const;

  // Lists are sugar over function terms: '.'(head, tail) and the atom '[]'.
  const Term* EmptyList();
  const Term* MakeCons(const Term* head, const Term* tail);
  bool IsCons(const Term* t) const;
  bool IsEmptyList(const Term* t) const;

  // Renders the term using the factory's interner: f(a, {1, 2}, X).
  std::string ToString(const Term* t) const;
  void AppendTo(const Term* t, std::string* out) const;

  Interner* interner() const { return interner_; }
  // Totals across all stripes; each stripe is locked briefly, so the result
  // is a consistent-enough snapshot for stats and tests.
  size_t interned_count() const;
  size_t arena_bytes() const;
  // Distinct set terms interned so far (monotone). Evaluation entry points
  // record the per-run delta as EvalStats::set_interns.
  size_t set_interned_count() const;

  // Number of lock stripes the intern table is sharded into.
  static constexpr size_t kStripeCount = 16;

  // The reserved scons function symbol (paper §2.1).
  Symbol scons_symbol() const { return scons_symbol_; }

 private:
  friend int CompareTerms(const TermFactory& factory, const Term* a, const Term* b);

  struct TermHash {
    size_t operator()(const Term* t) const { return t->hash(); }
  };
  struct TermStructuralEq {
    bool operator()(const Term* a, const Term* b) const;
  };

  // One lock shard of the intern table. Each stripe owns the arena its
  // terms (and their argument arrays) are copied into, so allocation and
  // publication happen under one lock acquisition.
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_set<const Term*, TermHash, TermStructuralEq> table;
    Arena arena;
    size_t set_interned = 0;  // kSet terms newly published in this stripe
  };

  Stripe& StripeFor(uint64_t hash) {
    // Top bits select the stripe; the hash table consumes the low bits.
    return stripes_[(hash >> 60) & (kStripeCount - 1)];
  }

  // Atomically finds-or-inserts `candidate` (stack-allocated probe) in its
  // stripe. On a miss the probe and `args` (when non-empty) are copied into
  // the stripe's arena before the new term is published.
  const Term* Intern(const Term& candidate, std::span<const Term* const> args = {});
  // Interns a set whose elements are already sorted (strictly ascending
  // under CompareTerms) and deduplicated; the merge-based set operations and
  // SetBuilder land here, skipping MakeSet's re-sort.
  const Term* InternCanonicalSet(std::span<const Term* const> elements);
  static uint64_t ComputeHash(const Term& t);

  Interner* interner_;
  Stripe stripes_[kStripeCount];
  const Term* empty_set_;
  Symbol cons_symbol_;
  Symbol scons_symbol_;
  Symbol tuple_symbol_;
  const Term* empty_list_;
};

}  // namespace ldl

#endif  // LDL1_TERM_TERM_H_
