// String interning: maps each distinct string to a dense 32-bit id.
//
// Predicate names, function symbols, atom constants and variable names are all
// interned once at parse time; the rest of the system deals only in Symbol
// ids, making comparisons and hashing O(1).
//
// Thread-safety: the interner is internally synchronized (writers take an
// exclusive lock, Lookup/Find take a shared lock) so ldl::Service's
// concurrent query threads may resolve symbol text -- e.g. for the total
// term order or arithmetic functor checks -- and intern query constants
// while the writer evaluates. Returned views stay valid for the interner's
// lifetime (ids point at node-stable strings).
#ifndef LDL1_BASE_INTERNER_H_
#define LDL1_BASE_INTERNER_H_

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ldl {

// Dense id for an interned string. Value 0 is reserved for the empty string.
using Symbol = uint32_t;

class Interner {
 public:
  Interner();

  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  // Returns the id for `text`, interning it on first sight.
  Symbol Intern(std::string_view text);

  // Returns the text for an id produced by this interner. The view stays
  // valid for the interner's lifetime.
  std::string_view Lookup(Symbol symbol) const;

  // Returns true and sets *symbol if `text` is already interned.
  bool Find(std::string_view text, Symbol* symbol) const;

  size_t size() const;

  // Returns a symbol guaranteed not to collide with any user-visible name,
  // of the form "<prefix>$<n>". Used by the rewrite passes to mint fresh
  // predicate names and variables.
  Symbol Fresh(std::string_view prefix);

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Symbol> index_;
  std::vector<const std::string*> strings_;  // id -> text (stable pointers)
  uint64_t fresh_counter_ = 0;
};

}  // namespace ldl

#endif  // LDL1_BASE_INTERNER_H_
