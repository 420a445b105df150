#include "term/term.h"

#include <algorithm>
#include <cassert>
#include <new>

#include "base/hash.h"
#include "base/str_util.h"

namespace ldl {

namespace {
constexpr uint64_t kKindSeed[] = {0x11, 0x22, 0x33, 0x44, 0x55, 0x66};
}  // namespace

bool TermFactory::TermStructuralEq::operator()(const Term* a, const Term* b) const {
  if (a == b) return true;
  if (a->kind() != b->kind() || a->hash() != b->hash()) return false;
  switch (a->kind()) {
    case TermKind::kInt:
      return a->int_value() == b->int_value();
    case TermKind::kAtom:
    case TermKind::kString:
    case TermKind::kVar:
      return a->symbol() == b->symbol();
    case TermKind::kFunc:
      if (a->symbol() != b->symbol() || a->size() != b->size()) return false;
      break;
    case TermKind::kSet:
      if (a->size() != b->size()) return false;
      break;
  }
  // Children are already interned, so pointer comparison suffices.
  for (uint32_t i = 0; i < a->size(); ++i) {
    if (a->arg(i) != b->arg(i)) return false;
  }
  return true;
}

uint64_t TermFactory::ComputeHash(const Term& t) {
  uint64_t h = kKindSeed[static_cast<int>(t.kind_)];
  switch (t.kind_) {
    case TermKind::kInt:
      h = HashCombine(h, HashMix(static_cast<uint64_t>(t.int_value_)));
      break;
    case TermKind::kAtom:
    case TermKind::kString:
    case TermKind::kVar:
      h = HashCombine(h, HashMix(t.symbol_));
      break;
    case TermKind::kFunc:
      h = HashCombine(h, HashMix(t.symbol_));
      [[fallthrough]];
    case TermKind::kSet:
      for (uint32_t i = 0; i < t.size_; ++i) {
        h = HashCombine(h, t.args_[i]->hash());
      }
      break;
  }
  return h;
}

TermFactory::TermFactory(Interner* interner) : interner_(interner) {
  cons_symbol_ = interner_->Intern(".");
  scons_symbol_ = interner_->Intern("scons");
  tuple_symbol_ = interner_->Intern("tuple");
  Term probe;
  probe.kind_ = TermKind::kSet;
  probe.ground_ = true;
  probe.size_ = 0;
  probe.symbol_ = 0;
  probe.int_value_ = 0;
  probe.args_ = nullptr;
  probe.has_scons_ = false;
  probe.hash_ = ComputeHash(probe);
  empty_set_ = Intern(probe);
  empty_list_ = MakeAtom("[]");
}

const Term* TermFactory::Intern(const Term& candidate,
                                std::span<const Term* const> args) {
  Stripe& stripe = StripeFor(candidate.hash_);
  std::lock_guard<std::mutex> lock(stripe.mu);
  // Find-or-insert must be one critical section: two threads racing to
  // create the same term must agree on a single canonical pointer, or
  // pointer-equality (and with it Relation dedup and the plan matcher)
  // breaks.
  auto it = stripe.table.find(&candidate);
  if (it != stripe.table.end()) return *it;
  void* mem = stripe.arena.Allocate(sizeof(Term), alignof(Term));
  Term* owned = new (mem) Term(candidate);
  if (!args.empty()) {
    const Term** copy = stripe.arena.NewArray<const Term*>(args.size());
    std::copy(args.begin(), args.end(), copy);
    owned->args_ = copy;
  }
  stripe.table.insert(owned);
  if (owned->kind_ == TermKind::kSet) ++stripe.set_interned;
  return owned;
}

size_t TermFactory::interned_count() const {
  size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    total += stripe.table.size();
  }
  return total;
}

size_t TermFactory::arena_bytes() const {
  size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    total += stripe.arena.bytes_allocated();
  }
  return total;
}

size_t TermFactory::set_interned_count() const {
  size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    total += stripe.set_interned;
  }
  return total;
}

const Term* TermFactory::MakeInt(int64_t value) {
  Term probe;
  probe.kind_ = TermKind::kInt;
  probe.ground_ = true;
  probe.has_scons_ = false;
  probe.size_ = 0;
  probe.symbol_ = 0;
  probe.int_value_ = value;
  probe.args_ = nullptr;
  probe.hash_ = ComputeHash(probe);
  return Intern(probe);
}

const Term* TermFactory::MakeAtom(Symbol name) {
  Term probe;
  probe.kind_ = TermKind::kAtom;
  probe.ground_ = true;
  probe.has_scons_ = false;
  probe.size_ = 0;
  probe.symbol_ = name;
  probe.int_value_ = 0;
  probe.args_ = nullptr;
  probe.hash_ = ComputeHash(probe);
  return Intern(probe);
}

const Term* TermFactory::MakeAtom(std::string_view name) {
  return MakeAtom(interner_->Intern(name));
}

const Term* TermFactory::MakeString(Symbol text) {
  Term probe;
  probe.kind_ = TermKind::kString;
  probe.ground_ = true;
  probe.has_scons_ = false;
  probe.size_ = 0;
  probe.symbol_ = text;
  probe.int_value_ = 0;
  probe.args_ = nullptr;
  probe.hash_ = ComputeHash(probe);
  return Intern(probe);
}

const Term* TermFactory::MakeString(std::string_view text) {
  return MakeString(interner_->Intern(text));
}

const Term* TermFactory::MakeVar(Symbol name) {
  Term probe;
  probe.kind_ = TermKind::kVar;
  probe.ground_ = false;
  probe.has_scons_ = false;
  probe.size_ = 0;
  probe.symbol_ = name;
  probe.int_value_ = 0;
  probe.args_ = nullptr;
  probe.hash_ = ComputeHash(probe);
  return Intern(probe);
}

const Term* TermFactory::MakeVar(std::string_view name) {
  return MakeVar(interner_->Intern(name));
}

const Term* TermFactory::MakeFunc(Symbol name, std::span<const Term* const> args) {
  assert(!args.empty() && "0-ary function terms are atoms");
  Term probe;
  probe.kind_ = TermKind::kFunc;
  probe.ground_ = true;
  probe.has_scons_ = (name == scons_symbol_);
  for (const Term* arg : args) {
    probe.ground_ = probe.ground_ && arg->ground();
    probe.has_scons_ = probe.has_scons_ || arg->has_scons();
  }
  probe.size_ = static_cast<uint32_t>(args.size());
  probe.symbol_ = name;
  probe.int_value_ = 0;
  probe.args_ = args.data();
  probe.hash_ = ComputeHash(probe);
  return Intern(probe, args);
}

const Term* TermFactory::MakeFunc(std::string_view name,
                                  std::span<const Term* const> args) {
  return MakeFunc(interner_->Intern(name), args);
}

const Term* TermFactory::InternCanonicalSet(std::span<const Term* const> elements) {
  if (elements.empty()) return empty_set_;
  Term probe;
  probe.kind_ = TermKind::kSet;
  probe.ground_ = true;
  probe.has_scons_ = false;
  for (const Term* element : elements) {
    probe.ground_ = probe.ground_ && element->ground();
    probe.has_scons_ = probe.has_scons_ || element->has_scons();
  }
  probe.size_ = static_cast<uint32_t>(elements.size());
  probe.symbol_ = 0;
  probe.int_value_ = 0;
  probe.args_ = elements.data();
  probe.hash_ = ComputeHash(probe);
  return Intern(probe, elements);
}

const Term* TermFactory::MakeSet(std::span<const Term* const> elements) {
  if (elements.empty()) return empty_set_;
  std::vector<const Term*> canonical(elements.begin(), elements.end());
  std::sort(canonical.begin(), canonical.end(),
            [this](const Term* a, const Term* b) {
              return CompareTerms(*this, a, b) < 0;
            });
  canonical.erase(std::unique(canonical.begin(), canonical.end()), canonical.end());
  return InternCanonicalSet(canonical);
}

const Term* TermFactory::SetBuilder::Build() {
  std::sort(elements_.begin(), elements_.end(),
            [this](const Term* a, const Term* b) {
              return CompareTerms(*factory_, a, b) < 0;
            });
  elements_.erase(std::unique(elements_.begin(), elements_.end()),
                  elements_.end());
  const Term* result = factory_->InternCanonicalSet(elements_);
  elements_.clear();
  return result;
}

const Term* TermFactory::SetInsert(const Term* element, const Term* set) {
  assert(set->is_set());
  std::span<const Term* const> elems = set->args();
  // Elements are interned, so structural equality is pointer equality and
  // lower_bound lands on the element itself when present.
  auto pos = std::lower_bound(elems.begin(), elems.end(), element,
                              [this](const Term* a, const Term* b) {
                                return CompareTerms(*this, a, b) < 0;
                              });
  if (pos != elems.end() && *pos == element) return set;
  std::vector<const Term*> merged;
  merged.reserve(elems.size() + 1);
  merged.insert(merged.end(), elems.begin(), pos);
  merged.push_back(element);
  merged.insert(merged.end(), pos, elems.end());
  return InternCanonicalSet(merged);
}

const Term* TermFactory::SetUnion(const Term* a, const Term* b) {
  assert(a->is_set() && b->is_set());
  if (a == b || b->size() == 0) return a;
  if (a->size() == 0) return b;
  std::span<const Term* const> lhs = a->args();
  std::span<const Term* const> rhs = b->args();
  std::vector<const Term*> merged;
  merged.reserve(lhs.size() + rhs.size());
  size_t i = 0;
  size_t j = 0;
  while (i < lhs.size() && j < rhs.size()) {
    int cmp = CompareTerms(*this, lhs[i], rhs[j]);
    if (cmp < 0) {
      merged.push_back(lhs[i++]);
    } else if (cmp > 0) {
      merged.push_back(rhs[j++]);
    } else {
      merged.push_back(lhs[i++]);
      ++j;
    }
  }
  merged.insert(merged.end(), lhs.begin() + i, lhs.end());
  merged.insert(merged.end(), rhs.begin() + j, rhs.end());
  // A no-growth merge means one operand contains the other; reuse it
  // without an interner probe.
  if (merged.size() == lhs.size()) return a;
  if (merged.size() == rhs.size()) return b;
  return InternCanonicalSet(merged);
}

const Term* TermFactory::SetDifference(const Term* a, const Term* b) {
  assert(a->is_set() && b->is_set());
  if (a == b || a->size() == 0) return empty_set_;
  if (b->size() == 0) return a;
  std::span<const Term* const> lhs = a->args();
  std::span<const Term* const> rhs = b->args();
  std::vector<const Term*> kept;
  kept.reserve(lhs.size());
  size_t j = 0;
  for (const Term* element : lhs) {
    while (j < rhs.size() && CompareTerms(*this, rhs[j], element) < 0) ++j;
    if (j < rhs.size() && rhs[j] == element) {
      ++j;
      continue;
    }
    kept.push_back(element);
  }
  if (kept.size() == lhs.size()) return a;
  return InternCanonicalSet(kept);
}

const Term* TermFactory::SetIntersect(const Term* a, const Term* b) {
  assert(a->is_set() && b->is_set());
  if (a == b) return a;
  if (a->size() == 0) return a;
  if (b->size() == 0) return b;
  std::span<const Term* const> lhs = a->args();
  std::span<const Term* const> rhs = b->args();
  std::vector<const Term*> common;
  common.reserve(std::min(lhs.size(), rhs.size()));
  size_t i = 0;
  size_t j = 0;
  while (i < lhs.size() && j < rhs.size()) {
    int cmp = CompareTerms(*this, lhs[i], rhs[j]);
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      common.push_back(lhs[i++]);
      ++j;
    }
  }
  if (common.size() == lhs.size()) return a;
  if (common.size() == rhs.size()) return b;
  return InternCanonicalSet(common);
}

bool TermFactory::SetContains(const Term* set, const Term* element) const {
  assert(set->is_set());
  // Elements are sorted under CompareTerms; binary search.
  uint32_t lo = 0;
  uint32_t hi = set->size();
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    int cmp = CompareTerms(*this, set->arg(mid), element);
    if (cmp == 0) return true;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

const Term* TermFactory::EmptyList() { return empty_list_; }

const Term* TermFactory::MakeCons(const Term* head, const Term* tail) {
  const Term* args[] = {head, tail};
  return MakeFunc(cons_symbol_, args);
}

bool TermFactory::IsCons(const Term* t) const {
  return t->is_func() && t->symbol() == cons_symbol_ && t->size() == 2;
}

bool TermFactory::IsEmptyList(const Term* t) const { return t == empty_list_; }

int CompareTerms(const TermFactory& factory, const Term* a, const Term* b) {
  if (a == b) return 0;
  if (a->kind() != b->kind()) {
    return static_cast<int>(a->kind()) < static_cast<int>(b->kind()) ? -1 : 1;
  }
  const Interner& interner = *factory.interner_;
  switch (a->kind()) {
    case TermKind::kInt: {
      if (a->int_value() == b->int_value()) return 0;
      return a->int_value() < b->int_value() ? -1 : 1;
    }
    case TermKind::kAtom:
    case TermKind::kString:
    case TermKind::kVar: {
      int cmp = interner.Lookup(a->symbol()).compare(interner.Lookup(b->symbol()));
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    case TermKind::kFunc: {
      int cmp = interner.Lookup(a->symbol()).compare(interner.Lookup(b->symbol()));
      if (cmp != 0) return cmp < 0 ? -1 : 1;
      if (a->size() != b->size()) return a->size() < b->size() ? -1 : 1;
      for (uint32_t i = 0; i < a->size(); ++i) {
        int arg_cmp = CompareTerms(factory, a->arg(i), b->arg(i));
        if (arg_cmp != 0) return arg_cmp;
      }
      return 0;
    }
    case TermKind::kSet: {
      if (a->size() != b->size()) return a->size() < b->size() ? -1 : 1;
      for (uint32_t i = 0; i < a->size(); ++i) {
        int arg_cmp = CompareTerms(factory, a->arg(i), b->arg(i));
        if (arg_cmp != 0) return arg_cmp;
      }
      return 0;
    }
  }
  return 0;
}

void TermFactory::AppendTo(const Term* t, std::string* out) const {
  switch (t->kind()) {
    case TermKind::kInt:
      StrAppend(*out, t->int_value());
      break;
    case TermKind::kAtom:
    case TermKind::kVar:
      StrAppend(*out, interner_->Lookup(t->symbol()));
      break;
    case TermKind::kString:
      StrAppend(*out, '"', interner_->Lookup(t->symbol()), '"');
      break;
    case TermKind::kFunc: {
      if (IsCons(t) || IsEmptyList(t)) {
        // Render list chains as [a, b | Tail].
        StrAppend(*out, '[');
        const Term* node = t;
        bool first = true;
        while (IsCons(node)) {
          if (!first) StrAppend(*out, ", ");
          first = false;
          AppendTo(node->arg(0), out);
          node = node->arg(1);
        }
        if (!IsEmptyList(node)) {
          StrAppend(*out, " | ");
          AppendTo(node, out);
        }
        StrAppend(*out, ']');
        break;
      }
      // The reserved tuple functor (§4.2 head terms) prints as "(a, b)".
      if (t->symbol() != tuple_symbol_) {
        StrAppend(*out, interner_->Lookup(t->symbol()));
      }
      StrAppend(*out, '(');
      for (uint32_t i = 0; i < t->size(); ++i) {
        if (i > 0) StrAppend(*out, ", ");
        AppendTo(t->arg(i), out);
      }
      StrAppend(*out, ')');
      break;
    }
    case TermKind::kSet: {
      StrAppend(*out, '{');
      for (uint32_t i = 0; i < t->size(); ++i) {
        if (i > 0) StrAppend(*out, ", ");
        AppendTo(t->arg(i), out);
      }
      StrAppend(*out, '}');
      break;
    }
  }
}

std::string TermFactory::ToString(const Term* t) const {
  std::string out;
  AppendTo(t, &out);
  return out;
}

}  // namespace ldl
