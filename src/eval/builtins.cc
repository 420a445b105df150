#include "eval/builtins.h"

#include <cassert>
#include <cstdint>

#include "base/str_util.h"
#include "parser/parser.h"

namespace ldl {

namespace {

bool IsArithFunctor(const TermFactory& factory, Symbol symbol) {
  std::string_view name = factory.interner()->Lookup(symbol);
  return name == kAddFunctor || name == kSubFunctor || name == kMulFunctor ||
         name == kDivFunctor;
}

}  // namespace

// Raw signed arithmetic here was undefined behavior on boundary inputs
// ("1 + 9223372036854775807", "-9223372036854775808 / -1"); the
// __builtin_*_overflow intrinsics evaluate the full result without UB.
std::optional<int64_t> CheckedAdd(int64_t a, int64_t b) {
  int64_t result;
  if (__builtin_add_overflow(a, b, &result)) return std::nullopt;
  return result;
}

std::optional<int64_t> CheckedSub(int64_t a, int64_t b) {
  int64_t result;
  if (__builtin_sub_overflow(a, b, &result)) return std::nullopt;
  return result;
}

std::optional<int64_t> CheckedMul(int64_t a, int64_t b) {
  int64_t result;
  if (__builtin_mul_overflow(a, b, &result)) return std::nullopt;
  return result;
}

std::optional<int64_t> CheckedDiv(int64_t a, int64_t b) {
  if (b == 0) return std::nullopt;
  if (a == INT64_MIN && b == -1) return std::nullopt;  // -INT64_MIN overflows
  return a / b;
}

std::optional<int64_t> CheckedMod(int64_t a, int64_t b) {
  if (b == 0) return std::nullopt;
  if (a == INT64_MIN && b == -1) return std::nullopt;  // UB though result is 0
  return a % b;
}

std::optional<int64_t> EvalArith(const TermFactory& factory, const Term* t) {
  if (t->is_int()) return t->int_value();
  if (!t->is_func() || t->size() != 2) return std::nullopt;
  std::string_view name = factory.interner()->Lookup(t->symbol());
  std::optional<int64_t> lhs = EvalArith(factory, t->arg(0));
  std::optional<int64_t> rhs = EvalArith(factory, t->arg(1));
  if (!lhs || !rhs) return std::nullopt;
  if (name == kAddFunctor) return CheckedAdd(*lhs, *rhs);
  if (name == kSubFunctor) return CheckedSub(*lhs, *rhs);
  if (name == kMulFunctor) return CheckedMul(*lhs, *rhs);
  if (name == kDivFunctor) return CheckedDiv(*lhs, *rhs);
  return std::nullopt;
}

const Term* NormalizeArith(TermFactory& factory, const Term* t) {
  if (t->is_int() || !t->is_func() || !IsArithFunctor(factory, t->symbol())) {
    return t;
  }
  std::optional<int64_t> value = EvalArith(factory, t);
  return value ? factory.MakeInt(*value) : t;
}

namespace {

// Enumerates all subsets of `elements`, calling fn(set) for each; returns
// false iff fn stopped.
bool ForEachSubset(TermFactory& factory, std::span<const Term* const> elements,
                   const std::function<bool(const Term*)>& fn) {
  size_t n = elements.size();
  assert(n < 64);
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    std::vector<const Term*> subset;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) subset.push_back(elements[i]);
    }
    if (!fn(factory.MakeSet(subset))) return false;
  }
  return true;
}

class BuiltinEvaluator {
 public:
  BuiltinEvaluator(TermFactory& factory, const LiteralIr& literal, Subst* subst,
                   const MatchCont& yield, const BuiltinLimits& limits)
      : factory_(factory),
        literal_(literal),
        subst_(subst),
        yield_(yield),
        limits_(limits) {}

  Status Run(bool* keep_going) {
    size_t mark = subst_->Mark();
    Status status = Dispatch(keep_going);
    subst_->RollbackTo(mark);
    return status;
  }

 private:
  // Argument i instantiated (still may contain variables) with arithmetic
  // normalized when ground.
  const Term* Inst(size_t i) {
    const Term* t = ApplySubst(factory_, literal_.args[i], *subst_);
    if (t != nullptr && t->ground()) t = NormalizeArith(factory_, t);
    return t;
  }

  Status NotReadyError() {
    return InternalError(StrCat("built-in '", BuiltinName(literal_.builtin),
                                "' reached without an evaluable mode"));
  }

  // Matches pattern argument `i` against ground `value`, yielding solutions.
  bool MatchArg(size_t i, const Term* value) {
    return MatchTerm(factory_, literal_.args[i], value, subst_, yield_);
  }

  Status Dispatch(bool* keep_going) {
    *keep_going = true;
    if (literal_.negated) return DispatchNegated(keep_going);
    switch (literal_.builtin) {
      case BuiltinKind::kEq: return EvalEq(keep_going);
      case BuiltinKind::kNeq: return EvalNeq(keep_going);
      case BuiltinKind::kLt:
      case BuiltinKind::kLe:
      case BuiltinKind::kGt:
      case BuiltinKind::kGe: return EvalComparison(keep_going);
      case BuiltinKind::kMember: return EvalMember(keep_going);
      case BuiltinKind::kUnion: return EvalUnion(keep_going);
      case BuiltinKind::kIntersection: return EvalBinarySetOp(keep_going, true);
      case BuiltinKind::kDifference: return EvalBinarySetOp(keep_going, false);
      case BuiltinKind::kSubset: return EvalSubset(keep_going);
      case BuiltinKind::kPartition: return EvalPartition(keep_going);
      case BuiltinKind::kCard: return EvalCard(keep_going);
      case BuiltinKind::kPlus: return EvalLinear(keep_going, BuiltinKind::kPlus);
      case BuiltinKind::kMinus: return EvalLinear(keep_going, BuiltinKind::kMinus);
      case BuiltinKind::kTimes: return EvalTimes(keep_going);
      case BuiltinKind::kDiv: return EvalDivMod(keep_going, /*mod=*/false);
      case BuiltinKind::kMod: return EvalDivMod(keep_going, /*mod=*/true);
      case BuiltinKind::kNone:
        return InternalError("EvalBuiltin called on a non-built-in literal");
    }
    return InternalError("unknown built-in");
  }

  // A negated built-in: all arguments must be ground; succeeds iff the
  // positive built-in has no solution.
  Status DispatchNegated(bool* keep_going) {
    LiteralIr positive = literal_;
    positive.negated = false;
    bool found = false;
    bool inner_keep_going = true;
    MatchCont stop_on_first = [&found]() {
      found = true;
      return false;  // one solution is enough
    };
    BuiltinEvaluator inner(factory_, positive, subst_, stop_on_first, limits_);
    LDL_RETURN_IF_ERROR(inner.Run(&inner_keep_going));
    if (!found) *keep_going = yield_();
    return Status::OK();
  }

  Status EvalEq(bool* keep_going) {
    const Term* lhs = Inst(0);
    const Term* rhs = Inst(1);
    if (lhs == nullptr || rhs == nullptr) return Status::OK();  // outside U
    bool lhs_ground = lhs->ground();
    bool rhs_ground = rhs->ground();
    if (lhs_ground && rhs_ground) {
      // Residual scons applications were evaluated by ApplySubst; interned
      // equality is pointer equality.
      if (lhs == rhs) *keep_going = yield_();
      return Status::OK();
    }
    if (rhs_ground) {
      *keep_going = MatchTerm(factory_, lhs, rhs, subst_, yield_);
      return Status::OK();
    }
    if (lhs_ground) {
      *keep_going = MatchTerm(factory_, rhs, lhs, subst_, yield_);
      return Status::OK();
    }
    return NotReadyError();
  }

  Status EvalNeq(bool* keep_going) {
    const Term* lhs = Inst(0);
    const Term* rhs = Inst(1);
    if (lhs == nullptr || rhs == nullptr) return Status::OK();
    if (!lhs->ground() || !rhs->ground()) return NotReadyError();
    if (lhs != rhs) *keep_going = yield_();
    return Status::OK();
  }

  Status EvalComparison(bool* keep_going) {
    const Term* lhs = Inst(0);
    const Term* rhs = Inst(1);
    if (lhs == nullptr || rhs == nullptr) return Status::OK();
    if (!lhs->ground() || !rhs->ground()) return NotReadyError();
    // Comparisons are defined on integers (arithmetic already normalized);
    // anything else is false per the paper's built-in convention.
    if (!lhs->is_int() || !rhs->is_int()) return Status::OK();
    int64_t a = lhs->int_value();
    int64_t b = rhs->int_value();
    bool holds = false;
    switch (literal_.builtin) {
      case BuiltinKind::kLt: holds = a < b; break;
      case BuiltinKind::kLe: holds = a <= b; break;
      case BuiltinKind::kGt: holds = a > b; break;
      case BuiltinKind::kGe: holds = a >= b; break;
      default: break;
    }
    if (holds) *keep_going = yield_();
    return Status::OK();
  }

  Status EvalMember(bool* keep_going) {
    const Term* set = Inst(1);
    if (set == nullptr) return Status::OK();
    if (!set->ground()) return NotReadyError();
    if (!set->is_set()) return Status::OK();  // false on non-sets (§2.2 (2))
    const Term* element = Inst(0);
    if (element != nullptr && element->ground()) {
      if (factory_.SetContains(set, element)) *keep_going = yield_();
      return Status::OK();
    }
    for (const Term* candidate : set->args()) {
      if (!MatchArg(0, candidate)) {
        *keep_going = false;
        return Status::OK();
      }
    }
    return Status::OK();
  }

  Status EvalUnion(bool* keep_going) {
    const Term* s1 = Inst(0);
    const Term* s2 = Inst(1);
    const Term* s3 = Inst(2);
    if (s1 == nullptr || s2 == nullptr || s3 == nullptr) return Status::OK();
    bool g1 = s1->ground();
    bool g2 = s2->ground();
    bool g3 = s3->ground();

    if (g1 && g2) {
      if (!s1->is_set() || !s2->is_set()) return Status::OK();
      *keep_going = MatchArg(2, factory_.SetUnion(s1, s2));
      return Status::OK();
    }
    if (!g3) return NotReadyError();
    if (!s3->is_set()) return Status::OK();

    if (g1 || g2) {
      // One operand known: union(A, X, S) requires A subset S and
      // X = (S \ A) u T for T subset A.
      size_t known_index = g1 ? 0 : 1;
      size_t free_index = g1 ? 1 : 0;
      const Term* known = g1 ? s1 : s2;
      if (!known->is_set()) return Status::OK();
      if (factory_.SetDifference(known, s3)->size() != 0) return Status::OK();
      const Term* base = factory_.SetDifference(s3, known);
      if (known->size() > limits_.max_subset_enumeration) {
        return ResourceExhaustedError(
            StrCat("union/3 enumeration over a set of ", known->size(),
                   " elements exceeds the limit"));
      }
      bool cont = ForEachSubset(factory_, known->args(), [&](const Term* extra) {
        return MatchSeq2(known_index, known, free_index,
                         factory_.SetUnion(base, extra));
      });
      *keep_going = cont;
      return Status::OK();
    }

    // Only S3 bound: every element goes to S1 only, S2 only, or both.
    size_t n = s3->size();
    if (n > limits_.max_union_enumeration) {
      return ResourceExhaustedError(
          StrCat("union/3 with only the result bound enumerates 3^", n,
                 " splits; set too large"));
    }
    std::vector<const Term*> left;
    std::vector<const Term*> right;
    bool cont = EnumerateUnionSplits(s3, 0, &left, &right);
    *keep_going = cont;
    return Status::OK();
  }

  // Matches two pattern args against two ground values conjunctively.
  bool MatchSeq2(size_t i1, const Term* v1, size_t i2, const Term* v2) {
    return MatchTerm(factory_, literal_.args[i1], v1, subst_, [&]() {
      return MatchTerm(factory_, literal_.args[i2], v2, subst_, yield_);
    });
  }

  bool EnumerateUnionSplits(const Term* s3, uint32_t i,
                            std::vector<const Term*>* left,
                            std::vector<const Term*>* right) {
    if (i == s3->size()) {
      return MatchSeq2(0, factory_.MakeSet(*left), 1, factory_.MakeSet(*right));
    }
    const Term* element = s3->arg(i);
    struct Choice {
      bool in_left;
      bool in_right;
    };
    static constexpr Choice kChoices[] = {{true, false}, {false, true}, {true, true}};
    for (const Choice& choice : kChoices) {
      if (choice.in_left) left->push_back(element);
      if (choice.in_right) right->push_back(element);
      bool cont = EnumerateUnionSplits(s3, i + 1, left, right);
      if (choice.in_left) left->pop_back();
      if (choice.in_right) right->pop_back();
      if (!cont) return false;
    }
    return true;
  }

  // intersection(S1, S2, S3) / difference(S1, S2, S3) with S1, S2 ground.
  Status EvalBinarySetOp(bool* keep_going, bool intersection) {
    const Term* s1 = Inst(0);
    const Term* s2 = Inst(1);
    if (s1 == nullptr || s2 == nullptr) return Status::OK();
    if (!s1->ground() || !s2->ground()) return NotReadyError();
    if (!s1->is_set() || !s2->is_set()) return Status::OK();
    const Term* result = intersection ? factory_.SetIntersect(s1, s2)
                                      : factory_.SetDifference(s1, s2);
    *keep_going = MatchArg(2, result);
    return Status::OK();
  }

  Status EvalSubset(bool* keep_going) {
    const Term* sub = Inst(0);
    const Term* super = Inst(1);
    if (sub == nullptr || super == nullptr) return Status::OK();
    if (!super->ground()) return NotReadyError();
    if (!super->is_set()) return Status::OK();
    if (sub->ground()) {
      if (sub->is_set() && factory_.SetDifference(sub, super)->size() == 0) {
        *keep_going = yield_();
      }
      return Status::OK();
    }
    if (super->size() > limits_.max_subset_enumeration) {
      return ResourceExhaustedError(
          StrCat("subset/2 enumeration over a set of ", super->size(),
                 " elements exceeds the limit"));
    }
    *keep_going = ForEachSubset(factory_, super->args(), [&](const Term* candidate) {
      return MatchArg(0, candidate);
    });
    return Status::OK();
  }

  Status EvalPartition(bool* keep_going) {
    const Term* whole = Inst(0);
    const Term* s1 = Inst(1);
    const Term* s2 = Inst(2);
    if (whole == nullptr || s1 == nullptr || s2 == nullptr) return Status::OK();
    bool g0 = whole->ground();
    bool g1 = s1->ground();
    bool g2 = s2->ground();

    if (g1 && g2) {
      if (!s1->is_set() || !s2->is_set()) return Status::OK();
      if (factory_.SetIntersect(s1, s2)->size() != 0) return Status::OK();
      *keep_going = MatchArg(0, factory_.SetUnion(s1, s2));
      return Status::OK();
    }
    if (!g0) return NotReadyError();
    if (!whole->is_set()) return Status::OK();

    if (g1 || g2) {
      size_t known_index = g1 ? 1 : 2;
      size_t free_index = g1 ? 2 : 1;
      const Term* known = g1 ? s1 : s2;
      if (!known->is_set()) return Status::OK();
      if (factory_.SetDifference(known, whole)->size() != 0) return Status::OK();
      *keep_going = MatchSeq2(known_index, known, free_index,
                              factory_.SetDifference(whole, known));
      return Status::OK();
    }

    if (whole->size() > limits_.max_subset_enumeration) {
      return ResourceExhaustedError(
          StrCat("partition/3 enumeration over a set of ", whole->size(),
                 " elements exceeds the limit"));
    }
    *keep_going = ForEachSubset(factory_, whole->args(), [&](const Term* part1) {
      return MatchSeq2(1, part1, 2, factory_.SetDifference(whole, part1));
    });
    return Status::OK();
  }

  Status EvalCard(bool* keep_going) {
    const Term* set = Inst(0);
    if (set == nullptr) return Status::OK();
    if (!set->ground()) return NotReadyError();
    if (!set->is_set()) return Status::OK();
    *keep_going = MatchArg(1, factory_.MakeInt(set->size()));
    return Status::OK();
  }

  // plus(A, B, C): A + B = C; minus(A, B, C): A - B = C.
  Status EvalLinear(bool* keep_going, BuiltinKind kind) {
    const Term* a = Inst(0);
    const Term* b = Inst(1);
    const Term* c = Inst(2);
    if (a == nullptr || b == nullptr || c == nullptr) return Status::OK();
    bool minus = kind == BuiltinKind::kMinus;
    auto as_int = [](const Term* t) -> std::optional<int64_t> {
      if (t->ground() && t->is_int()) return t->int_value();
      return std::nullopt;
    };
    std::optional<int64_t> va = as_int(a);
    std::optional<int64_t> vb = as_int(b);
    std::optional<int64_t> vc = as_int(c);
    // Ground non-integers make the predicate false.
    if ((a->ground() && !va) || (b->ground() && !vb) || (c->ground() && !vc)) {
      return Status::OK();
    }
    // A result outside int64 means no representable solution: the built-in
    // is simply not satisfied, like division by zero.
    if (va && vb) {
      std::optional<int64_t> result =
          minus ? CheckedSub(*va, *vb) : CheckedAdd(*va, *vb);
      if (result) *keep_going = MatchArg(2, factory_.MakeInt(*result));
      return Status::OK();
    }
    if (va && vc) {
      std::optional<int64_t> result =
          minus ? CheckedSub(*va, *vc) : CheckedSub(*vc, *va);
      if (result) *keep_going = MatchArg(1, factory_.MakeInt(*result));
      return Status::OK();
    }
    if (vb && vc) {
      std::optional<int64_t> result =
          minus ? CheckedAdd(*vc, *vb) : CheckedSub(*vc, *vb);
      if (result) *keep_going = MatchArg(0, factory_.MakeInt(*result));
      return Status::OK();
    }
    return NotReadyError();
  }

  Status EvalTimes(bool* keep_going) {
    const Term* a = Inst(0);
    const Term* b = Inst(1);
    const Term* c = Inst(2);
    if (a == nullptr || b == nullptr || c == nullptr) return Status::OK();
    auto as_int = [](const Term* t) -> std::optional<int64_t> {
      if (t->ground() && t->is_int()) return t->int_value();
      return std::nullopt;
    };
    std::optional<int64_t> va = as_int(a);
    std::optional<int64_t> vb = as_int(b);
    std::optional<int64_t> vc = as_int(c);
    if ((a->ground() && !va) || (b->ground() && !vb) || (c->ground() && !vc)) {
      return Status::OK();
    }
    if (va && vb) {
      std::optional<int64_t> product = CheckedMul(*va, *vb);
      if (product) *keep_going = MatchArg(2, factory_.MakeInt(*product));
      return Status::OK();
    }
    auto solve = [&](int64_t known, size_t free_index) {
      if (known == 0) {
        // 0 * B = C: false when C != 0; when C == 0 any B works, which is
        // a mode error (unconstrained output).
        if (*vc != 0) {
          *keep_going = true;
          return true;
        }
        return false;
      }
      // Checked: INT64_MIN with known == -1 has no representable quotient
      // (and the raw % / / would be UB), so the predicate is unsatisfied.
      std::optional<int64_t> remainder = CheckedMod(*vc, known);
      std::optional<int64_t> quotient = CheckedDiv(*vc, known);
      if (!remainder || !quotient || *remainder != 0) {
        *keep_going = true;  // no solution
        return true;
      }
      *keep_going = MatchArg(free_index, factory_.MakeInt(*quotient));
      return true;
    };
    if (va && vc) {
      if (solve(*va, 1)) return Status::OK();
      return NotReadyError();
    }
    if (vb && vc) {
      if (solve(*vb, 0)) return Status::OK();
      return NotReadyError();
    }
    return NotReadyError();
  }

  Status EvalDivMod(bool* keep_going, bool mod) {
    const Term* a = Inst(0);
    const Term* b = Inst(1);
    if (a == nullptr || b == nullptr) return Status::OK();
    if (!a->ground() || !b->ground()) return NotReadyError();
    if (!a->is_int() || !b->is_int()) return Status::OK();
    // Checked ops make division by zero and the INT64_MIN / -1 overflow
    // corner "undefined: false" instead of UB.
    std::optional<int64_t> result = mod ? CheckedMod(a->int_value(), b->int_value())
                                        : CheckedDiv(a->int_value(), b->int_value());
    if (!result) return Status::OK();
    *keep_going = MatchArg(2, factory_.MakeInt(*result));
    return Status::OK();
  }

  TermFactory& factory_;
  const LiteralIr& literal_;
  Subst* subst_;
  const MatchCont& yield_;
  const BuiltinLimits& limits_;
};

}  // namespace

Status EvalBuiltin(TermFactory& factory, const LiteralIr& literal, Subst* subst,
                   const MatchCont& yield, bool* keep_going,
                   const BuiltinLimits& limits) {
  BuiltinEvaluator evaluator(factory, literal, subst, yield, limits);
  return evaluator.Run(keep_going);
}

}  // namespace ldl
