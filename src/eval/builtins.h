// Evaluation of built-in predicates (paper §2.2 restrictions (2)-(4), plus
// the arithmetic predicates the paper's examples use).
//
// Built-ins follow the paper's convention: type mismatches make the
// predicate *false* (no solutions), not an error. Mode errors (a built-in
// reached with insufficient bindings despite literal reordering) and
// enumeration blow-ups are reported as Status errors.
#ifndef LDL1_EVAL_BUILTINS_H_
#define LDL1_EVAL_BUILTINS_H_

#include <optional>

#include "base/status.h"
#include "program/ir.h"
#include "term/unify.h"

namespace ldl {

struct BuiltinLimits {
  // union(S1,S2,S3) with only S3 bound enumerates 3^|S3| pairs; subset /
  // partition enumerate 2^n. Sets larger than these caps raise
  // kResourceExhausted instead of silently exploding.
  size_t max_union_enumeration = 12;
  size_t max_subset_enumeration = 20;
};

// Enumerates all solutions of `literal` under *subst, invoking `yield` per
// solution (with *subst extended). Sets *keep_going to false iff the
// continuation stopped the enumeration. The substitution is restored before
// returning.
Status EvalBuiltin(TermFactory& factory, const LiteralIr& literal, Subst* subst,
                   const MatchCont& yield, bool* keep_going,
                   const BuiltinLimits& limits = {});

// Overflow-checked int64 arithmetic. nullopt when the mathematical result
// does not fit in int64 (and for division/modulo by zero, including the
// INT64_MIN / -1 corner, whose quotient exceeds INT64_MAX). Built-ins
// treat an overflowed operation like any other value outside the integer
// domain: the predicate is simply not satisfied.
std::optional<int64_t> CheckedAdd(int64_t a, int64_t b);
std::optional<int64_t> CheckedSub(int64_t a, int64_t b);
std::optional<int64_t> CheckedMul(int64_t a, int64_t b);
std::optional<int64_t> CheckedDiv(int64_t a, int64_t b);
std::optional<int64_t> CheckedMod(int64_t a, int64_t b);

// Evaluates a ground arithmetic expression term: integers and $add/$sub/
// $mul/$div applications. nullopt for anything else (including division by
// zero and results that overflow int64).
std::optional<int64_t> EvalArith(const TermFactory& factory, const Term* t);

// If `t` is a ground arithmetic expression, returns the integer term it
// denotes; otherwise returns `t` unchanged.
const Term* NormalizeArith(TermFactory& factory, const Term* t);

}  // namespace ldl

#endif  // LDL1_EVAL_BUILTINS_H_
