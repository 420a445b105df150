// Internal rule representation consumed by the evaluator.
//
// Lowered from the AST by program/lower.h after the LDL1.5 rewrites: bodies
// contain no grouping brackets, and a head has at most one top-level grouped
// variable, recorded out-of-band in RuleIr::group_index / group_var.
#ifndef LDL1_PROGRAM_IR_H_
#define LDL1_PROGRAM_IR_H_

#include <cstdint>
#include <vector>

#include "ast/ast.h"
#include "program/catalog.h"
#include "term/term.h"

namespace ldl {

struct LiteralIr {
  bool negated = false;
  BuiltinKind builtin = BuiltinKind::kNone;
  PredId pred = kInvalidPred;  // valid iff builtin == kNone
  std::vector<const Term*> args;

  bool is_builtin() const { return builtin != BuiltinKind::kNone; }
};

struct RuleIr {
  PredId head_pred = kInvalidPred;
  // Head argument patterns. At group_index (if >= 0) the stored pattern is
  // the grouped variable itself.
  std::vector<const Term*> head_args;
  int group_index = -1;
  Symbol group_var = 0;
  std::vector<LiteralIr> body;
  int source_index = -1;  // rule index in the originating ProgramAst

  bool is_grouping() const { return group_index >= 0; }
  bool is_fact() const { return body.empty(); }
  bool has_negation() const {
    for (const LiteralIr& literal : body) {
      if (literal.negated) return true;
    }
    return false;
  }
};

struct ProgramIr {
  std::vector<RuleIr> rules;
  // The magic predicates of a magic-rewritten program (empty otherwise).
  // They carry demand, not facts: the dependency graph leaves out edges
  // into them, so Engine::EvaluateSaturating can order the grouping and
  // negation rules by the source program's layering.
  std::vector<PredId> magic_preds;
};

}  // namespace ldl

#endif  // LDL1_PROGRAM_IR_H_
