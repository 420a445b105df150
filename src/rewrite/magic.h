// Generalized Magic Sets rewriting for admissible programs (paper §6).
//
// Given an adorned program and a query, produces:
//   * one magic predicate m_p__a per adorned predicate (arity = number of
//     bound positions);
//   * modified rules: each adorned rule gains the magic literal of its head
//     in front of its body;
//   * magic rules: for each adorned (including negated) body literal, a
//     rule deriving its magic predicate from the head's magic predicate and
//     the body literals before it in the sip order (Sip::order: the
//     planner's bound-first order, which runs every built-in in an
//     evaluable mode). Negated literals are dropped
//     from magic-rule bodies, and so are built-ins whose bindings neither
//     the magic head nor a later literal reads -- dropping only weakens the
//     restriction, never the answers -- and a magic rule that would only
//     copy its head's magic set onto itself is not emitted;
//   * the seed fact for the query's magic predicate.
//
// One walk over each rule's sip order emits both variants, each rule once.
// It keeps the prefix a magic rule or the modified rule reads, carried on
// inline or materialized as a supplementary predicate ([BR87]) that later
// rules read instead. Both variants materialize a prefix whose magic rule
// would keep an enumerating set built-in (a partition or member that binds
// a variable), so no magic rule re-runs one; the supplementary variant also
// materializes the head's magic literal and the prefix after every positive
// relational literal (a chain boundary). MagicOptions says which.
//
// Everything but the seed depends only on the goal's predicate, its
// adornment and MagicOptions, never on the goal's constants: that part is
// the MagicShape, which callers answering many goals of one binding
// pattern compile once; MagicSeed supplies the goal's seed fact.
//
// The rewritten program is generally not layered (§6); evaluate it with
// Engine::EvaluateSaturating. Adorned, magic and supplementary predicates
// are all named deterministically, so repeated rewrites of the same goal
// shape reuse the same catalog entries (and the plans compiled for them)
// instead of growing the catalog per query. A supplementary predicate is
// named sup$<adorned head>$<n>$<k>: the k-th prefix materialized in the n-th
// adorned rule for that head, counted in sip order; k = 0 is the head's
// magic literal alone (step 0), which only the supplementary variant
// stores, so plain magic counts from 1.
#ifndef LDL1_REWRITE_MAGIC_H_
#define LDL1_REWRITE_MAGIC_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "rewrite/adorn.h"

namespace ldl {

struct MagicOptions {
  // Materialize every step of every rule as a supplementary predicate:
  //   sup_0(bound head vars)        <- m_head(bound head args).
  //   sup_j(live vars after L_j)    <- sup_{j-1}(...), L_j.
  // with magic rules reading sup_{j-1} and the modified rule reading the
  // last sup_j ([BR87]'s supplementary magic; the paper notes in §6 that
  // the related methods extend to LDL1 the same way). The chain follows
  // the sip order, so each step is evaluable from the one before it.
  //
  // When false (plain magic), a rule's prefixes stay inline, as in the
  // paper, except one whose magic rule would keep an enumerating partition
  // or member: that prefix is stored once (in both variants), and the
  // magic rule and the rest of the rule read it.
  bool supplementary = false;
};

// The goal-independent part of the rewriting for one (goal predicate,
// adornment, MagicOptions): the rewritten rules without the seed fact.
struct MagicShape {
  ProgramIr rules;
  // Query the answers from this (adorned) predicate.
  PredId answer_pred = kInvalidPred;
  // The goal's adornment (QueryAdornment); the seed takes the goal's
  // arguments at its 'b' positions.
  std::string adornment;
  // Extensional predicates the evaluation database must be seeded with.
  std::vector<PredId> edb_preds;
  // Adorned predicate -> its magic predicate.
  std::unordered_map<PredId, PredId> magic_of;
};

struct MagicProgram {
  // The shape's rules with the seed fact appended last.
  ProgramIr rules;
  // Query the answers from this (adorned) predicate.
  PredId answer_pred = kInvalidPred;
  // Extensional predicates the evaluation database must be seeded with.
  std::vector<PredId> edb_preds;
  // For inspection: adorned predicate -> its magic predicate.
  std::unordered_map<PredId, PredId> magic_of;
};

// Runs adornment + magic rewriting for `goal`'s binding pattern over
// `program`, without the seed.
StatusOr<MagicShape> MagicRewriteShape(const ProgramIr& program,
                                       Catalog* catalog, const LiteralIr& goal,
                                       const MagicOptions& options = {});

// The seed fact m_<answer>(<bound goal args>) of `goal` under `shape`, which
// must have been rewritten for a goal of the same predicate and adornment.
RuleIr MagicSeed(const MagicShape& shape, const LiteralIr& goal);

// MagicRewriteShape plus the seed of `goal`.
StatusOr<MagicProgram> MagicRewrite(const ProgramIr& program, Catalog* catalog,
                                    const LiteralIr& goal,
                                    const MagicOptions& options = {});

}  // namespace ldl

#endif  // LDL1_REWRITE_MAGIC_H_
