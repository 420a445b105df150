// Rule body evaluation: a join over the database with sideways information
// passing, executed block-at-a-time.
//
// Body literals are statically reordered so that built-ins run as soon as
// their inputs are bound and negated literals run once fully ground
// (negation-as-failure against completed lower strata). The (rule, order)
// pair is compiled into a JoinPlan (see eval/plan.h): simple positive
// literals execute as probe-spec + match-program steps over slot rows,
// probing composite hash indexes on all statically bound columns; complex
// literals fall back to generic unification. RuleEvaluator runs the plan
// over TupleBlocks (eval/batch.h).
#ifndef LDL1_EVAL_RULE_EVAL_H_
#define LDL1_EVAL_RULE_EVAL_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "base/status.h"
#include "eval/batch.h"
#include "eval/bindings.h"
#include "eval/builtins.h"
#include "eval/plan.h"
#include "eval/relation.h"
#include "program/ir.h"
#include "term/term_ops.h"

namespace ldl {

// Row-id window restricting which facts a body literal occurrence sees.
// Semi-naive evaluation points one occurrence at a delta window.
struct LiteralWindow {
  size_t from = 0;
  size_t to = std::numeric_limits<size_t>::max();
};

// The one authoritative list of evaluation counters. The struct fields,
// EvalStats::Add, and every printer (REPL :stats, bench counters) are all
// generated from this X-macro, so adding a counter here is the whole job --
// nothing can silently drop it from stat folding, which profiled rule
// applications (rule-local stats folded into the totals) and the golden
// stats sections depend on being complete.
#define LDL_EVAL_STATS_FIELDS(X)                                      \
  X(iterations)      /* fixpoint rounds */                            \
  X(rule_firings)    /* rule (variant) applications */                \
  X(solutions)       /* body solutions found */                       \
  X(facts_derived)   /* new facts inserted */                         \
  X(tuples_matched)  /* candidate tuples fed to the matcher */        \
  X(index_probes)    /* index lookups issued */                       \
  X(probe_hits)      /* rows returned by index lookups */             \
  X(plan_cache_hits) /* compiled-plan cache hits */                   \
  X(strata_skipped)  /* incremental: strata untouched by the update */ \
  X(strata_delta)    /* incremental: strata resumed from deltas */    \
  X(strata_recomputed) /* incremental: strata cleared and re-derived */ \
  X(strata_regrown)  /* incremental: grouping strata regrown per key */ \
  X(groups_built)    /* grouping partitions canonicalized + interned */ \
  X(groups_reused)   /* grouping partitions reused from the group cache */ \
  X(group_regrows)   /* partitions regrown in place by kGroupRegrow */  \
  X(set_interns)     /* distinct set terms interned by this evaluation */ \
  X(strata_overdeleted) /* incremental: strata taken through DRed over-delete */ \
  X(rederive_rounds) /* DRed: rederivation fixpoint rounds */           \
  X(count_decrements) /* deletion fast path: derivation-count decrements */ \
  X(plans_reordered) /* cost-based orders adopted that differ from syntactic */ \
  X(replans)         /* delta variants switched orders mid-fixpoint */

struct EvalStats {
#define LDL_EVAL_STATS_DECLARE(name) size_t name = 0;
  LDL_EVAL_STATS_FIELDS(LDL_EVAL_STATS_DECLARE)
#undef LDL_EVAL_STATS_DECLARE

  void Add(const EvalStats& other) {
#define LDL_EVAL_STATS_ADD(name) name += other.name;
    LDL_EVAL_STATS_FIELDS(LDL_EVAL_STATS_ADD)
#undef LDL_EVAL_STATS_ADD
  }

  // Visits ("name", value) for every counter, in declaration order.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
#define LDL_EVAL_STATS_VISIT(name) fn(#name, name);
    LDL_EVAL_STATS_FIELDS(LDL_EVAL_STATS_VISIT)
#undef LDL_EVAL_STATS_VISIT
  }
};

// --- Static boundness analysis ------------------------------------------
//
// Shared between the syntactic orderer below and the cost-based planner
// (eval/cost.h); both must agree on when a literal is evaluable so the two
// modes reject exactly the same rules.

// True when every variable of `t` appears in `bound`.
bool TermVarsBound(const Term* t, const std::vector<Symbol>& bound);

// Static boundness propagation mirroring the runtime modes in builtins.cc
// (see also wellformed.cc): true when the built-in (or negated literal) has
// enough bound arguments to run. Positive relational literals are always
// ready.
bool LiteralStaticallyReady(const LiteralIr& literal,
                            const std::vector<Symbol>& bound);

// Adds every variable occurring in `literal`'s arguments to `bound`.
void BindLiteralVars(const LiteralIr& literal, std::vector<Symbol>* bound);

// Number of argument positions whose variables are all in `bound` (join
// selectivity heuristic).
int BoundArgCount(const LiteralIr& literal, const std::vector<Symbol>& bound);

// For each body literal of `rule`: if it is a negated relational literal,
// the variables it shares with the head or another literal (readiness only
// requires those; variables local to the literal are existential under the
// negation, paper §6 rule 5). Empty for every other literal.
std::vector<std::vector<Symbol>> NegationSharedVars(const RuleIr& rule);

// Computes the evaluation order for `rule`'s body. If forced_first >= 0 that
// literal occurrence is scheduled first (semi-naive delta variant).
// `initially_bound` seeds the boundness analysis (e.g. head variables bound
// by a top-down call pattern). Returns kNotWellFormed if no evaluable order
// exists (a built-in or negation never becomes ready).
StatusOr<std::vector<int>> OrderBodyLiterals(
    const Catalog& catalog, const RuleIr& rule, int forced_first = -1,
    const std::vector<Symbol>* initially_bound = nullptr);

// The rule executor: enumerates the body solutions of one rule under one
// literal order, block-at-a-time through the kernels described in
// eval/batch.h. Every caller that needs a rule body's solutions -- the
// fixpoints, grouping, incremental maintenance, magic saturation, the model
// checker and the explainer -- goes through ForEachBlock (or its
// head-seeded form, ForEachBlockDeriving).
class RuleEvaluator {
 public:
  // `order` must come from OrderBodyLiterals for the same rule. When `plan`
  // is null the evaluator compiles its own; callers on the hot path pass a
  // PlanCache-owned plan instead. With a non-null `storage_pool` the block
  // storage is drawn from (and returned to) the pool, so its capacity
  // survives across short-lived evaluators.
  RuleEvaluator(TermFactory* factory, const RuleIr* rule,
                const std::vector<int>& order, BuiltinLimits limits = {},
                std::shared_ptr<const JoinPlan> plan = nullptr,
                BlockStoragePool* storage_pool = nullptr);
  ~RuleEvaluator();
  RuleEvaluator(RuleEvaluator&&) = default;
  RuleEvaluator& operator=(RuleEvaluator&&) = delete;

  // Enumerates body solutions against `db`, handing completed blocks to
  // `sink`. `windows` is indexed by body literal position (not evaluation
  // order); empty means "full relation" for every literal.
  Status ForEachBlock(const Database& db, const std::vector<LiteralWindow>& windows,
                      const BlockFn& sink, EvalStats* stats);

  // Enumerates the body solutions (over full relations) that derive the
  // fact `head`. Requires a head-seeded plan: each unifier of the rule head
  // with `head` becomes one row of the root input block.
  Status ForEachBlockDeriving(const Database& db, RowRef head,
                              const BlockFn& sink, EvalStats* stats);

  // Appends the head fact of every selected solution in `block` to `out`,
  // skipping heads that fall outside U. Simple heads are read straight from
  // plan slots; complex heads are instantiated per row.
  Status EmitHeads(const TupleBlock& block, RowBuffer* out) const;

  // ForEachBlock + EmitHeads: the head facts of every body solution.
  Status CollectHeads(const Database& db, const std::vector<LiteralWindow>& windows,
                      RowBuffer* out, EvalStats* stats);

  // Builds the head fact for one solution.
  InstantiationResult InstantiateHead(const SolutionView& view) const;

  const RuleIr& rule() const { return *rule_; }
  const JoinPlan& plan() const { return *plan_; }

 private:
  // Expands `in`'s selected rows through step `depth` into the step's
  // output block, flushing downstream whenever it fills; drains fully on
  // return.
  Status ProcessBlock(const Database& db, const std::vector<LiteralWindow>& windows,
                      size_t depth, TupleBlock& in, const BlockFn& sink,
                      EvalStats* stats);

  // Takes block storage (from the pool when there is one) and sizes it for
  // the plan; a no-op once the evaluator holds storage.
  void PrepareStorage();

  TermFactory* factory_;
  const RuleIr* rule_;
  BuiltinLimits limits_;
  std::shared_ptr<const JoinPlan> plan_;
  BlockStoragePool* storage_pool_;
  std::unique_ptr<BlockStorage> storage_;
  bool keep_going_ = true;
};

}  // namespace ldl

#endif  // LDL1_EVAL_RULE_EVAL_H_
