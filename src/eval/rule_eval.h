// Rule body evaluation: a join over the database with sideways information
// passing, executed block-at-a-time.
//
// Body literals are statically reordered so that built-ins run as soon as
// their inputs are bound and negated literals run once their non-local
// variables are bound (negation-as-failure against completed lower strata,
// probing the bound columns). The (rule, order) pair is compiled into a
// JoinPlan (see eval/plan.h): every relational literal probes the
// relation on the columns bound at its depth (the dedup table for a full
// key, a composite hash index otherwise) and matches the remaining columns
// with a match program over slot rows, or with MatchArgs when one of them
// is a complex pattern. RuleEvaluator runs the plan over TupleBlocks
// (eval/batch.h).
#ifndef LDL1_EVAL_RULE_EVAL_H_
#define LDL1_EVAL_RULE_EVAL_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <span>
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

// The probe spec of a goal looked up outside a join plan (a kModel read or
// a top-down EDB subgoal): the argument positions that instantiate to
// ground scons-free terms (interned, so the relation compares pointers),
// those terms, whether they cover every position, and the combined hash of
// a partial key.
struct GoalProbe {
  std::vector<uint32_t> cols;
  std::vector<const Term*> values;
  bool full_key = false;
  uint64_t hash = 0;
};

// The one probe builder for goal lookups: the probe spec of `args` under
// `subst`. Top-down builds one per EDB subgoal call, GoalLookup one when it
// is compiled.
GoalProbe BuildGoalProbe(TermFactory& factory, std::span<const Term* const> args,
                         const Subst& subst);

// Calls fn(row) for the live rows of `relation` that `probe` selects, in
// row order: a scan when it has no key column, one dedup-table lookup
// (Relation::Find) for a full key, so a fully ground goal builds no index,
// and a composite-index probe otherwise. Stops once fn returns false.
// Counts one index_probes per probe or lookup, probe_hits per row it
// returns and tuples_matched per row handed to fn. A GoalLookup checks
// each row itself; a top-down EDB subgoal, which must bind its variables,
// leaves the MatchArgs of each row to its caller. The join plan's kScan
// step does the same work a block at a time.
template <typename Fn>
void ForEachProbedRow(const Relation& relation, const GoalProbe& probe,
                      EvalStats* stats, Fn&& fn) {
  auto visit = [&](size_t, RowRef row) {
    ++stats->tuples_matched;
    return fn(row);
  };
  if (probe.cols.empty()) {
    relation.ForEachRow(0, relation.row_count(), visit);
    return;
  }
  ++stats->index_probes;
  if (probe.full_key) {
    const size_t row = relation.Find(probe.values);
    if (row != Relation::npos && relation.IsLive(row)) {
      ++stats->probe_hits;
      visit(row, relation.row(row));
    }
    return;
  }
  relation.ProbeRowsHashed(probe.cols, probe.values, probe.hash, 0, relation.row_count(),
                           [&](size_t i, RowRef row) {
                             ++stats->probe_hits;
                             return visit(i, row);
                           });
}

// A goal's lookup over a stored relation, compiled once: what a kModel
// read runs (a PreparedQuery holds one from Prepare on; Engine::Query
// compiles one per call). Its probe spec keys on the goal's ground
// scons-free arguments. Every other argument is normally a plain variable.
// A goal's variables are numbered by the column of their first occurrence,
// so a candidate row is its own slot array: a repeated variable compiles to
// a kCheckSlot (row[column] == row[slot]) and a first occurrence to
// nothing, and a matching row is copied out with no substitution and no
// unifier. When a non-key argument is complex (a functor or set with
// variables, or a term holding scons) the lookup is residual: each
// candidate row runs MatchArgs over the goal instead.
class GoalLookup {
 public:
  GoalLookup() = default;
  GoalLookup(TermFactory& factory, std::span<const Term* const> args);

  // The live rows of `relation` the goal matches, copied in row order. A
  // pure read: concurrent callers over a frozen relation only contend on
  // the lazy index build, which Relation handles internally.
  std::vector<Tuple> Run(TermFactory& factory, const Relation& relation) const;

  bool residual() const { return residual_; }

 private:
  GoalProbe probe_;
  std::vector<MatchOp> checks_;    // kCheckSlot only
  bool residual_ = false;
  std::vector<const Term*> args_;  // the goal's arguments, when residual
};

// Computes the evaluation order for `rule`'s body: ScheduleBody
// (program/wellformed.h), the order the sip follows too. If
// forced_first >= 0 that literal occurrence is scheduled first (semi-naive
// delta variant). `initially_bound` seeds the boundness analysis (e.g. head
// variables bound by a top-down call pattern). Returns kNotWellFormed if no
// evaluable order exists (a built-in or negation never becomes ready).
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
  // skipping heads that fall outside U. Head arguments are read from plan
  // slots, or instantiated per row when complex.
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
