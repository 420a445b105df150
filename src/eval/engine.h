// Bottom-up evaluation engines.
//
//   * EvaluateProgram: stratified (layer-by-layer) evaluation of an
//     admissible program per Theorem 1. Within a layer the grouping rules
//     are applied once over the layer's input model, then the remaining
//     rules run to fixpoint (Lemma 3.2.3), naively or semi-naively.
//   * Maintain: incremental maintenance of an already materialized model
//     after a batch of EDB insertions and/or deletions. Each stratum reacts
//     as its worst head impact dictates (see program/impact.h): untouched
//     strata are skipped; strata reached through a negation edge (or a
//     grouping edge that cannot regrow) are cleared and recomputed; every
//     other stratum goes through one handler that regrows eligible
//     grouping heads in place, retracts what settled deletions below took
//     away (derivation-count decrements or delete-and-rederive), and
//     resumes the semi-naive fixpoint from the inserted rows.
//   * EvaluateSaturating: evaluation of a magic-rewritten program, which is
//     not layered (§6). Positive non-grouping rules are saturated; then the
//     grouping and negation rules of the lowest dependency level (strongly
//     connected component of the rewritten program) that derives anything
//     fire over the saturated state, and the loop repeats until no level
//     derives anything. Grouped facts are reconciled per partition key; a
//     group that would shrink or change retroactively indicates a
//     non-layered source program and raises kInternal.
//
// Evaluation is serial: one thread runs each fixpoint round, applying every
// rule (or delta variant) against the round-start windows. Concurrency
// lives above the engine -- ldl::Service readers query published
// snapshots, and scratch engines for concurrent magic queries share one
// PlanCache.
#ifndef LDL1_EVAL_ENGINE_H_
#define LDL1_EVAL_ENGINE_H_

#include <utility>
#include <vector>

#include "base/status.h"
#include "eval/grouping.h"
#include "eval/plan.h"
#include "eval/profile.h"
#include "eval/rule_eval.h"
#include "program/impact.h"
#include "program/ir.h"
#include "program/stratify.h"

namespace ldl {

struct EvalOptions {
  enum class Mode {
    kNaive,      // re-apply every rule over the full database each round
    kSemiNaive,  // delta-driven re-application
  };
  Mode mode = Mode::kSemiNaive;
  // Guards against non-terminating programs (function symbols make the
  // universe infinite).
  size_t max_rounds = 1u << 20;
  size_t max_facts = 1u << 26;
  BuiltinLimits builtin_limits;
  // Pick join orders with the statistics-driven cost model (eval/cost.h)
  // instead of the syntactic most-bound-args heuristic, and re-cost the
  // semi-naive delta variants each round against the delta-window sizes
  // (adaptive replanning). Order choices read only round-start snapshots, so
  // they never depend on which rules ran earlier in the round; windows bind
  // to body positions, so an order changes cost, never the derived facts.
  bool cost_based = true;
  // Replanning hysteresis: a delta variant switches to the newly costed
  // order only when estimated_work(current) > ratio * estimated_work(best).
  // Keeps plan churn (and plan-cache pressure) low when estimates wobble.
  double replan_cost_ratio = 2.0;
  // Collect a per-rule / per-stratum EvalProfile (eval/profile.h) into the
  // EvalProfile* the caller passes alongside stats. Off, the engine never
  // reads the clock; the hot-path cost is one null test per application.
  bool profile = false;
};

class Engine {
 public:
  // With a non-null `shared_plans` the engine probes (and fills) the caller's
  // plan cache instead of an internal one. PlanCache is internally
  // synchronized, so many per-query engines -- e.g. the scratch engines
  // ldl::Service spins up for concurrent magic evaluations -- can share one
  // cache and reuse each other's compiled plans.
  explicit Engine(TermFactory* factory, Catalog* catalog,
                  PlanCache* shared_plans = nullptr)
      : factory_(factory),
        catalog_(catalog),
        plans_(shared_plans != nullptr ? shared_plans : &owned_plans_) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Stratified bottom-up evaluation of an admissible program (Theorem 1).
  // With options.profile set and `profile` non-null, per-rule/per-stratum
  // execution profiles are collected into *profile (not cleared first).
  Status EvaluateProgram(const ProgramIr& program,
                         const Stratification& stratification, Database* db,
                         const EvalOptions& options = {}, EvalStats* stats = nullptr,
                         EvalProfile* profile = nullptr);

  // Incremental maintenance of an already-materialized model after a batch
  // of EDB insertions and deletions; insert-only maintenance is the call
  // with an empty `removed`. `db` must hold the model of `program` over the
  // pre-update EDB, with the inserted facts appended after it;
  // `watermarks[p]` is relation(p).row_count() at the end of that
  // evaluation (preds registered since are treated as watermark 0),
  // `inserted[p]` marks the extensional predicates that gained facts, and
  // `removed` lists the EDB facts to delete (absent facts are ignored).
  // Removed rows are tombstoned up front; then, per stratum by its worst
  // head impact (program/impact.h):
  //   * kClean strata are skipped (stats->strata_skipped);
  //   * kRecompute strata -- reached through negation or a grouping edge
  //     that cannot regrow, where a change below can retract facts above --
  //     clear their changed heads and re-derive from the maintained inputs
  //     (stats->strata_recomputed);
  //   * every other stratum goes through MaintainStratum below: regrow,
  //     retract, resume (stats->strata_regrown / strata_overdeleted /
  //     strata_delta, count_decrements, rederive_rounds).
  // The result is the model EvaluateProgram computes from scratch over the
  // updated EDB; rule changes still need a full re-evaluation. On an error
  // the database may be half-maintained and must be discarded.
  Status Maintain(const ProgramIr& program, const Stratification& stratification,
                  Database* db, const std::vector<size_t>& watermarks,
                  const std::vector<bool>& inserted,
                  const std::vector<std::pair<PredId, Tuple>>& removed,
                  const EvalOptions& options = {}, EvalStats* stats = nullptr,
                  EvalProfile* profile = nullptr);

  // Saturation evaluation for magic-rewritten (non-layered) programs (§6).
  // Profiled rules carry stratum -1 (the evaluation is unlayered).
  Status EvaluateSaturating(const ProgramIr& program, Database* db,
                            const EvalOptions& options = {},
                            EvalStats* stats = nullptr,
                            EvalProfile* profile = nullptr);

  // Enumerates facts of goal's predicate matching the goal's argument
  // patterns. The goal must be positive and non-builtin. Const and safe to
  // call from concurrent readers of an immutable database (delegates to
  // QueryRelation below).
  StatusOr<std::vector<Tuple>> Query(const LiteralIr& goal,
                                     const Database& db) const;

  TermFactory* factory() const { return factory_; }
  Catalog* catalog() const { return catalog_; }

 private:
  // Seed for a resumed (incremental) fixpoint: rows past each predicate's
  // watermark form the first round's deltas, and round 0 (full rule
  // application) is skipped -- the database already holds a model of the
  // rules over the pre-update inputs.
  struct FixpointSeed {
    // Row counts at the end of the previous evaluation; preds past the end
    // are treated as watermark 0.
    const std::vector<size_t>* watermarks;
    // Predicates that may carry rows past their watermark (changed EDB
    // preds plus delta-maintained lower-stratum IDB preds).
    const std::vector<bool>* delta_preds;
  };

  // Evaluates one stratum from its input model (the profile rollup is
  // labeled `mode`: kFull, or kRecomputed under Maintain).
  Status EvaluateStratum(const ProgramIr& program, const std::vector<int>& rules,
                         int stratum_index, StratumMode mode, Database* db,
                         const EvalOptions& options, EvalStats* stats,
                         EvalProfile* profile);

  // Maintains one stratum whose worst head impact `mode` is kDelta,
  // kShrink or kGroupRegrow, in three phases:
  //   1. grouping heads classified kGroupRegrow regrow only the partitions
  //      the inserted rows touch (RegrowGroupingRule);
  //   2. when settled deletions below reach the normal rules, the stratum
  //      either decrements the derivation counts of the head facts each
  //      deleted row derived (non-recursive, grouping-free, counted heads,
  //      at most one deleted-carrier occurrence per rule) and tombstones
  //      rows reaching zero, or runs the two DRed phases -- over-delete to
  //      fixpoint against the pre-deletion state (deleted rows transiently
  //      revived), then rederive the over-deleted facts that survive;
  //   3. the normal rules resume the seeded semi-naive fixpoint, so mixed
  //      batches finish in the same pass.
  // `removed_rows[p]` holds the tombstoned row ids of each predicate's
  // settled deletions; the handler consumes the entries of the strata
  // below and appends the stratum's own head deletions for the strata
  // above.
  Status MaintainStratum(const ProgramIr& program,
                         const std::vector<int>& rules, int stratum_index,
                         PredImpact mode, Database* db, const FixpointSeed& seed,
                         const std::vector<PredImpact>& impact,
                         std::vector<std::vector<size_t>>* removed_rows,
                         const EvalOptions& options, EvalStats* stats,
                         EvalProfile* profile);

  // In-place incremental maintenance of one eligible grouping rule (sole
  // rule for its head, negation-free, kDelta body inputs; see
  // program/impact.h). Enumerates only the body solutions that involve at
  // least one row past the seed watermarks, collects the new member values
  // per partition key, and unions them into the existing group facts --
  // replacing each affected head fact instead of clearing the relation.
  Status RegrowGroupingRule(const RuleIr& rule, Database* db,
                            const FixpointSeed& seed,
                            const EvalOptions& options, EvalStats* stats,
                            bool* derived, RuleProfileEntry* entry);

  // Applies one non-grouping rule (optionally with per-literal windows);
  // inserts derived facts. Sets *derived if anything new appeared. A
  // non-null `entry` attributes one firing plus this application's
  // counters and wall time to the rule's profile.
  Status ApplyRule(const RuleIr& rule, const std::vector<int>& order,
                   const std::vector<LiteralWindow>& windows, Database* db,
                   const EvalOptions& options, EvalStats* stats, bool* derived,
                   RuleProfileEntry* entry = nullptr);

  // Runs grouping rule(s) once over the current database, inserting results.
  Status ApplyGroupingRule(const RuleIr& rule, Database* db,
                           const EvalOptions& options, EvalStats* stats,
                           bool* derived,
                           std::vector<GroupResult>* results_out = nullptr,
                           RuleProfileEntry* entry = nullptr);

  // Fixpoint of `rule_indices` (non-grouping rules) over db. Every round
  // evaluates against the round-start snapshot: explicit [0, row_count)
  // windows keep rule N from seeing rule N-1's same-round inserts, so a
  // round's firings and derived facts do not depend on rule order, and the
  // exact carrier-window decomposition keeps derivation counts exact.
  // With a non-null `seed` the fixpoint resumes incrementally: round 0 is
  // skipped, the low watermarks start at the seed's values, and the delta
  // machinery runs regardless of options.mode.
  Status Fixpoint(const ProgramIr& program, const std::vector<int>& rule_indices,
                  int stratum_index, Database* db, const EvalOptions& options,
                  EvalStats* stats, bool* derived_any, EvalProfile* profile,
                  const FixpointSeed* seed = nullptr);

  // Profile entry for `rule`, labeled on first touch; null when `profile`
  // is null. Pointers stay valid for the evaluation (the rule table is
  // sized up front by the public entry points).
  RuleProfileEntry* ProfileEntry(EvalProfile* profile, const RuleIr& rule,
                                 int rule_index, int stratum);

  TermFactory* factory_;
  Catalog* catalog_;
  // Compiled plans survive across Fixpoint/EvaluateSaturating calls (the
  // magic path re-evaluates per query); keyed structurally, so temporary
  // rewritten programs hit the cache on identical rules. plans_ points at
  // owned_plans_ unless the constructor was handed a shared cache.
  PlanCache owned_plans_;
  PlanCache* plans_;
  // Block storage recycled across rule applications, so the many small
  // applications of a magic saturation or a delta round do not regrow their
  // blocks.
  BlockStoragePool block_storage_;
};

// The read-side core of Engine::Query: enumerates the facts of `relation`
// matching the goal's argument patterns, probing the relation's composite
// hash index on all ground scons-free argument positions. Pure read --
// concurrent callers over an immutable relation only contend on the lazy
// index build, which Relation handles internally.
StatusOr<std::vector<Tuple>> QueryRelation(TermFactory* factory,
                                           const LiteralIr& goal,
                                           const Relation& relation);

}  // namespace ldl

#endif  // LDL1_EVAL_ENGINE_H_
