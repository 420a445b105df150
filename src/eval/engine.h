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
//     fire over the saturated state, the positive part resumes from what
//     that level derived, and the loop repeats until no level derives
//     anything. A level whose inputs have not grown since it last fired is
//     not fired again. Grouped facts are reconciled per partition key; a
//     group that would shrink or change retroactively indicates a
//     non-layered source program and raises kInternal. The program's
//     orders, plans and levels are compiled into a SaturationPlan first,
//     which a caller running one program many times (a magic query shape)
//     compiles once.
//
// Evaluation is serial: one thread runs each fixpoint round, applying every
// rule (or delta variant) against the round-start windows. Concurrency
// lives above the engine -- ldl::Service readers query published
// snapshots, and scratch engines for concurrent magic queries share one
// PlanCache and run shared, immutable SaturationPlans.
#ifndef LDL1_EVAL_ENGINE_H_
#define LDL1_EVAL_ENGINE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "base/status.h"
#include "eval/cost.h"
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
  // Collect a per-rule / per-stratum EvalProfile (eval/profile.h) into the
  // EvalProfile* the caller passes alongside stats. Off, the engine never
  // reads the clock; the hot-path cost is one null test per application.
  bool profile = false;
};

// A body order resolved to its compiled plan, so that a rule fires any
// number of times without another PlanCache lookup.
struct ResolvedOrder {
  std::vector<int> order;
  std::shared_ptr<const JoinPlan> plan;
};

// One non-grouping rule of a fixpoint with its orders resolved: the default
// order (round 0 and naive rounds) and one semi-naive variant per body
// occurrence of a delta carrier, with that occurrence fronted.
struct FixpointRule {
  struct DeltaVariant {
    int occurrence;
    ResolvedOrder resolved;
    // Slot of the variant among the orders a cost-based fixpoint re-costs
    // each round; -1 when it has no ordering choice or the fixpoint orders
    // syntactically.
    int replan_slot = -1;
  };
  int rule_index;
  ResolvedOrder full;
  std::vector<DeltaVariant> variants;
};

// A program compiled for Engine::EvaluateSaturating: its rules split into
// facts, the positive fixpoint (orders resolved to plans, delta variants for
// every derived predicate) and the grouping and negation rules by
// dependency level, lowest first. Depends only on the program, which must
// be passed alongside it to every run; immutable once compiled, so
// concurrent runs may share it.
class SaturationPlan {
 private:
  friend class Engine;
  struct LevelRule {
    int rule_index;
    ResolvedOrder resolved;
  };
  struct Level {
    std::vector<size_t> grouping;  // indices into grouping_
    std::vector<size_t> negation;  // indices into negation_
    // Relational body predicates of the level's rules, positive and
    // negated: a level whose inputs hold the rows they held when it last
    // fired would derive the same facts again.
    std::vector<PredId> inputs;
  };
  size_t rule_count_ = 0;  // rules of the program it was compiled from
  std::vector<int> facts_;
  std::vector<FixpointRule> positive_;
  // Delta carriers of the positive fixpoint, sized to the catalog at
  // compile time (no rule mentions a predicate registered later): the
  // positive heads plus the grouping and negation heads, whose new facts
  // a resumed fixpoint consumes.
  std::vector<bool> delta_preds_;
  std::vector<LevelRule> grouping_;
  std::vector<LevelRule> negation_;
  std::vector<Level> levels_;
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

  // Saturation evaluation for magic-rewritten (non-layered) programs (§6):
  // CompileSaturation, then the run below. Profiled rules carry stratum -1
  // (the evaluation is unlayered).
  Status EvaluateSaturating(const ProgramIr& program, Database* db,
                            const EvalOptions& options = {},
                            EvalStats* stats = nullptr,
                            EvalProfile* profile = nullptr);

  // Resolves `program`'s orders, plans and dependency levels once. Plan
  // cache hits count into `*plan_cache_hits` when it is non-null.
  StatusOr<SaturationPlan> CompileSaturation(const ProgramIr& program,
                                             size_t* plan_cache_hits = nullptr);

  // Runs `plan`, compiled from `program`, over `db`: inserts the program's
  // facts and then `seeds` -- extra facts, numbered after the program's
  // rules in the profile (a magic query's seed fact) -- and saturates.
  Status EvaluateSaturating(const ProgramIr& program, const SaturationPlan& plan,
                            std::span<const RuleIr> seeds, Database* db,
                            const EvalOptions& options = {},
                            EvalStats* stats = nullptr,
                            EvalProfile* profile = nullptr);

  // Enumerates facts of goal's predicate matching the goal's argument
  // patterns, in row order. The goal must be positive and non-builtin.
  // Compiles the goal's GoalLookup (eval/rule_eval.h) and runs it; a
  // prepared goal holds its lookup instead. Const and safe to call from
  // concurrent readers of an immutable database.
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

    // The pre-update extent of `pred`: its rows below the watermark.
    size_t OldRows(const Database& db, PredId pred) const {
      const size_t mark = pred < watermarks->size() ? (*watermarks)[pred] : 0;
      return std::min(mark, db.relation(pred).row_count());
    }
  };

  // How Resolve picks a rule body's order. Fronting a positive occurrence
  // or binding the head's variables first only binds variables earlier, and
  // the mode table is monotone in them, so such an order exists whenever the
  // rule's default one does; windows bind to body positions, so every order
  // derives the same facts.
  struct OrderRequest {
    int front = -1;  // body occurrence evaluated first, or -1
    // Cost-based order under this model (eval/cost.h); syntactic when null.
    // An adopted order unlike the syntactic one counts in plans_reordered.
    const CostModel* costs = nullptr;
    // Bind the head's variables first; compiles a head-seeded plan.
    bool head_seeded = false;
  };

  // The resolver: picks `rule`'s order per `request` and looks its plan up
  // once (hits count into stats->plan_cache_hits). The second form looks up
  // an order already chosen; no other code touches the plan cache.
  StatusOr<ResolvedOrder> Resolve(const RuleIr& rule, const OrderRequest& request,
                                  EvalStats* stats);
  ResolvedOrder Resolve(const RuleIr& rule, std::vector<int> order,
                        bool head_seeded, EvalStats* stats);

  // The one way to run a rule: an evaluator for `resolved`, its blocks
  // drawn from the engine's pool.
  RuleEvaluator Evaluator(const RuleIr& rule, const ResolvedOrder& resolved,
                          const EvalOptions& options);

  // Inserts fact rule `rule`'s tuple (unless outside U): one profiled
  // firing, and a derived fact when it is new.
  Status InsertFact(const RuleIr& rule, int rule_index, int stratum,
                    Database* db, EvalStats* stats, EvalProfile* profile);

  // Evaluates one stratum from its input model (the profile rollup is
  // labeled `mode`: kFull, or kRecomputed under Maintain).
  Status EvaluateStratum(const ProgramIr& program, const std::vector<int>& rules,
                         int stratum_index, StratumMode mode, Database* db,
                         const EvalOptions& options, EvalStats* stats,
                         EvalProfile* profile);

  // Maintains one stratum whose worst head impact `mode` is kDelta, kShrink
  // or kGroupRegrow, in the three phases maintain.cc describes: regrow the
  // kGroupRegrow grouping heads in place, retract what settled deletions
  // below took away (derivation-count decrements or DRed), and resume the
  // seeded semi-naive fixpoint, so mixed batches finish in one pass.
  // `removed_rows[p]` holds the tombstoned row ids of each predicate's
  // settled deletions; the handler consumes the entries of the strata below
  // and appends the stratum's own head deletions for the strata above.
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

  // Applies one non-grouping rule under a resolved order (optionally with
  // per-literal windows) in one RuleFiring attributed to `entry`, driven by
  // `delta_rows` delta rows; inserts derived facts. Sets *derived if anything
  // new appeared, and then checks max_facts.
  Status ApplyRule(const RuleIr& rule, const ResolvedOrder& resolved,
                   const std::vector<LiteralWindow>& windows, Database* db,
                   const EvalOptions& options, EvalStats* stats, bool* derived,
                   RuleProfileEntry* entry, size_t delta_rows = 0);

  // Fires grouping rule `rule` once under `resolved` (a RuleFiring, like
  // ApplyRule) and hands each group (ComputeGroups, reusing `cache` when
  // non-null) to `insert` with the firing's stats: stratified evaluation
  // inserts it, saturation reconciles it per partition key.
  Status FireGrouping(
      const RuleIr& rule, const ResolvedOrder& resolved, Database* db,
      const EvalOptions& options, EvalStats* stats, RuleProfileEntry* entry,
      GroupCache* cache,
      const std::function<Status(GroupResult&, EvalStats*)>& insert);

  // Fixpoint of `rule_indices` (non-grouping rules) over db: resolves each
  // rule's orders once (CompileFixpoint), then runs them (RunFixpoint).
  // With a non-null `seed` the fixpoint resumes incrementally: round 0 is
  // skipped, the low watermarks start at the seed's values, the delta
  // machinery runs regardless of options.mode, and the carriers are the
  // heads plus the seed predicates with rows past their watermark.
  Status Fixpoint(const ProgramIr& program, const std::vector<int>& rule_indices,
                  int stratum_index, Database* db, const EvalOptions& options,
                  EvalStats* stats, bool* derived_any, EvalProfile* profile,
                  const FixpointSeed* seed = nullptr);

  // Resolves the orders of `rule_indices` and looks each one's plan up
  // once. With non-null `delta_preds`, every body occurrence of a carrier
  // gets a delta variant. With a non-null `cost_model` orders are
  // cost-based (counted in stats->plans_reordered) and every variant with
  // an ordering choice gets a replan slot; otherwise they are syntactic.
  StatusOr<std::vector<FixpointRule>> CompileFixpoint(
      const ProgramIr& program, const std::vector<int>& rule_indices,
      const std::vector<bool>* delta_preds, const CostModel* cost_model,
      EvalStats* stats);

  // Runs compiled fixpoint rules whose delta carriers are `delta_preds`.
  // Every round evaluates against the round-start snapshot: explicit
  // [0, row_count) windows keep rule N from seeing rule N-1's same-round
  // inserts, so a round's firings and derived facts do not depend on rule
  // order, and the exact carrier-window decomposition keeps derivation
  // counts exact. Variants with a replan slot are re-costed per round.
  Status RunFixpoint(const ProgramIr& program,
                     const std::vector<FixpointRule>& rules,
                     const std::vector<bool>& delta_preds, int stratum_index,
                     Database* db, const EvalOptions& options, EvalStats* stats,
                     bool* derived_any, EvalProfile* profile,
                     const FixpointSeed* seed);

  // Profile entry for `rule`, labeled on first touch; null when `profile`
  // is null. Pointers stay valid for the evaluation (the rule table is
  // sized up front by the public entry points).
  RuleProfileEntry* ProfileEntry(EvalProfile* profile, const RuleIr& rule,
                                 int rule_index, int stratum);

  TermFactory* factory_;
  Catalog* catalog_;
  // Compiled plans survive across evaluations; keyed structurally, so a
  // re-analyzed program or a recompiled magic shape hits the cache on
  // identical rules. Each Fixpoint and CompileSaturation call looks a
  // (rule, order) plan up once and its firings reuse it. plans_ points at
  // owned_plans_ unless the constructor was handed a shared cache.
  PlanCache owned_plans_;
  PlanCache* plans_;
  // Block storage recycled across rule applications, so the many small
  // applications of a magic saturation or a delta round do not regrow their
  // blocks.
  BlockStoragePool block_storage_;
};

}  // namespace ldl

#endif  // LDL1_EVAL_ENGINE_H_
