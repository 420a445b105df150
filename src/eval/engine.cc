#include "eval/engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "eval/bindings.h"
#include "eval/cost.h"
#include "eval/engine_internal.h"
#include "program/depgraph.h"
#include "term/unify.h"

namespace ldl {

namespace {

// Rounds a cardinality estimate into a profile counter (est_rows).
uint64_t EstimateToCounter(double est) {
  if (!(est > 0.0)) return 0;  // also filters NaN
  return static_cast<uint64_t>(std::llround(std::min(est, 9e18)));
}

// Replanning hysteresis: a delta variant switches to the newly costed order
// only when estimated_work(current) > kReplanCostRatio * estimated_work(best),
// which keeps plan churn (and plan-cache pressure) low when estimates wobble.
constexpr double kReplanCostRatio = 2.0;

}  // namespace

RuleProfileEntry* Engine::ProfileEntry(EvalProfile* profile, const RuleIr& rule,
                                       int rule_index, int stratum) {
  if (profile == nullptr) return nullptr;
  RuleProfileEntry& entry = profile->EntryFor(rule_index, stratum);
  if (entry.label.empty()) {
    entry.label = FormatRuleLabel(*factory_, *catalog_, rule);
  }
  return &entry;
}

StatusOr<ResolvedOrder> Engine::Resolve(const RuleIr& rule,
                                        const OrderRequest& request,
                                        EvalStats* stats) {
  std::vector<Symbol> head_vars;
  if (request.head_seeded) {
    for (const Term* arg : rule.head_args) CollectVars(arg, &head_vars);
  }
  const std::vector<Symbol>* bound = request.head_seeded ? &head_vars : nullptr;
  StatusOr<std::vector<int>> order =
      request.costs == nullptr
          ? OrderBodyLiterals(*catalog_, rule, request.front, bound)
          : OrderBodyLiteralsCostBased(*catalog_, rule, *request.costs,
                                       request.front, bound);
  if (!order.ok()) return order.status();
  if (request.costs != nullptr) {
    StatusOr<std::vector<int>> syntactic =
        OrderBodyLiterals(*catalog_, rule, request.front, bound);
    if (syntactic.ok() && syntactic.value() != order.value()) {
      ++stats->plans_reordered;
    }
  }
  return Resolve(rule, std::move(order).value(), request.head_seeded, stats);
}

ResolvedOrder Engine::Resolve(const RuleIr& rule, std::vector<int> order,
                              bool head_seeded, EvalStats* stats) {
  std::shared_ptr<const JoinPlan> plan =
      plans_->Get(rule, order, &stats->plan_cache_hits, head_seeded);
  return ResolvedOrder{std::move(order), std::move(plan)};
}

RuleEvaluator Engine::Evaluator(const RuleIr& rule, const ResolvedOrder& resolved,
                                const EvalOptions& options) {
  return RuleEvaluator(factory_, &rule, resolved.order, options.builtin_limits,
                       resolved.plan, &block_storage_);
}

Status Engine::InsertFact(const RuleIr& rule, int rule_index, int stratum,
                          Database* db, EvalStats* stats,
                          EvalProfile* profile) {
  InstantiationResult inst = InstantiateArgs(*factory_, rule.head_args, Subst());
  if (inst.unbound) return NotWellFormedError("fact with unbound variables");
  RuleProfileEntry* entry = ProfileEntry(profile, rule, rule_index, stratum);
  if (entry != nullptr) ++entry->counters.firings;
  if (!inst.outside_universe && db->AddFact(rule.head_pred, inst.tuple)) {
    ++stats->facts_derived;
    if (entry != nullptr) ++entry->counters.facts_derived;
  }
  return Status::OK();
}

Status Engine::ApplyRule(const RuleIr& rule, const ResolvedOrder& resolved,
                         const std::vector<LiteralWindow>& windows, Database* db,
                         const EvalOptions& options, EvalStats* stats,
                         bool* derived, RuleProfileEntry* entry, size_t delta_rows) {
  RuleFiring firing(stats, entry);
  firing.AddDeltaRows(delta_rows);
  // Heads are buffered, not inserted while enumerating: inserting would
  // invalidate row references for self-recursive rules.
  RowBuffer produced(rule.head_args.size());
  LDL_RETURN_IF_ERROR(Evaluator(rule, resolved, options)
                          .CollectHeads(*db, windows, &produced, firing.stats()));
  bool inserted = false;
  for (size_t i = 0; i < produced.size(); ++i) {
    if (db->AddFact(rule.head_pred, produced.row(i))) {
      inserted = true;
      ++firing.stats()->facts_derived;
    }
  }
  *derived = *derived || inserted;
  // Only an insert can push the database over the limit.
  return inserted ? CheckMaxFacts(*db, options) : Status::OK();
}

Status Engine::FireGrouping(
    const RuleIr& rule, const ResolvedOrder& resolved, Database* db,
    const EvalOptions& options, EvalStats* stats, RuleProfileEntry* entry,
    GroupCache* cache, const std::function<Status(GroupResult&, EvalStats*)>& insert) {
  RuleFiring firing(stats, entry);
  RuleEvaluator evaluator = Evaluator(rule, resolved, options);
  LDL_ASSIGN_OR_RETURN(std::vector<GroupResult> groups,
                       ComputeGroups(*factory_, evaluator, *db, firing.stats(), cache));
  for (GroupResult& group : groups) {
    LDL_RETURN_IF_ERROR(insert(group, firing.stats()));
  }
  return Status::OK();
}

StatusOr<std::vector<FixpointRule>> Engine::CompileFixpoint(
    const ProgramIr& program, const std::vector<int>& rule_indices,
    const std::vector<bool>* delta_preds, const CostModel* cost_model,
    EvalStats* stats) {
  std::vector<FixpointRule> compiled;
  compiled.reserve(rule_indices.size());
  int replan_slots = 0;
  for (int r : rule_indices) {
    const RuleIr& rule = program.rules[r];
    FixpointRule c;
    c.rule_index = r;
    LDL_ASSIGN_OR_RETURN(c.full, Resolve(rule, {.costs = cost_model}, stats));
    if (delta_preds != nullptr) {
      // A variant has an ordering choice only with at least two positive
      // literals besides the pinned occurrence; the others skip the
      // per-round replanning pass (snapshot + re-cost) wholesale, which
      // keeps the planner's per-round overhead at zero for the common
      // linear-recursion shape.
      int positives = 0;
      std::vector<int> carriers;
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const LiteralIr& literal = rule.body[i];
        if (literal.is_builtin() || literal.negated) continue;
        ++positives;
        if (literal.pred < delta_preds->size() && (*delta_preds)[literal.pred]) {
          carriers.push_back(static_cast<int>(i));
        }
      }
      for (int occurrence : carriers) {
        FixpointRule::DeltaVariant variant;
        variant.occurrence = occurrence;
        if (cost_model != nullptr && positives >= 3) {
          variant.replan_slot = replan_slots++;
        }
        LDL_ASSIGN_OR_RETURN(
            variant.resolved,
            Resolve(rule, {.front = occurrence, .costs = cost_model}, stats));
        c.variants.push_back(std::move(variant));
      }
    }
    compiled.push_back(std::move(c));
  }
  return compiled;
}

Status Engine::Fixpoint(const ProgramIr& program, const std::vector<int>& rule_indices,
                        int stratum_index, Database* db, const EvalOptions& options,
                        EvalStats* stats, bool* derived_any, EvalProfile* profile,
                        const FixpointSeed* seed) {
  // The catalog may grow while this runs (a concurrent reader's magic
  // rewrite or a write registers predicates), so every per-predicate array
  // is sized to the catalog as it is here. Predicates registered later
  // cannot occur in these rules.
  const size_t pred_count = catalog_->size();
  // Delta carriers: the IDB heads of this fixpoint, plus -- resuming
  // incrementally -- the seed predicates with rows past their watermark.
  std::vector<bool> delta_preds(pred_count, false);
  for (int r : rule_indices) delta_preds[program.rules[r].head_pred] = true;
  // A seeded resume always runs the semi-naive machinery: the model is
  // already a fixpoint over the pre-update inputs, so only the delta rows
  // can produce anything new -- and without any there is nothing to
  // compile either.
  const bool seminaive =
      options.mode == EvalOptions::Mode::kSemiNaive || seed != nullptr;
  if (seed != nullptr) {
    const Database& view = *db;
    bool any_delta = false;
    for (PredId p = 0; p < pred_count; ++p) {
      if (view.relation(p).row_count() == seed->OldRows(view, p)) continue;
      if (p < seed->delta_preds->size() && (*seed->delta_preds)[p]) {
        delta_preds[p] = true;
      }
      any_delta = any_delta || delta_preds[p];
    }
    if (!any_delta) {
      for (int r : rule_indices) {
        ProfileEntry(profile, program.rules[r], r, stratum_index);
      }
      return Status::OK();
    }
  }
  LDL_RETURN_IF_ERROR(CheckMaxFacts(*db, options));
  // Entry-time cost model for the initial order choice, taken before round
  // 0 touches the database. Seeded resumes (the incremental insert/delete
  // paths) always order syntactically: their windows are tiny, so per-call
  // planning would dominate the microsecond-scale maintenance work it is
  // meant to save.
  const bool cost_based = options.cost_based && seed == nullptr;
  CostModel entry_model;
  if (cost_based) entry_model = CostModel::Snapshot(*db, *catalog_);
  LDL_ASSIGN_OR_RETURN(
      std::vector<FixpointRule> rules,
      CompileFixpoint(program, rule_indices, seminaive ? &delta_preds : nullptr,
                      cost_based ? &entry_model : nullptr, stats));
  if (profile != nullptr && cost_based) {
    // Round 0 applies the default order over the full database; log its
    // estimate so mis-estimates show up next to `solutions`.
    for (const FixpointRule& c : rules) {
      const RuleIr& rule = program.rules[c.rule_index];
      ProfileEntry(profile, rule, c.rule_index, stratum_index)
          ->counters.est_rows += EstimateToCounter(
          EstimateOrderCost(rule, c.full.order, entry_model).out_rows);
    }
  }
  return RunFixpoint(program, rules, delta_preds, stratum_index, db, options,
                     stats, derived_any, profile, seed);
}

Status Engine::RunFixpoint(const ProgramIr& program,
                           const std::vector<FixpointRule>& rules,
                           const std::vector<bool>& delta_preds,
                           int stratum_index, Database* db,
                           const EvalOptions& options, EvalStats* stats,
                           bool* derived_any, EvalProfile* profile,
                           const FixpointSeed* seed) {
  // Row counts are read through the const view: a bound query's scratch
  // database serves its EDB predicates from a read-through base
  // (Database::ReadThrough), which only relation() const resolves.
  const Database& view = *db;
  const size_t pred_count = delta_preds.size();
  const bool seminaive =
      options.mode == EvalOptions::Mode::kSemiNaive || seed != nullptr;
  if (profile != nullptr) {
    // Label every rule's profile entry up front, fired or not.
    for (const FixpointRule& c : rules) {
      ProfileEntry(profile, program.rules[c.rule_index], c.rule_index,
                   stratum_index);
    }
  }

  // The current order of every replannable variant: starts at the compiled
  // one and switches when a round's re-costing finds a much cheaper one.
  std::vector<ResolvedOrder> replanned;
  for (const FixpointRule& c : rules) {
    for (const FixpointRule::DeltaVariant& v : c.variants) {
      // CompileFixpoint numbers the slots in this same order.
      if (v.replan_slot >= 0) replanned.push_back(v.resolved);
    }
  }
  auto current = [&](const FixpointRule::DeltaVariant& v) -> ResolvedOrder& {
    return replanned[v.replan_slot];
  };

  // Low watermarks: from scratch, round 0 consumes everything and the
  // deltas start at the pre-round row counts; a seeded resume starts each
  // delta carrier at its previous-evaluation watermark so the first round
  // consumes exactly the inserted rows.
  std::vector<size_t> low(pred_count, 0);
  for (PredId p = 0; p < pred_count; ++p) {
    if (!delta_preds[p]) continue;
    if (seed != nullptr) {
      low[p] = seed->OldRows(view, p);
    } else if (seminaive) {
      low[p] = view.relation(p).row_count();
    }
  }
  // Full application (round 0 and every naive round): every rule applied
  // against explicit [0, row_count) round-start windows, so rule N never
  // sees rule N-1's (or its own) same-round inserts. The golden firing and
  // round counts pin this round-start semantics.
  auto full_round = [&](bool* derived) -> Status {
    std::vector<size_t> snap(pred_count);
    for (PredId p = 0; p < pred_count; ++p) {
      snap[p] = view.relation(p).row_count();
    }
    for (const FixpointRule& c : rules) {
      const RuleIr& rule = program.rules[c.rule_index];
      LDL_RETURN_IF_ERROR(ApplyRule(
          rule, c.full,
          PositiveWindows(rule, [&](PredId p, size_t) { return snap[p]; }),
          db, options, stats, derived,
          ProfileEntry(profile, rule, c.rule_index, stratum_index)));
    }
    return Status::OK();
  };

  bool derived = false;
  if (seed == nullptr) {
    // Round 0: every rule over the full database. A seeded resume skips it;
    // the database already holds the pre-update fixpoint.
    LDL_RETURN_IF_ERROR(full_round(&derived));
    *derived_any = *derived_any || derived;
    ++stats->iterations;
  }

  if (!seminaive) {
    while (derived) {
      if (stats->iterations >= options.max_rounds) {
        return ResourceExhaustedError("fixpoint exceeded max_rounds");
      }
      derived = false;
      LDL_RETURN_IF_ERROR(full_round(&derived));
      *derived_any = *derived_any || derived;
      ++stats->iterations;
    }
    return Status::OK();
  }

  // Semi-naive rounds: one body occurrence ranges over the delta window,
  // everything else over the full relation.
  for (;;) {
    if (stats->iterations >= options.max_rounds) {
      return ResourceExhaustedError("fixpoint exceeded max_rounds");
    }
    // Snapshot delta windows [low, high) per predicate.
    std::vector<size_t> high(pred_count, 0);
    bool any_delta = false;
    for (PredId p = 0; p < pred_count; ++p) {
      if (!delta_preds[p]) continue;
      high[p] = view.relation(p).row_count();
      if (high[p] > low[p]) any_delta = true;
    }
    if (!any_delta) break;

    // Adaptive replanning: delta windows have wildly different
    // cardinalities than the full relations the entry-time orders were
    // priced against, and the balance drifts as the fixpoint grows the IDB.
    // Re-cost each live replannable variant against this round's window
    // sizes ([low, high) for the pinned occurrence, [0, low) for later
    // carriers) and switch its order -- and plan -- when the current one is
    // estimated at more than kReplanCostRatio times the best. Every input
    // is a round-start snapshot, so the choice does not depend on rule
    // order within a round. Without replannable variants the snapshot is
    // never taken, so linear recursion pays nothing per round.
    if (!replanned.empty()) {
      CostModel round_model = CostModel::Snapshot(*db, *catalog_);
      std::vector<double> literal_rows;  // per body position; < 0 = model
      for (const FixpointRule& c : rules) {
        const RuleIr& rule = program.rules[c.rule_index];
        for (const FixpointRule::DeltaVariant& v : c.variants) {
          if (v.replan_slot < 0) continue;
          ResolvedOrder& resolved = current(v);
          PredId delta_pred = rule.body[v.occurrence].pred;
          if (high[delta_pred] <= low[delta_pred]) continue;
          literal_rows.assign(rule.body.size(), -1.0);
          for (size_t i = 0; i < rule.body.size(); ++i) {
            const LiteralIr& literal = rule.body[i];
            if (literal.is_builtin() || literal.negated) continue;
            if (static_cast<int>(i) > v.occurrence && delta_preds[literal.pred]) {
              literal_rows[i] = static_cast<double>(low[literal.pred]);
            }
          }
          literal_rows[v.occurrence] =
              static_cast<double>(high[delta_pred] - low[delta_pred]);
          OrderCost current_cost = EstimateOrderCost(rule, resolved.order,
                                                     round_model, &literal_rows);
          StatusOr<std::vector<int>> best = OrderBodyLiteralsCostBased(
              *catalog_, rule, round_model, v.occurrence,
              /*initially_bound=*/nullptr, &literal_rows);
          // A failed forced order keeps the current (fallback) one.
          if (best.ok() && best.value() != resolved.order) {
            OrderCost best_cost = EstimateOrderCost(rule, best.value(),
                                                    round_model, &literal_rows);
            if (current_cost.total_work >
                kReplanCostRatio * best_cost.total_work) {
              resolved = Resolve(rule, std::move(best).value(),
                                 /*head_seeded=*/false, stats);
              current_cost = best_cost;
              ++stats->replans;
            }
          }
          RuleProfileEntry* entry =
              ProfileEntry(profile, rule, c.rule_index, stratum_index);
          if (entry != nullptr) {
            entry->counters.est_rows += EstimateToCounter(current_cost.out_rows);
          }
        }
      }
    }

    derived = false;
    // Round-start snapshot for the non-delta occurrences: the windows pin
    // every positive literal to [0, row_count-at-round-start) (the delta
    // occurrence to its [low, high) slice), so a variant never sees rows
    // inserted earlier in the same round.
    //
    // Exact decomposition across delta carriers: when several body
    // positions carry deltas, the variant pinning occurrence i gives
    // carrier positions *before* i the full round-start window (NEW) and
    // carrier positions *after* i only the pre-round rows (OLD,
    // [0, low)). Every solution touching >= 1 delta row is then found by
    // exactly one variant -- the one pinning its *first* delta position --
    // so derivation counts stay exact under multi-delta joins.
    std::vector<size_t> snap(pred_count);
    for (PredId p = 0; p < pred_count; ++p) {
      snap[p] = view.relation(p).row_count();
    }
    for (const FixpointRule& c : rules) {
      const RuleIr& rule = program.rules[c.rule_index];
      for (const FixpointRule::DeltaVariant& v : c.variants) {
        PredId delta_pred = rule.body[v.occurrence].pred;
        if (high[delta_pred] <= low[delta_pred]) continue;
        std::vector<LiteralWindow> windows =
            PositiveWindows(rule, [&](PredId p, size_t i) {
              return delta_preds[p] && static_cast<int>(i) > v.occurrence
                         ? low[p]
                         : snap[p];
            });
        windows[v.occurrence] = {low[delta_pred], high[delta_pred]};
        LDL_RETURN_IF_ERROR(ApplyRule(
            rule, v.replan_slot < 0 ? v.resolved : current(v), windows, db, options,
            stats, &derived, ProfileEntry(profile, rule, c.rule_index, stratum_index),
            high[delta_pred] - low[delta_pred]));
      }
    }
    for (PredId p = 0; p < pred_count; ++p) {
      if (delta_preds[p]) low[p] = high[p];
    }
    *derived_any = *derived_any || derived;
    ++stats->iterations;
    // A round that derived nothing can still leave deltas (rows added late
    // in the round); the loop header's watermark comparison runs them.
  }
  return Status::OK();
}

Status Engine::EvaluateStratum(const ProgramIr& program, const std::vector<int>& rules,
                               int stratum_index, StratumMode mode, Database* db,
                               const EvalOptions& options, EvalStats* stats,
                               EvalProfile* profile) {
  StratumRollup rollup(profile, stats, stratum_index, mode);
  std::vector<int> grouping_rules;
  std::vector<int> normal_rules;
  bool derived = false;
  for (int r : rules) {
    const RuleIr& rule = program.rules[r];
    if (rule.is_fact()) {
      LDL_RETURN_IF_ERROR(InsertFact(rule, r, stratum_index, db, stats, profile));
    } else if (rule.is_grouping()) {
      grouping_rules.push_back(r);
    } else {
      normal_rules.push_back(r);
    }
  }

  // Lemma 3.2.3: grouping rules fire once, over the stratum's input model
  // (their bodies depend only on strictly lower layers, which no rule of
  // this stratum mutates -- so the per-rule snapshot prices the input model
  // whatever grouping rules ran before this one).
  for (int r : grouping_rules) {
    const RuleIr& rule = program.rules[r];
    CostModel costs;
    if (options.cost_based) costs = CostModel::Snapshot(*db, *catalog_);
    LDL_ASSIGN_OR_RETURN(
        ResolvedOrder resolved,
        Resolve(rule, {.costs = options.cost_based ? &costs : nullptr}, stats));
    LDL_RETURN_IF_ERROR(FireGrouping(
        rule, resolved, db, options, stats, ProfileEntry(profile, rule, r, stratum_index),
        /*cache=*/nullptr, [&](GroupResult& group, EvalStats* s) {
          if (db->AddFact(rule.head_pred, group.fact)) {
            derived = true;
            ++s->facts_derived;
          }
          return Status::OK();
        }));
  }
  if (!normal_rules.empty()) {
    LDL_RETURN_IF_ERROR(Fixpoint(program, normal_rules, stratum_index, db,
                                 options, stats, &derived, profile));
  }
  rollup.Finish();
  return Status::OK();
}

namespace {

// Turns on derivation counting for the head relations of every
// non-recursive, grouping-free stratum before a from-scratch semi-naive
// evaluation. Counts are only exact when each body solution is enumerated
// once, which holds for the single full-application round a non-recursive
// stratum runs (and for the exactly-decomposed delta resumes later); a
// recursive fixpoint revisits solutions across rounds, and grouping
// reconciliation erases/reinserts head facts, so those strata stay
// uncounted and deletions there go through DRed. EnableCounts is a no-op on
// non-empty relations, so a db that somehow already holds IDB rows simply
// stays uncounted (conservative).
void EnableDerivationCounts(const ProgramIr& program,
                            const Stratification& stratification, Database* db) {
  for (const std::vector<int>& rules : stratification.strata) {
    std::vector<PredId> heads;
    bool eligible = true;
    for (int r : rules) {
      if (program.rules[r].is_grouping()) {
        eligible = false;
        break;
      }
      heads.push_back(program.rules[r].head_pred);
    }
    if (!eligible) continue;
    for (int r : rules) {
      for (const LiteralIr& literal : program.rules[r].body) {
        if (literal.is_builtin() || literal.negated) continue;
        if (std::find(heads.begin(), heads.end(), literal.pred) != heads.end()) {
          eligible = false;  // recursive stratum
          break;
        }
      }
      if (!eligible) break;
    }
    if (!eligible) continue;
    for (PredId head : heads) db->relation(head).EnableCounts();
  }
}

}  // namespace

Status Engine::EvaluateProgram(const ProgramIr& program,
                               const Stratification& stratification, Database* db,
                               const EvalOptions& options, EvalStats* stats,
                               EvalProfile* profile) {
  EvaluationScope scope(factory_, options, stats, profile, program.rules.size());
  if (options.mode == EvalOptions::Mode::kSemiNaive) {
    EnableDerivationCounts(program, stratification, db);
  }
  for (size_t s = 0; s < stratification.strata.size(); ++s) {
    LDL_RETURN_IF_ERROR(EvaluateStratum(
        program, stratification.strata[s], static_cast<int>(s),
        StratumMode::kFull, db, options, scope.stats(), scope.profile()));
  }
  return Status::OK();
}

StatusOr<SaturationPlan> Engine::CompileSaturation(const ProgramIr& program,
                                                   size_t* plan_cache_hits) {
  SaturationPlan plan;
  plan.rule_count_ = program.rules.size();
  plan.delta_preds_.assign(catalog_->size(), false);
  std::vector<int> positive_rules;
  std::vector<int> grouping_rules;
  std::vector<int> negation_rules;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const RuleIr& rule = program.rules[r];
    if (rule.is_fact()) {
      plan.facts_.push_back(static_cast<int>(r));
      continue;
    }
    plan.delta_preds_[rule.head_pred] = true;
    if (rule.is_grouping()) {
      grouping_rules.push_back(static_cast<int>(r));
    } else if (rule.has_negation()) {
      negation_rules.push_back(static_cast<int>(r));
    } else {
      positive_rules.push_back(static_cast<int>(r));
    }
  }

  // The saturating evaluator always orders syntactically: it runs in a
  // scratch database where every adorned predicate starts empty (entry
  // statistics carry no signal about the sizes the fixpoint will reach),
  // and a plan compiled once serves every bound query of a shape, so
  // cost-based planning would have to be repaid on every run.
  EvalStats compile_stats;
  LDL_ASSIGN_OR_RETURN(plan.positive_,
                       CompileFixpoint(program, positive_rules,
                                       &plan.delta_preds_,
                                       /*cost_model=*/nullptr, &compile_stats));
  for (int r : grouping_rules) {
    LDL_ASSIGN_OR_RETURN(ResolvedOrder resolved,
                         Resolve(program.rules[r], {}, &compile_stats));
    plan.grouping_.push_back({r, std::move(resolved)});
  }
  for (int r : negation_rules) {
    LDL_ASSIGN_OR_RETURN(ResolvedOrder resolved,
                         Resolve(program.rules[r], {}, &compile_stats));
    plan.negation_.push_back({r, std::move(resolved)});
  }

  // Grouping and negation rules are not monotone, and the saturation never
  // retracts a fact: each must fire over a state in which everything it
  // reads is complete for the current magic facts, or it emits a partial
  // group or a negation that a later fact falsifies. They fire one
  // dependency level at a time, lowest first, and after any level that
  // derived something the positive part is saturated again before a higher
  // level fires. That also derives the magic facts of negated literals
  // whose bindings come from a grouping or negation rule. A level is the
  // strongly connected component of the rule's head once the edges into
  // magic predicates are left out: those only carry demand, which the
  // saturation derives in between, and without them the components follow
  // the layering of the source program.
  //
  // A single such rule needs no order, so the graph is built only for more.
  int component_count = 1;
  std::vector<int> component;
  if (grouping_rules.size() + negation_rules.size() > 1) {
    component = DepGraph::Build(*catalog_, program)
                    .StronglyConnectedComponents(&component_count);
  }
  std::vector<SaturationPlan::Level> levels(
      static_cast<size_t>(component_count));
  auto level_of = [&](int r) -> SaturationPlan::Level& {
    const RuleIr& rule = program.rules[r];
    SaturationPlan::Level& level =
        levels[component.empty() ? 0 : component[rule.head_pred]];
    for (const LiteralIr& literal : rule.body) {
      if (!literal.is_builtin()) level.inputs.push_back(literal.pred);
    }
    return level;
  };
  for (size_t g = 0; g < grouping_rules.size(); ++g) {
    level_of(grouping_rules[g]).grouping.push_back(g);
  }
  for (size_t i = 0; i < negation_rules.size(); ++i) {
    level_of(negation_rules[i]).negation.push_back(i);
  }
  std::erase_if(levels, [](const SaturationPlan::Level& level) {
    return level.grouping.empty() && level.negation.empty();
  });
  for (SaturationPlan::Level& level : levels) {
    std::sort(level.inputs.begin(), level.inputs.end());
    level.inputs.erase(std::unique(level.inputs.begin(), level.inputs.end()),
                       level.inputs.end());
  }
  plan.levels_ = std::move(levels);
  if (plan_cache_hits != nullptr) {
    *plan_cache_hits += compile_stats.plan_cache_hits;
  }
  return plan;
}

Status Engine::EvaluateSaturating(const ProgramIr& program, Database* db,
                                  const EvalOptions& options, EvalStats* stats,
                                  EvalProfile* profile) {
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  LDL_ASSIGN_OR_RETURN(SaturationPlan plan,
                       CompileSaturation(program, &stats->plan_cache_hits));
  return EvaluateSaturating(program, plan, {}, db, options, stats, profile);
}

Status Engine::EvaluateSaturating(const ProgramIr& program,
                                  const SaturationPlan& plan,
                                  std::span<const RuleIr> seeds, Database* db,
                                  const EvalOptions& options, EvalStats* stats,
                                  EvalProfile* profile) {
  if (plan.rule_count_ != program.rules.size()) {
    return InternalError("saturation plan was compiled from another program");
  }
  EvaluationScope scope(factory_, options, stats, profile,
                        program.rules.size() + seeds.size());
  stats = scope.stats();
  profile = scope.profile();
  // The saturation loop is unlayered; report it as one pseudo-stratum -1.
  StratumRollup rollup(profile, stats, /*stratum=*/-1, StratumMode::kFull);
  LDL_RETURN_IF_ERROR(CheckMaxFacts(*db, options));
  for (int r : plan.facts_) {
    LDL_RETURN_IF_ERROR(InsertFact(program.rules[r], r, -1, db, stats, profile));
  }
  for (size_t i = 0; i < seeds.size(); ++i) {
    LDL_RETURN_IF_ERROR(InsertFact(seeds[i],
                                   static_cast<int>(program.rules.size() + i),
                                   -1, db, stats, profile));
  }

  // Per grouping rule: partition key -> emitted fact, for reconciliation.
  std::vector<std::unordered_map<Tuple, Tuple, TupleHash>> emitted(
      plan.grouping_.size());
  // Per grouping rule: cross-round group cache. Grouping rules re-fire each
  // global round over a monotonically grown database; partitions whose
  // member count is unchanged reuse the cached canonical fact instead of
  // re-sorting and re-interning (see GroupCacheEntry).
  std::vector<GroupCache> group_caches(plan.grouping_.size());

  // Group facts a regrown group replaced: the only rows the loop removes.
  size_t retracted = 0;

  // Adds a group of grouping rule g, reconciled per partition key.
  auto reconcile = [&](size_t g, GroupResult& group, EvalStats* s,
                       bool* changed) -> Status {
    const RuleIr& rule = program.rules[plan.grouping_[g].rule_index];
    auto it = emitted[g].find(group.key);
    if (it == emitted[g].end()) {
      if (db->AddFact(rule.head_pred, group.fact)) {
        *changed = true;
        ++s->facts_derived;
      }
      emitted[g].emplace(std::move(group.key), std::move(group.fact));
      return Status::OK();
    }
    if (it->second == group.fact) return Status::OK();
    // The group regrew after it was first emitted. For admissible source
    // programs the per-magic-tuple body is complete before the group
    // first fires, so this indicates a non-layered source (see §6
    // discussion). Replace, but only if the old fact is not claimed by
    // another grouping rule, and require monotone growth.
    const Term* old_set = it->second[rule.group_index];
    const Term* new_set = group.fact[rule.group_index];
    if (!old_set->is_set() || !new_set->is_set() ||
        factory_->SetDifference(old_set, new_set)->size() != 0) {
      return InternalError(
          "a grouped set changed non-monotonically during magic "
          "evaluation; source program is not admissible");
    }
    bool claimed_elsewhere = false;
    for (size_t other = 0; other < emitted.size(); ++other) {
      if (other == g) continue;
      for (const auto& [key, fact] : emitted[other]) {
        if (fact == it->second &&
            program.rules[plan.grouping_[other].rule_index].head_pred ==
                rule.head_pred) {
          claimed_elsewhere = true;
          break;
        }
      }
      if (claimed_elsewhere) break;
    }
    if (!claimed_elsewhere) {
      db->relation(rule.head_pred).Erase(it->second);
      ++retracted;
    }
    if (db->AddFact(rule.head_pred, group.fact)) ++s->facts_derived;
    it->second = std::move(group.fact);
    *changed = true;
    return Status::OK();
  };

  // Row counts are read through the const view (see RunFixpoint).
  const Database& view = *db;
  // Per level: whether it has fired, and its inputs' row counts (and the
  // retraction count) then. Apart from those retractions the saturation
  // only adds rows, so equal counts mean equal inputs, and a level over
  // equal inputs derives what it already derived.
  std::vector<bool> fired(plan.levels_.size(), false);
  std::vector<std::vector<size_t>> fired_inputs(plan.levels_.size());
  std::vector<size_t> inputs;
  // Row counts before the level that last derived something fired: the
  // positive part resumes from them instead of starting over at round 0.
  std::vector<size_t> watermarks(plan.delta_preds_.size());
  const FixpointSeed resume{&watermarks, &plan.delta_preds_};
  bool resuming = false;
  for (size_t round = 0;; ++round) {
    if (round >= options.max_rounds) {
      return ResourceExhaustedError("saturation exceeded max_rounds");
    }

    // 1. Saturate the positive, non-grouping part. For a given set of magic
    //    facts this fully evaluates every predicate a grouping or negated
    //    body below may consult (§6's "fully evaluate per magic tuple").
    if (!plan.positive_.empty()) {
      bool derived = false;
      LDL_RETURN_IF_ERROR(RunFixpoint(program, plan.positive_,
                                      plan.delta_preds_, /*stratum_index=*/-1,
                                      db, options, stats, &derived, profile,
                                      resuming ? &resume : nullptr));
    }

    // 2. The lowest level that derives something; the next round saturates
    //    its consequences before any higher level reads them. The levels
    //    below it derived nothing, so the counts taken here are the ones it
    //    fired over.
    for (PredId p = 0; p < watermarks.size(); ++p) {
      watermarks[p] = view.relation(p).row_count();
    }
    bool changed = false;
    for (size_t l = 0; l < plan.levels_.size() && !changed; ++l) {
      const SaturationPlan::Level& level = plan.levels_[l];
      inputs.clear();
      for (PredId pred : level.inputs) {
        inputs.push_back(view.relation(pred).row_count());
      }
      inputs.push_back(retracted);
      if (fired[l] && inputs == fired_inputs[l]) continue;
      fired[l] = true;
      fired_inputs[l] = inputs;
      for (size_t g : level.grouping) {
        const SaturationPlan::LevelRule& compiled = plan.grouping_[g];
        const RuleIr& rule = program.rules[compiled.rule_index];
        LDL_RETURN_IF_ERROR(FireGrouping(
            rule, compiled.resolved, db, options, stats,
            ProfileEntry(profile, rule, compiled.rule_index, /*stratum=*/-1),
            &group_caches[g], [&](GroupResult& group, EvalStats* s) {
              return reconcile(g, group, s, &changed);
            }));
      }
      for (size_t i : level.negation) {
        const SaturationPlan::LevelRule& compiled = plan.negation_[i];
        const RuleIr& rule = program.rules[compiled.rule_index];
        LDL_RETURN_IF_ERROR(ApplyRule(
            rule, compiled.resolved, {}, db, options, stats, &changed,
            ProfileEntry(profile, rule, compiled.rule_index, /*stratum=*/-1)));
      }
    }

    if (!changed) break;
    resuming = true;
  }
  rollup.Finish();
  return Status::OK();
}

StatusOr<std::vector<Tuple>> Engine::Query(const LiteralIr& goal,
                                           const Database& db) const {
  if (goal.is_builtin() || goal.negated) {
    return InvalidArgumentError("queries must be positive, non-builtin literals");
  }
  return GoalLookup(*factory_, goal.args).Run(*factory_, db.relation(goal.pred));
}

}  // namespace ldl
