#include "eval/engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "base/str_util.h"
#include "eval/bindings.h"
#include "eval/cost.h"
#include "eval/engine_internal.h"
#include "term/unify.h"

namespace ldl {

namespace {

// Body literal occurrences whose predicate is in `idb` (candidates for
// semi-naive delta positioning).
std::vector<int> RecursiveOccurrences(const RuleIr& rule,
                                      const std::vector<bool>& idb) {
  std::vector<int> result;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const LiteralIr& literal = rule.body[i];
    if (!literal.is_builtin() && !literal.negated && literal.pred < idb.size() &&
        idb[literal.pred]) {
      result.push_back(static_cast<int>(i));
    }
  }
  return result;
}

// Rounds a cardinality estimate into a profile counter (est_rows).
uint64_t EstimateToCounter(double est) {
  if (!(est > 0.0)) return 0;  // also filters NaN
  return static_cast<uint64_t>(std::llround(std::min(est, 9e18)));
}

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

Status Engine::ApplyRule(const RuleIr& rule, const std::vector<int>& order,
                         const std::vector<LiteralWindow>& windows, Database* db,
                         const EvalOptions& options, EvalStats* stats,
                         bool* derived, RuleProfileEntry* entry) {
  // When profiling, counters collect into a rule-local EvalStats first so
  // this application's share can be attributed before folding into the
  // evaluation totals.
  EvalStats local_stats;
  EvalStats* s = entry != nullptr ? &local_stats : stats;
  ScopedWallTimer timer(entry != nullptr ? &entry->counters.wall_ns : nullptr);

  RuleEvaluator evaluator(factory_, &rule, order, options.builtin_limits,
                          plans_->Get(rule, order, &s->plan_cache_hits),
                          &block_storage_);
  ++s->rule_firings;

  // Heads are buffered, not inserted while enumerating: inserting would
  // invalidate row references for self-recursive rules.
  RowBuffer produced(rule.head_args.size());
  LDL_RETURN_IF_ERROR(evaluator.CollectHeads(*db, windows, &produced, s));

  for (size_t i = 0; i < produced.size(); ++i) {
    if (db->AddFact(rule.head_pred, produced.row(i))) {
      *derived = true;
      ++s->facts_derived;
    }
  }
  if (entry != nullptr) {
    ++entry->counters.firings;
    AttributeStats(entry, local_stats);
    stats->Add(local_stats);
  }
  if (db->TotalFacts() > options.max_facts) {
    return ResourceExhaustedError(
        StrCat("database exceeded max_facts = ", options.max_facts,
               " (non-terminating program?)"));
  }
  return Status::OK();
}

Status Engine::ApplyGroupingRule(const RuleIr& rule, Database* db,
                                 const EvalOptions& options, EvalStats* stats,
                                 bool* derived,
                                 std::vector<GroupResult>* results_out,
                                 RuleProfileEntry* entry) {
  EvalStats local_stats;
  EvalStats* s = entry != nullptr ? &local_stats : stats;
  ScopedWallTimer timer(entry != nullptr ? &entry->counters.wall_ns : nullptr);

  // A grouping rule's body reads only strictly lower layers, which no rule
  // of this stratum mutates -- so the per-rule snapshot here prices the
  // stratum's input model whatever grouping rules ran before this one.
  std::vector<int> order;
  if (options.cost_based) {
    LDL_ASSIGN_OR_RETURN(
        order, OrderBodyLiteralsCostBased(*catalog_, rule,
                                          CostModel::Snapshot(*db, *catalog_)));
  } else {
    LDL_ASSIGN_OR_RETURN(order, OrderBodyLiterals(*catalog_, rule));
  }
  std::shared_ptr<const JoinPlan> plan =
      plans_->Get(rule, order, &s->plan_cache_hits);
  RuleEvaluator evaluator(factory_, &rule, order, options.builtin_limits,
                          std::move(plan), &block_storage_);
  ++s->rule_firings;
  LDL_ASSIGN_OR_RETURN(std::vector<GroupResult> groups,
                       ComputeGroups(*factory_, evaluator, *db, s));
  for (const GroupResult& group : groups) {
    if (db->AddFact(rule.head_pred, group.fact)) {
      *derived = true;
      ++s->facts_derived;
    }
  }
  if (entry != nullptr) {
    ++entry->counters.firings;
    AttributeStats(entry, local_stats);
    stats->Add(local_stats);
  }
  if (results_out != nullptr) *results_out = std::move(groups);
  return Status::OK();
}

Status Engine::Fixpoint(const ProgramIr& program, const std::vector<int>& rule_indices,
                        int stratum_index, Database* db, const EvalOptions& options,
                        EvalStats* stats, bool* derived_any, EvalProfile* profile,
                        const FixpointSeed* seed) {
  // IDB predicates of this fixpoint: heads of the participating rules.
  std::vector<bool> idb(catalog_->size(), false);
  for (int r : rule_indices) idb[program.rules[r].head_pred] = true;

  // Delta carriers: the IDB heads, plus the seed's externally changed
  // predicates when resuming incrementally.
  std::vector<bool> delta_preds = idb;
  if (seed != nullptr) {
    for (PredId p = 0; p < delta_preds.size() && p < seed->delta_preds->size();
         ++p) {
      if ((*seed->delta_preds)[p]) delta_preds[p] = true;
    }
  }
  // A seeded resume always runs the semi-naive machinery: the model is
  // already a fixpoint over the pre-update inputs, so only the delta rows
  // can produce anything new.
  const bool seminaive =
      options.mode == EvalOptions::Mode::kSemiNaive || seed != nullptr;

  struct Compiled {
    const RuleIr* rule;
    std::vector<int> default_order;
    // (occurrence, order) pairs for semi-naive delta variants.
    std::vector<std::pair<int, std::vector<int>>> delta_variants;
    // Whether each variant has an ordering choice at all: with fewer than
    // two positive literals besides the pinned occurrence there is nothing
    // to reorder, and the per-round replanning pass (snapshot + re-cost)
    // skips the variant -- this keeps the planner's per-round overhead at
    // zero for the common linear-recursion shape.
    std::vector<bool> replannable;
    // Profile entry (null when profiling is off); cached across rounds, so
    // the profile's rule table must not reallocate (ReserveRules).
    RuleProfileEntry* entry = nullptr;
  };
  // Entry-time cost model for the initial order choice, taken before round
  // 0 touches the database. Seeded resumes (the incremental insert/delete
  // paths) always order syntactically: their windows are tiny, so per-call
  // planning would dominate the microsecond-scale maintenance work it is
  // meant to save.
  const bool cost_based = options.cost_based && seed == nullptr;
  CostModel entry_model;
  if (cost_based) entry_model = CostModel::Snapshot(*db, *catalog_);
  auto choose_order = [&](const RuleIr& rule,
                          int forced) -> StatusOr<std::vector<int>> {
    if (!cost_based) return OrderBodyLiterals(*catalog_, rule, forced);
    StatusOr<std::vector<int>> order =
        OrderBodyLiteralsCostBased(*catalog_, rule, entry_model, forced);
    if (order.ok()) {
      // Observability: count adopted cost-based orders that differ from
      // what the syntactic heuristic would have picked.
      StatusOr<std::vector<int>> syntactic =
          OrderBodyLiterals(*catalog_, rule, forced);
      if (syntactic.ok() && syntactic.value() != order.value()) {
        ++stats->plans_reordered;
      }
    }
    return order;
  };

  std::vector<Compiled> compiled;
  compiled.reserve(rule_indices.size());
  for (int r : rule_indices) {
    const RuleIr& rule = program.rules[r];
    Compiled c;
    c.rule = &rule;
    c.entry = ProfileEntry(profile, rule, r, stratum_index);
    LDL_ASSIGN_OR_RETURN(c.default_order, choose_order(rule, -1));
    if (c.entry != nullptr && cost_based) {
      // Round 0 applies the default order over the full database; log its
      // estimate so mis-estimates show up next to `solutions`.
      c.entry->counters.est_rows += EstimateToCounter(
          EstimateOrderCost(rule, c.default_order, entry_model).out_rows);
    }
    if (seminaive) {
      int positives = 0;
      for (const LiteralIr& literal : rule.body) {
        if (!literal.is_builtin() && !literal.negated) ++positives;
      }
      for (int occurrence : RecursiveOccurrences(rule, delta_preds)) {
        c.replannable.push_back(positives >= 3);
        StatusOr<std::vector<int>> order = choose_order(rule, occurrence);
        if (!order.ok()) {
          // Windows bind to body positions, not evaluation slots, so the
          // default order stays correct for any delta occurrence; forcing
          // the occurrence first is only a join-ordering optimization. Fall
          // back when a seeded occurrence (e.g. an EDB predicate the
          // default analysis never fronts) has no evaluable forced order.
          if (seed == nullptr) return order.status();
          c.delta_variants.emplace_back(occurrence, c.default_order);
          continue;
        }
        c.delta_variants.emplace_back(occurrence, std::move(order).value());
      }
    }
    compiled.push_back(std::move(c));
  }

  // Low watermarks: from scratch, round 0 consumes everything and the
  // deltas start at the pre-round row counts; a seeded resume starts each
  // delta carrier at its previous-evaluation watermark so the first round
  // consumes exactly the inserted rows.
  std::vector<size_t> low(catalog_->size(), 0);
  for (PredId p = 0; p < catalog_->size(); ++p) {
    if (!delta_preds[p]) continue;
    if (seed != nullptr) {
      size_t mark =
          p < seed->watermarks->size() ? (*seed->watermarks)[p] : 0;
      low[p] = std::min(mark, db->relation(p).row_count());
    } else if (seminaive) {
      low[p] = db->relation(p).row_count();
    }
  }
  // Full application (round 0 and every naive round): every rule applied
  // against explicit [0, row_count) round-start windows, so rule N never
  // sees rule N-1's (or its own) same-round inserts. The golden firing and
  // round counts pin this round-start semantics.
  auto full_round = [&](bool* derived) -> Status {
    std::vector<size_t> snap(catalog_->size());
    for (PredId p = 0; p < catalog_->size(); ++p) {
      snap[p] = db->relation(p).row_count();
    }
    for (const Compiled& c : compiled) {
      std::vector<LiteralWindow> windows(c.rule->body.size());
      for (size_t i = 0; i < c.rule->body.size(); ++i) {
        const LiteralIr& literal = c.rule->body[i];
        if (!literal.is_builtin() && !literal.negated) {
          windows[i] = {0, snap[literal.pred]};
        }
      }
      LDL_RETURN_IF_ERROR(ApplyRule(*c.rule, c.default_order, windows, db,
                                    options, stats, derived, c.entry));
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
    std::vector<size_t> high(catalog_->size(), 0);
    bool any_delta = false;
    for (PredId p = 0; p < catalog_->size(); ++p) {
      if (!delta_preds[p]) continue;
      high[p] = db->relation(p).row_count();
      if (high[p] > low[p]) any_delta = true;
    }
    if (!any_delta) break;

    // Adaptive replanning: delta windows have wildly different
    // cardinalities than the full relations the entry-time orders were
    // priced against, and the balance drifts as the fixpoint grows the IDB.
    // Re-cost each live delta variant against this round's window sizes
    // ([low, high) for the pinned occurrence, [0, low) for later carriers)
    // and switch its order when the current one is estimated at more than
    // replan_cost_ratio times the best. Every input is a round-start
    // snapshot, so the choice does not depend on rule order within a round.
    // Variants with no ordering choice (fewer than two movable positives)
    // are skipped wholesale; when none qualifies the snapshot is never
    // taken, so linear recursion pays nothing per round.
    bool any_replannable = false;
    if (cost_based) {
      for (const Compiled& c : compiled) {
        for (size_t v = 0; v < c.delta_variants.size(); ++v) {
          if (c.replannable[v]) any_replannable = true;
        }
      }
    }
    if (cost_based && any_replannable) {
      CostModel round_model = CostModel::Snapshot(*db, *catalog_);
      std::vector<double> literal_rows;  // per body position; < 0 = model
      for (Compiled& c : compiled) {
        for (size_t v = 0; v < c.delta_variants.size(); ++v) {
          if (!c.replannable[v]) continue;
          auto& [occurrence, order] = c.delta_variants[v];
          PredId delta_pred = c.rule->body[occurrence].pred;
          if (high[delta_pred] <= low[delta_pred]) continue;
          literal_rows.assign(c.rule->body.size(), -1.0);
          for (size_t i = 0; i < c.rule->body.size(); ++i) {
            const LiteralIr& literal = c.rule->body[i];
            if (literal.is_builtin() || literal.negated) continue;
            if (static_cast<int>(i) > occurrence &&
                literal.pred < delta_preds.size() &&
                delta_preds[literal.pred]) {
              literal_rows[i] = static_cast<double>(low[literal.pred]);
            }
          }
          literal_rows[occurrence] =
              static_cast<double>(high[delta_pred] - low[delta_pred]);
          OrderCost current_cost =
              EstimateOrderCost(*c.rule, order, round_model, &literal_rows);
          StatusOr<std::vector<int>> best = OrderBodyLiteralsCostBased(
              *catalog_, *c.rule, round_model, occurrence,
              /*initially_bound=*/nullptr, &literal_rows);
          // A failed forced order keeps the current (fallback) one.
          if (best.ok() && best.value() != order) {
            OrderCost best_cost = EstimateOrderCost(*c.rule, best.value(),
                                                    round_model, &literal_rows);
            if (current_cost.total_work >
                options.replan_cost_ratio * best_cost.total_work) {
              order = std::move(best).value();
              current_cost = best_cost;
              ++stats->replans;
            }
          }
          if (c.entry != nullptr) {
            c.entry->counters.est_rows +=
                EstimateToCounter(current_cost.out_rows);
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
    std::vector<size_t> snap(catalog_->size());
    for (PredId p = 0; p < catalog_->size(); ++p) {
      snap[p] = db->relation(p).row_count();
    }
    for (const Compiled& c : compiled) {
      for (const auto& [occurrence, order] : c.delta_variants) {
        PredId delta_pred = c.rule->body[occurrence].pred;
        if (high[delta_pred] <= low[delta_pred]) continue;
        std::vector<LiteralWindow> windows(c.rule->body.size());
        for (size_t i = 0; i < c.rule->body.size(); ++i) {
          const LiteralIr& literal = c.rule->body[i];
          if (!literal.is_builtin() && !literal.negated) {
            const bool carrier = literal.pred < delta_preds.size() &&
                                 delta_preds[literal.pred];
            windows[i] = carrier && static_cast<int>(i) > occurrence
                             ? LiteralWindow{0, low[literal.pred]}
                             : LiteralWindow{0, snap[literal.pred]};
          }
        }
        windows[occurrence] = {low[delta_pred], high[delta_pred]};
        if (c.entry != nullptr) {
          c.entry->counters.delta_rows += high[delta_pred] - low[delta_pred];
        }
        LDL_RETURN_IF_ERROR(ApplyRule(*c.rule, order, windows, db, options,
                                      stats, &derived, c.entry));
      }
    }
    for (PredId p = 0; p < catalog_->size(); ++p) {
      if (delta_preds[p]) low[p] = high[p];
    }
    *derived_any = *derived_any || derived;
    ++stats->iterations;
    if (!derived) {
      // No new facts this round; remaining deltas (rows added late in the
      // round) still need one more pass, which the loop header handles via
      // the watermark comparison.
      continue;
    }
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
      InstantiationResult inst = InstantiateArgs(*factory_, rule.head_args, Subst());
      if (inst.unbound) {
        return NotWellFormedError("fact with unbound variables");
      }
      RuleProfileEntry* entry = ProfileEntry(profile, rule, r, stratum_index);
      if (entry != nullptr) ++entry->counters.firings;
      if (!inst.outside_universe && db->AddFact(rule.head_pred, inst.tuple)) {
        ++stats->facts_derived;
        if (entry != nullptr) ++entry->counters.facts_derived;
      }
    } else if (rule.is_grouping()) {
      grouping_rules.push_back(r);
    } else {
      normal_rules.push_back(r);
    }
  }

  // Lemma 3.2.3: grouping rules fire once, over the stratum's input model
  // (their bodies depend only on strictly lower layers).
  for (int r : grouping_rules) {
    LDL_RETURN_IF_ERROR(ApplyGroupingRule(
        program.rules[r], db, options, stats, &derived, nullptr,
        ProfileEntry(profile, program.rules[r], r, stratum_index)));
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
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (!options.profile) profile = nullptr;
  if (profile != nullptr) profile->ReserveRules(program.rules.size());
  ScopedSetInternCounter set_interns(factory_, stats);
  uint64_t total_wall = 0;
  ScopedWallTimer total_timer(profile != nullptr ? &total_wall : nullptr);
  if (options.mode == EvalOptions::Mode::kSemiNaive) {
    EnableDerivationCounts(program, stratification, db);
  }
  for (size_t s = 0; s < stratification.strata.size(); ++s) {
    LDL_RETURN_IF_ERROR(EvaluateStratum(program, stratification.strata[s],
                                        static_cast<int>(s), StratumMode::kFull,
                                        db, options, stats, profile));
  }
  if (profile != nullptr) {
    total_timer.Stop();
    profile->add_total_wall_ns(total_wall);
  }
  return Status::OK();
}

Status Engine::EvaluateSaturating(const ProgramIr& program, Database* db,
                                  const EvalOptions& options, EvalStats* stats,
                                  EvalProfile* profile) {
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (!options.profile) profile = nullptr;
  if (profile != nullptr) profile->ReserveRules(program.rules.size());
  ScopedSetInternCounter set_interns(factory_, stats);
  uint64_t total_wall = 0;
  ScopedWallTimer total_timer(profile != nullptr ? &total_wall : nullptr);
  // The saturation loop is unlayered; report it as one pseudo-stratum -1.
  StratumRollup rollup(profile, stats, /*stratum=*/-1, StratumMode::kFull);

  std::vector<int> positive_rules;
  std::vector<int> grouping_rules;
  std::vector<int> negation_rules;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const RuleIr& rule = program.rules[r];
    if (rule.is_fact()) {
      InstantiationResult inst = InstantiateArgs(*factory_, rule.head_args, Subst());
      if (inst.unbound) return NotWellFormedError("fact with unbound variables");
      RuleProfileEntry* entry =
          ProfileEntry(profile, rule, static_cast<int>(r), /*stratum=*/-1);
      if (entry != nullptr) ++entry->counters.firings;
      if (!inst.outside_universe && db->AddFact(rule.head_pred, inst.tuple)) {
        ++stats->facts_derived;
        if (entry != nullptr) ++entry->counters.facts_derived;
      }
    } else if (rule.is_grouping()) {
      grouping_rules.push_back(static_cast<int>(r));
    } else if (rule.has_negation()) {
      negation_rules.push_back(static_cast<int>(r));
    } else {
      positive_rules.push_back(static_cast<int>(r));
    }
  }

  // Per grouping rule: partition key -> emitted fact, for reconciliation.
  std::vector<std::unordered_map<Tuple, Tuple, TupleHash>> emitted(
      grouping_rules.size());
  // Per grouping rule: cross-round group cache. Grouping rules re-fire each
  // global round over a monotonically grown database; partitions whose
  // member count is unchanged reuse the cached canonical fact instead of
  // re-sorting and re-interning (see GroupCacheEntry).
  std::vector<GroupCache> group_caches(grouping_rules.size());

  // The saturating evaluator always orders syntactically: it runs in a
  // scratch database where every adorned predicate starts empty (entry
  // statistics carry no signal about the sizes the fixpoint will reach),
  // and it re-enters Fixpoint once per global round, so cost-based
  // planning would be repaid on every round of every sub-millisecond
  // bound query. `sat_options` turns the planner off for the inner
  // fixpoints too.
  EvalOptions sat_options = options;
  sat_options.cost_based = false;
  std::vector<std::vector<int>> negation_orders;
  for (int r : negation_rules) {
    LDL_ASSIGN_OR_RETURN(std::vector<int> order,
                         OrderBodyLiterals(*catalog_, program.rules[r]));
    negation_orders.push_back(std::move(order));
  }
  std::vector<std::vector<int>> grouping_orders;
  for (int r : grouping_rules) {
    LDL_ASSIGN_OR_RETURN(std::vector<int> order,
                         OrderBodyLiterals(*catalog_, program.rules[r]));
    grouping_orders.push_back(std::move(order));
  }

  for (size_t round = 0;; ++round) {
    if (round >= options.max_rounds) {
      return ResourceExhaustedError("saturation exceeded max_rounds");
    }
    bool changed = false;

    // 1. Saturate the positive, non-grouping part. For a given set of magic
    //    facts this fully evaluates every predicate a grouping or negated
    //    body below may consult (§6's "fully evaluate per magic tuple").
    if (!positive_rules.empty()) {
      bool derived = false;
      LDL_RETURN_IF_ERROR(Fixpoint(program, positive_rules, /*stratum_index=*/-1,
                                   db, sat_options, stats, &derived, profile));
      changed = changed || derived;
    }

    // 2. Grouping rules over the saturated state, reconciled per key.
    for (size_t g = 0; g < grouping_rules.size(); ++g) {
      const RuleIr& rule = program.rules[grouping_rules[g]];
      RuleProfileEntry* entry =
          ProfileEntry(profile, rule, grouping_rules[g], /*stratum=*/-1);
      EvalStats group_local;
      EvalStats* gs = entry != nullptr ? &group_local : stats;
      ScopedWallTimer timer(entry != nullptr ? &entry->counters.wall_ns
                                             : nullptr);
      RuleEvaluator evaluator(
          factory_, &rule, grouping_orders[g], options.builtin_limits,
          plans_->Get(rule, grouping_orders[g], &gs->plan_cache_hits),
          &block_storage_);
      ++gs->rule_firings;
      LDL_ASSIGN_OR_RETURN(
          std::vector<GroupResult> groups,
          ComputeGroups(*factory_, evaluator, *db, gs, &group_caches[g]));
      for (GroupResult& group : groups) {
        auto it = emitted[g].find(group.key);
        if (it == emitted[g].end()) {
          if (db->AddFact(rule.head_pred, group.fact)) {
            changed = true;
            ++gs->facts_derived;
          }
          emitted[g].emplace(std::move(group.key), std::move(group.fact));
          continue;
        }
        if (it->second == group.fact) continue;
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
                program.rules[grouping_rules[other]].head_pred == rule.head_pred) {
              claimed_elsewhere = true;
              break;
            }
          }
          if (claimed_elsewhere) break;
        }
        if (!claimed_elsewhere) db->relation(rule.head_pred).Erase(it->second);
        if (db->AddFact(rule.head_pred, group.fact)) ++gs->facts_derived;
        it->second = std::move(group.fact);
        changed = true;
      }
      if (entry != nullptr) {
        ++entry->counters.firings;
        AttributeStats(entry, group_local);
        stats->Add(group_local);
      }
    }

    // 3. Negation rules over the saturated state.
    for (size_t i = 0; i < negation_rules.size(); ++i) {
      const RuleIr& rule = program.rules[negation_rules[i]];
      bool derived = false;
      LDL_RETURN_IF_ERROR(ApplyRule(
          rule, negation_orders[i], {}, db, options, stats, &derived,
          ProfileEntry(profile, rule, negation_rules[i], /*stratum=*/-1)));
      changed = changed || derived;
    }

    if (!changed) break;
  }
  rollup.Finish();
  if (profile != nullptr) {
    total_timer.Stop();
    profile->add_total_wall_ns(total_wall);
  }
  return Status::OK();
}

StatusOr<std::vector<Tuple>> Engine::Query(const LiteralIr& goal,
                                           const Database& db) const {
  if (goal.is_builtin() || goal.negated) {
    return InvalidArgumentError("queries must be positive, non-builtin literals");
  }
  return QueryRelation(factory_, goal, db.relation(goal.pred));
}

StatusOr<std::vector<Tuple>> QueryRelation(TermFactory* factory,
                                           const LiteralIr& goal,
                                           const Relation& relation) {
  std::vector<Tuple> results;
  Subst subst;
  // Ground scons-free goal arguments are interned pointers, so they select
  // rows through the composite hash index instead of a relation scan.
  // MatchArgs still verifies the whole row (patterns, repeated variables).
  std::vector<uint32_t> probe_cols;
  std::vector<const Term*> probe_values;
  for (size_t i = 0; i < goal.args.size(); ++i) {
    const Term* arg = goal.args[i];
    if (arg->ground() && !arg->has_scons()) {
      probe_cols.push_back(static_cast<uint32_t>(i));
      probe_values.push_back(arg);
    }
  }
  auto match_row = [&](RowRef tuple) {
    MatchArgs(*factory, goal.args, tuple, &subst, [&]() {
      results.emplace_back(tuple.begin(), tuple.end());
      return false;  // one match per fact suffices
    });
  };
  if (probe_cols.empty()) {
    relation.ForEachRow(0, relation.row_count(),
                        [&](size_t, RowRef tuple) { match_row(tuple); });
  } else {
    relation.ProbeRows(probe_cols, probe_values, 0, relation.row_count(),
                       [&](size_t, RowRef tuple) {
                         match_row(tuple);
                         return true;
                       });
  }
  return results;
}

}  // namespace ldl
