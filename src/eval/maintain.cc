// Incremental maintenance: Engine::Maintain and its per-stratum handler.
#include "eval/engine.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "eval/bindings.h"
#include "eval/engine_internal.h"
#include "program/impact.h"
#include "term/unify.h"

namespace ldl {

namespace {

// Revives settled deletions (the tombstoned ones among `rows`) for the
// scope's lifetime, so an enumeration sees the old state. They go back to
// tombstones when the scope ends, whether or not the enumeration succeeded.
class ScopedRevive {
 public:
  explicit ScopedRevive(Database* db) : db_(db) {}
  ~ScopedRevive() {
    for (auto& [rel, row] : revived_) rel->SetLive(row, false);
  }
  ScopedRevive(const ScopedRevive&) = delete;
  ScopedRevive& operator=(const ScopedRevive&) = delete;

  void Revive(PredId pred, std::span<const size_t> rows) {
    Relation& rel = db_->relation(pred);
    for (size_t row : rows) {
      if (rel.IsLive(row)) continue;
      rel.SetLive(row, true);
      revived_.emplace_back(&rel, row);
    }
  }

 private:
  Database* db_;
  std::vector<std::pair<Relation*, size_t>> revived_;
};

// The heads that row `rid` of body occurrence `occurrence` derived in the
// old state: calls on_head(head_row) for each live head row of a solution
// of `evaluator`'s rule through that row, with the other positions under
// `windows`, their old extents. The row itself is live for the enumeration
// even when it is a settled deletion; the deletions of other positions take
// part only when the caller revived them. on_head runs after the
// enumeration, so it may change liveness.
template <typename OnHead>
Status ForEachOldHead(RuleEvaluator& evaluator,
                      std::vector<LiteralWindow> windows, size_t occurrence,
                      size_t rid, Database* db, EvalStats* stats,
                      OnHead on_head) {
  const RuleIr& rule = evaluator.rule();
  windows[occurrence] = {rid, rid + 1};
  RowBuffer heads(rule.head_args.size());
  {
    ScopedRevive row(db);
    row.Revive(rule.body[occurrence].pred, {&rid, 1});
    LDL_RETURN_IF_ERROR(evaluator.CollectHeads(*db, windows, &heads, stats));
  }
  Relation& head_rel = db->relation(rule.head_pred);
  for (size_t i = 0; i < heads.size(); ++i) {
    size_t head_row = head_rel.Find(heads.row(i));
    if (head_row != Relation::npos && head_rel.IsLive(head_row)) {
      on_head(head_row);
    }
  }
  return Status::OK();
}

}  // namespace

Status Engine::RegrowGroupingRule(const RuleIr& rule, Database* db,
                                  const FixpointSeed& seed, const EvalOptions& options,
                                  EvalStats* stats, bool* derived,
                                  RuleProfileEntry* entry) {
  // Delta enumeration (semi-naive completeness): any body solution that
  // involves at least one inserted row is found by the variant pinning that
  // occurrence to its [watermark, row_count) window, one firing each. A
  // solution seen by several variants contributes duplicate members, which
  // the set union absorbs; solutions made only of pre-update rows are
  // already reflected in the materialized groups and are never
  // re-enumerated.
  std::vector<std::pair<int, LiteralWindow>> deltas;
  for (size_t occurrence = 0; occurrence < rule.body.size(); ++occurrence) {
    const LiteralIr& literal = rule.body[occurrence];
    if (literal.is_builtin()) continue;  // eligibility bars negation
    const PredId pred = literal.pred;
    if (pred >= seed.delta_preds->size() || !(*seed.delta_preds)[pred]) continue;
    const size_t mark = seed.OldRows(*db, pred);
    const size_t rows = db->relation(pred).row_count();
    if (mark < rows) {
      deltas.emplace_back(static_cast<int>(occurrence), LiteralWindow{mark, rows});
    }
  }
  RuleFiring firing(stats, entry, deltas.size());
  EvalStats* s = firing.stats();

  // Partitions exactly as ComputeGroups keys them (eval/grouping.cc).
  // Instantiation through the interner makes key -> non-group head values
  // injective, so the key identifies the one head fact to replace.
  GroupPartitions partitions;
  for (const auto& [occurrence, delta] : deltas) {
    LDL_ASSIGN_OR_RETURN(ResolvedOrder resolved, Resolve(rule, {.front = occurrence}, s));
    RuleEvaluator evaluator = Evaluator(rule, resolved, options);
    // Nothing is inserted before every variant has run, so the other
    // positions see their full relations.
    std::vector<LiteralWindow> windows(rule.body.size());
    windows[occurrence] = delta;
    firing.AddDeltaRows(delta.to - delta.from);
    LDL_RETURN_IF_ERROR(CollectGroupMembers(*factory_, evaluator, *db, windows,
                                            &partitions, s));
  }

  // Reconcile each affected partition against the materialized head fact:
  // union the delta members into the existing group (a merge over two
  // canonical sets), replacing the old row; a fresh key inserts a new
  // group. Untouched partitions are never visited -- that is the point.
  Relation& head_rel = db->relation(rule.head_pred);
  std::vector<uint32_t> non_group_cols;
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    if (static_cast<int>(i) != rule.group_index) {
      non_group_cols.push_back(static_cast<uint32_t>(i));
    }
  }
  for (auto& [partition_key, partition] : partitions) {
    const Term* delta_set = partition.members.Build();
    Tuple old_fact;
    bool found = false;
    const size_t head_rows = head_rel.row_count();
    if (non_group_cols.empty()) {
      // Head is just the grouped set: at most one live row exists.
      head_rel.ForEachRow(0, head_rows, [&](size_t, RowRef row) {
        old_fact.assign(row.begin(), row.end());
        found = true;
      });
    } else {
      Tuple probe_values;
      probe_values.reserve(non_group_cols.size());
      for (uint32_t c : non_group_cols) {
        probe_values.push_back(partition.head_values[c]);
      }
      ++s->index_probes;
      head_rel.ProbeRows(non_group_cols, probe_values, 0, head_rows,
                         [&](size_t, RowRef row) {
                           old_fact.assign(row.begin(), row.end());
                           found = true;
                           return false;  // sole producer: row is unique
                         });
      if (found) ++s->probe_hits;
    }
    Tuple new_fact = std::move(partition.head_values);
    if (found) {
      const Term* old_set = old_fact[rule.group_index];
      if (!old_set->is_set()) {
        return InternalError(
            "regrow found a non-set value in a grouped head position");
      }
      const Term* new_set = factory_->SetUnion(old_set, delta_set);
      if (new_set == old_set) continue;  // only duplicate members: no change
      new_fact[rule.group_index] = new_set;
      head_rel.Erase(old_fact);
    } else {
      new_fact[rule.group_index] = delta_set;
    }
    if (db->AddFact(rule.head_pred, new_fact)) ++s->facts_derived;
    ++s->group_regrows;
    *derived = true;
  }
  return CheckMaxFacts(*db, options);
}

Status Engine::MaintainStratum(
    const ProgramIr& program, const std::vector<int>& rules, int stratum_index,
    PredImpact mode, Database* db, const FixpointSeed& seed,
    const std::vector<PredImpact>& impact,
    std::vector<std::vector<size_t>>* removed_rows, const EvalOptions& options,
    EvalStats* stats, EvalProfile* profile) {
  StratumRollup rollup(profile, stats, stratum_index,
                       mode == PredImpact::kDelta         ? StratumMode::kDelta
                       : mode == PredImpact::kGroupRegrow ? StratumMode::kGroupRegrow
                                                          : StratumMode::kShrink);

  // Facts never lose support and their inputs never change, so they are
  // not re-fired; fact rules only guarantee their tuples survive DRed.
  // Grouping rules with a kGroupRegrow head regrow in place (phase 1); the
  // others have untouched inputs (a grouping rule over a changed input that
  // cannot regrow makes the whole stratum kRecompute) and are skipped. The
  // normal rules have kShrink heads at worst -- any consumer of a regrown
  // predicate is kRecompute -- so phases 2 and 3 handle them.
  std::vector<int> normal_rules;
  std::vector<int> fact_rules;
  std::vector<bool> is_head(catalog_->size(), false);
  bool derived = false;
  for (int r : rules) {
    const RuleIr& rule = program.rules[r];
    if (rule.is_fact()) {
      fact_rules.push_back(r);
    } else if (rule.is_grouping()) {
      // ---- Phase 1: regrow the grouping heads the insertions touch.
      if (impact[rule.head_pred] != PredImpact::kGroupRegrow) continue;
      LDL_RETURN_IF_ERROR(
          RegrowGroupingRule(rule, db, seed, options, stats, &derived,
                             ProfileEntry(profile, rule, r, stratum_index)));
    } else {
      normal_rules.push_back(r);
      is_head[rule.head_pred] = true;
    }
  }
  if (mode == PredImpact::kGroupRegrow) ++stats->strata_regrown;

  // ---- Phase 2: retract what the settled deletions below took away --
  // derivation-count decrements when eligible, DRed otherwise. On an
  // insert-only batch the ledger is empty and no rule is affected.
  // Drop ledger entries whose rows came back: a lower stratum's rederive
  // can revive a row an earlier phase deleted (in place, via SetLive), and
  // a revived row is no longer a deletion. A fact the insert resume
  // re-derived instead sits in a fresh row (Insert appends), which the
  // resume below windows as an insertion; its old row stays on the ledger,
  // so the solutions through it are retracted (decremented or
  // over-deleted) before the new row adds them back. (The row_count guard
  // covers relations a recomputed stratum cleared, which invalidates old
  // row ids.)
  for (PredId p = 0; p < removed_rows->size(); ++p) {
    std::vector<size_t>& rows = (*removed_rows)[p];
    if (rows.empty()) continue;
    const Relation& rel = db->relation(p);
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [&](size_t row) {
                                return row >= rel.row_count() || rel.IsLive(row);
                              }),
               rows.end());
  }

  auto has_deletions = [&](PredId p) {
    return p < removed_rows->size() && !(*removed_rows)[p].empty();
  };

  // Rules that can lose solutions: at least one positive occurrence of a
  // predicate with settled deletions below.
  std::vector<int> affected_rules;
  bool recursive = false;
  for (int r : normal_rules) {
    const RuleIr& rule = program.rules[r];
    bool affected = false;
    for (const LiteralIr& literal : rule.body) {
      if (literal.is_builtin() || literal.negated) continue;
      if (has_deletions(literal.pred)) affected = true;
      if (literal.pred < is_head.size() && is_head[literal.pred]) {
        recursive = true;
      }
    }
    if (affected) affected_rules.push_back(r);
  }

  // Counting fast path eligibility: every affected head carries exact
  // derivation counts, the stratum is non-recursive (a recursive fixpoint's
  // counts were never enabled anyway, but the check keeps the reasoning
  // local), and no affected rule mentions a deleted predicate in more than
  // one positive position -- the deletion decomposition below pins one
  // occurrence per variant and relies on the same predicate not appearing
  // elsewhere in the body with a different liveness requirement.
  bool counting = !affected_rules.empty() && !recursive;
  for (int r : affected_rules) {
    if (!counting) break;
    const RuleIr& rule = program.rules[r];
    if (!db->relation(rule.head_pred).counted()) counting = false;
    for (size_t i = 0; i < rule.body.size() && counting; ++i) {
      const LiteralIr& a = rule.body[i];
      if (a.is_builtin() || a.negated || !has_deletions(a.pred)) continue;
      for (size_t j = i + 1; j < rule.body.size(); ++j) {
        const LiteralIr& b = rule.body[j];
        if (!b.is_builtin() && !b.negated && b.pred == a.pred) {
          counting = false;
          break;
        }
      }
    }
  }

  // The variants that enumerate what a row derived in the old state: one
  // per positive body occurrence that can hold such a row -- a predicate
  // with settled deletions or, on DRed's worklist, a head of this stratum
  // -- with that occurrence fronted.
  struct RetractVariant {
    size_t occurrence;
    PredId pred;
    RuleEvaluator evaluator;
    std::vector<LiteralWindow> old_windows;  // positive literals, old extents
    RuleProfileEntry* entry;
  };
  std::vector<RetractVariant> variants;
  for (int r : normal_rules) {
    const RuleIr& rule = program.rules[r];
    for (size_t i = 0; i < rule.body.size() && !affected_rules.empty(); ++i) {
      const LiteralIr& literal = rule.body[i];
      if (literal.is_builtin() || literal.negated ||
          !(has_deletions(literal.pred) || is_head[literal.pred])) {
        continue;
      }
      LDL_ASSIGN_OR_RETURN(ResolvedOrder resolved,
                           Resolve(rule, {.front = static_cast<int>(i)}, stats));
      variants.push_back(RetractVariant{
          i, literal.pred, Evaluator(rule, resolved, options),
          PositiveWindows(rule, [&](PredId p, size_t) { return seed.OldRows(*db, p); }),
          ProfileEntry(profile, rule, r, stratum_index)});
    }
  }

  if (counting) {
    // ---- Counting fast path: each solution of the old model that involved
    // a deleted row decrements its head fact's derivation count; a fact
    // whose count reaches zero is deleted in turn. The decomposition
    // mirrors the insert-side one: the variant pinning deleted-carrier
    // occurrence i sees the deleted rows of carrier positions *before* i
    // (transiently revived) and not those *after* i, so each lost solution
    // is decremented exactly once. The watermark cap excludes this batch's
    // insertions everywhere: solutions involving them were never counted
    // (the insert resume below adds them against the post-deletion state).
    // The stratum is non-recursive, so the head relation is not in the body
    // and decrementing after each enumeration is equivalent.
    for (RetractVariant& v : variants) {
      const RuleIr& rule = v.evaluator.rule();
      Relation& head_rel = db->relation(rule.head_pred);
      const std::vector<size_t>& deleted = (*removed_rows)[v.pred];
      RuleFiring firing(stats, v.entry);
      firing.AddDeltaRows(deleted.size());
      ScopedRevive revive(db);
      for (size_t j = 0; j < v.occurrence; ++j) {
        const LiteralIr& literal = rule.body[j];
        if (!literal.is_builtin() && !literal.negated && has_deletions(literal.pred)) {
          revive.Revive(literal.pred, (*removed_rows)[literal.pred]);
        }
      }
      for (size_t rid : deleted) {
        LDL_RETURN_IF_ERROR(ForEachOldHead(
            v.evaluator, v.old_windows, v.occurrence, rid, db, firing.stats(),
            [&](size_t head_row) {
              ++stats->count_decrements;
              if (head_rel.DecrementDerivation(head_row)) {
                (*removed_rows)[rule.head_pred].push_back(head_row);
              }
            }));
      }
    }
    ++stats->strata_delta;
  } else if (!affected_rules.empty()) {
    // ---- DRed phase 1: over-delete to a fixpoint against the pre-deletion
    // state. Every settled deletion below is transiently revived and every
    // body window capped at the previous watermark, so joins see exactly
    // the old model. Consequences of each worklist row are *marked* but
    // kept live -- later worklist items still join against the complete old
    // state, which is what makes this an over-approximation -- and fed back
    // through the worklist for the recursive case.
    ++stats->strata_overdeleted;
    // Over-deleted head rows (marked, still live until phase 1 ends).
    std::vector<std::unordered_set<size_t>> marked(catalog_->size());
    {
      ScopedRevive revive(db);
      std::vector<bool> revived(catalog_->size(), false);
      std::vector<std::pair<PredId, size_t>> worklist;
      for (const RetractVariant& v : variants) {
        if (revived[v.pred] || !has_deletions(v.pred)) continue;
        revived[v.pred] = true;
        revive.Revive(v.pred, (*removed_rows)[v.pred]);
        for (size_t row : (*removed_rows)[v.pred]) {
          worklist.emplace_back(v.pred, row);
        }
      }
      for (size_t idx = 0; idx < worklist.size(); ++idx) {
        const auto [q, rid] = worklist[idx];
        for (RetractVariant& v : variants) {
          if (v.pred != q) continue;
          const PredId head = v.evaluator.rule().head_pred;
          RuleFiring firing(stats, v.entry);
          firing.AddDeltaRows(1);
          // Marking keeps rows live, so the enumeration sees the same state
          // whether the marks land during or after it.
          LDL_RETURN_IF_ERROR(ForEachOldHead(
              v.evaluator, v.old_windows, v.occurrence, rid, db,
              firing.stats(), [&](size_t head_row) {
                if (marked[head].insert(head_row).second) {
                  worklist.emplace_back(head, head_row);
                }
              }));
        }
      }
    }

    // Tombstone the over-deleted rows (sorted for deterministic order), and
    // abandon any derivation counts DRed bypassed on the affected heads.
    std::vector<std::pair<PredId, size_t>> overdeleted;
    for (PredId h = 0; h < marked.size(); ++h) {
      if (marked[h].empty()) continue;
      std::vector<size_t> rows(marked[h].begin(), marked[h].end());
      std::sort(rows.begin(), rows.end());
      Relation& rel = db->relation(h);
      for (size_t row : rows) {
        rel.SetLive(row, false);
        overdeleted.emplace_back(h, row);
      }
      rel.DisableCounts();
    }

    // ---- DRed phase 2: rederive over-deleted facts that still have a
    // derivation from the surviving state. Each rule runs a head-seeded plan
    // (head variables bound before the first step; the unifiers of the head
    // with the candidate fact form the root input block), so each candidate
    // costs one targeted existence check instead of re-running the stratum.
    // Rederived rows revive in place -- keeping their ids, so downstream
    // deltas are unaffected -- and can support other candidates, hence the
    // fixpoint rounds. Fact-rule tuples survive unconditionally.
    for (int r : fact_rules) {
      const RuleIr& rule = program.rules[r];
      InstantiationResult inst = InstantiateArgs(*factory_, rule.head_args, Subst());
      if (inst.unbound || inst.outside_universe) continue;
      Relation& rel = db->relation(rule.head_pred);
      size_t row = rel.Find(inst.tuple);
      if (row != Relation::npos && !rel.IsLive(row)) rel.SetLive(row, true);
    }
    struct Rederiver {
      RuleEvaluator evaluator;
      RuleProfileEntry* entry;
    };
    std::unordered_map<PredId, std::vector<Rederiver>> rederivers;
    for (int r : normal_rules) {
      const RuleIr& rule = program.rules[r];
      LDL_ASSIGN_OR_RETURN(ResolvedOrder resolved,
                           Resolve(rule, {.head_seeded = true}, stats));
      rederivers[rule.head_pred].push_back(Rederiver{
          Evaluator(rule, resolved, options),
          ProfileEntry(profile, rule, r, stratum_index)});
    }
    std::vector<std::pair<PredId, size_t>> dead;
    for (const auto& [h, row] : overdeleted) {
      if (!db->relation(h).IsLive(row)) dead.emplace_back(h, row);
    }
    while (!dead.empty()) {
      ++stats->rederive_rounds;
      bool revived_any = false;
      std::vector<std::pair<PredId, size_t>> still_dead;
      for (const auto& [h, row] : dead) {
        Relation& rel = db->relation(h);
        RowRef tuple = rel.row(row);
        bool found = false;
        auto it = rederivers.find(h);
        if (it != rederivers.end()) {
          for (Rederiver& rederiver : it->second) {
            // A rederivation check attributes its work to the rule's
            // profile entry but is not a firing.
            RuleFiring firing(stats, rederiver.entry, /*firings=*/0);
            LDL_RETURN_IF_ERROR(rederiver.evaluator.ForEachBlockDeriving(
                *db, tuple,
                [&](const TupleBlock&) {
                  found = true;
                  return false;
                },
                firing.stats()));
            if (found) break;
          }
        }
        if (found) {
          rel.SetLive(row, true);
          revived_any = true;
        } else {
          still_dead.emplace_back(h, row);
        }
      }
      dead.swap(still_dead);
      if (!revived_any) break;
    }
    // What stayed dead is deleted for good; strata above see it through the
    // ledger. (The insert resume below can still re-derive such a fact --
    // into a fresh row, which strata above see as an insertion.)
    for (const auto& [h, row] : dead) (*removed_rows)[h].push_back(row);
  } else if (mode != PredImpact::kGroupRegrow) {
    // Counted, or no settled deletion reaches this stratum (everything
    // below was rederived or decremented back to life): only insert deltas
    // remain to resume.
    ++stats->strata_delta;
  }

  // ---- Phase 3: resume the seeded semi-naive insert fixpoint, so a mixed
  // insert+delete batch finishes in one pass. With no insert deltas this
  // finds empty windows and exits immediately.
  if (!normal_rules.empty()) {
    LDL_RETURN_IF_ERROR(Fixpoint(program, normal_rules, stratum_index, db,
                                 options, stats, &derived, profile, &seed));
  }
  rollup.Finish();
  return Status::OK();
}

Status Engine::Maintain(const ProgramIr& program,
                        const Stratification& stratification, Database* db,
                        const std::vector<size_t>& watermarks,
                        const std::vector<bool>& inserted,
                        const std::vector<std::pair<PredId, Tuple>>& removed,
                        const EvalOptions& options, EvalStats* stats,
                        EvalProfile* profile) {
  EvaluationScope scope(factory_, options, stats, profile, program.rules.size());
  stats = scope.stats();
  profile = scope.profile();

  // Settle the EDB deletions up front: tombstone each removed fact's row
  // and record it in the per-predicate ledger. Absent facts are no-ops. A
  // fact inserted and deleted in the same batch sits past its watermark;
  // tombstoning it here is exactly the required cancellation (delta windows
  // skip tombstoned rows).
  std::vector<bool> shrunk(catalog_->size(), false);
  std::vector<std::vector<size_t>> removed_rows(catalog_->size());
  for (const auto& [pred, tuple] : removed) {
    if (pred >= catalog_->size()) continue;
    Relation& rel = db->relation(pred);
    size_t row = rel.Find(tuple);
    if (row == Relation::npos || !rel.IsLive(row)) continue;
    rel.SetLive(row, false);
    removed_rows[pred].push_back(row);
    shrunk[pred] = true;
  }

  std::vector<PredImpact> impact =
      ComputeImpact(*catalog_, program, inserted, shrunk);

  // Delta carriers for the seeded fixpoints: the inserted-into EDB
  // predicates plus every delta- or shrink-maintained IDB predicate (on a
  // mixed batch the latter carry insert deltas too, and their rederived
  // rows keep old ids, so the watermark logic is unchanged). A recomputed
  // predicate is never a carrier -- everything consuming it is itself
  // recomputed, with full windows.
  std::vector<bool> delta_preds(catalog_->size(), false);
  for (PredId p = 0; p < catalog_->size(); ++p) {
    if ((p < inserted.size() && inserted[p]) ||
        impact[p] == PredImpact::kDelta || impact[p] == PredImpact::kShrink) {
      delta_preds[p] = true;
    }
  }
  FixpointSeed seed{&watermarks, &delta_preds};

  for (size_t s = 0; s < stratification.strata.size(); ++s) {
    const std::vector<int>& rules = stratification.strata[s];
    const int stratum = static_cast<int>(s);
    PredImpact mode = PredImpact::kClean;
    for (int r : rules) {
      mode = std::max(mode, impact[program.rules[r].head_pred]);
    }
    if (mode == PredImpact::kClean) {
      ++stats->strata_skipped;
      StratumRollup(profile, stats, stratum, StratumMode::kSkipped).Finish();
      continue;
    }
    if (mode != PredImpact::kRecompute) {
      LDL_RETURN_IF_ERROR(MaintainStratum(program, rules, stratum, mode, db,
                                          seed, impact, &removed_rows,
                                          options, stats, profile));
      continue;
    }
    // Clear each head that can have lost facts -- kShrink (it never went
    // through DRed, so kept rows could include facts whose support was
    // deleted), kGroupRegrow (EvaluateStratum re-fires its grouping rule
    // from scratch, which would otherwise insert regrown group facts next
    // to the stale ones) and kRecompute -- then re-derive the whole stratum
    // from its (already-maintained) inputs. Cleared relations restart their
    // ledgers, and re-count from scratch: Clear() empties the counts but
    // keeps counting enabled. Heads classified kDelta or kClean keep their
    // rows: re-deriving them is deduplicated, and any genuinely new rows
    // land past their watermarks where downstream delta strata pick them
    // up. Their rules re-fire with dedup against the existing rows, so
    // their derivation counts would inflate; abandon them (deletions there
    // fall back to DRed).
    std::vector<bool> cleared(catalog_->size(), false);
    for (int r : rules) {
      PredId head = program.rules[r].head_pred;
      if (impact[head] >= PredImpact::kShrink && !cleared[head]) {
        cleared[head] = true;
        db->relation(head).Clear();
        removed_rows[head].clear();
      }
    }
    for (int r : rules) {
      PredId head = program.rules[r].head_pred;
      if (!cleared[head]) db->relation(head).DisableCounts();
    }
    ++stats->strata_recomputed;
    LDL_RETURN_IF_ERROR(EvaluateStratum(program, rules, stratum,
                                        StratumMode::kRecomputed, db, options,
                                        stats, profile));
  }
  return Status::OK();
}

}  // namespace ldl
