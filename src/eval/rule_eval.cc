#include "eval/rule_eval.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "eval/bindings.h"
#include "program/wellformed.h"
#include "term/unify.h"

namespace ldl {

StatusOr<std::vector<int>> OrderBodyLiterals(
    const Catalog& catalog, const RuleIr& rule, int forced_first,
    const std::vector<Symbol>* initially_bound) {
  std::vector<int> order = ScheduleBody(
      rule, initially_bound != nullptr ? *initially_bound : std::vector<Symbol>{},
      forced_first);
  if (order.size() < rule.body.size()) {
    return UnevaluableBodyError(catalog, rule, order);
  }
  return order;
}

GoalProbe BuildGoalProbe(TermFactory& factory, std::span<const Term* const> args,
                         const Subst& subst) {
  GoalProbe probe;
  for (uint32_t column = 0; column < args.size(); ++column) {
    const Term* value = subst.Walk(args[column]);
    // Under an empty subst a non-ground argument stays non-ground, so a
    // model query skips rebuilding it.
    if (!value->ground() && !value->is_var() && !subst.empty()) {
      value = ApplySubst(factory, value, subst);
    }
    if (value != nullptr && value->ground() && !value->has_scons()) {
      probe.cols.push_back(column);
      probe.values.push_back(value);
    }
  }
  probe.full_key = !probe.cols.empty() && probe.cols.size() == args.size();
  if (!probe.cols.empty() && !probe.full_key) {
    probe.hash = Relation::ProbeHash(probe.values);
  }
  return probe;
}

GoalLookup::GoalLookup(TermFactory& factory, std::span<const Term* const> args)
    : probe_(BuildGoalProbe(factory, args, Subst())) {
  size_t key = 0;  // next entry of probe_.cols
  for (uint32_t column = 0; column < args.size(); ++column) {
    if (key < probe_.cols.size() && probe_.cols[key] == column) {
      ++key;
      continue;
    }
    if (!args[column]->is_var()) {
      residual_ = true;
      break;
    }
    // Interned: the same variable is the same pointer, and no key column
    // holds one.
    const auto first = std::find(args.begin(), args.begin() + column, args[column]);
    if (first != args.begin() + column) {
      checks_.push_back(MatchOp{MatchOpKind::kCheckSlot, column,
                                static_cast<int>(first - args.begin())});
    }
  }
  if (residual_) {
    checks_.clear();
    args_.assign(args.begin(), args.end());
  }
}

std::vector<Tuple> GoalLookup::Run(TermFactory& factory, const Relation& relation) const {
  std::vector<Tuple> answers;
  EvalStats unused;  // a model read reports the evaluation's counters
  Subst subst;
  ForEachProbedRow(relation, probe_, &unused, [&](RowRef row) {
    if (residual_) {
      MatchArgs(factory, args_, row, &subst, [&]() {
        answers.emplace_back(row.begin(), row.end());
        return false;  // one match per fact suffices
      });
    } else if (std::all_of(checks_.begin(), checks_.end(), [&](const MatchOp& check) {
                 return row[check.column] == row[check.slot];
               })) {
      answers.emplace_back(row.begin(), row.end());
    }
    return true;
  });
  return answers;
}

RuleEvaluator::RuleEvaluator(TermFactory* factory, const RuleIr* rule,
                             const std::vector<int>& order, BuiltinLimits limits,
                             std::shared_ptr<const JoinPlan> plan,
                             BlockStoragePool* storage_pool)
    : factory_(factory),
      rule_(rule),
      limits_(limits),
      plan_(plan != nullptr ? std::move(plan)
                            : std::make_shared<const JoinPlan>(
                                  JoinPlan::Compile(*rule, order))),
      storage_pool_(storage_pool) {}

RuleEvaluator::~RuleEvaluator() {
  if (storage_ != nullptr && storage_pool_ != nullptr) {
    storage_pool_->Release(std::move(storage_));
  }
}

void RuleEvaluator::PrepareStorage() {
  if (storage_ != nullptr) return;
  storage_ = storage_pool_ != nullptr ? storage_pool_->Acquire()
                                      : std::make_unique<BlockStorage>();
  const size_t steps = plan_->steps().size();
  const size_t width = plan_->slot_count();
  if (storage_->blocks.size() < steps) storage_->blocks.resize(steps);
  if (storage_->scratch.size() < steps) storage_->scratch.resize(steps);
  for (size_t d = 0; d < steps; ++d) {
    storage_->blocks[d].Reset(width, kDefaultBlockRows);
  }
  storage_->root.Reset(width, kDefaultBlockRows);
}

Status RuleEvaluator::ForEachBlock(const Database& db,
                                   const std::vector<LiteralWindow>& windows,
                                   const BlockFn& sink, EvalStats* stats) {
  PrepareStorage();
  keep_going_ = true;
  TupleBlock& root = storage_->root;
  root.Clear();
  root.AppendUnboundRow();
  return ProcessBlock(db, windows, 0, root, sink, stats);
}

Status RuleEvaluator::ForEachBlockDeriving(const Database& db, RowRef head,
                                           const BlockFn& sink,
                                           EvalStats* stats) {
  if (!plan_->head_seeded()) {
    return InternalError("ForEachBlockDeriving requires a head-seeded plan");
  }
  PrepareStorage();
  keep_going_ = true;
  TupleBlock& root = storage_->root;
  root.Clear();
  Subst subst;
  bool unbound = false;
  MatchArgs(*factory_, rule_->head_args, head, &subst, [&]() {
    const Term** row = root.AppendUnboundRow();
    for (const auto& [var, slot] : plan_->var_slots()) {
      row[slot] = subst.Lookup(var);
    }
    for (int slot : plan_->seeded_slots()) {
      if (row[slot] == nullptr) unbound = true;
    }
    return !unbound;
  });
  if (unbound) {
    return InternalError("head unifier left a head variable unbound");
  }
  if (root.empty()) return Status::OK();  // the fact does not match the head
  return ProcessBlock(db, {}, 0, root, sink, stats);
}

// ---------------------------------------------------------------------------
// Block kernels (see eval/batch.h). Every counter increment, window clamp,
// and candidate visit happens per (input row, candidate row) pair in
// depth-first order, so counters depend only on the plan and the database.
// ---------------------------------------------------------------------------

namespace {

// Reads `refs` from slot row `row` into `out`. The first ref to instantiate
// binds the bound `inputs` into *bindings. Returns false at the first ref it
// cannot resolve: with *unbound set when the ref read an unbound slot or
// left a variable free, and clear when the ref fell outside U (§2.2).
bool ResolveRefs(TermFactory& factory, std::span<const ValueRef> refs,
                 std::span<const std::pair<Symbol, int>> inputs,
                 const Term* const* row, Subst* bindings, const Term** out,
                 bool* unbound) {
  bool inputs_bound = false;
  for (size_t i = 0; i < refs.size(); ++i) {
    const ValueRef& ref = refs[i];
    if (!ref.instantiate) {
      out[i] = ref.slot >= 0 ? row[ref.slot] : ref.term;
      if (out[i] != nullptr) continue;
      *unbound = true;
      return false;
    }
    if (!inputs_bound) {
      bindings->Clear();
      for (const auto& [var, slot] : inputs) {
        if (row[slot] != nullptr) bindings->Bind(var, row[slot]);
      }
      inputs_bound = true;
    }
    bool ground = true;
    out[i] = InstantiateGround(factory, ref.term, *bindings, &ground);
    if (out[i] != nullptr) continue;
    *unbound = !ground;
    return false;
  }
  return true;
}

// Pass 1 of a probing step (kScan or kNegated with a probe spec):
// materializes every selected row's key and, for partial keys, hashes it,
// in one sweep over the block. A key column with a complex argument
// instantiates under the row's inputs; when that falls outside U the row's
// key starts with null and is not hashed. Returns the number of such rows.
size_t GatherProbeKeys(TermFactory& factory, const LiteralPlan& step,
                       const TupleBlock& in, bool full_key,
                       BlockStorage::StepScratch* scratch) {
  const size_t key_width = step.probe.size();
  const auto& sel = in.sel();
  scratch->keys.resize(key_width * sel.size());
  scratch->hashes.clear();
  if (!full_key) scratch->hashes.reserve(sel.size());
  size_t outside_universe = 0;
  Subst bindings;
  for (size_t s = 0; s < sel.size(); ++s) {
    const Term** key = scratch->keys.data() + s * key_width;
    bool unbound = false;
    const bool resolved = ResolveRefs(factory, step.probe, step.inputs, in.row(sel[s]),
                                      &bindings, key, &unbound);
    assert(!unbound);
    if (!resolved) {
      key[0] = nullptr;
      ++outside_universe;
    }
    if (!full_key) {
      scratch->hashes.push_back(resolved ? Relation::ProbeHash({key, key_width}) : 0);
    }
  }
  return outside_universe;
}

// Pass 2 for selected row `s`: calls fn(tuple) for each live row in
// [from, to) matching its key -- one Relation::Find for a full key (the
// relation's dedup table, no composite index), ProbeRowsHashed for a partial
// one -- counting one probe_hits per row. fn returns false to stop.
template <typename Fn>
void ProbeKey(const Relation& relation, const LiteralPlan& step,
              const BlockStorage::StepScratch& scratch, size_t s, bool full_key,
              size_t from, size_t to, EvalStats* stats, Fn&& fn) {
  const size_t key_width = step.probe.size();
  const Term* const* key = scratch.keys.data() + s * key_width;
  if (full_key) {
    const size_t row = relation.Find({key, key_width});
    if (row != Relation::npos && row >= from && row < to && relation.IsLive(row)) {
      ++stats->probe_hits;
      fn(relation.row(row));
    }
    return;
  }
  relation.ProbeRowsHashed(step.probe_cols, {key, key_width}, scratch.hashes[s], from,
                           to, [&](size_t, RowRef tuple) {
                             ++stats->probe_hits;
                             return fn(tuple);
                           });
}

}  // namespace

Status RuleEvaluator::EmitHeads(const TupleBlock& block, RowBuffer* out) const {
  Subst bindings;
  for (uint32_t idx : block.sel()) {
    const Term** dst = out->AppendRow();
    bool unbound = false;
    if (ResolveRefs(*factory_, plan_->head(), plan_->var_slots(), block.row(idx),
                    &bindings, dst, &unbound)) {
      continue;
    }
    if (unbound) return InternalError("head variable unbound in a body solution");
    out->PopRow();  // the head falls outside U: no fact
  }
  return Status::OK();
}

Status RuleEvaluator::CollectHeads(const Database& db,
                                   const std::vector<LiteralWindow>& windows,
                                   RowBuffer* out, EvalStats* stats) {
  Status inner;
  LDL_RETURN_IF_ERROR(ForEachBlock(
      db, windows,
      [&](const TupleBlock& block) {
        inner = EmitHeads(block, out);
        return inner.ok();
      },
      stats));
  return inner;
}

InstantiationResult RuleEvaluator::InstantiateHead(const SolutionView& view) const {
  InstantiationResult result;
  result.tuple.resize(plan_->head().size());
  Subst bindings;
  if (!ResolveRefs(*factory_, plan_->head(), plan_->var_slots(), view.slots().data(),
                   &bindings, result.tuple.data(), &result.unbound)) {
    result.outside_universe = !result.unbound;
  }
  return result;
}

Status RuleEvaluator::ProcessBlock(const Database& db,
                                   const std::vector<LiteralWindow>& windows,
                                   size_t depth, TupleBlock& in,
                                   const BlockFn& sink, EvalStats* stats) {
  if (!keep_going_) return Status::OK();
  if (depth == plan_->steps().size()) {
    stats->solutions += in.sel().size();
    keep_going_ = sink(in);
    return Status::OK();
  }
  const LiteralPlan& step = plan_->steps()[depth];
  const LiteralIr& literal = rule_->body[step.literal_index];
  TupleBlock& out = storage_->blocks[depth];
  BlockStorage::StepScratch& scratch = storage_->scratch[depth];
  out.Clear();
  Status status;

  // Hands the accumulated output block downstream and resets it. Returns
  // false when the enumeration must stop (error captured in `status`, or
  // the sink asked to stop).
  auto flush = [&]() -> bool {
    if (out.empty()) {
      out.Clear();  // rows may all have been popped; reclaim the storage
      return keep_going_;
    }
    Status inner = ProcessBlock(db, windows, depth + 1, out, sink, stats);
    out.Clear();
    if (!inner.ok()) {
      status = inner;
      keep_going_ = false;
    }
    return keep_going_;
  };

  // --- Built-in step ------------------------------------------------------
  if (step.kind == StepKind::kBuiltin) {
    if (step.outputs.empty()) {
      // Pure filter (comparisons, ground checks): refine the selection
      // vector in place, no row copies. A built-in that yields k times
      // keeps the row k times, preserving duplicate solutions.
      scratch.sel.clear();
      for (uint32_t idx : in.sel()) {
        const Term* const* src = in.row(idx);
        Subst bindings;
        for (const auto& [var, slot] : step.inputs) bindings.Bind(var, src[slot]);
        bool builtin_keep_going = true;
        Status builtin_status = EvalBuiltin(
            *factory_, literal, &bindings,
            [&]() {
              scratch.sel.push_back(idx);
              return true;
            },
            &builtin_keep_going, limits_);
        if (!builtin_status.ok()) return builtin_status;
      }
      in.mutable_sel()->swap(scratch.sel);
      if (in.empty()) return Status::OK();
      return ProcessBlock(db, windows, depth + 1, in, sink, stats);
    }
    // Expanding built-in (arithmetic, set ops binding new variables): one
    // output row per yield, outputs harvested from the scratch bindings.
    for (uint32_t idx : in.sel()) {
      if (!keep_going_) break;
      const Term* const* src = in.row(idx);
      Subst bindings;
      for (const auto& [var, slot] : step.inputs) bindings.Bind(var, src[slot]);
      bool builtin_keep_going = true;
      Status builtin_status = EvalBuiltin(
          *factory_, literal, &bindings,
          [&]() {
            if (out.full() && !flush()) return false;
            const Term** dst = out.AppendRow(src);
            for (const auto& [var, slot] : step.outputs) {
              dst[slot] = bindings.Lookup(var);
            }
            return keep_going_;
          },
          &builtin_keep_going, limits_);
      if (!builtin_status.ok()) return builtin_status;
      if (!status.ok()) return status;
    }
    if (status.ok() && keep_going_) flush();
    return status;
  }

  // --- Negation step: anti-join -------------------------------------------
  if (step.kind == StepKind::kNegated) {
    // Negation as failure against the (completed) relation is a pure
    // filter: a row stays iff no live fact matches the literal under it.
    // Each lookup is one index_probes tick; the search stops at the first
    // candidate that passes the residual match, if the step has one.
    const Relation& relation = db.relation(literal.pred);
    const size_t key_width = step.probe.size();
    const bool full_key = key_width == literal.args.size();
    if (key_width > 0) GatherProbeKeys(*factory_, step, in, full_key, &scratch);
    const auto& sel = in.sel();
    scratch.sel.clear();
    Subst bindings;
    for (size_t s = 0; s < sel.size(); ++s) {
      // A key outside U names no U-fact, so the negation holds (§2.2).
      if (key_width > 0 && scratch.keys[s * key_width] == nullptr) {
        scratch.sel.push_back(sel[s]);
        continue;
      }
      if (step.residual) {
        bindings.Clear();
        const Term* const* src = in.row(sel[s]);
        for (const auto& [var, slot] : step.inputs) bindings.Bind(var, src[slot]);
      }
      bool found = false;
      auto matches = [&](RowRef tuple) {
        ++stats->tuples_matched;
        if (step.residual) {
          MatchArgs(*factory_, literal.args, tuple, &bindings, [&]() {
            found = true;
            return false;
          });
        } else {
          found = true;
        }
        return !found;
      };
      if (key_width > 0) {
        ++stats->index_probes;
        ProbeKey(relation, step, scratch, s, full_key, 0, relation.row_count(), stats,
                 matches);
      } else {
        relation.ForEachRow(0, relation.row_count(),
                            [&](size_t, RowRef tuple) { return matches(tuple); });
      }
      if (!found) scratch.sel.push_back(sel[s]);
    }
    in.mutable_sel()->swap(scratch.sel);
    if (in.empty()) return Status::OK();
    return ProcessBlock(db, windows, depth + 1, in, sink, stats);
  }

  const Relation& relation = db.relation(step.pred);
  LiteralWindow window;
  if (!windows.empty()) window = windows[step.literal_index];
  size_t to = std::min(window.to, relation.row_count());

  // --- Scan/probe step ----------------------------------------------------
  // Enumerates the candidates of every selected input row: begin_row(src)
  // runs before a row's candidates, then try_row(src, tuple) per candidate
  // (false stops that row's candidates). Rows with a key column outside U
  // are skipped: they count no probe and match no fact.
  auto scan = [&](auto&& begin_row, auto&& try_row) -> Status {
    const auto& sel = in.sel();
    if (!step.probe.empty()) {
      // Pass 1: materialize and hash every selected row's key (one
      // index_probes tick per key). Pass 2: probe, input rows in order.
      const bool full_key = step.probe.size() == relation.arity();
      stats->index_probes +=
          sel.size() - GatherProbeKeys(*factory_, step, in, full_key, &scratch);
      for (size_t s = 0; s < sel.size(); ++s) {
        if (!keep_going_ || !status.ok()) break;
        if (scratch.keys[s * step.probe.size()] == nullptr) continue;
        const Term* const* src = in.row(sel[s]);
        begin_row(src);
        ProbeKey(relation, step, scratch, s, full_key, window.from, to, stats,
                 [&](RowRef tuple) { return try_row(src, tuple); });
      }
    } else {
      // Unbound scan: gather the window's live rows once per input block
      // (the per-candidate tombstone branch and chunk lookup amortized
      // across every input row), then match over the dense array.
      scratch.live_rows.clear();
      relation.CollectLiveRows(window.from, to, &scratch.live_rows);
      for (uint32_t idx : sel) {
        if (!keep_going_ || !status.ok()) break;
        const Term* const* src = in.row(idx);
        begin_row(src);
        for (const Term* const* row : scratch.live_rows) {
          if (!try_row(src, {row, relation.arity()})) break;
        }
      }
    }
    if (status.ok() && keep_going_) flush();
    return status;
  };

  if (step.residual) {
    // A complex unbound column: MatchArgs under the row's inputs, one output
    // row per unifier, outputs harvested from the bindings.
    Subst bindings;
    return scan(
        [&](const Term* const* src) {
          bindings.Clear();
          for (const auto& [var, slot] : step.inputs) bindings.Bind(var, src[slot]);
        },
        [&](const Term* const* src, RowRef tuple) {
          ++stats->tuples_matched;
          return MatchArgs(*factory_, literal.args, tuple, &bindings, [&]() {
            if (out.full() && !flush()) return false;
            const Term** dst = out.AppendRow(src);
            for (const auto& [var, slot] : step.outputs) dst[slot] = bindings.Lookup(var);
            return keep_going_;
          });
        });
  }
  // Match program over one candidate: append the input row, bind/check
  // against the appended copy (kBind before kCheckSlot on the same slot
  // handles repeated variables within the literal), pop on failure.
  return scan([](const Term* const*) {},
              [&](const Term* const* src, RowRef tuple) {
                ++stats->tuples_matched;
                if (out.full() && !flush()) return false;
                const Term** dst = out.AppendRow(src);
                for (const MatchOp& op : step.match) {
                  if (op.kind == MatchOpKind::kBind) {
                    dst[op.slot] = tuple[op.column];
                  } else if (tuple[op.column] != dst[op.slot]) {
                    out.PopRow();
                    break;
                  }
                }
                return true;
              });
}

}  // namespace ldl
