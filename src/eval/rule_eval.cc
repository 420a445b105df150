#include "eval/rule_eval.h"

#include <algorithm>
#include <cassert>

#include "eval/bindings.h"
#include "program/wellformed.h"
#include "term/unify.h"

namespace ldl {

StatusOr<std::vector<int>> OrderBodyLiterals(
    const Catalog& catalog, const RuleIr& rule, int forced_first,
    const std::vector<Symbol>* initially_bound) {
  std::vector<int> order = ScheduleBody(
      rule, initially_bound != nullptr ? *initially_bound : std::vector<Symbol>{},
      PositiveOrder::kMostBound, forced_first);
  if (order.size() < rule.body.size()) {
    return UnevaluableBodyError(catalog, rule, order);
  }
  return order;
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

Status RuleEvaluator::EmitHeads(const TupleBlock& block, RowBuffer* out) const {
  if (plan_->head_simple()) {
    // Every argument reads a slot or is a ground scons-free constant, so no
    // term rebuilding (and no outside-U case) is possible.
    const std::vector<ValueRef>& head = plan_->head();
    for (uint32_t idx : block.sel()) {
      const Term* const* src = block.row(idx);
      const Term** dst = out->AppendRow();
      for (size_t i = 0; i < head.size(); ++i) {
        const ValueRef& ref = head[i];
        dst[i] = ref.slot >= 0 ? src[ref.slot] : ref.constant;
        if (dst[i] == nullptr) {
          return InternalError("head variable unbound in a body solution");
        }
      }
    }
    return Status::OK();
  }
  for (uint32_t idx : block.sel()) {
    InstantiationResult inst =
        InstantiateHead(SolutionView(plan_.get(), {block.row(idx), block.width()}));
    if (inst.unbound) {
      return InternalError("head variable unbound in a body solution");
    }
    if (!inst.outside_universe) out->AppendRow(inst.tuple.data());
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
  if (plan_->head_simple()) {
    InstantiationResult result;
    const std::vector<ValueRef>& head = plan_->head();
    result.tuple.reserve(head.size());
    for (const ValueRef& ref : head) {
      const Term* value = ref.slot >= 0 ? view.slots()[ref.slot] : ref.constant;
      if (value == nullptr) {
        result.unbound = true;
        return result;
      }
      result.tuple.push_back(value);
    }
    return result;
  }
  Subst scratch;
  view.AppendBindings(&scratch);
  return InstantiateArgs(*factory_, rule_->head_args, scratch);
}

// ---------------------------------------------------------------------------
// Block kernels (see eval/batch.h). Every counter increment, window clamp,
// and candidate visit happens per (input row, candidate row) pair in
// depth-first order, so counters depend only on the plan and the database.
// ---------------------------------------------------------------------------

namespace {

// Pass 1 of a probing step (kScan with a probe spec, kNegated with one):
// materializes every selected row's key and, for partial keys, hashes it,
// in one sweep over the block. A kNegated key column with a complex
// argument instantiates under the row's inputs; when that falls outside U
// the row's key starts with null and is not hashed.
void GatherProbeKeys(TermFactory& factory, const LiteralIr& literal,
                     const LiteralPlan& step, const TupleBlock& in, bool full_key,
                     BlockStorage::StepScratch* scratch) {
  const size_t key_width = step.probe.size();
  const auto& sel = in.sel();
  scratch->keys.resize(key_width * sel.size());
  scratch->hashes.clear();
  if (!full_key) scratch->hashes.reserve(sel.size());
  Subst bindings;
  for (size_t s = 0; s < sel.size(); ++s) {
    const Term* const* src = in.row(sel[s]);
    const Term** key = scratch->keys.data() + s * key_width;
    bool outside_universe = false;
    bool inputs_bound = false;
    for (size_t i = 0; i < key_width; ++i) {
      const ValueRef& ref = step.probe[i];
      if (ref.slot >= 0 || ref.constant != nullptr) {
        key[i] = ref.slot >= 0 ? src[ref.slot] : ref.constant;
        assert(key[i] != nullptr);
        continue;
      }
      if (!inputs_bound) {
        bindings.Clear();
        for (const auto& [var, slot] : step.inputs) bindings.Bind(var, src[slot]);
        inputs_bound = true;
      }
      key[i] = ApplySubst(factory, literal.args[step.probe_cols[i]], bindings);
      if (key[i] == nullptr) outside_universe = true;
    }
    if (outside_universe) key[0] = nullptr;
    if (!full_key) {
      scratch->hashes.push_back(
          outside_universe ? 0 : Relation::ProbeHash({key, key_width}));
    }
  }
}

}  // namespace

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
    if (key_width > 0) {
      GatherProbeKeys(*factory_, literal, step, in, full_key, &scratch);
    }
    const auto& sel = in.sel();
    scratch.sel.clear();
    Subst bindings;
    for (size_t s = 0; s < sel.size(); ++s) {
      const Term* const* key =
          key_width > 0 ? scratch.keys.data() + s * key_width : nullptr;
      // A key outside U names no U-fact, so the negation holds (§2.2).
      if (key != nullptr && key[0] == nullptr) {
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
      if (full_key) {
        ++stats->index_probes;
        const size_t row = relation.Find({key, key_width});
        if (row != Relation::npos && relation.IsLive(row)) {
          ++stats->probe_hits;
          matches(relation.row(row));
        }
      } else if (key_width > 0) {
        ++stats->index_probes;
        relation.ProbeRowsHashed(step.probe_cols, {key, key_width}, scratch.hashes[s],
                                 0, relation.row_count(), [&](size_t, RowRef tuple) {
                                   ++stats->probe_hits;
                                   return matches(tuple);
                                 });
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

  // --- Specialized scan/probe step ---------------------------------------
  if (step.kind == StepKind::kScan) {
    // Match program over one candidate: append the input row, bind/check
    // against the appended copy (kBind before kCheckSlot on the same slot
    // handles repeated variables within the literal), pop on failure.
    auto try_row = [&](const Term* const* src, RowRef tuple) -> bool {
      ++stats->tuples_matched;
      if (out.full() && !flush()) return false;
      const Term** dst = out.AppendRow(src);
      bool matched = true;
      for (const MatchOp& op : step.match) {
        switch (op.kind) {
          case MatchOpKind::kBind:
            dst[op.slot] = tuple[op.column];
            break;
          case MatchOpKind::kCheckSlot:
            if (tuple[op.column] != dst[op.slot]) matched = false;
            break;
          case MatchOpKind::kCheckConst:
            if (tuple[op.column] != op.constant) matched = false;
            break;
        }
        if (!matched) break;
      }
      if (!matched) out.PopRow();
      return true;
    };

    if (!step.probe.empty()) {
      // Pass 1: materialize every selected row's probe key and hash them in
      // one sweep over the block (one index_probes tick per input binding).
      // A key covering every column names at most one fact, which the
      // relation's own dedup table finds -- no composite index is built.
      const size_t key_width = step.probe.size();
      const bool full_key = key_width == relation.arity();
      const auto& sel = in.sel();
      stats->index_probes += sel.size();
      GatherProbeKeys(*factory_, literal, step, in, full_key, &scratch);
      // Pass 2: probe, input rows in order.
      for (size_t s = 0; s < sel.size(); ++s) {
        if (!keep_going_ || !status.ok()) break;
        const Term* const* src = in.row(sel[s]);
        const Term* const* key = scratch.keys.data() + s * key_width;
        if (full_key) {
          const size_t row = relation.Find({key, key_width});
          if (row != Relation::npos && row >= window.from && row < to &&
              relation.IsLive(row)) {
            ++stats->probe_hits;
            try_row(src, relation.row(row));
          }
          continue;
        }
        relation.ProbeRowsHashed(step.probe_cols, {key, key_width},
                                 scratch.hashes[s], window.from, to,
                                 [&](size_t, RowRef tuple) {
                                   ++stats->probe_hits;
                                   return try_row(src, tuple);
                                 });
      }
      if (status.ok() && keep_going_) flush();
      return status;
    }

    // Unbound scan: gather the window's live rows once per input block
    // (the per-candidate tombstone branch and chunk lookup amortized across
    // every input row), then run the match program over the dense array.
    scratch.live_rows.clear();
    relation.CollectLiveRows(window.from, to, &scratch.live_rows);
    for (uint32_t idx : in.sel()) {
      if (!keep_going_ || !status.ok()) break;
      const Term* const* src = in.row(idx);
      for (const Term* const* row : scratch.live_rows) {
        if (!try_row(src, {row, relation.arity()})) break;
      }
    }
    if (status.ok() && keep_going_) flush();
    return status;
  }

  // --- Generic step ---------------------------------------------------------
  // Complex argument patterns (functors, sets, scons): per-row unification
  // inside the block loop, still probing on the statically bound columns
  // after instantiating them.
  for (uint32_t idx : in.sel()) {
    if (!keep_going_ || !status.ok()) break;
    const Term* const* src = in.row(idx);
    Subst bindings;
    for (const auto& [var, slot] : step.inputs) bindings.Bind(var, src[slot]);

    auto try_row = [&](RowRef tuple) -> bool {
      ++stats->tuples_matched;
      return MatchArgs(*factory_, literal.args, tuple, &bindings, [&]() {
        if (out.full() && !flush()) return false;
        const Term** dst = out.AppendRow(src);
        for (const auto& [var, slot] : step.outputs) {
          dst[slot] = bindings.Lookup(var);
        }
        return keep_going_;
      });
    };

    bool probed = false;
    if (!step.bound_columns.empty()) {
      std::vector<const Term*> values;
      values.reserve(step.bound_columns.size());
      std::vector<uint32_t> cols;
      cols.reserve(step.bound_columns.size());
      bool outside_universe = false;
      for (uint32_t column : step.bound_columns) {
        const Term* value = ApplySubst(*factory_, literal.args[column], bindings);
        if (value == nullptr) {
          // Instantiates outside U (scons on a non-set): no fact can match.
          outside_universe = true;
          break;
        }
        // Statically bound columns instantiate to ground scons-free terms;
        // anything else would indicate a compile/runtime boundness mismatch,
        // so skip the column rather than probe with a bad key.
        if (!value->ground() || value->has_scons()) continue;
        cols.push_back(column);
        values.push_back(value);
      }
      if (outside_universe) continue;
      if (!cols.empty()) {
        ++stats->index_probes;
        relation.ProbeRows(cols, values, window.from, to,
                           [&](size_t, RowRef tuple) {
                             ++stats->probe_hits;
                             return try_row(tuple);
                           });
        probed = true;
      }
    }
    if (!probed) {
      relation.ForEachRow(window.from, to,
                          [&](size_t, RowRef tuple) { return try_row(tuple); });
    }
  }
  if (status.ok() && keep_going_) flush();
  return status;
}

}  // namespace ldl
