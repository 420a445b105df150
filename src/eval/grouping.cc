#include "eval/grouping.h"

#include <unordered_map>
#include <utility>

#include "eval/bindings.h"

namespace ldl {

Status CollectGroupMembers(TermFactory& factory, RuleEvaluator& evaluator,
                           const Database& db,
                           const std::vector<LiteralWindow>& windows,
                           GroupPartitions* partitions, EvalStats* stats) {
  const RuleIr& rule = evaluator.rule();
  const JoinPlan& plan = evaluator.plan();

  // Z = variables of the non-grouped head arguments (§2.2). Z may include
  // the grouped variable itself, in which case groups are singletons. Their
  // values are read straight from plan slots resolved once up front; slots
  // hold evaluated ground terms.
  std::vector<Symbol> z_vars;
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    if (static_cast<int>(i) == rule.group_index) continue;
    CollectVars(rule.head_args[i], &z_vars);
  }
  std::vector<int> z_slots;
  z_slots.reserve(z_vars.size());
  for (Symbol var : z_vars) z_slots.push_back(plan.SlotOf(var));
  const int group_slot = plan.SlotOf(rule.group_var);

  // The key tuple is rebuilt per solution but the buffer is hoisted out of
  // the hot lambda; it only relocates into the map on a fresh partition.
  Tuple key;
  Status inner;
  LDL_RETURN_IF_ERROR(evaluator.ForEachBlock(
      db, windows,
      [&](const TupleBlock& block) {
        for (uint32_t idx : block.sel()) {
          const Term* const* src = block.row(idx);
          key.clear();
          key.reserve(z_slots.size());
          for (int slot : z_slots) {
            const Term* value = slot >= 0 ? src[slot] : nullptr;
            if (value == nullptr || !value->ground()) {
              inner = InternalError(
                  "grouping key variable unbound in a body solution");
              return false;
            }
            key.push_back(value);
          }
          const Term* y = group_slot >= 0 ? src[group_slot] : nullptr;
          if (y == nullptr) {
            inner = InternalError("grouped variable unbound in a body solution");
            return false;
          }
          auto it = partitions->find(key);
          if (it != partitions->end()) {
            it->second.members.Add(y);
            continue;
          }
          InstantiationResult head =
              evaluator.InstantiateHead(SolutionView(&plan, {src, block.width()}));
          if (head.unbound) {
            inner = InternalError("head variable unbound under grouping");
            return false;
          }
          if (head.outside_universe) continue;  // no U-fact for this key
          GroupPartition partition{std::move(head.tuple),
                                   TermFactory::SetBuilder(&factory)};
          partition.members.Add(y);
          partitions->emplace(std::move(key), std::move(partition));
          key = Tuple();
        }
        return true;
      },
      stats));
  return inner;
}

StatusOr<std::vector<GroupResult>> ComputeGroups(
    TermFactory& factory, RuleEvaluator& evaluator, const Database& db,
    EvalStats* stats, GroupCache* cache) {
  const RuleIr& rule = evaluator.rule();
  if (!rule.is_grouping()) {
    return InternalError("ComputeGroups called on a non-grouping rule");
  }
  GroupPartitions partitions;
  LDL_RETURN_IF_ERROR(
      CollectGroupMembers(factory, evaluator, db, {}, &partitions, stats));

  // Canonicalize the partitions, consulting the cross-round group cache.
  std::vector<GroupResult> results;
  results.reserve(partitions.size());
  for (auto& [partition_key, partition] : partitions) {
    GroupResult result;
    result.key = partition_key;
    const size_t member_count = partition.members.size();
    if (cache != nullptr) {
      auto it = cache->find(partition_key);
      if (it != cache->end() && it->second.member_count == member_count) {
        // Unchanged member multiset (see GroupCacheEntry): reuse the
        // canonical fact without re-sorting or re-interning.
        ++stats->groups_reused;
        result.fact = it->second.fact;
        results.push_back(std::move(result));
        continue;
      }
    }
    ++stats->groups_built;
    result.fact = std::move(partition.head_values);
    result.fact[rule.group_index] = partition.members.Build();
    if (cache != nullptr) {
      (*cache)[partition_key] = GroupCacheEntry{member_count, result.fact};
    }
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace ldl
