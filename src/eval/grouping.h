// The set-grouping operator (paper §2.2 semantics, §3.2 bottom-up r(M)).
//
// For a grouping rule  p(t1, ..., <Y>, ..., tn) <-- body  the body's
// solution relation is partitioned by the values of Z (all variables of the
// non-grouped head arguments); within each partition the Y values are
// collected into a finite set. Only non-empty groups produce facts.
#ifndef LDL1_EVAL_GROUPING_H_
#define LDL1_EVAL_GROUPING_H_

#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "eval/rule_eval.h"

namespace ldl {

// One produced group: the finished head fact plus its partition key (the
// instantiated Z-variable values). The key is what the magic-set scheduler
// uses to reconcile regrown groups.
struct GroupResult {
  Tuple key;
  Tuple fact;
};

// Cross-round reuse of canonicalized groups. The saturating (magic)
// evaluator recomputes every grouping rule once per global round; most
// partitions do not change between rounds, so re-sorting and re-interning
// their member sets is wasted work. `member_count` is the partition's body
// solution count *including duplicates*: body solutions only accumulate
// across saturation rounds (relations grow monotonically between grouping
// firings), so an unchanged count implies an unchanged member multiset and
// the cached fact can be reused verbatim (EvalStats::groups_reused); any
// growth rebuilds and replaces the entry (groups_built).
struct GroupCacheEntry {
  size_t member_count = 0;
  Tuple fact;
};
using GroupCache = std::unordered_map<Tuple, GroupCacheEntry, TupleHash>;

// One partition of a grouping rule's body solutions: the instantiated
// non-grouped head values and the Y values collected so far.
struct GroupPartition {
  Tuple head_values;
  TermFactory::SetBuilder members;  // deduped at Build
};
using GroupPartitions = std::unordered_map<Tuple, GroupPartition, TupleHash>;

// Adds the grouped (Y) value of every body solution of `evaluator`'s
// grouping rule under `windows` to the partition of its Z key, creating the
// partition (with its instantiated head values) on first sight. Solutions
// whose head falls outside U open no partition.
Status CollectGroupMembers(TermFactory& factory, RuleEvaluator& evaluator,
                           const Database& db,
                           const std::vector<LiteralWindow>& windows,
                           GroupPartitions* partitions, EvalStats* stats);

// Evaluates `evaluator`'s rule (which must be a grouping rule) over `db` and
// returns one GroupResult per non-empty partition. With a non-null `cache`,
// partitions whose member count matches the cached entry reuse the cached
// fact instead of re-canonicalizing (see GroupCacheEntry).
StatusOr<std::vector<GroupResult>> ComputeGroups(
    TermFactory& factory, RuleEvaluator& evaluator, const Database& db,
    EvalStats* stats, GroupCache* cache = nullptr);

}  // namespace ldl

#endif  // LDL1_EVAL_GROUPING_H_
