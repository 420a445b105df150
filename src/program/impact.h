// Update-impact analysis for incremental model maintenance (§3.1).
//
// After an EDB insertion the layering relations tell us exactly how each
// predicate's materialized relation can change:
//
//   * A predicate reachable from a changed predicate only through positive,
//     non-grouping body literals (the `>=` edges of §3.1) can only *gain*
//     facts -- its relation grows monotonically, so semi-naive evaluation
//     can resume from the inserted deltas against the existing model.
//   * Dually, a predicate reachable from a *shrunk* (deleted-from) EDB
//     predicate through the same positive non-grouping edges can only
//     *lose* facts (kShrink). The engine handles those strata with
//     delete-and-rederive (DRed) -- or a plain derivation-count decrement
//     for non-recursive counted strata -- instead of a full recompute.
//   * A predicate reached through at least one grouping or negation edge
//     (the strict `>` edges) may *lose* facts: an insertion below can grow
//     a grouped set (replacing the old group fact) or satisfy a negated
//     literal (retracting a derivation). Such predicates -- and everything
//     that consumes them, positively or not -- must be recomputed from
//     their (already-maintained) inputs.
//   * Grouping is a special case of the strict edge: a grouped head fact
//     changes only by its member set *growing* under an insert-only delta,
//     and the partition key pins exactly which facts are replaced. When the
//     grouping rule is the sole rule for its head, has no negated body
//     literal, and its body inputs are at worst kDelta, the engine can
//     regrow just the affected partitions in place (kGroupRegrow) instead
//     of clearing the whole relation. Because the replacement is a
//     retract-and-reinsert, anything consuming a regrown predicate -- even
//     positively -- still escalates to kRecompute.
//
// ComputeImpact propagates this classification to a fixpoint over the rule
// set; Engine::Maintain consumes it per stratum, handling every class but
// kClean and kRecompute in one per-stratum handler.
#ifndef LDL1_PROGRAM_IMPACT_H_
#define LDL1_PROGRAM_IMPACT_H_

#include <cstdint>
#include <vector>

#include "program/catalog.h"
#include "program/ir.h"

namespace ldl {

// How an EDB update can affect a predicate's materialized relation.
// Ordered by severity so propagation can take the max. kShrink sits between
// kDelta and kGroupRegrow: through a positive edge it stays kShrink (losses
// propagate as losses, possibly mixed with gains), while a grouping or
// negation edge over it escalates to kRecompute just like the regrow case.
enum class PredImpact : uint8_t {
  kClean = 0,        // unreachable from any changed predicate: skip
  kDelta = 1,        // grows monotonically: resume semi-naive from deltas
  kShrink = 2,       // may lose facts (and gain, on mixed batches): DRed
  kGroupRegrow = 3,  // sole-rule grouping head: regrow affected partitions
  kRecompute = 4,    // may shrink or change arbitrarily: clear and recompute
};

const char* ToString(PredImpact impact);

// Classifies every predicate given the set of changed (inserted-into) EDB
// predicates and the set of shrunk (deleted-from) ones. Both are indexed by
// PredId; ids at or past their end are treated as unchanged. The result has
// one entry per catalog predicate.
std::vector<PredImpact> ComputeImpact(const Catalog& catalog,
                                      const ProgramIr& program,
                                      const std::vector<bool>& changed,
                                      const std::vector<bool>& shrunk);

}  // namespace ldl

#endif  // LDL1_PROGRAM_IMPACT_H_
