#include "program/impact.h"

#include <algorithm>

namespace ldl {

const char* ToString(PredImpact impact) {
  switch (impact) {
    case PredImpact::kClean:
      return "clean";
    case PredImpact::kDelta:
      return "delta";
    case PredImpact::kShrink:
      return "shrink";
    case PredImpact::kGroupRegrow:
      return "group-regrow";
    case PredImpact::kRecompute:
      return "recompute";
  }
  return "?";
}

std::vector<PredImpact> ComputeImpact(const Catalog& catalog,
                                      const ProgramIr& program,
                                      const std::vector<bool>& changed,
                                      const std::vector<bool>& shrunk) {
  std::vector<PredImpact> impact(catalog.size(), PredImpact::kClean);
  for (PredId p = 0; p < impact.size() && p < changed.size(); ++p) {
    if (changed[p]) impact[p] = PredImpact::kDelta;
  }
  // Deletions dominate insertions: a predicate both inserted into and
  // deleted from is kShrink, and the shrink path also resumes the seeded
  // insert deltas after rederivation.
  for (PredId p = 0; p < impact.size() && p < shrunk.size(); ++p) {
    if (shrunk[p]) impact[p] = PredImpact::kShrink;
  }

  // A grouping head is eligible for in-place regrowth only when the
  // grouping rule is the *sole* rule (including fact rules) deriving its
  // head: the regrow path replaces the head facts keyed by partition, which
  // is unsound if another rule contributes facts to the same predicate.
  std::vector<size_t> rules_per_head(catalog.size(), 0);
  for (const RuleIr& rule : program.rules) {
    if (rule.head_pred < rules_per_head.size()) ++rules_per_head[rule.head_pred];
  }

  // Propagate to fixpoint. Strict edges (negated body literals, the `>` of
  // §3.1) escalate any non-clean input to kRecompute. A grouping rule over
  // kDelta inputs regrows its partitions in place (kGroupRegrow) when it is
  // negation-free and the sole rule for its head, else it too recomputes --
  // in particular a grouping rule over a kShrink input recomputes, since
  // the regrow path only handles member sets *growing*. Positive
  // non-grouping edges carry the input's own classification (kDelta stays
  // kDelta, kShrink stays kShrink) -- except that consuming a kGroupRegrow
  // predicate forces kRecompute: the regrow retracts and reinserts facts,
  // which neither the monotone delta machinery nor DRed tracks. Recursion
  // makes a single pass insufficient, and head updates can feed earlier
  // rules, so iterate until stable; each pass only raises classifications,
  // so the loop terminates within 4 * |rules| passes.
  bool dirty = true;
  while (dirty) {
    dirty = false;
    for (const RuleIr& rule : program.rules) {
      if (rule.is_fact()) continue;
      PredImpact head = impact[rule.head_pred];
      for (const LiteralIr& literal : rule.body) {
        if (literal.is_builtin()) continue;
        PredImpact body = impact[literal.pred];
        if (body == PredImpact::kClean) continue;
        PredImpact via;
        if (literal.negated) {
          via = PredImpact::kRecompute;
        } else if (rule.is_grouping()) {
          const bool regrowable = body == PredImpact::kDelta &&
                                  !rule.has_negation() &&
                                  rules_per_head[rule.head_pred] == 1;
          via = regrowable ? PredImpact::kGroupRegrow : PredImpact::kRecompute;
        } else {
          via = body >= PredImpact::kGroupRegrow ? PredImpact::kRecompute
                                                 : body;
        }
        head = std::max(head, via);
      }
      if (head > impact[rule.head_pred]) {
        impact[rule.head_pred] = head;
        dirty = true;
      }
    }
  }
  return impact;
}

}  // namespace ldl
