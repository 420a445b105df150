// Helpers shared by the engine's translation units (engine.cc, and
// maintain.cc for incremental maintenance). Not part of the public API.
#ifndef LDL1_EVAL_ENGINE_INTERNAL_H_
#define LDL1_EVAL_ENGINE_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/status.h"
#include "eval/profile.h"
#include "eval/rule_eval.h"
#include "program/catalog.h"
#include "program/ir.h"
#include "term/term.h"

namespace ldl {

// The syntactic order with body literal `occurrence` evaluated first, or
// the default order when no evaluable order fronts it. Fronting a pinned
// occurrence is only a join-order optimization: windows bind to body
// positions, so any order is correct.
inline StatusOr<std::vector<int>> FrontedOrder(const Catalog& catalog,
                                               const RuleIr& rule,
                                               size_t occurrence) {
  StatusOr<std::vector<int>> fronted =
      OrderBodyLiterals(catalog, rule, static_cast<int>(occurrence));
  if (fronted.ok()) return fronted;
  return OrderBodyLiterals(catalog, rule);
}

// Folds the counters a RuleEvaluator run collected into the rule's profile
// entry (the EvalStats fields that have a per-rule meaning).
inline void AttributeStats(RuleProfileEntry* entry, const EvalStats& run) {
  RuleProfile& counters = entry->counters;
  counters.solutions += run.solutions;
  counters.facts_derived += run.facts_derived;
  counters.tuples_matched += run.tuples_matched;
  counters.index_probes += run.index_probes;
  counters.probe_hits += run.probe_hits;
  counters.groups_built += run.groups_built;
  counters.groups_reused += run.groups_reused;
  counters.group_regrows += run.group_regrows;
}

// Accumulates the factory's set-intern delta across a scope into
// EvalStats::set_interns. The count of *distinct* sets interned by an
// evaluation is determined by the computed model, so the counter is as
// deterministic as the model itself.
class ScopedSetInternCounter {
 public:
  ScopedSetInternCounter(const TermFactory* factory, EvalStats* stats)
      : factory_(factory), stats_(stats),
        before_(factory->set_interned_count()) {}
  ~ScopedSetInternCounter() {
    stats_->set_interns += factory_->set_interned_count() - before_;
  }

 private:
  const TermFactory* factory_;
  EvalStats* stats_;
  size_t before_;
};

// Times one stratum -- or the saturation loop, reported as pseudo-stratum
// -1 -- and on Finish() appends its profile rollup: the wall time plus the
// rounds and facts the stratum added to `stats`. Inert
// without a profile.
class StratumRollup {
 public:
  StratumRollup(EvalProfile* profile, const EvalStats* stats, int stratum,
                StratumMode mode)
      : profile_(profile),
        stats_(stats),
        timer_(profile != nullptr ? &rollup_.wall_ns : nullptr) {
    rollup_.stratum = stratum;
    rollup_.mode = mode;
    rollup_.rounds = stats->iterations;
    rollup_.facts_derived = stats->facts_derived;
  }

  void Finish() {
    if (profile_ == nullptr) return;
    timer_.Stop();
    rollup_.rounds = stats_->iterations - rollup_.rounds;
    rollup_.facts_derived = stats_->facts_derived - rollup_.facts_derived;
    profile_->strata().push_back(rollup_);
  }

 private:
  EvalProfile* profile_;
  const EvalStats* stats_;
  StratumProfile rollup_;
  ScopedWallTimer timer_;
};

}  // namespace ldl

#endif  // LDL1_EVAL_ENGINE_INTERNAL_H_
