// Helpers shared by the engine's translation units (engine.cc, and
// maintain.cc for incremental maintenance). Not part of the public API.
#ifndef LDL1_EVAL_ENGINE_INTERNAL_H_
#define LDL1_EVAL_ENGINE_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/status.h"
#include "base/str_util.h"
#include "eval/engine.h"
#include "eval/profile.h"
#include "eval/rule_eval.h"
#include "term/term.h"

namespace ldl {

// kResourceExhausted once `db` holds more than options.max_facts facts.
// TotalFacts sums every relation, so callers check only after an insert.
inline Status CheckMaxFacts(const Database& db, const EvalOptions& options) {
  if (db.TotalFacts() <= options.max_facts) return Status::OK();
  return ResourceExhaustedError(StrCat("database exceeded max_facts = ",
                                       options.max_facts,
                                       " (non-terminating program?)"));
}

// Body windows for `rule`: the positive relational literal at position i
// sees rows [0, extent(pred, i)); built-ins and negations see everything.
template <typename Extent>
std::vector<LiteralWindow> PositiveWindows(const RuleIr& rule, Extent extent) {
  std::vector<LiteralWindow> windows(rule.body.size());
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const LiteralIr& literal = rule.body[i];
    if (!literal.is_builtin() && !literal.negated) {
      windows[i] = {0, extent(literal.pred, i)};
    }
  }
  return windows;
}

// One firing of a rule: `firings` applications, counted in rule_firings and
// the profile entry's firings. With an entry, counters collect into
// rule-local stats and wall time into the entry; when the scope ends the
// per-rule ones are attributed to the entry and all fold into the totals.
// Without one they go straight to the totals.
class RuleFiring {
 public:
  RuleFiring(EvalStats* totals, RuleProfileEntry* entry, size_t firings = 1)
      : totals_(totals),
        entry_(entry),
        timer_(entry != nullptr ? &entry->counters.wall_ns : nullptr) {
    stats()->rule_firings += firings;
    if (entry_ != nullptr) entry_->counters.firings += firings;
  }
  ~RuleFiring() {
    if (entry_ == nullptr) return;
    RuleProfile& counters = entry_->counters;
    counters.solutions += local_.solutions;
    counters.facts_derived += local_.facts_derived;
    counters.tuples_matched += local_.tuples_matched;
    counters.index_probes += local_.index_probes;
    counters.probe_hits += local_.probe_hits;
    counters.groups_built += local_.groups_built;
    counters.groups_reused += local_.groups_reused;
    counters.group_regrows += local_.group_regrows;
    totals_->Add(local_);
  }
  RuleFiring(const RuleFiring&) = delete;
  RuleFiring& operator=(const RuleFiring&) = delete;

  // Where the firing counts.
  EvalStats* stats() { return entry_ != nullptr ? &local_ : totals_; }
  // Rows of the delta window driving this firing.
  void AddDeltaRows(size_t rows) {
    if (entry_ != nullptr) entry_->counters.delta_rows += rows;
  }

 private:
  EvalStats local_;
  EvalStats* totals_;
  RuleProfileEntry* entry_;
  ScopedWallTimer timer_;
};

// What every evaluation entry point (EvaluateProgram, Maintain,
// EvaluateSaturating) sets up and settles: its stats (local when the caller
// passed none), its profile (none unless options.profile; the rule table is
// sized up front so entry pointers stay valid) and, when the scope ends, the
// set-intern delta (deterministic: only distinct sets count) and the
// profiled total wall time.
class EvaluationScope {
 public:
  EvaluationScope(const TermFactory* factory, const EvalOptions& options,
                  EvalStats* stats, EvalProfile* profile, size_t rule_count)
      : factory_(factory),
        stats_(stats != nullptr ? stats : &local_),
        profile_(options.profile ? profile : nullptr),
        set_interns_before_(factory->set_interned_count()),
        timer_(profile_ != nullptr ? &total_wall_ : nullptr) {
    if (profile_ != nullptr) profile_->ReserveRules(rule_count);
  }
  ~EvaluationScope() {
    stats_->set_interns += factory_->set_interned_count() - set_interns_before_;
    if (profile_ == nullptr) return;
    timer_.Stop();
    profile_->add_total_wall_ns(total_wall_);
  }
  EvaluationScope(const EvaluationScope&) = delete;
  EvaluationScope& operator=(const EvaluationScope&) = delete;

  EvalStats* stats() const { return stats_; }
  EvalProfile* profile() const { return profile_; }

 private:
  const TermFactory* factory_;
  EvalStats local_;
  EvalStats* stats_;
  EvalProfile* profile_;
  size_t set_interns_before_;
  uint64_t total_wall_ = 0;
  ScopedWallTimer timer_;
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
