// Evaluation observability: per-rule and per-stratum execution profiles.
//
// EvalProfile is the structured counterpart of EvalStats: where EvalStats
// folds everything into whole-evaluation totals, EvalProfile attributes
// work (wall time, firings, delta sizes, probe traffic) to individual rules
// and strata, so a perf change can be judged
// per rule instead of by one wall-clock number. Collection is gated on
// EvalOptions::profile -- when off, the engine never touches a profile and
// the only cost on the hot path is a null-pointer test per rule
// application.
//
// Determinism contract: the fields in LDL_RULE_PROFILE_FIELDS depend only
// on the program, the EDB, and the evaluation mode, never on the clock. The
// engine evaluates every round against the round-start snapshot (explicit
// snapshot windows, see Engine::Fixpoint) and counts a firing per
// rule×delta-variant application, so repeated runs produce identical
// deterministic fields (tests/profile_test.cc and the golden profile
// sections pin them). LDL_RULE_PROFILE_TIMING_FIELDS (wall time) varies
// run to run and is excluded from the contract.
#ifndef LDL1_EVAL_PROFILE_H_
#define LDL1_EVAL_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ldl {

class Catalog;
class TermFactory;
struct LiteralIr;
struct RuleIr;

// Deterministic per-rule counters. Same X-macro discipline as
// LDL_EVAL_STATS_FIELDS: the struct fields, Add(), ForEachField(), and the
// JSON export are all generated from this list, so a counter added here is
// automatically folded and exported.
#define LDL_RULE_PROFILE_FIELDS(X)                                          \
  X(firings)        /* rule (variant) applications */                       \
  X(solutions)      /* body solutions found */                              \
  X(facts_derived)  /* new facts this rule inserted */                      \
  X(delta_rows)     /* delta-window rows driving semi-naive variants */     \
  X(tuples_matched) /* candidate tuples fed to the matcher */               \
  X(index_probes)   /* index lookups issued */                              \
  X(probe_hits)     /* rows returned by index lookups */                    \
  X(groups_built)   /* grouping partitions canonicalized + interned */      \
  X(groups_reused)  /* grouping partitions reused from the group cache */   \
  X(group_regrows)  /* partitions regrown in place by kGroupRegrow */       \
  X(est_rows)       /* cost model's estimated solutions (vs `solutions`) */

// Clock-dependent per-rule fields: vary run to run.
#define LDL_RULE_PROFILE_TIMING_FIELDS(X) \
  X(wall_ns) /* steady_clock time spent evaluating this rule */

struct RuleProfile {
#define LDL_RULE_PROFILE_DECLARE(name) uint64_t name = 0;
  LDL_RULE_PROFILE_FIELDS(LDL_RULE_PROFILE_DECLARE)
  LDL_RULE_PROFILE_TIMING_FIELDS(LDL_RULE_PROFILE_DECLARE)
#undef LDL_RULE_PROFILE_DECLARE

  void Add(const RuleProfile& other) {
#define LDL_RULE_PROFILE_ADD(name) name += other.name;
    LDL_RULE_PROFILE_FIELDS(LDL_RULE_PROFILE_ADD)
    LDL_RULE_PROFILE_TIMING_FIELDS(LDL_RULE_PROFILE_ADD)
#undef LDL_RULE_PROFILE_ADD
  }

  // Visits ("name", value) for the deterministic counters, then (when
  // include_timing) the timing counters, in declaration order.
  template <typename Fn>
  void ForEachField(Fn&& fn, bool include_timing = true) const {
#define LDL_RULE_PROFILE_VISIT(name) fn(#name, name);
    LDL_RULE_PROFILE_FIELDS(LDL_RULE_PROFILE_VISIT)
    if (include_timing) {
      LDL_RULE_PROFILE_TIMING_FIELDS(LDL_RULE_PROFILE_VISIT)
    }
#undef LDL_RULE_PROFILE_VISIT
  }
};

// One profiled rule. `rule_index` indexes the evaluated ProgramIr (the
// magic path profiles the rewritten program, so indexes are per
// evaluation, not per source text); `label` is the rendered rule.
struct RuleProfileEntry {
  int rule_index = -1;
  int stratum = -1;  // -1: saturating (magic) evaluation, which is unlayered
  std::string label;
  RuleProfile counters;
};

// How a stratum was treated by the evaluation that produced its rollup.
// kFull is the ordinary from-scratch pass; the rest only appear under
// Engine::Maintain.
enum class StratumMode : uint8_t {
  kFull = 0,        // evaluated from scratch
  kSkipped = 1,     // incremental: unaffected by the update
  kDelta = 2,       // incremental: semi-naive resumed from deltas
  kRecomputed = 3,  // incremental: cleared and re-derived
  kGroupRegrow = 4, // incremental: grouped partitions regrown in place
  kShrink = 5,      // incremental: deletions applied via counts or DRed
};

// "full", "skipped", "delta", "recomputed", "group-regrow", "shrink".
const char* ToString(StratumMode mode);

// Per-stratum rollup. `rounds` counts fixpoint iterations inside the
// stratum; wall_ns covers grouping rules, facts, and the fixpoint.
struct StratumProfile {
  int stratum = -1;
  StratumMode mode = StratumMode::kFull;
  uint64_t wall_ns = 0;
  uint64_t rounds = 0;
  uint64_t facts_derived = 0;
};

// Memoized top-down evaluation rollup (populated on QueryStrategy::kTopDown
// only; per-rule expansion work lands in `rules` like the bottom-up paths).
struct TopDownProfile {
  bool used = false;
  uint64_t wall_ns = 0;
  uint64_t calls = 0;
  uint64_t expansions = 0;
  uint64_t answers = 0;
  uint64_t restarts = 0;
  uint64_t tables = 0;
};

class EvalProfile {
 public:
  // Drops all recorded data (a Session reuses one profile per evaluation).
  void Clear();

  // Sizes the rule table for a program of `rule_count` rules so EntryFor
  // never reallocates mid-evaluation (the engine caches entry pointers
  // across fixpoint rounds).
  void ReserveRules(size_t rule_count);

  // Returns the entry for `rule_index`, growing the table as needed. The
  // first touch records `stratum`; the caller supplies the label (labels
  // render catalog names, which the profile does not know).
  RuleProfileEntry& EntryFor(int rule_index, int stratum);

  // Entries in rule-index order, untouched slots skipped.
  const std::vector<RuleProfileEntry>& rules() const { return rules_; }
  std::vector<StratumProfile>& strata() { return strata_; }
  const std::vector<StratumProfile>& strata() const { return strata_; }
  TopDownProfile& topdown() { return topdown_; }
  const TopDownProfile& topdown() const { return topdown_; }

  uint64_t total_wall_ns() const { return total_wall_ns_; }
  void add_total_wall_ns(uint64_t ns) { total_wall_ns_ += ns; }

  // The whole profile as one JSON object:
  //   {"total_wall_ns": ..., "strata": [...], "rules": [...],
  //    "topdown": {...}?}
  // Rule entries list the deterministic counters first, then wall_ns.
  // Labels are JSON-escaped.
  std::string ToJson() const;

 private:
  uint64_t total_wall_ns_ = 0;
  std::vector<RuleProfileEntry> rules_;
  std::vector<StratumProfile> strata_;
  TopDownProfile topdown_;
};

// Accumulates steady_clock elapsed time into *sink on destruction; a null
// sink disarms it (the profiling-off path never reads the clock).
class ScopedWallTimer {
 public:
  explicit ScopedWallTimer(uint64_t* sink) : sink_(sink) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedWallTimer() { Stop(); }

  ScopedWallTimer(const ScopedWallTimer&) = delete;
  ScopedWallTimer& operator=(const ScopedWallTimer&) = delete;

  // Accumulates and disarms early (for non-scope-shaped regions).
  void Stop() {
    if (sink_ == nullptr) return;
    *sink_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    sink_ = nullptr;
  }

 private:
  uint64_t* sink_;
  std::chrono::steady_clock::time_point start_;
};

// Renders one body literal, e.g. "p(X, Z)" or "!q(X)" (negation as '!').
// The REPL's :plan printer uses this for per-step lines.
std::string FormatLiteral(const TermFactory& factory, const Catalog& catalog,
                          const LiteralIr& literal);

// Renders `rule` for RuleProfileEntry::label, e.g.
// "a(X, Y) :- p(X, Z), a(Z, Y)" (grouped head arguments in <angle
// brackets>, negation as '!').
std::string FormatRuleLabel(const TermFactory& factory, const Catalog& catalog,
                            const RuleIr& rule);

}  // namespace ldl

#endif  // LDL1_EVAL_PROFILE_H_
