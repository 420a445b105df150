// Memoized top-down (QSQ-style) evaluation.
//
// Magic sets (§6) exist to make bottom-up evaluation as goal-directed as
// top-down resolution with memoing ([BMSU86] frames the comparison). This
// engine is that baseline: SLD-style goal expansion with answer tables per
// call pattern, iterated to a fixpoint so recursive calls converge
// (OLDT/QSQR-lite).
//
//   * A call pattern is a predicate plus its argument patterns with the
//     caller's free variables canonically renamed; each pattern owns an
//     answer table.
//   * Recursive calls read the current (partial) table; the root query is
//     re-expanded until no table grows.
//   * Negated and grouping-rule subgoals are evaluated in *complete* mode
//     (their own nested fixpoint) before use -- stratification guarantees
//     those nested evaluations never re-enter the caller's stratum, so the
//     §3.2 semantics is preserved.
//
//   * EDB subgoals probe instead of scanning: the argument positions the
//     caller's bindings make ground (and scons-free) select rows through the
//     relation's lazily built hash index on those columns (BuildGoalProbe,
//     ForEachProbedRow), and each row is matched in place. A subgoal
//     with no bound position scans. The EDB is read only through
//     Database::FindRelation, so it may be a published snapshot that other
//     readers probe concurrently (ldl::Service); the indexes a query builds
//     there serve every later query on that snapshot.
//
// Restrictions: head set-patterns unify rigidly against call patterns (the
// evaluation engines' enumerative set matching still applies to body
// literals); calls are never subsumption-checked across tables (a bf call
// and an ff call keep separate tables), matching textbook QSQ.
#ifndef LDL1_EVAL_TOPDOWN_H_
#define LDL1_EVAL_TOPDOWN_H_

#include <map>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "eval/builtins.h"
#include "eval/profile.h"
#include "eval/relation.h"
#include "eval/rule_eval.h"
#include "program/ir.h"
#include "program/stratify.h"

namespace ldl {

struct TopDownOptions {
  size_t max_rounds = 1u << 16;      // outer fixpoint restarts
  size_t max_call_depth = 2048;      // SLD recursion depth
  size_t max_table_rows = 1u << 24;  // total answers across tables
  BuiltinLimits builtin_limits;
};

class TopDownEngine {
 public:
  // `edb` supplies the extensional relations and is only read (a frozen
  // snapshot works); `program` must be analyzed (admissible) with
  // `stratification` matching it.
  TopDownEngine(TermFactory* factory, Catalog* catalog, const ProgramIr* program,
                const Stratification* stratification, const Database* edb,
                TopDownOptions options = {});

  TopDownEngine(const TopDownEngine&) = delete;
  TopDownEngine& operator=(const TopDownEngine&) = delete;

  // Answers `goal` (positive, non-builtin). Tables persist across queries
  // on the same engine instance.
  StatusOr<std::vector<Tuple>> Query(const LiteralIr& goal);

  // Counters in the bottom-up engines' terms: rule_firings counts rule
  // expansions, facts_derived distinct facts tabled, iterations outer
  // fixpoint restarts; tuples_matched, index_probes and probe_hits count
  // the EDB rows and table rows the subgoals visit.
  const EvalStats& stats() const { return stats_; }
  // Table lookups (memo hits + misses).
  size_t calls() const { return calls_; }
  size_t table_count() const { return tables_.size(); }

  // Attributes rule expansions (firings + wall time) to *profile while
  // solving; null (the default) disables collection. The caller fills the
  // profile's TopDownProfile rollup from stats() and calls() afterwards.
  void set_profile(EvalProfile* profile) { profile_ = profile; }

 private:
  struct TableEntry {
    PredId pred = kInvalidPred;
    std::vector<const Term*> pattern;  // canonicalized call arguments
    std::vector<Tuple> rows;
    std::unordered_set<Tuple, TupleHash> index;
    bool started = false;   // expanded in the current restart round
    bool complete = false;  // fixpointed; never re-expanded
  };

  // Canonicalizes the instantiated call arguments (vars renamed to shared
  // placeholders in first-occurrence order) and returns the table.
  StatusOr<TableEntry*> TableFor(PredId pred,
                                 const std::vector<const Term*>& pattern);

  // Runs the call to completion (nested fixpoint); marks reachable tables
  // complete.
  Status SolveComplete(PredId pred, const std::vector<const Term*>& pattern,
                       TableEntry** entry_out);

  // One expansion pass for the call (guarded by `started`).
  Status SolveCall(PredId pred, const std::vector<const Term*>& pattern,
                   size_t depth, TableEntry** entry_out);

  Status ExpandRule(const RuleIr& rule, TableEntry* entry, size_t depth);
  Status ExpandGroupingRule(const RuleIr& rule, TableEntry* entry, size_t depth);

  // Enumerates body solutions; positive IDB subgoals are solved via
  // SolveCall (or SolveComplete when complete_mode).
  Status SolveBody(const RuleIr& rule, const std::vector<int>& order, size_t k,
                   Subst* subst, size_t depth, bool complete_mode,
                   const std::function<bool(const Subst&)>& yield,
                   bool* keep_going);

  // ForEachProbedRow (eval/rule_eval.h) over EDB predicate `pred` with the
  // probe spec of `args` under `subst`, counting into stats_; fn matches
  // each row. A predicate the EDB holds no relation for has no rows.
  template <typename Fn>
  void ForEachEdbRow(PredId pred, std::span<const Term* const> args,
                     const Subst& subst, Fn&& fn);

  Status Insert(TableEntry* entry, const Tuple& fact);
  std::vector<Symbol> BoundRuleVars(const Subst& subst) const;

  bool IsIdb(PredId pred) const;
  // The literal's call pattern under `subst`. An argument that instantiates
  // outside U stays symbolic and sets *outside_universe when given.
  std::vector<const Term*> InstantiateCall(const LiteralIr& literal,
                                           const Subst& subst,
                                           bool* outside_universe = nullptr);
  const Term* CanonicalVar(size_t index);

  TermFactory* factory_;
  Catalog* catalog_;
  const ProgramIr* program_;
  const Stratification* stratification_;
  const Database* edb_;
  TopDownOptions options_;
  // Head predicates of *program_, computed at construction. IsIdb consults
  // this instead of the catalog's live has_rules flag so a concurrent
  // re-analysis (ldl::Service writer) cannot flip a subgoal between IDB
  // and EDB treatment mid-evaluation.
  std::vector<bool> idb_;
  EvalStats stats_;
  size_t calls_ = 0;
  EvalProfile* profile_ = nullptr;

  std::map<std::string, TableEntry> tables_;
  std::vector<const Term*> canonical_vars_;
  bool grew_ = false;
  size_t total_rows_ = 0;
};

}  // namespace ldl

#endif  // LDL1_EVAL_TOPDOWN_H_
