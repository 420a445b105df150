// ldl::Session -- the public entry point of the library.
//
// Typical use:
//
//   ldl::Session session;
//   LDL_RETURN_IF_ERROR(session.Load(R"(
//     parent(adam, bob).  parent(bob, carl).
//     ancestor(X, Y) :- parent(X, Y).
//     ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
//   )"));
//   auto answers = session.Query("ancestor(adam, X)");
//
// Load() accepts full LDL1.5 (sets, grouping, negation, complex head/body
// terms); Analyze() macro-expands to LDL1, lowers, checks well-formedness
// and admissibility, and stratifies. Evaluate() materializes the standard
// minimal model bottom-up (Theorem 1). Query() answers a goal using the
// selected QueryStrategy: against the materialized model, via the
// Generalized Magic Sets rewriting (§6) in a fresh database, or through the
// memoized top-down baseline.
#ifndef LDL1_LDL_LDL_H_
#define LDL1_LDL_LDL_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/ast.h"
#include "base/status.h"
#include "eval/engine.h"
#include "program/lower.h"
#include "program/stratify.h"
#include "program/termination.h"
#include "program/wellformed.h"
#include "rewrite/ldl15.h"
#include "eval/topdown.h"
#include "rewrite/magic.h"
#include "semantics/explain.h"

namespace ldl {

// How Session::Query answers a goal.
enum class QueryStrategy {
  // Match the goal against the materialized minimal model (evaluating it
  // bottom-up first if needed).
  kModel,
  // Compile the Generalized Magic Sets rewriting (§6) for the goal's
  // binding pattern and evaluate it in a scratch database over the EDB.
  kMagic,
  // kMagic, with supplementary predicates (shared prefix joins).
  kMagicSupplementary,
  // The memoized top-down engine (QSQ-style) -- the baseline §6's magic
  // sets mimic.
  kTopDown,
};

// "model", "magic", "magic-sup", "topdown".
const char* ToString(QueryStrategy strategy);
// Inverse of ToString (a few aliases are also accepted); kInvalidArgument
// naming the valid strategies on unknown names.
StatusOr<QueryStrategy> ParseQueryStrategy(std::string_view name);
// The canonical names as one comma-separated list, for help text and error
// messages: "model, magic, magic-sup, topdown".
const char* QueryStrategyNames();

struct QueryOptions {
  QueryStrategy strategy = QueryStrategy::kModel;
  EvalOptions eval;
};

struct QueryResult {
  std::vector<Tuple> tuples;
  // Stats of the evaluation that answered the query (the magic/top-down
  // run under those strategies, otherwise the last full Evaluate()).
  EvalStats stats;
  // Per-rule / per-stratum execution profile of that same evaluation.
  // Populated only when QueryOptions::eval.profile is set (under kModel the
  // materializing Evaluate() must itself have run with profiling on).
  EvalProfile profile;
};

class Service;

// A goal parsed, checked and lowered once, queryable many times. Hot goals
// skip the per-call reparse; ldl::Service additionally requires prepared
// goals on its concurrent read path so querying never mutates shared parser
// state. Preparing also compiles the goal's lookup (GoalLookup,
// eval/rule_eval.h), which every kModel read of the goal runs: it probes
// the model and copies the matching rows, with no unifier unless an
// argument is a complex pattern. A PreparedQuery stays valid for the
// lifetime of the Session or Service that prepared it -- PredIds and
// interned terms survive later Load()/Analyze() rounds -- though answers
// always reflect the model it is asked against, not the one it was prepared
// under.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  // The goal text this query was prepared from.
  const std::string& text() const { return text_; }
  const LiteralIr& goal() const { return goal_; }
  const GoalLookup& lookup() const { return lookup_; }
  bool valid() const { return goal_.pred != kInvalidPred; }

 private:
  friend class Session;
  friend class Service;
  PreparedQuery(std::string_view text, LiteralIr goal, TermFactory& factory)
      : text_(text), goal_(std::move(goal)), lookup_(factory, goal_.args) {}

  std::string text_;
  LiteralIr goal_ = {};
  GoalLookup lookup_;
};

// Provides a scratch evaluation database with the EDB facts of exactly the
// predicates in `preds`. Session::Query copies them in from its edb_facts_
// list (it answers bound goals without materializing a model first); the
// overloads below that take a seeder remain for Session and for callers
// that compose a query from the public calls, such as the end-to-end
// benchmark harness. ldl::Service uses the `const Database&` overloads,
// which copy no row.
using EdbSeeder =
    std::function<void(Database* scratch, const std::vector<PredId>& preds)>;

// One bound-query shape compiled: the magic rewriting of a goal predicate
// under one binding pattern and strategy, and its saturation plan.
struct CompiledMagicShape {
  MagicShape shape;
  SaturationPlan saturation;
};

// The compiled magic shapes of one analyzed program, keyed by (goal
// predicate, which goal arguments are ground, supplementary). Under one
// analysis the ground arguments fix the goal's adornment (QueryAdornment),
// so the key needs no catalog read. A shape depends on the rules only:
// whoever owns the cache drops it when the rules change (Session on
// re-analysis, ldl::Service with the analysis a snapshot shares).
//
// Thread-safe. A hit takes only the cache's own shared lock. A miss
// compiles under `compile_mu` when one is given -- the rewrite registers
// adorned, magic and supplementary predicates in the shared catalog -- and
// re-checks the cache first, so concurrent first queries of one shape
// compile it once.
class MagicShapeCache {
 public:
  // `compiled`, when non-null, counts every shape this cache compiles.
  explicit MagicShapeCache(std::atomic<uint64_t>* compiled = nullptr)
      : compiled_(compiled) {}
  MagicShapeCache(const MagicShapeCache&) = delete;
  MagicShapeCache& operator=(const MagicShapeCache&) = delete;

  // The compiled shape of `goal` over `program` (which must be the program
  // every earlier Get passed), compiling it with `engine` on a miss.
  StatusOr<std::shared_ptr<const CompiledMagicShape>> Get(
      Engine* engine, const ProgramIr& program, const LiteralIr& goal,
      bool supplementary, std::mutex* compile_mu = nullptr);

  void Clear();

 private:
  using Key = std::tuple<PredId, bool, std::string>;
  std::atomic<uint64_t>* compiled_;
  mutable std::shared_mutex mu_;
  std::map<Key, std::shared_ptr<const CompiledMagicShape>> shapes_;
};

// Answers `goal` through the Generalized Magic Sets rewriting (§6). The
// goal's shape comes compiled from `shapes` (see MagicShapeCache; a miss
// compiles it under `compile_mu`); only its seed fact depends on the goal's
// constants. The program saturates in a scratch database that holds the
// adorned, magic and supplementary predicates; its EDB predicates read
// through to `edb` (Database::ReadThrough), which must be frozen -- a
// published snapshot -- so no row is copied and the indexes the evaluation
// builds on `edb` serve later queries. ModelSnapshot::Query uses this
// overload.
StatusOr<QueryResult> QueryViaMagic(Engine* engine, const ProgramIr& program,
                                    const LiteralIr& goal,
                                    const QueryOptions& options,
                                    const Database& edb,
                                    MagicShapeCache* shapes,
                                    std::mutex* compile_mu = nullptr);
// The same, with the scratch database's EDB provided by `seed_edb`
// (Session::Query copies it in).
StatusOr<QueryResult> QueryViaMagic(Engine* engine, const ProgramIr& program,
                                    const LiteralIr& goal,
                                    const QueryOptions& options,
                                    const EdbSeeder& seed_edb,
                                    MagicShapeCache* shapes,
                                    std::mutex* compile_mu = nullptr);

// Answers `goal` with the memoized top-down engine, reading the extensional
// relations of `edb` in place: EDB subgoals probe its indexes on their
// bound arguments. `edb` is only read, so a published snapshot works and
// concurrent queries may share it (ModelSnapshot::Query).
StatusOr<QueryResult> QueryViaTopDown(TermFactory* factory, Catalog* catalog,
                                      const ProgramIr& program,
                                      const Stratification& stratification,
                                      const LiteralIr& goal,
                                      const QueryOptions& options,
                                      const Database& edb);
// The same over a scratch EDB copied in by `seed_edb` (with `edb_preds` as
// the seeding filter); Session::Query uses it.
StatusOr<QueryResult> QueryViaTopDown(TermFactory* factory, Catalog* catalog,
                                      const ProgramIr& program,
                                      const Stratification& stratification,
                                      const std::vector<PredId>& edb_preds,
                                      const LiteralIr& goal,
                                      const QueryOptions& options,
                                      const EdbSeeder& seed_edb);

// Hash for (pred, tuple) EDB fact keys. Tuples hold interned terms, so
// pair equality is element-wise pointer equality and the hash mixes the
// terms' interned hashes.
struct EdbFactHash {
  size_t operator()(const std::pair<PredId, Tuple>& key) const {
    return static_cast<size_t>(HashCombine(TupleHash()(key.second), key.first));
  }
};

class Session {
 public:
  // With a non-null `shared_plans` the session's engine probes the caller's
  // (internally synchronized) plan cache instead of an engine-private one;
  // ldl::Service uses this to share compiled plans between its writer
  // session and the per-query scratch engines of concurrent readers.
  explicit Session(PlanCache* shared_plans = nullptr);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Parses and accumulates rules, facts and stored queries. May be called
  // repeatedly; invalidates previous analysis.
  Status Load(std::string_view source);

  // Load() for a file on disk (.ldl program text).
  Status LoadFile(const std::string& path);

  // Incremental update entry point: parses `source` and, when it contains
  // only ground facts of extensional predicates and the session is already
  // analyzed, registers them as a pending EDB delta -- the materialized
  // model (if any) stays alive and the next Evaluate()/Query() maintains
  // it via Engine::Maintain instead of re-deriving everything.
  // Anything else (rules, stored queries, facts of derived predicates,
  // LDL1.5 text that expands into rules) falls back to Load() semantics
  // and invalidates the analysis. Always safe to call; never changes the
  // final model vs. Load() + full re-evaluation. Facts committed on the
  // incremental path join the EDB multiset but not ast(); a later Analyze()
  // carries them over, and RemoveFacts() erases them outright.
  Status AddFacts(std::string_view source);

  // Removes previously loaded ground EDB facts (each removal cancels one
  // occurrence; absent facts are ignored). `source` must contain only
  // facts. The batch is atomic: it is validated in full before any state
  // changes, so an error (stored query, proper rule, derived predicate,
  // non-ground fact) leaves the session observably unchanged. A live
  // materialized model survives deletions -- the facts whose last
  // occurrence was removed become a pending deletion delta and the next
  // Evaluate()/Query() maintains the model incrementally via
  // Engine::Maintain, together with any pending insertions
  // (derivation-count decrements or DRed over-delete/rederive; strata
  // reached through grouping or negation still recompute conservatively).
  Status RemoveFacts(std::string_view source);

  // Drops the materialized model (analysis stays valid); the next
  // Evaluate() rebuilds from scratch. For tests and benchmarks that need
  // to force the full path.
  void InvalidateModel();

  // Expands LDL1.5, lowers, checks well-formedness, stratifies. Idempotent;
  // called implicitly by Evaluate()/Query().
  Status Analyze();

  // Bottom-up stratified evaluation into the session database. With a
  // current model and no pending changes under the same options this is a
  // cheap cache hit; with pending EDB insertions and deletions (AddFacts,
  // RemoveFacts) it maintains the model incrementally, dropping it if
  // maintenance fails, and then compacts the relations that maintenance
  // left mostly tombstoned (compactions()); otherwise it materializes from
  // scratch.
  // last_eval_stats()/last_eval_profile() always describe the run that
  // produced the current model (the incremental one after a delta
  // maintenance pass).
  Status Evaluate(const EvalOptions& options = {});

  // Evaluates the analyzed program under a caller-supplied layering into
  // `db` (seeded with the EDB facts). Used to exercise Theorem 2: any valid
  // layering yields the same standard model.
  Status EvaluateInto(const Stratification& stratification, Database* db,
                      const EvalOptions& options = {});

  // Parses, checks and lowers `goal_text` (e.g. "young(john, S)") into a
  // PreparedQuery that can be executed many times without reparsing.
  // Analyzes on demand.
  StatusOr<PreparedQuery> Prepare(std::string_view goal_text);

  // Answers `goal_text`. Under kModel the session model must be (or will
  // be) materialized via Evaluate(). Equivalent to Prepare() + Query(); hot
  // callers prepare once and reuse.
  StatusOr<QueryResult> Query(std::string_view goal_text,
                              const QueryOptions& options = {});

  // Answers a previously prepared goal, skipping the parse.
  StatusOr<QueryResult> Query(const PreparedQuery& prepared,
                              const QueryOptions& options = {});

  // Why-provenance: a rendered derivation tree for `fact_text` (e.g.
  // "anc(a, c)") against the materialized model. Returns kNotFound when the
  // fact is not in the model.
  StatusOr<std::string> Explain(std::string_view fact_text,
                                const ExplainOptions& options = {});

  // Advisory §7 finiteness warnings for the analyzed program (recursive
  // rules constructing new terms in their heads). Analyzes on demand.
  StatusOr<std::vector<TerminationWarning>> TerminationWarnings();

  // Formats a database fact.
  std::string FormatFact(PredId pred, const Tuple& tuple) const;
  // Formats just the tuple: "(a, {1, 2})".
  std::string FormatTuple(const Tuple& tuple) const;

  // Configuration (set before Analyze()).
  void set_ldl15_options(const Ldl15Options& options) { ldl15_options_ = options; }
  void set_wellformed_options(const WellformedOptions& options) {
    wellformed_options_ = options;
  }

  // Introspection. Const overloads let read-only callers (printers,
  // analyses, tests) take a `const Session&`.
  Interner& interner() { return interner_; }
  const Interner& interner() const { return interner_; }
  TermFactory& factory() { return factory_; }
  const TermFactory& factory() const { return factory_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  Database& database() { return *db_; }
  const Database& database() const { return *db_; }
  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }
  const ProgramIr& program() const { return program_; }
  const ProgramAst& ast() const { return ast_; }
  const ProgramAst& expanded_ast() const { return expanded_ast_; }
  const Stratification& stratification() const { return stratification_; }
  const std::vector<QueryAst>& stored_queries() const { return ast_.queries; }
  const EvalStats& last_eval_stats() const { return last_eval_stats_; }
  // Profile of the last Evaluate(); empty unless it ran with
  // EvalOptions::profile set.
  const EvalProfile& last_eval_profile() const { return last_eval_profile_; }
  bool evaluated() const { return evaluated_; }
  // Extensional predicates discovered by the last Analyze() (plus any
  // AddFacts() since).
  const std::vector<PredId>& edb_preds() const { return edb_preds_; }
  // How the session's Evaluate() calls resolved (for tests and benches):
  // cache hits (model already current), incremental maintenance runs, and
  // full from-scratch materializations.
  size_t eval_cache_hits() const { return eval_cache_hits_; }
  size_t incremental_evals() const { return incremental_evals_; }
  size_t full_evals() const { return full_evals_; }
  // How many relations maintenance passes have compacted
  // (Relation::Compact).
  size_t compactions() const { return compactions_; }
  // Bumped every time Analyze() rebuilds the program/stratification.
  // ldl::Service uses it to decide whether a new snapshot can share the
  // previous snapshot's analyzed-program state.
  uint64_t analysis_epoch() const { return analysis_epoch_; }

 private:
  Status EnsureAnalyzed();
  Status EnsureEvaluated(const EvalOptions& options);
  StatusOr<LiteralIr> ParseGoal(std::string_view goal_text);
  // Maintains the live model from the pending insertions and deletions
  // (Engine::Maintain). On engine failure the model is dropped so a
  // half-applied maintenance pass can never be observed.
  Status Maintain(const EvalOptions& options);
  // edb_facts_ mutation helpers that keep edb_index_ and edb_added_
  // consistent. `added` marks a fact committed by AddFacts() rather than
  // read from loaded text.
  void AppendEdbFact(PredId pred, const Tuple& tuple, bool added);
  // Where an erased EDB occurrence came from (kNone: there was none).
  enum class EdbOrigin { kNone, kLoaded, kAdded };
  // Erases one occurrence, an AddFacts() one when there is any, leaving a
  // tombstone in its slot so the other facts keep their order.
  EdbOrigin EraseEdbFact(const std::pair<PredId, Tuple>& fact);
  // Drops edb_facts_'s tombstones, keeping the live facts' order.
  void CompactEdbFacts();
  // Indexes edb_facts_ freshly rebuilt from loaded text (none of it added).
  void RebuildEdbIndex();
  // Snapshots per-predicate row counts after a successful evaluation (the
  // deltas of the next incremental round start past these).
  void RecordWatermarks();
  // Compacts every relation whose tombstones passed the dead-row threshold
  // (ldl.cc). Runs after a successful maintenance pass, before its
  // watermarks are recorded: compaction renumbers rows.
  void CompactDeadRows();
  // Marks `pred` as carrying new EDB rows since the last evaluation.
  void MarkChanged(PredId pred);
  void ClearPendingDelta();
  // True when `options` matches the configuration of the last evaluation
  // closely enough to reuse its model and stats verbatim.
  bool SameEvalConfig(const EvalOptions& options) const;

  Interner interner_;
  TermFactory factory_;
  Catalog catalog_;
  Engine engine_;

  ProgramAst ast_;           // as loaded (LDL1.5)
  ProgramAst expanded_ast_;  // after ExpandLdl15
  ProgramIr program_;        // non-fact rules
  // The EDB multiset: loaded facts (minus cancellations) plus the facts
  // AddFacts() committed, which edb_added_ (parallel) flags. An erased
  // fact's slot holds a tombstone (kInvalidPred) that readers skip, until
  // EraseEdbFact compacts them by the relations' dead-row rule.
  std::vector<std::pair<PredId, Tuple>> edb_facts_;
  std::vector<bool> edb_added_;
  size_t edb_tombstones_ = 0;
  // AddFacts() facts whose predicate later loaded text gave a proper rule:
  // program facts from then on, re-lowered into program_ by every Analyze().
  std::vector<std::pair<PredId, Tuple>> added_program_facts_;
  std::vector<PredId> edb_preds_;
  Stratification stratification_;
  std::unique_ptr<Database> db_;

  Ldl15Options ldl15_options_;
  WellformedOptions wellformed_options_;
  EvalStats last_eval_stats_;
  EvalProfile last_eval_profile_;
  // Compiled magic query shapes of the analyzed program.
  MagicShapeCache magic_shapes_;
  bool analyzed_ = false;
  bool evaluated_ = false;
  uint64_t analysis_epoch_ = 0;
  // Whether the cached evaluation collected a profile (EnsureEvaluated
  // re-runs when a profiled query hits an unprofiled cached model).
  bool evaluated_with_profile_ = false;

  // Incremental maintenance state. eval_watermarks_[p] is relation(p)'s
  // row count at the end of the last evaluation; rows appended past it are
  // the pending deltas of the predicates flagged in pending_changed_.
  std::vector<size_t> eval_watermarks_;
  std::vector<bool> pending_changed_;
  bool pending_delta_ = false;
  // Occurrence positions of each distinct fact in edb_facts_ (duplicates
  // share one key). Keeps RemoveFacts and the Analyze() cancellation
  // replay O(1) per fact instead of a list scan.
  std::unordered_map<std::pair<PredId, Tuple>, std::vector<size_t>, EdbFactHash>
      edb_index_;
  // RemoveFacts() cancellations of loaded facts, multiset-correct: how
  // many occurrences of each fact to drop after Analyze() rebuilds
  // edb_facts_ from the AST (which still holds the removed facts' clauses).
  // Bounded by the loaded text: removals of AddFacts() facts erase them
  // outright.
  std::unordered_map<std::pair<PredId, Tuple>, size_t, EdbFactHash>
      removed_edb_counts_;
  // Facts whose *last* EDB occurrence was removed while a model was live:
  // the deletion half of the pending delta, consumed by the next
  // Maintain().
  std::vector<std::pair<PredId, Tuple>> pending_removed_;
  // Options of the evaluation that produced the current model (cache key).
  EvalOptions last_eval_options_;
  size_t eval_cache_hits_ = 0;
  size_t incremental_evals_ = 0;
  size_t full_evals_ = 0;
  size_t compactions_ = 0;
};

// Formats query-result tuples as sorted fact strings, e.g.
// "ancestor(adam, bob)" -- handy for golden tests and examples.
std::vector<std::string> FormatFacts(const Session& session, PredId pred,
                                     const std::vector<Tuple>& tuples);

}  // namespace ldl

#endif  // LDL1_LDL_LDL_H_
