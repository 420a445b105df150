#include "ldl/ldl.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "base/str_util.h"
#include "eval/bindings.h"
#include "parser/parser.h"

namespace ldl {

namespace {

// The one authoritative strategy-name table: ToString, ParseQueryStrategy
// and QueryStrategyNames all derive from it, so a new strategy added here
// shows up in every help text and error message.
struct StrategyName {
  QueryStrategy strategy;
  const char* canonical;
  const char* alias = nullptr;  // accepted by Parse, never printed
};
constexpr StrategyName kStrategyNames[] = {
    {QueryStrategy::kModel, "model"},
    {QueryStrategy::kMagic, "magic"},
    {QueryStrategy::kMagicSupplementary, "magic-sup", "magic-supplementary"},
    {QueryStrategy::kMagicSupplementary, "magic-sup", "sup"},
    {QueryStrategy::kTopDown, "topdown", "top-down"},
};

// Maintenance leaves deleted and superseded rows behind as tombstones,
// which every scan and probe of the relation still steps over. After a
// maintenance pass, a relation with at least kCompactMinDeadRows dead rows
// that make up more than one row in kCompactDeadShare is compacted. The
// EDB list's erased slots are compacted by the same rule.
constexpr size_t kCompactMinDeadRows = 64;
constexpr size_t kCompactDeadShare = 8;

bool WorthCompacting(size_t dead, size_t rows) {
  return dead >= kCompactMinDeadRows && dead * kCompactDeadShare > rows;
}

}  // namespace

const char* ToString(QueryStrategy strategy) {
  for (const StrategyName& entry : kStrategyNames) {
    if (entry.strategy == strategy) return entry.canonical;
  }
  return "?";
}

const char* QueryStrategyNames() { return "model, magic, magic-sup, topdown"; }

StatusOr<QueryStrategy> ParseQueryStrategy(std::string_view name) {
  for (const StrategyName& entry : kStrategyNames) {
    if (name == entry.canonical ||
        (entry.alias != nullptr && name == entry.alias)) {
      return entry.strategy;
    }
  }
  return InvalidArgumentError(StrCat("unknown query strategy '", name,
                                     "' (expected one of: ",
                                     QueryStrategyNames(), ")"));
}

std::vector<std::string> FormatFacts(const Session& session, PredId pred,
                                     const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  out.reserve(tuples.size());
  for (const Tuple& tuple : tuples) out.push_back(session.FormatFact(pred, tuple));
  std::sort(out.begin(), out.end());
  return out;
}

Session::Session(PlanCache* shared_plans)
    : factory_(&interner_),
      catalog_(&interner_),
      engine_(&factory_, &catalog_, shared_plans),
      db_(std::make_unique<Database>(&catalog_)) {}

Status Session::Load(std::string_view source) {
  LDL_ASSIGN_OR_RETURN(ProgramAst parsed, ParseProgram(source, &interner_));
  // Only a batch of plain ground facts of extensional predicates keeps the
  // analysis; every other clause waits in the AST for Analyze().
  bool keep_analysis = analyzed_ && parsed.queries.empty();
  std::vector<GroundFact> facts;
  facts.reserve(parsed.rules.size());
  for (RuleAst& clause : parsed.rules) {
    std::optional<GroundFact> fact = LowerGroundFact(clause);
    if (!fact.has_value()) {
      keep_analysis = false;
      ast_.rules.push_back(std::move(clause));
      continue;
    }
    keep_analysis = keep_analysis && !catalog_.info(fact->pred).has_rules;
    facts.push_back(std::move(*fact));
  }
  for (QueryAst& query : parsed.queries) ast_.queries.push_back(std::move(query));
  if (!keep_analysis) {
    analyzed_ = false;
    evaluated_ = false;
    ClearPendingDelta();
  }

  for (GroundFact& fact : facts) {
    if (!fact.outside_universe) AppendEdbFact(fact.pred, fact.tuple);
    if (!keep_analysis) continue;
    if (std::find(edb_preds_.begin(), edb_preds_.end(), fact.pred) ==
        edb_preds_.end()) {
      edb_preds_.push_back(fact.pred);
    }
    if (!evaluated_ || fact.outside_universe) continue;
    // A live model takes the new facts as the pending delta for the next
    // (incremental) Evaluate(). A re-added fact whose row was tombstoned
    // lands in a fresh row past the watermark, so the insert delta handles
    // it like any new fact.
    if (db_->AddFact(fact.pred, fact.tuple)) {
      MarkChanged(fact.pred);
    } else if (!pending_removed_.empty()) {
      // The fact is already a live model row: if its deletion is still
      // pending from an earlier RemoveFacts, re-adding it cancels the
      // deletion.
      std::pair<PredId, Tuple> key{fact.pred, fact.tuple};
      auto it = std::find(pending_removed_.begin(), pending_removed_.end(), key);
      if (it != pending_removed_.end()) pending_removed_.erase(it);
    }
  }
  return Status::OK();
}

Status Session::AddFacts(std::string_view source) { return Load(source); }

std::optional<Session::GroundFact> Session::LowerGroundFact(
    const RuleAst& clause) {
  if (!clause.is_fact()) return std::nullopt;
  StatusOr<RuleIr> ir = LowerRule(factory_, catalog_, clause, /*source_index=*/-1);
  if (!ir.ok() || !CheckRuleWellformed(catalog_, *ir, wellformed_options_).ok()) {
    return std::nullopt;
  }
  InstantiationResult inst = InstantiateArgs(factory_, ir->head_args, Subst());
  return GroundFact{ir->head_pred, std::move(inst.tuple), inst.outside_universe};
}

Status Session::RemoveFacts(std::string_view source) {
  LDL_ASSIGN_OR_RETURN(ProgramAst parsed, ParseProgram(source, &interner_));
  if (!parsed.queries.empty()) {
    return InvalidArgumentError("RemoveFacts accepts only facts");
  }
  for (const RuleAst& rule : parsed.rules) {
    if (!rule.is_fact()) {
      return InvalidArgumentError("RemoveFacts accepts only facts");
    }
  }
  LDL_RETURN_IF_ERROR(EnsureAnalyzed());
  // Pass 1: validate and lower the whole batch before touching any session
  // state, so an error anywhere in the batch (derived predicate,
  // non-ground fact) leaves the session observably unchanged --
  // RemoveFacts is all-or-nothing.
  std::vector<std::pair<PredId, Tuple>> batch;
  batch.reserve(parsed.rules.size());
  for (const RuleAst& clause : parsed.rules) {
    PredId existing = catalog_.Find(
        clause.head.predicate, static_cast<uint32_t>(clause.head.args.size()));
    if (existing == kInvalidPred) continue;  // unknown predicate: no-op
    if (catalog_.info(existing).has_rules) {
      return InvalidArgumentError(
          "RemoveFacts cannot remove facts of a derived predicate");
    }
    std::optional<GroundFact> fact = LowerGroundFact(clause);
    if (!fact.has_value()) {
      return InvalidArgumentError("RemoveFacts needs ground facts");
    }
    if (!fact->outside_universe) {
      batch.emplace_back(fact->pred, std::move(fact->tuple));
    }
  }
  // Pass 2: apply. Each removal cancels one EDB occurrence; the fact only
  // becomes a pending deletion for the live model when its *last*
  // occurrence goes (multiset semantics).
  for (std::pair<PredId, Tuple>& fact : batch) {
    if (!EraseEdbFact(fact)) continue;  // absent: no-op
    if (evaluated_ && edb_index_.find(fact) == edb_index_.end()) {
      pending_removed_.push_back(std::move(fact));
      pending_delta_ = true;
    }
  }
  return Status::OK();
}

void Session::DiscardWrites() {
  // The facts written since the mark leave the index, newest first: each
  // is the latest occurrence of its fact.
  for (size_t pos = edb_facts_.size(); pos-- > edb_mark_;) {
    if (edb_facts_[pos].first == kInvalidPred) {
      --edb_tombstones_;
      continue;
    }
    auto it = edb_index_.find(edb_facts_[pos]);
    it->second.pop_back();
    if (it->second.empty()) edb_index_.erase(it);
  }
  edb_facts_.resize(edb_mark_);
  edb_tail_tombstones_ = 0;
  // Then the erased slots come back, latest erasure first, so each fact's
  // occurrences return to their order.
  for (auto it = erased_.rbegin(); it != erased_.rend(); ++it) {
    const auto [pos, pred] = *it;
    edb_facts_[pos].first = pred;
    edb_index_[edb_facts_[pos]].push_back(pos);
    --edb_tombstones_;
  }
  erased_.clear();

  const bool ast_changed = ast_.rules.size() != ast_rules_mark_ ||
                           ast_.queries.size() != ast_queries_mark_;
  ast_.rules.erase(ast_.rules.begin() + ast_rules_mark_, ast_.rules.end());
  ast_.queries.erase(ast_.queries.begin() + ast_queries_mark_,
                     ast_.queries.end());
  // Rows a write appended to the live model cannot be taken back out.
  if (std::find(pending_changed_.begin(), pending_changed_.end(), true) !=
      pending_changed_.end()) {
    evaluated_ = false;
  }
  ClearPendingDelta();
  if (ast_changed || analysis_epoch_ != analysis_epoch_mark_) {
    // Re-analyze at once rather than on next use: the discarded rules'
    // lowering flagged their heads has_rules in the catalog, which
    // published snapshots read when they compile a magic query, and only
    // an analysis of the restored program clears them. It analyzed at the
    // mark, so it analyzes again; should it not, analyzed_ stays false and
    // the next write reports the error.
    analyzed_ = false;
    evaluated_ = false;
    if (Analyze().ok()) analysis_epoch_mark_ = analysis_epoch_;
  }
}

void Session::InvalidateModel() {
  evaluated_ = false;
  evaluated_with_profile_ = false;
  ClearPendingDelta();
}

Status Session::LoadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return NotFoundError(StrCat("cannot open ", path));
  std::ostringstream buffer;
  buffer << file.rdbuf();
  Status status = Load(buffer.str());
  if (!status.ok()) {
    return Status(status.code(), StrCat(path, ": ", status.message()));
  }
  return status;
}

Status Session::Analyze() {
  // Shapes compiled from the previous rules answer them, not the new ones.
  magic_shapes_.Clear();
  LDL_ASSIGN_OR_RETURN(expanded_ast_, ExpandLdl15(ast_, &interner_, ldl15_options_));
  LDL_ASSIGN_OR_RETURN(ProgramIr program,
                       LowerProgram(factory_, catalog_, expanded_ast_));
  LDL_RETURN_IF_ERROR(
      CheckProgramWellformed(catalog_, program, wellformed_options_));

  // Multiset facts of a predicate with a proper rule are program facts
  // (they take part in stratification and magic rewriting); the other
  // multiset predicates are the EDB, which seeds the database directly.
  std::vector<bool> has_proper_rule(catalog_.size(), false);
  for (const RuleIr& rule : program.rules) {
    if (!rule.is_fact()) has_proper_rule[rule.head_pred] = true;
  }
  std::vector<PredId> edb_preds;
  std::vector<bool> edb_seen(catalog_.size(), false);
  for (const auto& [pred, tuple] : edb_facts_) {
    if (pred == kInvalidPred) continue;
    if (has_proper_rule[pred]) {
      RuleIr fact;
      fact.head_pred = pred;
      fact.head_args = tuple;
      program.rules.push_back(std::move(fact));
    } else if (!edb_seen[pred]) {
      edb_seen[pred] = true;
      edb_preds.push_back(pred);
    }
  }
  LDL_ASSIGN_OR_RETURN(stratification_, Stratify(catalog_, program));

  // Only the rules analyzed here make a predicate intensional: clear the
  // flag an earlier (or failed, or discarded) analysis left on any other.
  for (PredId p = 0; p < has_proper_rule.size(); ++p) {
    if (!has_proper_rule[p] && catalog_.info(p).has_rules) {
      catalog_.mutable_info(p).has_rules = false;
    }
  }
  program_ = std::move(program);
  edb_preds_ = std::move(edb_preds);
  analyzed_ = true;
  evaluated_ = false;
  ++analysis_epoch_;
  ClearPendingDelta();
  return Status::OK();
}

Status Session::EnsureAnalyzed() {
  if (analyzed_) return Status::OK();
  return Analyze();
}

bool Session::SameEvalConfig(const EvalOptions& options) const {
  const EvalOptions& last = last_eval_options_;
  return options.mode == last.mode && options.max_rounds == last.max_rounds &&
         options.max_facts == last.max_facts &&
         options.cost_based == last.cost_based &&
         options.builtin_limits.max_union_enumeration ==
             last.builtin_limits.max_union_enumeration &&
         options.builtin_limits.max_subset_enumeration ==
             last.builtin_limits.max_subset_enumeration;
}

void Session::RecordWatermarks() {
  eval_watermarks_.resize(catalog_.size());
  for (PredId p = 0; p < catalog_.size(); ++p) {
    eval_watermarks_[p] = db_->relation(p).row_count();
  }
}

void Session::CompactDeadRows() {
  for (PredId p = 0; p < catalog_.size(); ++p) {
    Relation& rel = db_->relation(p);
    if (WorthCompacting(rel.row_count() - rel.size(), rel.row_count())) {
      rel.Compact();
      ++compactions_;
    }
  }
}

void Session::MarkChanged(PredId pred) {
  if (pending_changed_.size() < catalog_.size()) {
    pending_changed_.resize(catalog_.size(), false);
  }
  pending_changed_[pred] = true;
  pending_delta_ = true;
}

void Session::ClearPendingDelta() {
  pending_changed_.assign(pending_changed_.size(), false);
  pending_removed_.clear();
  pending_delta_ = false;
}

void Session::AppendEdbFact(PredId pred, const Tuple& tuple) {
  edb_index_[{pred, tuple}].push_back(edb_facts_.size());
  edb_facts_.emplace_back(pred, tuple);
}

bool Session::EraseEdbFact(const std::pair<PredId, Tuple>& fact) {
  auto it = edb_index_.find(fact);
  if (it == edb_index_.end()) return false;
  const size_t pos = it->second.back();
  it->second.pop_back();
  if (it->second.empty()) edb_index_.erase(it);
  // Tombstone the slot instead of moving another fact into it: the other
  // facts keep their order, so answer order does not depend on whether a
  // model existed when the fact went.
  edb_facts_[pos].first = kInvalidPred;
  ++edb_tombstones_;
  if (pos < edb_mark_) {
    erased_.emplace_back(pos, fact.first);
    return true;
  }
  // DiscardWrites() drops every slot written since the mark, erased or
  // not, so those need no log and compact by the relations' dead-row rule
  // as they die: a session that never evaluates stays bounded by its net
  // EDB too.
  if (WorthCompacting(++edb_tail_tombstones_, edb_facts_.size() - edb_mark_)) {
    CompactEdbFacts(edb_mark_);
  }
  return true;
}

void Session::CompactEdbFacts(size_t from) {
  size_t live = from;
  for (size_t i = from; i < edb_facts_.size(); ++i) {
    if (edb_facts_[i].first == kInvalidPred) continue;
    if (live != i) {
      edb_facts_[live] = std::move(edb_facts_[i]);
      std::vector<size_t>& positions = edb_index_.find(edb_facts_[live])->second;
      *std::find(positions.begin(), positions.end(), i) = live;
    }
    ++live;
  }
  edb_tombstones_ -= edb_facts_.size() - live;
  edb_tail_tombstones_ = 0;
  edb_facts_.resize(live);
}

void Session::SeedEdb(Database* db) const {
  for (const auto& [pred, tuple] : edb_facts_) {
    if (pred != kInvalidPred && !catalog_.info(pred).has_rules) {
      db->AddFact(pred, tuple);
    }
  }
}

void Session::CommitWrites() {
  if (WorthCompacting(edb_tombstones_, edb_facts_.size())) CompactEdbFacts(0);
  erased_.clear();
  edb_tail_tombstones_ = 0;
  edb_mark_ = edb_facts_.size();
  ast_rules_mark_ = ast_.rules.size();
  ast_queries_mark_ = ast_.queries.size();
  analysis_epoch_mark_ = analysis_epoch_;
}

Status Session::Evaluate(const EvalOptions& options) {
  LDL_RETURN_IF_ERROR(EnsureAnalyzed());
  if (evaluated_ && pending_delta_) {
    LDL_RETURN_IF_ERROR(Maintain(options));
  } else if (evaluated_ && (!options.profile || evaluated_with_profile_) &&
             SameEvalConfig(options)) {
    // Nothing changed since the model was materialized under this same
    // configuration: the model, stats and profile are all current.
    ++eval_cache_hits_;
  } else {
    // A failure below leaves a half-built database: no model until the
    // evaluation succeeds.
    evaluated_ = false;
    db_ = std::make_unique<Database>(&catalog_);
    SeedEdb(db_.get());
    last_eval_stats_ = EvalStats();
    last_eval_profile_.Clear();
    LDL_RETURN_IF_ERROR(engine_.EvaluateProgram(
        program_, stratification_, db_.get(), options, &last_eval_stats_,
        options.profile ? &last_eval_profile_ : nullptr));
    evaluated_ = true;
    evaluated_with_profile_ = options.profile;
    last_eval_options_ = options;
    ++full_evals_;
    RecordWatermarks();
    ClearPendingDelta();
  }
  CommitWrites();
  return Status::OK();
}

Status Session::Maintain(const EvalOptions& options) {
  last_eval_stats_ = EvalStats();
  last_eval_profile_.Clear();
  Status status = engine_.Maintain(
      program_, stratification_, db_.get(), eval_watermarks_, pending_changed_,
      pending_removed_, options, &last_eval_stats_,
      options.profile ? &last_eval_profile_ : nullptr);
  if (!status.ok()) {
    // A failure mid-maintenance can leave the database half-updated (and a
    // retry from the same watermarks would count each derivation twice);
    // drop the model so the next evaluation rebuilds from scratch.
    InvalidateModel();
    return status;
  }
  evaluated_with_profile_ = options.profile;
  last_eval_options_ = options;
  ++incremental_evals_;
  CompactDeadRows();
  RecordWatermarks();
  ClearPendingDelta();
  return Status::OK();
}

Status Session::EvaluateInto(const Stratification& stratification, Database* db,
                             const EvalOptions& options) {
  LDL_RETURN_IF_ERROR(EnsureAnalyzed());
  SeedEdb(db);
  return engine_.EvaluateProgram(program_, stratification, db, options);
}

Status Session::EnsureEvaluated(const EvalOptions& options) {
  // A cached model evaluated without profiling can't serve a profiled
  // query; re-run the (idempotent) evaluation to collect the profile. A
  // pending EDB delta routes through Evaluate() for incremental
  // maintenance.
  if (evaluated_ && !pending_delta_ &&
      (!options.profile || evaluated_with_profile_)) {
    return Status::OK();
  }
  return Evaluate(options);
}

StatusOr<LiteralIr> Session::ParseGoal(std::string_view goal_text) {
  LDL_ASSIGN_OR_RETURN(LiteralAst goal_ast, ParseLiteralText(goal_text, &interner_));
  if (goal_ast.negated || goal_ast.builtin != BuiltinKind::kNone) {
    return InvalidArgumentError("queries must be positive relational literals");
  }
  return LowerLiteral(factory_, catalog_, goal_ast);
}

StatusOr<QueryResult> QueryViaTopDown(TermFactory* factory, Catalog* catalog,
                                      const ProgramIr& program,
                                      const Stratification& stratification,
                                      const LiteralIr& goal,
                                      const QueryOptions& options,
                                      const Database& edb) {
  QueryResult result;
  TopDownOptions topdown_options;
  topdown_options.builtin_limits = options.eval.builtin_limits;
  TopDownEngine topdown(factory, catalog, &program, &stratification, &edb,
                        topdown_options);
  if (options.eval.profile) {
    result.profile.ReserveRules(program.rules.size());
    topdown.set_profile(&result.profile);
  }
  uint64_t topdown_wall = 0;
  ScopedWallTimer timer(options.eval.profile ? &topdown_wall : nullptr);
  LDL_ASSIGN_OR_RETURN(result.tuples, topdown.Query(goal));
  timer.Stop();
  result.stats = topdown.stats();
  if (options.eval.profile) {
    result.profile.add_total_wall_ns(topdown_wall);
    TopDownProfile& rollup = result.profile.topdown();
    rollup.used = true;
    rollup.wall_ns = topdown_wall;
    rollup.calls = topdown.calls();
    rollup.expansions = topdown.stats().rule_firings;
    rollup.answers = topdown.stats().facts_derived;
    rollup.restarts = topdown.stats().iterations;
    rollup.tables = topdown.table_count();
  }
  return result;
}

StatusOr<QueryResult> QueryViaTopDown(TermFactory* factory, Catalog* catalog,
                                      const ProgramIr& program,
                                      const Stratification& stratification,
                                      const std::vector<PredId>& edb_preds,
                                      const LiteralIr& goal,
                                      const QueryOptions& options,
                                      const EdbSeeder& seed_edb) {
  Database edb(catalog);
  seed_edb(&edb, edb_preds);
  return QueryViaTopDown(factory, catalog, program, stratification, goal,
                         options, edb);
}

StatusOr<std::shared_ptr<const CompiledMagicShape>> MagicShapeCache::Get(
    Engine* engine, const ProgramIr& program, const LiteralIr& goal,
    bool supplementary, std::mutex* compile_mu) {
  std::string ground(goal.args.size(), 'f');
  for (size_t i = 0; i < goal.args.size(); ++i) {
    if (goal.args[i]->ground()) ground[i] = 'b';
  }
  Key key(goal.pred, supplementary, std::move(ground));
  auto find = [&]() -> std::shared_ptr<const CompiledMagicShape> {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = shapes_.find(key);
    return it != shapes_.end() ? it->second : nullptr;
  };
  if (std::shared_ptr<const CompiledMagicShape> hit = find()) return hit;

  std::unique_lock<std::mutex> compile_lock;
  if (compile_mu != nullptr) {
    compile_lock = std::unique_lock<std::mutex>(*compile_mu);
    // Another first query of this shape may have compiled it meanwhile.
    if (std::shared_ptr<const CompiledMagicShape> hit = find()) return hit;
  }
  auto compiled = std::make_shared<CompiledMagicShape>();
  MagicOptions magic_options;
  magic_options.supplementary = supplementary;
  LDL_ASSIGN_OR_RETURN(compiled->shape,
                       MagicRewriteShape(program, engine->catalog(), goal,
                                         magic_options));
  LDL_ASSIGN_OR_RETURN(compiled->saturation,
                       engine->CompileSaturation(compiled->shape.rules));
  if (compiled_ != nullptr) compiled_->fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> lock(mu_);
  return shapes_.emplace(std::move(key), std::move(compiled)).first->second;
}

void MagicShapeCache::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  shapes_.clear();
}

StatusOr<QueryResult> QueryViaMagic(Engine* engine, const ProgramIr& program,
                                    const LiteralIr& goal,
                                    const QueryOptions& options,
                                    const EdbSeeder& seed_edb,
                                    MagicShapeCache* shapes,
                                    std::mutex* compile_mu) {
  LDL_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledMagicShape> compiled,
      shapes->Get(engine, program, goal,
                  options.strategy == QueryStrategy::kMagicSupplementary,
                  compile_mu));
  const MagicShape& shape = compiled->shape;
  // Saturate the shape from the goal's seed fact in a scratch database
  // over the EDB predicates the shape consults.
  QueryResult result;
  Database magic_db(engine->catalog());
  seed_edb(&magic_db, shape.edb_preds);
  const RuleIr seed = MagicSeed(shape, goal);
  LDL_RETURN_IF_ERROR(engine->EvaluateSaturating(
      shape.rules, compiled->saturation, {&seed, 1}, &magic_db, options.eval,
      &result.stats, &result.profile));
  LiteralIr adorned_goal = goal;
  adorned_goal.pred = shape.answer_pred;
  LDL_ASSIGN_OR_RETURN(result.tuples, engine->Query(adorned_goal, magic_db));
  return result;
}

StatusOr<QueryResult> QueryViaMagic(Engine* engine, const ProgramIr& program,
                                    const LiteralIr& goal,
                                    const QueryOptions& options,
                                    const Database& edb,
                                    MagicShapeCache* shapes,
                                    std::mutex* compile_mu) {
  // The scratch database's EDB predicates read through to `edb`.
  EdbSeeder read_through = [&edb](Database* scratch,
                                  const std::vector<PredId>& preds) {
    scratch->ReadThrough(edb, preds);
  };
  return QueryViaMagic(engine, program, goal, options, read_through, shapes,
                       compile_mu);
}

StatusOr<PreparedQuery> Session::Prepare(std::string_view goal_text) {
  LDL_RETURN_IF_ERROR(EnsureAnalyzed());
  LDL_ASSIGN_OR_RETURN(LiteralIr goal, ParseGoal(goal_text));
  return PreparedQuery(goal_text, std::move(goal), factory_);
}

StatusOr<QueryResult> Session::Query(std::string_view goal_text,
                                     const QueryOptions& options) {
  LDL_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(goal_text));
  return Query(prepared, options);
}

StatusOr<QueryResult> Session::Query(const PreparedQuery& prepared,
                                     const QueryOptions& options) {
  LDL_RETURN_IF_ERROR(EnsureAnalyzed());
  if (!prepared.valid()) {
    return InvalidArgumentError("query was not prepared");
  }
  const LiteralIr& goal = prepared.goal();
  // The session is single-threaded, so scratch evaluations can seed
  // straight from the edb_facts_ list: one pass, filtered through a
  // per-predicate bitmap.
  EdbSeeder seeder = [this](Database* scratch,
                            const std::vector<PredId>& preds) {
    std::vector<bool> wanted(catalog_.size(), false);
    for (PredId pred : preds) wanted[pred] = true;
    for (const auto& [pred, tuple] : edb_facts_) {
      if (pred != kInvalidPred && wanted[pred]) scratch->AddFact(pred, tuple);
    }
  };

  const bool goal_has_rules = catalog_.info(goal.pred).has_rules;
  if (options.strategy == QueryStrategy::kTopDown && goal_has_rules) {
    return QueryViaTopDown(&factory_, &catalog_, program_, stratification_,
                           edb_preds_, goal, options, seeder);
  }
  const bool magic_strategy =
      options.strategy == QueryStrategy::kMagic ||
      options.strategy == QueryStrategy::kMagicSupplementary;
  if (!magic_strategy || !goal_has_rules) {
    QueryResult result;
    LDL_RETURN_IF_ERROR(EnsureEvaluated(options.eval));
    result.tuples = prepared.lookup().Run(factory_, std::as_const(*db_).relation(goal.pred));
    result.stats = last_eval_stats_;
    if (options.eval.profile) result.profile = last_eval_profile_;
    return result;
  }
  return QueryViaMagic(&engine_, program_, goal, options, seeder,
                       &magic_shapes_);
}

StatusOr<std::string> Session::Explain(std::string_view fact_text,
                                       const ExplainOptions& options) {
  LDL_RETURN_IF_ERROR(EnsureEvaluated({}));
  LDL_ASSIGN_OR_RETURN(LiteralIr goal, ParseGoal(fact_text));
  InstantiationResult inst = InstantiateArgs(factory_, goal.args, Subst());
  if (inst.unbound) {
    return InvalidArgumentError("Explain needs a ground fact, not a pattern");
  }
  if (inst.outside_universe) {
    return InvalidArgumentError("fact lies outside the LDL1 universe");
  }
  LDL_ASSIGN_OR_RETURN(std::unique_ptr<Derivation> derivation,
                       ldl::Explain(factory_, catalog_, program_, *db_,
                                    goal.pred, inst.tuple, options));
  return FormatDerivation(factory_, catalog_, *derivation);
}

StatusOr<std::vector<TerminationWarning>> Session::TerminationWarnings() {
  LDL_RETURN_IF_ERROR(EnsureAnalyzed());
  return AnalyzeTermination(catalog_, program_);
}

std::string Session::FormatFact(PredId pred, const Tuple& tuple) const {
  return ldl::FormatFact(factory_, catalog_, pred, tuple);
}

std::string Session::FormatTuple(const Tuple& tuple) const {
  return ldl::FormatTuple(factory_, tuple);
}

}  // namespace ldl
