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
  for (RuleAst& rule : parsed.rules) ast_.rules.push_back(std::move(rule));
  for (QueryAst& query : parsed.queries) ast_.queries.push_back(std::move(query));
  analyzed_ = false;
  evaluated_ = false;
  ClearPendingDelta();
  return Status::OK();
}

Status Session::AddFacts(std::string_view source) {
  LDL_ASSIGN_OR_RETURN(ProgramAst parsed, ParseProgram(source, &interner_));

  // Anything beyond ground facts -- or any complication below (facts of
  // derived predicates, LDL1.5 text expanding into rules, lowering
  // trouble) -- takes the conservative Load() path: accumulate the parsed
  // text and invalidate the analysis.
  auto fallback = [&]() {
    for (RuleAst& rule : parsed.rules) ast_.rules.push_back(std::move(rule));
    for (QueryAst& query : parsed.queries) {
      ast_.queries.push_back(std::move(query));
    }
    analyzed_ = false;
    evaluated_ = false;
    ClearPendingDelta();
    return Status::OK();
  };

  bool facts_only = parsed.queries.empty();
  for (const RuleAst& rule : parsed.rules) {
    if (!rule.is_fact()) {
      facts_only = false;
      break;
    }
  }
  if (!facts_only) return fallback();
  if (!analyzed_) {
    // No analysis to preserve; accumulate like Load() (which already left
    // the session un-analyzed).
    for (RuleAst& rule : parsed.rules) ast_.rules.push_back(std::move(rule));
    return Status::OK();
  }

  // Mirror Analyze() for just these clauses: expand, check they are still
  // plain facts, and lower them against the live catalog.
  ProgramAst fact_ast;
  fact_ast.rules = parsed.rules;
  StatusOr<ProgramAst> expanded =
      ExpandLdl15(fact_ast, &interner_, ldl15_options_);
  if (!expanded.ok()) return fallback();  // the error resurfaces in Analyze()
  struct LoweredFact {
    PredId pred;
    Tuple tuple;
    bool outside_universe;
  };
  std::vector<LoweredFact> lowered;
  lowered.reserve(expanded->rules.size());
  for (const RuleAst& rule : expanded->rules) {
    if (!rule.is_fact()) return fallback();
    // Facts of predicates with proper rules stay in the program (they take
    // part in stratification and magic rewriting) -- full path. LowerRule
    // leaves has_rules untouched for facts, so this incremental path never
    // perturbs the flag concurrent snapshot readers consult.
    PredId existing = catalog_.Find(
        rule.head.predicate, static_cast<uint32_t>(rule.head.args.size()));
    if (existing != kInvalidPred && catalog_.info(existing).has_rules) {
      return fallback();
    }
    StatusOr<RuleIr> ir = LowerRule(factory_, catalog_, rule, /*source_index=*/-1);
    if (!ir.ok()) return fallback();
    InstantiationResult inst = InstantiateArgs(factory_, ir->head_args, Subst());
    if (inst.unbound) return fallback();  // "fact with variables", per Analyze
    lowered.push_back(
        {ir->head_pred, std::move(inst.tuple), inst.outside_universe});
  }

  // Commit: the analysis stays valid. The facts join the EDB multiset only
  // (not the AST -- Analyze() carries them across re-analysis, so a
  // long-lived session does not grow with its write history). If a model
  // is live, append the rows directly and mark genuinely new facts as the
  // pending delta for the next (incremental) Evaluate().
  for (LoweredFact& fact : lowered) {
    if (std::find(edb_preds_.begin(), edb_preds_.end(), fact.pred) ==
        edb_preds_.end()) {
      edb_preds_.push_back(fact.pred);
    }
    if (fact.outside_universe) continue;
    AppendEdbFact(fact.pred, fact.tuple, /*added=*/true);
    if (evaluated_) {
      // A re-added fact whose row was tombstoned lands in a fresh row past
      // the watermark, so the insert delta handles it like any new fact.
      if (db_->AddFact(fact.pred, fact.tuple)) {
        MarkChanged(fact.pred);
      } else if (!pending_removed_.empty()) {
        // The fact is already a live model row: if its deletion is still
        // pending from an earlier RemoveFacts, re-adding it cancels the
        // deletion.
        std::pair<PredId, Tuple> key{fact.pred, fact.tuple};
        auto it =
            std::find(pending_removed_.begin(), pending_removed_.end(), key);
        if (it != pending_removed_.end()) pending_removed_.erase(it);
      }
    }
  }
  return Status::OK();
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
  ProgramAst fact_ast;
  fact_ast.rules = std::move(parsed.rules);
  LDL_ASSIGN_OR_RETURN(ProgramAst expanded,
                       ExpandLdl15(fact_ast, &interner_, ldl15_options_));
  // Pass 1: validate and lower the whole batch before touching any session
  // state, so an error anywhere in the batch (derived predicate,
  // non-ground fact, non-fact clause) leaves the session observably
  // unchanged -- RemoveFacts is all-or-nothing.
  std::vector<std::pair<PredId, Tuple>> batch;
  batch.reserve(expanded.rules.size());
  for (const RuleAst& rule : expanded.rules) {
    if (!rule.is_fact()) {
      return InvalidArgumentError("RemoveFacts accepts only facts");
    }
    PredId existing = catalog_.Find(
        rule.head.predicate, static_cast<uint32_t>(rule.head.args.size()));
    if (existing == kInvalidPred) continue;  // unknown predicate: no-op
    if (catalog_.info(existing).has_rules) {
      return InvalidArgumentError(
          "RemoveFacts cannot remove facts of a derived predicate");
    }
    LDL_ASSIGN_OR_RETURN(RuleIr ir,
                         LowerRule(factory_, catalog_, rule, /*source_index=*/-1));
    InstantiationResult inst = InstantiateArgs(factory_, ir.head_args, Subst());
    if (inst.unbound) {
      return InvalidArgumentError("RemoveFacts needs ground facts");
    }
    if (inst.outside_universe) continue;
    batch.emplace_back(ir.head_pred, std::move(inst.tuple));
  }
  // Pass 2: apply. Each removal cancels one EDB occurrence; the fact only
  // becomes a pending deletion for the live model when its *last*
  // occurrence goes (multiset semantics).
  for (std::pair<PredId, Tuple>& fact : batch) {
    const EdbOrigin erased = EraseEdbFact(fact);
    if (erased == EdbOrigin::kNone) continue;  // absent: no-op
    // Remember a cancellation of loaded text: Analyze() rebuilds
    // edb_facts_ from the AST, which still carries the removed fact's
    // clause. (AddFacts() occurrences are erased first and need no record,
    // so the record stays bounded by the loaded text.)
    if (erased == EdbOrigin::kLoaded) ++removed_edb_counts_[fact];
    if (evaluated_ && edb_index_.find(fact) == edb_index_.end()) {
      pending_removed_.push_back(std::move(fact));
      pending_delta_ = true;
    }
  }
  return Status::OK();
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
  LDL_ASSIGN_OR_RETURN(ProgramIr all, LowerProgram(factory_, catalog_, expanded_ast_));
  LDL_RETURN_IF_ERROR(CheckProgramWellformed(catalog_, all, wellformed_options_));

  // Split ground facts of extensional predicates out of the rule set: they
  // seed the database directly. Facts of predicates that also have proper
  // rules stay in the program (they take part in stratification and magic
  // rewriting).
  std::vector<bool> has_proper_rule(catalog_.size(), false);
  for (const RuleIr& rule : all.rules) {
    if (!rule.is_fact()) has_proper_rule[rule.head_pred] = true;
  }
  // Facts committed through AddFacts() live only in the EDB multiset;
  // carry them across the rebuild below.
  std::vector<std::pair<PredId, Tuple>> carried;
  for (size_t i = 0; i < edb_facts_.size(); ++i) {
    if (edb_added_[i]) carried.push_back(std::move(edb_facts_[i]));
  }
  program_.rules.clear();
  edb_facts_.clear();
  edb_preds_.clear();
  std::vector<bool> edb_seen(catalog_.size(), false);
  for (RuleIr& rule : all.rules) {
    if (rule.is_fact() && !has_proper_rule[rule.head_pred]) {
      InstantiationResult inst =
          InstantiateArgs(factory_, rule.head_args, Subst());
      if (inst.unbound) {
        return NotWellFormedError("fact with variables");  // caught earlier
      }
      if (!inst.outside_universe) {
        edb_facts_.emplace_back(rule.head_pred, std::move(inst.tuple));
      }
      if (!edb_seen[rule.head_pred]) {
        edb_seen[rule.head_pred] = true;
        edb_preds_.push_back(rule.head_pred);
      }
      // Extensional predicates carry no rules.
      catalog_.mutable_info(rule.head_pred).has_rules = false;
    } else {
      program_.rules.push_back(std::move(rule));
    }
  }

  // Apply accumulated RemoveFacts() cancellations: the AST still carries
  // the removed facts' clauses, so each recorded removal cancels one
  // occurrence of the rebuilt fact.
  RebuildEdbIndex();
  for (const auto& [removed, count] : removed_edb_counts_) {
    for (size_t i = 0;
         i < count && EraseEdbFact(removed) != EdbOrigin::kNone; ++i) {
    }
  }
  // Re-append the carried AddFacts() facts. One whose predicate the loaded
  // text has since given a proper rule becomes a program fact for good,
  // exactly as if its clause had been loaded.
  for (auto& [pred, tuple] : carried) {
    if (has_proper_rule[pred]) {
      added_program_facts_.emplace_back(pred, std::move(tuple));
      continue;
    }
    if (!edb_seen[pred]) {
      edb_seen[pred] = true;
      edb_preds_.push_back(pred);
    }
    AppendEdbFact(pred, tuple, /*added=*/true);
  }
  for (const auto& [pred, tuple] : added_program_facts_) {
    RuleIr fact;
    fact.head_pred = pred;
    fact.head_args = tuple;
    program_.rules.push_back(std::move(fact));
  }

  LDL_ASSIGN_OR_RETURN(stratification_, Stratify(catalog_, program_));
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

void Session::AppendEdbFact(PredId pred, const Tuple& tuple, bool added) {
  edb_index_[{pred, tuple}].push_back(edb_facts_.size());
  edb_facts_.emplace_back(pred, tuple);
  edb_added_.push_back(added);
}

Session::EdbOrigin Session::EraseEdbFact(
    const std::pair<PredId, Tuple>& fact) {
  auto it = edb_index_.find(fact);
  if (it == edb_index_.end()) return EdbOrigin::kNone;
  std::vector<size_t>& occurrences = it->second;
  auto chosen = std::find_if(occurrences.begin(), occurrences.end(),
                             [&](size_t pos) { return edb_added_[pos]; });
  if (chosen == occurrences.end()) --chosen;
  const size_t pos = *chosen;
  const EdbOrigin origin =
      edb_added_[pos] ? EdbOrigin::kAdded : EdbOrigin::kLoaded;
  *chosen = occurrences.back();
  occurrences.pop_back();
  if (occurrences.empty()) edb_index_.erase(it);
  // Tombstone the slot instead of moving another fact into it: the other
  // facts keep their order, so answer order does not depend on whether a
  // model existed when the fact went.
  edb_facts_[pos] = {kInvalidPred, Tuple()};
  edb_added_[pos] = false;
  if (WorthCompacting(++edb_tombstones_, edb_facts_.size())) CompactEdbFacts();
  return origin;
}

void Session::CompactEdbFacts() {
  std::vector<size_t> moved_to(edb_facts_.size());
  size_t live = 0;
  for (size_t i = 0; i < edb_facts_.size(); ++i) {
    if (edb_facts_[i].first == kInvalidPred) continue;
    moved_to[i] = live;
    if (live != i) {
      edb_facts_[live] = std::move(edb_facts_[i]);
      edb_added_[live] = edb_added_[i];
    }
    ++live;
  }
  edb_facts_.resize(live);
  edb_added_.resize(live);
  for (auto& [fact, positions] : edb_index_) {
    for (size_t& pos : positions) pos = moved_to[pos];
  }
  edb_tombstones_ = 0;
}

void Session::RebuildEdbIndex() {
  edb_added_.assign(edb_facts_.size(), false);
  edb_tombstones_ = 0;
  edb_index_.clear();
  for (size_t i = 0; i < edb_facts_.size(); ++i) {
    edb_index_[edb_facts_[i]].push_back(i);
  }
}

Status Session::Evaluate(const EvalOptions& options) {
  LDL_RETURN_IF_ERROR(EnsureAnalyzed());
  if (evaluated_ && (!options.profile || evaluated_with_profile_) &&
      SameEvalConfig(options)) {
    if (!pending_delta_) {
      // Nothing changed since the model was materialized under this same
      // configuration: the model, stats and profile are all current.
      ++eval_cache_hits_;
      return Status::OK();
    }
  }
  if (evaluated_ && pending_delta_) return Maintain(options);

  db_ = std::make_unique<Database>(&catalog_);
  for (const auto& [pred, tuple] : edb_facts_) {
    if (pred != kInvalidPred) db_->AddFact(pred, tuple);
  }
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
  for (const auto& [pred, tuple] : edb_facts_) {
    if (pred != kInvalidPred) db->AddFact(pred, tuple);
  }
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
