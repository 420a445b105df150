#include "ldl/service.h"

#include <sstream>
#include <utility>

#include "base/str_util.h"
#include "parser/parser.h"
#include "program/lower.h"

namespace ldl {

std::string FormatServiceStats(const ServiceStats& stats) {
  std::ostringstream out;
  const char* sep = "";
#define LDL_SERVICE_STAT_FORMAT(name, description) \
  out << sep << #name << "=" << stats.name;        \
  sep = " ";
  LDL_SERVICE_STATS_FIELDS(LDL_SERVICE_STAT_FORMAT)
#undef LDL_SERVICE_STAT_FORMAT
  return out.str();
}

StatusOr<QueryResult> ModelSnapshot::Query(const PreparedQuery& prepared,
                                           const QueryOptions& options) const {
  if (!prepared.valid()) {
    return InvalidArgumentError("query was not prepared");
  }
  const LiteralIr& goal = prepared.goal();
  // Dispatch on the has_rules view captured at publication, not the live
  // catalog: a concurrent Load() must not flip this snapshot's strategy
  // choice mid-flight.
  const bool goal_has_rules =
      goal.pred < has_rules_.size() && has_rules_[goal.pred] != 0;

  // Bound strategies read the frozen database in place: top-down probes
  // it, magic saturates over a scratch database whose EDB predicates read
  // through to it. Either way the indexes a query builds stay on this
  // snapshot for the next one.
  if (options.strategy == QueryStrategy::kTopDown && goal_has_rules) {
    return QueryViaTopDown(factory_, catalog_, analysis_->program,
                           analysis_->stratification, goal, options, *db_);
  }
  const bool magic_strategy =
      options.strategy == QueryStrategy::kMagic ||
      options.strategy == QueryStrategy::kMagicSupplementary;
  if (magic_strategy && goal_has_rules) {
    Engine engine(factory_, catalog_, plans_);
    return QueryViaMagic(&engine, analysis_->program, goal, options, *db_,
                         &analysis_->magic_shapes, catalog_mu_);
  }

  // Model strategy (and trivially, goals without rules): match against the
  // frozen materialized model.
  QueryResult result;
  const Relation* relation = db_->FindRelation(goal.pred);
  if (relation != nullptr) {
    result.tuples = prepared.lookup().Run(*factory_, *relation);
  }
  result.stats = eval_stats_;
  return result;
}

Service::Service(const EvalOptions& eval) : eval_options_(eval) {
  // Publish version 1 (the empty model) so snapshot() is never null and
  // queries before the first Load() answer from an empty database.
  std::lock_guard<std::mutex> write_lock(write_mu_);
  {
    std::lock_guard<std::mutex> catalog_lock(catalog_mu_);
    Status status = writer_.Evaluate(eval_options_);
    (void)status;  // the empty program cannot fail to evaluate
  }
  PublishLocked();
}

template <typename Fn>
Status Service::Apply(Fn&& mutate) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  {
    // Analysis and incremental lowering mutate the catalog, which the
    // compile of a magic shape's first query reads and extends: serialize
    // them. The model evaluation itself also runs under this lock -- it
    // keeps Apply simple and only stalls those compiles (not magic
    // evaluations, nor model/top-down reads) while a write is in flight.
    std::lock_guard<std::mutex> catalog_lock(catalog_mu_);
    Status status = mutate(&writer_);
    if (status.ok()) status = writer_.Evaluate(eval_options_);
    if (!status.ok()) {
      // Nothing was published: put the writer back where the last
      // published write left it, so the next write does not inherit this
      // one.
      writer_.DiscardWrites();
      writes_rolled_back_.fetch_add(1, std::memory_order_relaxed);
      return status;
    }
  }
  compactions_.store(writer_.compactions(), std::memory_order_relaxed);
  PublishLocked();
  writes_applied_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Service::Load(std::string_view source) {
  return Apply([source](Session* session) { return session->Load(source); });
}

Status Service::AddFacts(std::string_view source) {
  return Apply(
      [source](Session* session) { return session->AddFacts(source); });
}

Status Service::RemoveFacts(std::string_view source) {
  return Apply(
      [source](Session* session) { return session->RemoveFacts(source); });
}

void Service::PublishLocked() {
  std::shared_ptr<ModelSnapshot> snapshot(new ModelSnapshot());
  snapshot->factory_ = &writer_.factory();
  snapshot->catalog_ = &writer_.catalog();
  snapshot->plans_ = &plans_;
  snapshot->catalog_mu_ = &catalog_mu_;

  // Share the previous snapshot's analyzed program when the rule set is
  // unchanged (the common case for EDB-only deltas); copy it fresh
  // otherwise.
  std::shared_ptr<const ModelSnapshot> previous = slot_.Acquire();
  if (previous != nullptr && previous->analysis_ != nullptr &&
      previous->analysis_->epoch == writer_.analysis_epoch()) {
    snapshot->analysis_ = previous->analysis_;
    analyses_shared_.fetch_add(1, std::memory_order_relaxed);
  } else {
    auto analysis =
        std::make_shared<ModelSnapshot::Analysis>(&magic_shapes_compiled_);
    analysis->program = writer_.program();
    analysis->stratification = writer_.stratification();
    analysis->epoch = writer_.analysis_epoch();
    snapshot->analysis_ = std::move(analysis);
  }

  // Freeze the model: share the writer's row storage (the writer only ever
  // appends past it) with a private copy of each live bitmap, pre-grown to
  // the full current catalog so no read can ever mutate it.
  const size_t pred_count = writer_.catalog().size();
  auto db = std::make_unique<Database>(&writer_.catalog());
  db->ShareFrom(writer_.database());
  snapshot->db_ = std::move(db);

  snapshot->has_rules_.resize(pred_count);
  for (PredId p = 0; p < pred_count; ++p) {
    snapshot->has_rules_[p] = writer_.catalog().info(p).has_rules ? 1 : 0;
  }
  snapshot->eval_stats_ = writer_.last_eval_stats();
  snapshot->version_ = slot_.version() + 1;  // write_mu_ held: no racing Publish
  slot_.Publish(std::move(snapshot));
}

StatusOr<PreparedQuery> Service::Prepare(std::string_view goal_text) {
  // Interner, term factory and catalog are internally synchronized, so
  // preparation runs concurrently with queries and writes (but see the
  // registration of unseen predicates below).
  LDL_ASSIGN_OR_RETURN(LiteralAst goal_ast,
                       ParseLiteralText(goal_text, &writer_.interner()));
  if (goal_ast.negated || goal_ast.builtin != BuiltinKind::kNone) {
    return InvalidArgumentError("queries must be positive relational literals");
  }
  // Lowering an unseen goal predicate registers it in the shared catalog.
  // The writer sizes per-predicate state from the catalog while it
  // analyzes and maintains under catalog_mu_, so registration takes that
  // lock too; goals over known predicates lower without it.
  std::unique_lock<std::mutex> catalog_lock;
  if (writer_.catalog().Find(goal_ast.predicate,
                             static_cast<uint32_t>(goal_ast.args.size())) ==
      kInvalidPred) {
    catalog_lock = std::unique_lock<std::mutex>(catalog_mu_);
  }
  LDL_ASSIGN_OR_RETURN(
      LiteralIr goal,
      LowerLiteral(writer_.factory(), writer_.catalog(), goal_ast));
  prepares_.fetch_add(1, std::memory_order_relaxed);
  return PreparedQuery(goal_text, std::move(goal), writer_.factory());
}

StatusOr<QueryResult> Service::Query(const PreparedQuery& prepared,
                                     const QueryOptions& options) const {
  std::shared_ptr<const ModelSnapshot> snapshot = slot_.Acquire();
  StatusOr<QueryResult> result = snapshot->Query(prepared, options);
  if (result.ok()) queries_served_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

StatusOr<QueryResult> Service::Query(std::string_view goal_text,
                                     const QueryOptions& options) {
  LDL_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(goal_text));
  return Query(prepared, options);
}

ServiceStats Service::stats() const {
  ServiceStats out;
  out.queries_served = queries_served_.load(std::memory_order_relaxed);
  out.prepares = prepares_.load(std::memory_order_relaxed);
  out.writes_applied = writes_applied_.load(std::memory_order_relaxed);
  out.writes_rolled_back = writes_rolled_back_.load(std::memory_order_relaxed);
  out.snapshots_published = slot_.version();
  out.analyses_shared = analyses_shared_.load(std::memory_order_relaxed);
  out.snapshot_refs = static_cast<uint64_t>(slot_.snapshot_refs());
  out.catalog_preds = writer_.catalog().size();
  out.cached_plans = plans_.size();
  out.magic_shapes_compiled =
      magic_shapes_compiled_.load(std::memory_order_relaxed);
  out.compactions = compactions_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ldl
