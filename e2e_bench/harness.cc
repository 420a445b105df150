#include "harness.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <utility>

#include "base/str_util.h"
#include "eval/bindings.h"
#include "ldl/service.h"
#include "parser/parser.h"
#include "program/lower.h"
#include "program/stratify.h"
#include "program/wellformed.h"
#include "rewrite/ldl15.h"
#include "rewrite/magic.h"
#include "semantics/model.h"

namespace ldl_bench {

double Samples::QuantileOf(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Samples::Quantile(double q) const { return QuantileOf(values_, q); }

double Samples::FirstHalfMedian() const {
  const auto mid = values_.begin() + static_cast<std::ptrdiff_t>(values_.size() / 2);
  return QuantileOf(std::vector<double>(values_.begin(), mid), 0.5);
}

double Samples::SecondHalfMedian() const {
  const auto mid = values_.begin() + static_cast<std::ptrdiff_t>(values_.size() / 2);
  return QuantileOf(std::vector<double>(mid, values_.end()), 0.5);
}

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

uint64_t Tracer::Now() const {
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - origin_)
                        .count();
  return static_cast<uint64_t>(wall) - paused_ns_;
}

void Tracer::BeginOp(const char* name) {
  ++next_op_;
  open_ = -1;
  open_ = Open(name);
}

void Tracer::EndOp() {
  if (open_ >= 0) Close(open_);
  open_ = -1;
}

int32_t Tracer::Open(const char* name) {
  spans_.push_back(Span{name, Now(), 0, open_, next_op_});
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::Close(int32_t index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = Now();
  open_ = span.parent;
}

void Tracer::Pause() {
  if (pause_depth_++ == 0) pause_start_ = Clock::now();
}

void Tracer::Resume() {
  if (--pause_depth_ == 0) {
    paused_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             pause_start_)
            .count());
  }
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

double MicrosSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now()) * 1e6;
}

std::vector<ldl::PredId> AllPreds(const ldl::Catalog& catalog) {
  std::vector<ldl::PredId> preds(catalog.size());
  for (ldl::PredId p = 0; p < preds.size(); ++p) preds[p] = p;
  return preds;
}

// --- Untraced: the public ldl::Service, timed per call. ---

class ServiceBackend : public Backend {
 public:
  explicit ServiceBackend(E2eSamples* samples)
      : samples_(samples), service_(std::make_unique<ldl::Service>()) {}

  ldl::Status Load(std::string_view text) override {
    return service_->Load(text);
  }

  ldl::StatusOr<ldl::PreparedQuery> Prepare(std::string_view goal) override {
    return service_->Prepare(goal);
  }

  ldl::StatusOr<std::vector<ldl::Tuple>> Query(const ldl::PreparedQuery& goal,
                                               ldl::QueryStrategy strategy,
                                               bool timed) override {
    ldl::QueryOptions options;
    options.strategy = strategy;
    const Clock::time_point start = Clock::now();
    ldl::StatusOr<ldl::QueryResult> result = service_->Query(goal, options);
    const double us = MicrosSince(start);
    if (!result.ok()) return result.status();
    if (timed) {
      switch (strategy) {
        case ldl::QueryStrategy::kModel:
          samples_->model_query_us.Add(us);
          break;
        case ldl::QueryStrategy::kMagic:
          samples_->magic_query_us.Add(us);
          break;
        case ldl::QueryStrategy::kMagicSupplementary:
          samples_->magic_sup_query_us.Add(us);
          break;
        case ldl::QueryStrategy::kTopDown:
          samples_->topdown_query_us.Add(us);
          break;
      }
    }
    return std::move(result->tuples);
  }

  ldl::Status Write(WriteKind kind, std::string_view facts) override {
    const uint64_t before = service_->snapshot()->version();
    const Clock::time_point start = Clock::now();
    ldl::Status status = kind == WriteKind::kAdd ? service_->AddFacts(facts)
                                                 : service_->RemoveFacts(facts);
    const bool visible = service_->snapshot()->version() > before;
    const double us = MicrosSince(start);
    if (!status.ok()) return status;
    if (!visible) return ldl::InternalError("write never became visible");
    samples_->write_visible_us.Add(us);
    return ldl::Status::OK();
  }

  ldl::Status Materialize(std::string_view text) override {
    const Clock::time_point start = Clock::now();
    auto fresh = std::make_unique<ldl::Service>();
    const uint64_t before = fresh->snapshot()->version();
    ldl::Status status = fresh->Load(text);
    const bool visible = fresh->snapshot()->version() > before;
    const double ms = MicrosSince(start) / 1e3;
    if (!status.ok()) return status;
    if (!visible) return ldl::InternalError("materialization never published");
    samples_->materialize_ms.Add(ms);
    return ldl::Status::OK();
  }

  const ldl::Database& published() const override {
    pinned_ = service_->snapshot();
    return pinned_->database();
  }
  const ldl::TermFactory& factory() const override {
    return service_->snapshot()->factory();
  }

 private:
  E2eSamples* samples_;
  std::unique_ptr<ldl::Service> service_;
  // Keeps the snapshot behind published() alive for the caller.
  mutable std::shared_ptr<const ldl::ModelSnapshot> pinned_;
};

// --- Traced: the same work composed from public calls, one span each. ---

// Number of facts present in exactly one of `a` and `b` (both over one
// catalog and factory).
uint64_t ChangedFacts(const ldl::Database& a, const ldl::Database& b,
                      size_t pred_count) {
  uint64_t changed = 0;
  auto count_missing = [&](const ldl::Database& from, const ldl::Database& in) {
    for (ldl::PredId p = 0; p < pred_count; ++p) {
      const ldl::Relation* source = from.FindRelation(p);
      if (source == nullptr) continue;
      const ldl::Relation* target = in.FindRelation(p);
      source->ForEachRow(0, source->row_count(), [&](size_t, ldl::RowRef row) {
        if (target == nullptr || !target->Contains(row)) ++changed;
      });
    }
  };
  count_missing(a, b);
  count_missing(b, a);
  return changed;
}

class TracedBackend : public Backend {
 public:
  TracedBackend(Tracer* tracer, LayerCounters* counters)
      : tracer_(tracer), counters_(counters), writer_(&plans_) {}

  ldl::Status Load(std::string_view text) override {
    LDL_RETURN_IF_ERROR(writer_.Load(text));
    LDL_RETURN_IF_ERROR(writer_.Evaluate());
    Publish();
    return ldl::Status::OK();
  }

  ldl::StatusOr<ldl::PreparedQuery> Prepare(std::string_view goal) override {
    return writer_.Prepare(goal);
  }

  ldl::StatusOr<std::vector<ldl::Tuple>> Query(const ldl::PreparedQuery& goal,
                                               ldl::QueryStrategy strategy,
                                               bool timed) override {
    Tracer* tracer = timed ? tracer_ : nullptr;
    switch (strategy) {
      case ldl::QueryStrategy::kModel: {
        ScopedSpan span(tracer, "eval.probe_query");
        ldl::StatusOr<std::vector<ldl::Tuple>> tuples =
            writer_.engine().Query(goal.goal(), *snapshot_);
        if (timed && tuples.ok()) {
          ++counters_->model_queries;
          counters_->model_answers += tuples->size();
        }
        return tuples;
      }
      case ldl::QueryStrategy::kMagic:
      case ldl::QueryStrategy::kMagicSupplementary:
        return MagicQuery(goal.goal(), strategy, tracer);
      case ldl::QueryStrategy::kTopDown: {
        ScopedSpan span(tracer, "eval.topdown");
        ldl::QueryOptions options;
        options.strategy = strategy;
        ldl::StatusOr<ldl::QueryResult> result = ldl::QueryViaTopDown(
            &writer_.factory(), &writer_.catalog(), writer_.program(),
            writer_.stratification(), writer_.edb_preds(), goal.goal(), options,
            Seeder(tracer));
        if (!result.ok()) return result.status();
        if (timed) {
          counters_->topdown_expansions += result->stats.rule_firings;
          counters_->topdown_answers += result->stats.facts_derived;
        }
        return std::move(result->tuples);
      }
    }
    return ldl::InternalError("unknown strategy");
  }

  ldl::Status Write(WriteKind kind, std::string_view facts) override {
    {
      ScopedSpan span(tracer_, "ldl.stage");
      LDL_RETURN_IF_ERROR(kind == WriteKind::kAdd ? writer_.AddFacts(facts)
                                                  : writer_.RemoveFacts(facts));
    }
    const size_t full_before = writer_.full_evals();
    {
      ScopedSpan span(tracer_, "eval.maintain");
      LDL_RETURN_IF_ERROR(writer_.Evaluate());
    }
    ++counters_->writes;
    if (writer_.full_evals() != full_before) ++counters_->full_fallbacks;
    counters_->maintain.Add(writer_.last_eval_stats());
    const uint64_t before = version_;
    Publish();
    if (version_ <= before) return ldl::InternalError("write never became visible");
    tracer_->Pause();
    counters_->dead_row_ratio = DeadRowRatio(writer_.database());
    tracer_->Resume();
    return ldl::Status::OK();
  }

  ldl::Status Materialize(std::string_view text) override;

  const ldl::Database& published() const override { return *snapshot_; }
  const ldl::TermFactory& factory() const override { return writer_.factory(); }

 private:
  ldl::EdbSeeder Seeder(Tracer* tracer) const {
    return [this, tracer](ldl::Database* scratch,
                          const std::vector<ldl::PredId>& preds) {
      ScopedSpan span(tracer, "ldl.seed_edb");
      for (ldl::PredId pred : preds) {
        const ldl::Relation* relation = snapshot_->FindRelation(pred);
        if (relation == nullptr) continue;
        relation->ForEachRow(0, relation->row_count(),
                             [&](size_t, ldl::RowRef row) {
                               scratch->AddFact(pred, row);
                             });
      }
    };
  }

  // MagicRewrite -> seed -> EvaluateSaturating -> Engine::Query, as
  // ldl::QueryViaMagic does it for ModelSnapshot::Query.
  ldl::StatusOr<std::vector<ldl::Tuple>> MagicQuery(const ldl::LiteralIr& goal,
                                                    ldl::QueryStrategy strategy,
                                                    Tracer* tracer) {
    ldl::MagicOptions magic_options;
    magic_options.supplementary =
        strategy == ldl::QueryStrategy::kMagicSupplementary;
    ldl::StatusOr<ldl::MagicProgram> magic = [&] {
      ScopedSpan span(tracer, "rewrite.magic");
      return ldl::MagicRewrite(writer_.program(), &writer_.catalog(), goal,
                               magic_options);
    }();
    if (!magic.ok()) return magic.status();
    ldl::Engine engine(&writer_.factory(), &writer_.catalog(), &plans_);
    ldl::Database magic_db(&writer_.catalog());
    Seeder(tracer)(&magic_db, magic->edb_preds);
    ldl::EvalStats stats;
    {
      ScopedSpan span(tracer, "eval.saturate");
      LDL_RETURN_IF_ERROR(engine.EvaluateSaturating(magic->rules, &magic_db, {},
                                                    &stats));
    }
    ldl::LiteralIr adorned = goal;
    adorned.pred = magic->answer_pred;
    ScopedSpan span(tracer, "eval.magic_answer");
    ldl::StatusOr<std::vector<ldl::Tuple>> tuples = engine.Query(adorned, magic_db);
    if (tracer != nullptr) {
      ++counters_->magic_rewrites;
      counters_->magic_rules += magic->rules.rules.size();
      counters_->saturate.Add(stats);
    }
    return tuples;
  }

  // The copy ldl::Service::PublishLocked makes on every write: a fresh
  // Database grown to the whole catalog, CopyFrom over every predicate, the
  // per-predicate has_rules view, and the analysis shared while the
  // analysis epoch is unchanged.
  void Publish() {
    std::unique_ptr<ldl::Database> previous;
    {
      ScopedSpan span(tracer_, "ldl.publish");
      const ldl::Catalog& catalog = writer_.catalog();
      const size_t pred_count = catalog.size();
      if (analysis_ != nullptr && analysis_epoch_ == writer_.analysis_epoch()) {
        if (tracer_ != nullptr && tracer_->in_op()) ++counters_->analyses_shared;
      } else {
        analysis_ = std::make_shared<ldl::ProgramIr>(writer_.program());
        analysis_epoch_ = writer_.analysis_epoch();
      }
      auto db = std::make_unique<ldl::Database>(&writer_.catalog());
      db->Grow();
      db->CopyFrom(writer_.database(), AllPreds(catalog));
      has_rules_.assign(pred_count, 0);
      for (ldl::PredId p = 0; p < pred_count; ++p) {
        has_rules_[p] = catalog.info(p).has_rules ? 1 : 0;
      }
      previous = std::move(snapshot_);
      snapshot_ = std::move(db);
      ++version_;
      if (tracer_ != nullptr && tracer_->in_op()) {
        ++counters_->publishes;
        counters_->rows_copied += snapshot_->TotalFacts();
        tracer_->Pause();
        if (previous != nullptr) {
          counters_->changed_facts +=
              ChangedFacts(*previous, *snapshot_, pred_count);
        }
        tracer_->Resume();
      }
      previous.reset();  // retiring the old snapshot is part of publishing
    }
  }

  Tracer* tracer_;
  LayerCounters* counters_;
  ldl::PlanCache plans_;  // shared by the writer and per-query engines
  ldl::Session writer_;
  std::unique_ptr<ldl::Database> snapshot_;
  std::shared_ptr<const ldl::ProgramIr> analysis_;
  uint64_t analysis_epoch_ = 0;
  std::vector<char> has_rules_;
  uint64_t version_ = 0;
};

// A fresh instance's Load: parse -> expand -> lower -> wellformed -> split
// EDB facts -> stratify -> evaluate -> publish, as Session::Load, Analyze
// and Evaluate plus Service::PublishLocked do it.
ldl::Status TracedBackend::Materialize(std::string_view text) {
  struct Fresh {
    ldl::Interner interner;
    ldl::TermFactory factory{&interner};
    ldl::Catalog catalog{&interner};
    ldl::PlanCache plans;
    ldl::Engine engine{&factory, &catalog, &plans};
    ldl::ProgramIr program;
    std::unique_ptr<ldl::Database> db;
    std::unique_ptr<ldl::Database> published;
  };
  auto fresh = std::make_unique<Fresh>();
  ldl::StatusOr<ldl::ProgramAst> ast = [&] {
    ScopedSpan span(tracer_, "parser.parse");
    return ldl::ParseProgram(text, &fresh->interner);
  }();
  LDL_RETURN_IF_ERROR(ast.status());
  ldl::StatusOr<ldl::ProgramAst> expanded = [&] {
    ScopedSpan span(tracer_, "rewrite.expand");
    return ldl::ExpandLdl15(*ast, &fresh->interner);
  }();
  LDL_RETURN_IF_ERROR(expanded.status());
  ldl::StatusOr<ldl::ProgramIr> all = [&] {
    ScopedSpan span(tracer_, "program.lower");
    return ldl::LowerProgram(fresh->factory, fresh->catalog, *expanded);
  }();
  LDL_RETURN_IF_ERROR(all.status());
  {
    ScopedSpan span(tracer_, "program.wellformed");
    LDL_RETURN_IF_ERROR(ldl::CheckProgramWellformed(fresh->catalog, *all));
  }
  // Ground facts of predicates without proper rules seed the database.
  std::vector<bool> has_proper_rule(fresh->catalog.size(), false);
  for (const ldl::RuleIr& rule : all->rules) {
    if (!rule.is_fact()) has_proper_rule[rule.head_pred] = true;
  }
  std::vector<std::pair<ldl::PredId, ldl::Tuple>> edb;
  for (ldl::RuleIr& rule : all->rules) {
    if (rule.is_fact() && !has_proper_rule[rule.head_pred]) {
      ldl::InstantiationResult inst =
          ldl::InstantiateArgs(fresh->factory, rule.head_args, ldl::Subst());
      if (inst.unbound) return ldl::NotWellFormedError("fact with variables");
      if (!inst.outside_universe) edb.emplace_back(rule.head_pred, inst.tuple);
    } else {
      fresh->program.rules.push_back(std::move(rule));
    }
  }
  ldl::StatusOr<ldl::Stratification> strata = [&] {
    ScopedSpan span(tracer_, "program.stratify");
    return ldl::Stratify(fresh->catalog, fresh->program);
  }();
  LDL_RETURN_IF_ERROR(strata.status());
  ldl::EvalStats stats;
  {
    ScopedSpan span(tracer_, "eval.full");
    fresh->db = std::make_unique<ldl::Database>(&fresh->catalog);
    for (const auto& [pred, tuple] : edb) fresh->db->AddFact(pred, tuple);
    LDL_RETURN_IF_ERROR(fresh->engine.EvaluateProgram(
        fresh->program, *strata, fresh->db.get(), {}, &stats));
  }
  {
    ScopedSpan span(tracer_, "ldl.first_publish");
    fresh->published = std::make_unique<ldl::Database>(&fresh->catalog);
    fresh->published->Grow();
    fresh->published->CopyFrom(*fresh->db, AllPreds(fresh->catalog));
  }
  counters_->strata = static_cast<uint64_t>(strata->layer_count());
  counters_->full.Add(stats);
  // Tearing the fresh instance down is not part of the op.
  tracer_->Pause();
  fresh.reset();
  tracer_->Resume();
  return ldl::Status::OK();
}

// "pred/arity" -> sorted fact texts, over every non-empty relation.
std::map<std::string, std::vector<std::string>> DumpModel(
    const ldl::Database& db, const ldl::TermFactory& factory) {
  std::map<std::string, std::vector<std::string>> model;
  const ldl::Catalog& catalog = *db.catalog();
  for (ldl::PredId p = 0; p < catalog.size(); ++p) {
    const ldl::Relation* relation = db.FindRelation(p);
    if (relation == nullptr || relation->empty()) continue;
    std::vector<std::string>& facts = model[catalog.DebugName(p)];
    relation->ForEachRow(0, relation->row_count(), [&](size_t, ldl::RowRef row) {
      std::string text;
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) text += ", ";
        factory.AppendTo(row[i], &text);
      }
      facts.push_back(std::move(text));
    });
    std::sort(facts.begin(), facts.end());
  }
  return model;
}

}  // namespace

std::unique_ptr<Backend> MakeServiceBackend(E2eSamples* samples) {
  return std::make_unique<ServiceBackend>(samples);
}

std::unique_ptr<Backend> MakeTracedBackend(Tracer* tracer,
                                           LayerCounters* counters) {
  return std::make_unique<TracedBackend>(tracer, counters);
}

ldl::Status CheckFinalModel(const ldl::Database& maintained,
                            const ldl::TermFactory& factory,
                            std::string_view text) {
  ldl::Session fresh;
  LDL_RETURN_IF_ERROR(fresh.Load(text));
  LDL_RETURN_IF_ERROR(fresh.Evaluate());
  auto expected = DumpModel(fresh.database(), fresh.factory());
  auto actual = DumpModel(maintained, factory);
  for (const auto& [pred, facts] : expected) {
    auto it = actual.find(pred);
    const size_t got = it == actual.end() ? 0 : it->second.size();
    if (it == actual.end() || it->second != facts) {
      return ldl::InternalError(
          ldl::StrCat("maintained model differs from a fresh one on ", pred,
                      ": ", got, " facts vs ", facts.size()));
    }
  }
  for (const auto& [pred, facts] : actual) {
    if (expected.find(pred) == expected.end()) {
      return ldl::InternalError(ldl::StrCat("maintained model has ", facts.size(),
                                            " stale facts of ", pred));
    }
  }
  std::string counterexample;
  LDL_ASSIGN_OR_RETURN(bool is_model,
                       ldl::IsModel(fresh.factory(), fresh.catalog(),
                                    fresh.program(), fresh.database(),
                                    &counterexample));
  if (!is_model) {
    return ldl::InternalError(
        ldl::StrCat("materialized model fails IsModel: ", counterexample));
  }
  return ldl::Status::OK();
}

double DeadRowRatio(const ldl::Database& db) {
  double raw = 0;
  double dead = 0;
  for (ldl::PredId p = 0; p < db.catalog()->size(); ++p) {
    const ldl::Relation* relation = db.FindRelation(p);
    if (relation == nullptr) continue;
    const ldl::RelationStats stats = relation->Stats();
    raw += static_cast<double>(stats.raw_rows);
    dead += static_cast<double>(stats.raw_rows - stats.rows);
  }
  return raw == 0 ? 0 : dead / raw;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::vector<std::string> ColumnTexts(const ldl::TermFactory& factory,
                                     const std::vector<ldl::Tuple>& tuples,
                                     size_t column) {
  std::vector<std::string> out;
  out.reserve(tuples.size());
  for (const ldl::Tuple& tuple : tuples) {
    out.push_back(column < tuple.size() ? factory.ToString(tuple[column]) : "");
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> SetTexts(const ldl::TermFactory& factory,
                                  const ldl::Term* set) {
  std::vector<std::string> out;
  if (set == nullptr || !set->is_set()) return out;
  out.reserve(set->size());
  for (const ldl::Term* element : set->args()) {
    out.push_back(factory.ToString(element));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ldl_bench
