// ldl::Service: snapshot isolation, concurrent serving, and a
// linearizability stress check -- every answer set a reader observes must
// equal what a serial Session produces at the snapshot's published version.
#include "ldl/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/snapshot.h"
#include "base/str_util.h"
#include "eval/bindings.h"
#include "ldl/ldl.h"
#include "workload/workload.h"

namespace ldl {
namespace {

constexpr char kPathProgram[] = R"(
  edge(1, 2). edge(2, 3). edge(3, 4).
  path(X, Y) :- edge(X, Y).
  path(X, Y) :- edge(X, Z), path(Z, Y).
)";

// Canonical, session-independent rendering of an answer set (Term pointers
// differ between interners, strings do not).
std::vector<std::string> Render(const TermFactory& factory,
                                const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  out.reserve(tuples.size());
  for (const Tuple& tuple : tuples) out.push_back(FormatTuple(factory, tuple));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Service, ServesEmptyModelBeforeLoad) {
  Service service;
  EXPECT_EQ(service.snapshot()->version(), 1u);
  auto result = service.Query("p(X)");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tuples.empty());
}

TEST(Service, AnswersMatchSessionAcrossStrategies) {
  Service service;
  ASSERT_TRUE(service.Load(kPathProgram).ok());

  Session session;
  ASSERT_TRUE(session.Load(kPathProgram).ok());
  auto expected = session.Query("path(1, X)");
  ASSERT_TRUE(expected.ok());
  std::vector<std::string> want =
      Render(session.factory(), expected->tuples);
  ASSERT_EQ(want.size(), 3u);

  auto prepared = service.Prepare("path(1, X)");
  ASSERT_TRUE(prepared.ok());
  for (QueryStrategy strategy :
       {QueryStrategy::kModel, QueryStrategy::kMagic,
        QueryStrategy::kMagicSupplementary, QueryStrategy::kTopDown}) {
    QueryOptions options;
    options.strategy = strategy;
    auto result = service.Query(*prepared, options);
    ASSERT_TRUE(result.ok()) << ToString(strategy);
    EXPECT_EQ(Render(service.snapshot()->factory(), result->tuples), want)
        << ToString(strategy);
  }
}

TEST(Service, SnapshotPinnedAcrossWrites) {
  Service service;
  ASSERT_TRUE(service.Load(kPathProgram).ok());
  auto prepared = service.Prepare("path(1, X)");
  ASSERT_TRUE(prepared.ok());

  std::shared_ptr<const ModelSnapshot> pinned = service.snapshot();
  uint64_t pinned_version = pinned->version();
  auto before = pinned->Query(*prepared);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->tuples.size(), 3u);

  ASSERT_TRUE(service.AddFacts("edge(4, 5).").ok());

  // The service answers from the new model...
  auto after = service.Query(*prepared);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->tuples.size(), 4u);
  EXPECT_GT(service.snapshot()->version(), pinned_version);
  // ...while the pinned snapshot still answers from the old one.
  auto still_before = pinned->Query(*prepared);
  ASSERT_TRUE(still_before.ok());
  EXPECT_EQ(still_before->tuples.size(), 3u);
}

TEST(Service, FailedWriteKeepsServing) {
  Service service;
  ASSERT_TRUE(service.Load(kPathProgram).ok());
  uint64_t version = service.snapshot()->version();
  EXPECT_FALSE(service.Load("edge(1, ").ok());
  EXPECT_EQ(service.snapshot()->version(), version);
  auto result = service.Query("path(1, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 3u);
}

TEST(Service, StatsCountServingActivity) {
  Service service;
  ASSERT_TRUE(service.Load(kPathProgram).ok());
  auto prepared = service.Prepare("path(X, Y)");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(service.Query(*prepared).ok());
  ASSERT_TRUE(service.Query(*prepared).ok());
  // An EDB-only delta republished the model without re-analyzing.
  ASSERT_TRUE(service.AddFacts("edge(4, 5).").ok());
  ASSERT_TRUE(service.Query(*prepared).ok());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_served, 3u);
  EXPECT_EQ(stats.prepares, 1u);
  EXPECT_EQ(stats.writes_applied, 2u);  // Load + AddFacts
  EXPECT_EQ(stats.snapshots_published, 3u);  // ctor + Load + AddFacts
  EXPECT_GE(stats.analyses_shared, 1u);
  EXPECT_GE(stats.snapshot_refs, 1u);
  EXPECT_EQ(stats.compactions, 0u);  // nothing was deleted

  std::string formatted = FormatServiceStats(stats);
  EXPECT_NE(formatted.find("queries_served=3"), std::string::npos);
  EXPECT_NE(formatted.find("snapshots_published=3"), std::string::npos);
}

// kModel goal lookups (GoalLookup, eval/rule_eval.h) answer from the stored
// model with literal expected answers, listed in the relation's row order.
// t(2, b) is removed before any read, so t holds a tombstone.
constexpr char kLookupProgram[] = R"(
  q(a, a). q(a, b). q(b, b). q(c, a).
  r(a, 1, a). r(a, 1, b). r(b, 2, b). r(c, 1, c).
  p(f(1), x). p(g(2), y). p(f(3), z).
  s({1, 2}, a). s({3}, b). s({1, 2, 3}, c). s({1}, d).
  k(a, 1). k(b, 3).
  t(1, a). t(2, b). t(3, c). t(4, d).
  none(X, Y) :- q(X, Y), k(Y, X).
)";

struct LookupCase {
  const char* goal;
  // Whether each candidate row runs MatchArgs (a complex non-key argument).
  bool residual;
  std::vector<std::string> answers;  // in row order
};

const std::vector<LookupCase>& LookupCases() {
  static const std::vector<LookupCase> cases = {
      {"q(X, Y)", false, {"(a, a)", "(a, b)", "(b, b)", "(c, a)"}},
      {"q(a, Y)", false, {"(a, a)", "(a, b)"}},
      {"q(X, X)", false, {"(a, a)", "(b, b)"}},
      {"r(X, 1, X)", false, {"(a, 1, a)", "(c, 1, c)"}},
      {"q(_, b)", false, {"(a, b)", "(b, b)"}},
      {"q(_, _)", false, {"(a, a)", "(a, b)", "(b, b)", "(c, a)"}},
      {"p(f(X), Y)", true, {"(f(1), x)", "(f(3), z)"}},
      {"p(f(3), Y)", false, {"(f(3), z)"}},
      {"s({1, X}, Y)", true, {"({1, 2}, a)", "({1}, d)"}},
      {"s(scons(3, {1, 2}), Y)", true, {"({1, 2, 3}, c)"}},
      {"s({1, 2}, Y)", false, {"({1, 2}, a)"}},
      {"k(a, 1)", false, {"(a, 1)"}},
      {"k(a, 3)", false, {}},
      {"t(X, Y)", false, {"(1, a)", "(3, c)", "(4, d)"}},
      {"t(2, Y)", false, {}},
      {"t(2, b)", false, {}},
      {"t(X, c)", false, {"(3, c)"}},
      {"none(X, Y)", false, {}},
  };
  return cases;
}

// The answers in the order they came, not sorted.
std::vector<std::string> RenderInOrder(const TermFactory& factory,
                                       const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const Tuple& tuple : tuples) out.push_back(FormatTuple(factory, tuple));
  return out;
}

// Whether `tuples` are live rows of `relation` (nullptr reads as empty)
// appearing in its row order.
bool InRowOrder(const Relation* relation, const std::vector<Tuple>& tuples) {
  size_t next = 0;
  if (relation != nullptr) {
    relation->ForEachRow(0, relation->row_count(), [&](size_t, RowRef row) {
      if (next < tuples.size() &&
          std::equal(row.begin(), row.end(), tuples[next].begin(), tuples[next].end())) {
        ++next;
      }
    });
  }
  return next == tuples.size();
}

TEST(GoalLookup, SessionModelReadsMatchLiteralAnswers) {
  Session session;
  ASSERT_TRUE(session.Load(kLookupProgram).ok());
  // Materialized first, so maintenance tombstones t(2, b) in place.
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.RemoveFacts("t(2, b).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  auto t = session.Prepare("t(X, Y)");
  ASSERT_TRUE(t.ok());
  const Relation* t_rows = session.database().FindRelation(t->goal().pred);
  ASSERT_NE(t_rows, nullptr);
  EXPECT_EQ(t_rows->row_count() - t_rows->size(), 1u);  // the tombstone
  for (const LookupCase& c : LookupCases()) {
    auto prepared = session.Prepare(c.goal);
    ASSERT_TRUE(prepared.ok()) << c.goal;
    EXPECT_EQ(prepared->lookup().residual(), c.residual) << c.goal;
    auto result = session.Query(*prepared);
    ASSERT_TRUE(result.ok()) << c.goal;
    EXPECT_EQ(RenderInOrder(session.factory(), result->tuples), c.answers) << c.goal;
    EXPECT_TRUE(InRowOrder(session.database().FindRelation(prepared->goal().pred),
                           result->tuples))
        << c.goal;
  }
}

TEST(GoalLookup, ServiceModelReadsMatchLiteralAnswers) {
  Service service;
  ASSERT_TRUE(service.Load(kLookupProgram).ok());
  ASSERT_TRUE(service.RemoveFacts("t(2, b).").ok());
  const std::shared_ptr<const ModelSnapshot> snapshot = service.snapshot();
  auto t = service.Prepare("t(X, Y)");
  ASSERT_TRUE(t.ok());
  const Relation* t_rows = snapshot->database().FindRelation(t->goal().pred);
  ASSERT_NE(t_rows, nullptr);
  EXPECT_EQ(t_rows->row_count() - t_rows->size(), 1u);  // the tombstone
  for (const LookupCase& c : LookupCases()) {
    auto prepared = service.Prepare(c.goal);
    ASSERT_TRUE(prepared.ok()) << c.goal;
    EXPECT_EQ(prepared->lookup().residual(), c.residual) << c.goal;
    auto result = snapshot->Query(*prepared);
    ASSERT_TRUE(result.ok()) << c.goal;
    EXPECT_EQ(RenderInOrder(snapshot->factory(), result->tuples), c.answers) << c.goal;
    EXPECT_TRUE(InRowOrder(snapshot->database().FindRelation(prepared->goal().pred),
                           result->tuples))
        << c.goal;
  }
}

// Removing an EDB fact keeps the others in order, so answer order does not
// depend on whether a model existed when the fact went. The Session removes
// before its first Evaluate; the Service's second Load rebuilds the model
// from the EDB list, replaying the removal.
TEST(EdbOrder, RemovalKeepsTheOtherFactsInOrder) {
  constexpr const char* kFacts = "t(1, a). t(2, b). t(3, c). t(4, d).";
  const std::vector<std::string> want = {"(1, a)", "(3, c)", "(4, d)"};

  Session session;
  ASSERT_TRUE(session.Load(kFacts).ok());
  ASSERT_TRUE(session.RemoveFacts("t(2, b).").ok());
  auto from_session = session.Query("t(X, Y)");
  ASSERT_TRUE(from_session.ok()) << from_session.status();
  EXPECT_EQ(RenderInOrder(session.factory(), from_session->tuples), want);

  Service service;
  ASSERT_TRUE(service.Load(kFacts).ok());
  ASSERT_TRUE(service.RemoveFacts("t(2, b).").ok());
  ASSERT_TRUE(service.Load("u(X) :- t(X, Y).").ok());
  auto from_service = service.Query("t(X, Y)");
  ASSERT_TRUE(from_service.ok()) << from_service.status();
  EXPECT_EQ(RenderInOrder(service.snapshot()->factory(), from_service->tuples),
            want);
}

// Enough removals to compact the EDB list's tombstones (at least 64, more
// than one slot in 8) leave the survivors in load order, and later removals
// still find their facts.
TEST(EdbOrder, CompactionKeepsTheSurvivorsInOrder) {
  std::string facts;
  for (int i = 0; i < 200; ++i) facts += StrCat("t(", i, ").\n");
  std::string evens;
  for (int i = 0; i < 200; i += 2) evens += StrCat("t(", i, ").\n");
  std::vector<std::string> want;
  for (int i = 3; i < 200; i += 2) want.push_back(StrCat("(", i, ")"));
  want.push_back("(200)");

  Session session;
  ASSERT_TRUE(session.Load(facts).ok());
  ASSERT_TRUE(session.RemoveFacts(evens).ok());
  ASSERT_TRUE(session.AddFacts("t(200).").ok());
  ASSERT_TRUE(session.RemoveFacts("t(1).").ok());
  auto result = session.Query("t(X)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(RenderInOrder(session.factory(), result->tuples), want);
}

// Publish releases the retired snapshot after dropping the slot's lock: a
// snapshot whose destructor waits for another thread's Acquire sees it
// return. Were the destructor run under the lock, the wait would time out
// (and the reader would get through once Publish returned).
TEST(SnapshotSlot, RetiredSnapshotIsReleasedOutsideTheLock) {
  struct Retiree {
    std::function<void()> on_destroy;
    ~Retiree() {
      if (on_destroy) on_destroy();
    }
  };
  std::promise<void> acquired;
  std::thread reader;
  bool acquired_in_time = false;
  SnapshotSlot<Retiree> slot;
  auto first = std::make_shared<Retiree>();
  first->on_destroy = [&] {
    std::future<void> done = acquired.get_future();
    reader = std::thread([&] {
      slot.Acquire();
      acquired.set_value();
    });
    acquired_in_time = done.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  };
  slot.Publish(std::move(first));
  slot.Publish(std::make_shared<Retiree>());  // retires and frees `first`
  ASSERT_TRUE(reader.joinable());
  reader.join();
  EXPECT_TRUE(acquired_in_time);
}

// Supplementary-magic rewrites name their sup$ predicates after the adorned
// rule they belong to, so repeating a query reuses the catalog entries and
// compiled plans of the first rewrite instead of adding new ones per query.
TEST(Service, RepeatedSupplementaryQueriesReuseCatalogAndPlans) {
  Service service;
  ASSERT_TRUE(service.Load(kPathProgram).ok());
  auto prepared = service.Prepare("path(1, X)");
  ASSERT_TRUE(prepared.ok());
  QueryOptions options;
  options.strategy = QueryStrategy::kMagicSupplementary;
  auto first = service.Query(*prepared, options);
  ASSERT_TRUE(first.ok());
  const TermFactory& factory = service.snapshot()->factory();
  const std::vector<std::string> want = Render(factory, first->tuples);
  ASSERT_EQ(want.size(), 3u);
  const ServiceStats after_first = service.stats();
  for (int i = 0; i < 200; ++i) {
    auto result = service.Query(*prepared, options);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(Render(factory, result->tuples), want) << "query " << i;
  }
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.catalog_preds, after_first.catalog_preds);
  EXPECT_EQ(after.cached_plans, after_first.cached_plans);
}

// --- Linearizability stress ---
//
// One writer applies a fixed sequence of EDB inserts/removes while reader
// threads hammer queries. Every reader pins a snapshot, queries it, and
// checks the answer set against the expected model at that snapshot's
// version, precomputed with a serial Session. TSan (the tsan preset runs
// this test) checks the synchronization; the version check makes snapshot
// isolation observable.

// The update script. Version numbering: the Service constructor publishes
// v1 (empty), Load(kPathProgram) publishes v2, update i publishes v2+i.
const char* const kUpdates[] = {
    "edge(4, 5).", "edge(5, 6).", "-edge(1, 2).",
    "edge(1, 2).", "edge(6, 7).", "-edge(3, 4).",
};
constexpr size_t kNumUpdates = sizeof(kUpdates) / sizeof(kUpdates[0]);

Status ApplyUpdate(Session* session, const char* update) {
  if (update[0] == '-') return session->RemoveFacts(update + 1);
  return session->AddFacts(update);
}

Status ApplyUpdate(Service* service, const char* update) {
  if (update[0] == '-') return service->RemoveFacts(update + 1);
  return service->AddFacts(update);
}

void RunStress(QueryStrategy strategy) {
  // Expected answer set per published version, from a serial Session.
  std::vector<std::vector<std::string>> expected(kNumUpdates + 3);
  {
    Session session;
    ASSERT_TRUE(session.Load(kPathProgram).ok());
    for (size_t i = 0; i <= kNumUpdates; ++i) {
      if (i > 0) ASSERT_TRUE(ApplyUpdate(&session, kUpdates[i - 1]).ok());
      auto result = session.Query("path(X, Y)");
      ASSERT_TRUE(result.ok());
      expected[2 + i] = Render(session.factory(), result->tuples);
    }
  }

  Service service;
  ASSERT_TRUE(service.Load(kPathProgram).ok());
  auto prepared = service.Prepare("path(X, Y)");
  ASSERT_TRUE(prepared.ok());

  QueryOptions options;
  options.strategy = strategy;

  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  constexpr size_t kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  const TermFactory* factory = &service.snapshot()->factory();
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      size_t spins = 0;
      while (!done.load(std::memory_order_acquire) || spins < 2) {
        ++spins;
        std::shared_ptr<const ModelSnapshot> snapshot = service.snapshot();
        uint64_t version = snapshot->version();
        auto result = snapshot->Query(*prepared, options);
        if (!result.ok() || version < 2 || version >= expected.size() ||
            Render(*factory, result->tuples) != expected[version]) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }

  for (size_t i = 0; i < kNumUpdates; ++i) {
    ASSERT_TRUE(ApplyUpdate(&service, kUpdates[i]).ok()) << kUpdates[i];
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0u) << "a reader observed an answer set that no "
                                    "published version explains";
  EXPECT_EQ(service.snapshot()->version(), 2 + kNumUpdates);
}

TEST(ServiceStress, ModelSingleThreadEval) { RunStress(QueryStrategy::kModel); }
TEST(ServiceStress, MagicSingleThreadEval) { RunStress(QueryStrategy::kMagic); }
TEST(ServiceStress, MagicSupplementarySingleThreadEval) {
  RunStress(QueryStrategy::kMagicSupplementary);
}
TEST(ServiceStress, TopDownSingleThreadEval) {
  RunStress(QueryStrategy::kTopDown);
}

// Snapshots share the writer's row storage. A reader holding an early
// snapshot must keep seeing exactly that version while the writer appends
// into the shared tail chunks, tombstones shared rows, clears a recomputed
// stratum (childless/1 sits above a negation), re-adds tombstoned edges
// and compacts relations the leaf removals left mostly dead (their live
// rows move to fresh chunks; the snapshot keeps the old ones).
TEST(ServiceStress, HeldSnapshotsStayFrozen) {
  std::string program =
      "anc(X, Y) :- parent(X, Y).\n"
      "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n"
      "has_child(X) :- parent(X, Y).\n"
      "person(X) :- parent(X, Y).\n"
      "person(Y) :- parent(X, Y).\n"
      "childless(X) :- person(X), !has_child(X).\n";
  constexpr int kPeople = 40;
  for (int i = 1; i < kPeople; ++i) {
    program += "parent(p" + std::to_string(i / 3) + ", p" + std::to_string(i) +
               ").\n";
  }
  const std::vector<std::string> goals = {"anc(X, Y)", "anc(p1, X)",
                                          "childless(X)"};
  std::vector<std::vector<std::string>> expected;
  {
    Session session;
    ASSERT_TRUE(session.Load(program).ok());
    for (const std::string& goal : goals) {
      auto result = session.Query(goal);
      ASSERT_TRUE(result.ok());
      expected.push_back(Render(session.factory(), result->tuples));
    }
  }

  Service service;
  ASSERT_TRUE(service.Load(program).ok());
  std::vector<PreparedQuery> prepared;
  for (const std::string& goal : goals) {
    auto query = service.Prepare(goal);
    ASSERT_TRUE(query.ok());
    prepared.push_back(*query);
  }
  const std::shared_ptr<const ModelSnapshot> held = service.snapshot();
  const TermFactory* factory = &held->factory();

  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> queries{0};
  std::vector<std::thread> readers;
  for (QueryStrategy strategy : {QueryStrategy::kModel, QueryStrategy::kMagic,
                                 QueryStrategy::kModel}) {
    readers.emplace_back([&, strategy] {
      QueryOptions options;
      options.strategy = strategy;
      size_t spins = 0;
      while (!done.load(std::memory_order_acquire) || spins < 2) {
        const size_t g = spins++ % goals.size();
        auto result = held->Query(prepared[g], options);
        queries.fetch_add(1, std::memory_order_relaxed);
        if (!result.ok() || Render(*factory, result->tuples) != expected[g]) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }

  // Leaf adds and removes, and every 25th write a reparent-style remove/add
  // of an original edge (the re-add lands in a fresh row). The removed
  // leaves pile up as tombstones until maintenance compacts them away.
  size_t writes = 0;
  for (int i = 0; writes < 240; ++i) {
    const std::string leaf = "parent(p" + std::to_string(i % kPeople) +
                             ", leaf" + std::to_string(i) + ").";
    ASSERT_TRUE(service.AddFacts(leaf).ok());
    ++writes;
    if (i % 2 == 1) {
      ASSERT_TRUE(service.RemoveFacts(leaf).ok());
      ++writes;
    }
    if (i % 25 == 24) {
      const std::string edge = "parent(p" + std::to_string((i / 25) % 13) +
                               ", p" + std::to_string(3 * ((i / 25) % 13) + 1) +
                               ").";
      ASSERT_TRUE(service.RemoveFacts(edge).ok());
      ASSERT_TRUE(service.AddFacts(edge).ok());
      writes += 2;
    }
  }
  // Compaction ran while the readers still held the first snapshot.
  EXPECT_GE(service.stats().compactions, 1u);
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0u)
      << "a held snapshot answered differently from its own version";
  EXPECT_GE(queries.load(), 2 * goals.size());
  EXPECT_GE(service.snapshot()->version(), held->version() + 200);
}

// --- Bound strategies read the snapshot in place ---
//
// kTopDown probes the published snapshot's relations and kMagic saturates
// over a scratch database whose EDB reads through to them, so the indexes
// either builds live on the snapshot. These cases pin the answers against a
// serial Session, index reuse across queries, and first probes that race.

constexpr char kAncRules[] =
    "anc(X, Y) :- parent(X, Y).\n"
    "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n";

constexpr char kYoungRules[] =
    "a(X, Y) :- p(X, Y).\n"
    "a(X, Y) :- a(X, Z), a(Z, Y).\n"
    "sg(X, Y) :- siblings(X, Y).\n"
    "sg(X, Y) :- p(Z1, X), sg(Z1, Z2), p(Z2, Y).\n"
    "young(X, <Y>) :- !a(X, Z), sg(X, Y).\n";

constexpr QueryStrategy kBoundStrategies[] = {
    QueryStrategy::kMagic, QueryStrategy::kMagicSupplementary,
    QueryStrategy::kTopDown};

// kModel answers of a serial Session, one rendered answer set per goal.
std::vector<std::vector<std::string>> SessionAnswers(
    const std::string& program, const std::vector<std::string>& writes,
    const std::vector<std::string>& goals) {
  Session session;
  EXPECT_TRUE(session.Load(program).ok());
  for (const std::string& write : writes) {
    EXPECT_TRUE(ApplyUpdate(&session, write.c_str()).ok()) << write;
  }
  std::vector<std::vector<std::string>> answers;
  for (const std::string& goal : goals) {
    auto result = session.Query(goal);
    EXPECT_TRUE(result.ok()) << goal;
    answers.push_back(result.ok() ? Render(session.factory(), result->tuples)
                                  : std::vector<std::string>{});
  }
  return answers;
}

// Prepares every goal on `service`, in order.
std::vector<PreparedQuery> PrepareAll(Service* service,
                                      const std::vector<std::string>& goals) {
  std::vector<PreparedQuery> prepared;
  for (const std::string& goal : goals) {
    auto query = service->Prepare(goal);
    EXPECT_TRUE(query.ok()) << goal;
    prepared.push_back(query.ok() ? *query : PreparedQuery());
  }
  return prepared;
}

// Every bound strategy on `snapshot` must give `expected` for every goal.
void ExpectBoundAnswers(const ModelSnapshot& snapshot,
                        const std::vector<PreparedQuery>& prepared,
                        const std::vector<std::vector<std::string>>& expected,
                        const char* when) {
  for (QueryStrategy strategy : kBoundStrategies) {
    QueryOptions options;
    options.strategy = strategy;
    for (size_t g = 0; g < prepared.size(); ++g) {
      auto result = snapshot.Query(prepared[g], options);
      ASSERT_TRUE(result.ok()) << prepared[g].text() << ": " << result.status();
      EXPECT_EQ(Render(snapshot.factory(), result->tuples), expected[g])
          << when << ": " << prepared[g].text() << " under "
          << ToString(strategy);
    }
  }
}

// Differential check of the bound strategies against a Session's model, on
// the live snapshot and on one pinned before three writes. The pinned
// snapshot is first queried while the writer appends, so its first probes
// build indexes over rows the writer's chunks share.
void CheckBoundStrategies(const std::string& program,
                          const std::vector<std::string>& goals,
                          const std::vector<std::string>& writes) {
  const std::vector<std::vector<std::string>> before =
      SessionAnswers(program, {}, goals);
  const std::vector<std::vector<std::string>> after =
      SessionAnswers(program, writes, goals);

  Service service;
  ASSERT_TRUE(service.Load(program).ok());
  const std::vector<PreparedQuery> prepared = PrepareAll(&service, goals);
  const std::shared_ptr<const ModelSnapshot> pinned = service.snapshot();

  std::thread writer([&] {
    for (const std::string& write : writes) {
      EXPECT_TRUE(ApplyUpdate(&service, write.c_str()).ok()) << write;
    }
  });
  ExpectBoundAnswers(*pinned, prepared, before, "pinned, during writes");
  writer.join();
  ExpectBoundAnswers(*pinned, prepared, before, "pinned, after writes");
  ExpectBoundAnswers(*service.snapshot(), prepared, after, "live");
}

TEST(Service, BoundStrategiesReadSnapshotInPlace) {
  // A 2000-person forest: constants in either argument, both, a repeated
  // variable, and an EDB goal with one bound argument. p0 -> p1 is the
  // generator's first edge; the writes remove it and hang a chain below p1.
  CheckBoundStrategies(
      ParentRandomTree(2000, 7) + kAncRules,
      {"anc(p17, Y)", "anc(X, p1999)", "anc(p0, p1500)", "anc(p1, X)",
       "anc(X, X)", "parent(X, p77)"},
      {"parent(p1, q1).", "-parent(p0, p1).", "parent(q1, q2)."});

  // The §6 program: young of a leaf, by its variable and by its set value,
  // of an inner node (empty), and sg/a with repeated variables.
  SameGenerationWorkload forest = MakeSameGeneration(3, 2, 4);
  const std::string program = forest.facts + kYoungRules;
  std::string leaf_set;
  {
    Session session;
    ASSERT_TRUE(session.Load(program).ok());
    auto young = session.Query(StrCat("young(", forest.a_leaf, ", S)"));
    ASSERT_TRUE(young.ok());
    ASSERT_EQ(young->tuples.size(), 1u);
    session.factory().AppendTo(young->tuples[0][1], &leaf_set);
  }
  CheckBoundStrategies(
      program,
      {StrCat("young(", forest.a_leaf, ", S)"),
       StrCat("young(", forest.a_leaf, ", ", leaf_set, ")"),
       StrCat("young(", forest.an_inner, ", S)"), "sg(X, X)", "a(X, X)",
       StrCat("sg(", forest.a_leaf, ", Y)"), StrCat("sg(X, ", forest.a_leaf, ")"),
       StrCat("p(X, ", forest.a_leaf, ")")},
      {StrCat("p(", forest.a_leaf, ", z1)."), "siblings(z1, z2).",
       StrCat("-p(", forest.a_leaf, ", z1).")});
}

// The indexes a bound query builds live on the snapshot: a repeated goal on
// the same snapshot probes them instead of building new ones.
TEST(Service, BoundQueriesReuseSnapshotIndexes) {
  for (QueryStrategy strategy : kBoundStrategies) {
    Service service;
    ASSERT_TRUE(service.Load(ParentRandomTree(500, 7) + kAncRules).ok());
    auto goal = service.Prepare("anc(p3, Y)");
    ASSERT_TRUE(goal.ok());
    auto edb = service.Prepare("parent(X, Y)");
    ASSERT_TRUE(edb.ok());
    const std::shared_ptr<const ModelSnapshot> snapshot = service.snapshot();
    const Relation* parent = snapshot->database().FindRelation(edb->goal().pred);
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(parent->index_count(), 0u) << ToString(strategy);

    QueryOptions options;
    options.strategy = strategy;
    auto first = snapshot->Query(*goal, options);
    ASSERT_TRUE(first.ok()) << ToString(strategy);
    const size_t built = parent->index_count();
    EXPECT_GE(built, 1u) << ToString(strategy);

    auto second = snapshot->Query(*goal, options);
    ASSERT_TRUE(second.ok()) << ToString(strategy);
    EXPECT_EQ(parent->index_count(), built) << ToString(strategy);
    EXPECT_EQ(Render(snapshot->factory(), second->tuples),
              Render(snapshot->factory(), first->tuples))
        << ToString(strategy);
  }
}

// A magic query's scratch database counts the snapshot rows it reads
// through, so max_facts trips at the same budget as in a Session, whose
// scratch database holds a copy of the EDB.
TEST(Service, MagicMaxFactsCountsReadThroughRows) {
  Session session;
  ASSERT_TRUE(session.Load(kPathProgram).ok());
  Service service;
  ASSERT_TRUE(service.Load(kPathProgram).ok());
  auto prepared = service.Prepare("path(1, X)");
  ASSERT_TRUE(prepared.ok());
  size_t first_ok = 0;
  for (size_t budget = 0; budget < 64; ++budget) {
    QueryOptions options;
    options.strategy = QueryStrategy::kMagic;
    options.eval.max_facts = budget;
    auto expected = session.Query("path(1, X)", options);
    auto actual = service.Query(*prepared, options);
    EXPECT_EQ(actual.ok(), expected.ok()) << "max_facts = " << budget;
    if (!expected.ok()) {
      EXPECT_EQ(actual.status().code(), expected.status().code());
    } else if (first_ok == 0) {
      first_ok = budget;
    }
  }
  // The budget that first suffices covers the 3 EDB rows plus what the
  // rewritten program derives.
  EXPECT_GT(first_ok, 3u);
}

// A magic query's rewrite and saturation plan depend only on its shape:
// the goal predicate, which arguments are bound, and the strategy. Every
// leaf of a forest shares one young(<leaf>, S) shape per strategy, so 48
// leaves under two strategies compile two shapes, and no query after a
// shape's first registers catalog predicates. New rules drop the compiled
// shapes with the analysis they belong to.
TEST(Service, BoundQueryShapeCompiledOnce) {
  const SameGenerationWorkload forest = MakeSameGeneration(3, 2, 4);
  Service service;
  ASSERT_TRUE(service
                  .Load(forest.facts + kYoungRules +
                        "parent_of(X) :- p(X, Y).\n"
                        "leaf(Y) :- p(X, Y), !parent_of(Y).\n")
                  .ok());
  auto leaves = service.Query("leaf(X)");
  ASSERT_TRUE(leaves.ok()) << leaves.status();
  ASSERT_EQ(leaves->tuples.size(), 48u);
  const TermFactory& factory = service.snapshot()->factory();

  std::vector<PreparedQuery> goals;
  for (const Tuple& leaf : leaves->tuples) {
    auto goal =
        service.Prepare(StrCat("young(", factory.ToString(leaf[0]), ", S)"));
    ASSERT_TRUE(goal.ok());
    goals.push_back(*goal);
  }
  const uint64_t compiled_before = service.stats().magic_shapes_compiled;
  uint64_t catalog_after_first = 0;
  for (size_t i = 0; i < goals.size(); ++i) {
    auto model = service.Query(goals[i]);
    ASSERT_TRUE(model.ok());
    ASSERT_EQ(model->tuples.size(), 1u) << goals[i].text();
    for (QueryStrategy strategy : {QueryStrategy::kMagic,
                                   QueryStrategy::kMagicSupplementary}) {
      QueryOptions options;
      options.strategy = strategy;
      auto result = service.Query(goals[i], options);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(Render(factory, result->tuples), Render(factory, model->tuples))
          << goals[i].text() << " under " << ToString(strategy);
    }
    if (i == 0) catalog_after_first = service.stats().catalog_preds;
  }
  EXPECT_EQ(service.stats().magic_shapes_compiled - compiled_before, 2u);
  EXPECT_EQ(service.stats().catalog_preds, catalog_after_first);

  // A rule that gives the first leaf one more same-generation peer.
  ASSERT_TRUE(service
                  .Load(StrCat("sg(X, Y) :- peer(X, Y).\npeer(",
                               factory.ToString(leaves->tuples[0][0]),
                               ", zed).\n"))
                  .ok());
  auto model = service.Query(goals[0]);
  ASSERT_TRUE(model.ok());
  QueryOptions options;
  options.strategy = QueryStrategy::kMagic;
  auto result = service.Query(goals[0], options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(service.stats().magic_shapes_compiled - compiled_before, 3u);
  EXPECT_EQ(Render(factory, result->tuples), Render(factory, model->tuples));
  ASSERT_EQ(result->tuples.size(), 1u);
  EXPECT_NE(factory.ToString(result->tuples[0][1]).find("zed"),
            std::string::npos);
}

// Reader threads race on the first magic queries of one shape and of
// different shapes while the writer loads new rules: every Load drops the
// compiled shapes with its analysis, so each new snapshot's first queries
// compile again under the catalog mutex while others wait for or read the
// cache (tsan checks the synchronization). The loaded rules derive an
// unrelated predicate, so the answers never change.
TEST(ServiceStress, FirstQueriesRaceToCompileShapes) {
  const SameGenerationWorkload forest = MakeSameGeneration(2, 2, 3);
  const std::string program = forest.facts + kYoungRules;
  const std::vector<std::string> goals = {
      StrCat("young(", forest.a_leaf, ", S)"),
      StrCat("young(", forest.an_inner, ", S)"),
      StrCat("sg(", forest.a_leaf, ", Y)"),
      "young(X, S)",
  };
  const std::vector<std::vector<std::string>> expected =
      SessionAnswers(program, {}, goals);

  Service service;
  ASSERT_TRUE(service.Load(program).ok());
  const std::vector<PreparedQuery> prepared = PrepareAll(&service, goals);

  constexpr size_t kLoads = 8;
  constexpr size_t kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<size_t> arrived{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      arrived.fetch_add(1, std::memory_order_acq_rel);
      while (arrived.load(std::memory_order_acquire) < kReaders + 1) {
      }
      for (size_t i = 0; !done.load(std::memory_order_acquire) || i < 8; ++i) {
        QueryOptions options;
        options.strategy = (r + i) % 2 == 0
                               ? QueryStrategy::kMagic
                               : QueryStrategy::kMagicSupplementary;
        // Pairs of readers start on the same goal, so both the same shape
        // and different shapes race.
        const size_t g = (r / 2 + i) % goals.size();
        std::shared_ptr<const ModelSnapshot> snapshot = service.snapshot();
        auto result = snapshot->Query(prepared[g], options);
        if (!result.ok() ||
            Render(snapshot->factory(), result->tuples) != expected[g]) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  arrived.fetch_add(1, std::memory_order_acq_rel);
  for (size_t i = 0; i < kLoads; ++i) {
    ASSERT_TRUE(service.Load(StrCat("unrelated", i, "(X) :- p(X, Y).")).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0u)
      << "a reader racing to compile a shape saw a wrong answer set";
  // At most the 4 goals x 2 strategies, once per analysis.
  EXPECT_LE(service.stats().magic_shapes_compiled, 8u * (kLoads + 1));
}

// Reader threads start top-down and magic goals on a freshly published
// snapshot at the same moment, so their first probes race to build the
// same lazy index (tsan checks the publication). The writes hang a chain
// off a new root, which no goal reaches, so the answers never change.
TEST(ServiceStress, FirstProbesRaceToBuildIndexes) {
  const std::string program = ParentRandomTree(300, 7) + kAncRules;
  const std::vector<std::string> goals = {"anc(p3, Y)", "anc(p1, Y)",
                                          "anc(p0, p250)"};
  const std::vector<std::vector<std::string>> expected =
      SessionAnswers(program, {}, goals);

  Service service;
  ASSERT_TRUE(service.Load(program).ok());
  const std::vector<PreparedQuery> prepared = PrepareAll(&service, goals);

  constexpr size_t kRounds = 12;
  constexpr size_t kReaders = 4;
  std::atomic<size_t> failures{0};
  for (size_t round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(service
                    .AddFacts(StrCat("parent(q", round, ", q", round + 1, ")."))
                    .ok());
    const std::shared_ptr<const ModelSnapshot> fresh = service.snapshot();
    std::atomic<size_t> arrived{0};
    std::vector<std::thread> readers;
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        QueryOptions options;
        options.strategy =
            r % 2 == 0 ? QueryStrategy::kTopDown : QueryStrategy::kMagic;
        const size_t g = (round + r / 2) % goals.size();
        arrived.fetch_add(1, std::memory_order_acq_rel);
        while (arrived.load(std::memory_order_acquire) < kReaders) {
        }
        auto result = fresh->Query(prepared[g], options);
        if (!result.ok() ||
            Render(fresh->factory(), result->tuples) != expected[g]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& reader : readers) reader.join();
  }
  EXPECT_EQ(failures.load(), 0u)
      << "a reader racing to build an index saw a wrong answer set";
}

// Bound queries evaluate while the shared catalog grows under them: Prepare
// registers unseen goal predicates and magic rewrites register adorned
// ones, without stopping other readers. A saturation or top-down run must
// not index its per-predicate state past the catalog size it started with.
TEST(ServiceStress, BoundQueriesWhileCatalogGrows) {
  const std::string program = ParentRandomTree(300, 7) + kAncRules;
  const std::vector<std::string> goals = {"anc(p1, Y)", "anc(X, p250)"};
  const std::vector<std::vector<std::string>> expected =
      SessionAnswers(program, {}, goals);

  Service service;
  ASSERT_TRUE(service.Load(program).ok());
  const std::vector<PreparedQuery> prepared = PrepareAll(&service, goals);

  std::atomic<bool> done{false};
  std::thread grower([&] {
    for (size_t i = 0; i < 4000 && !done.load(std::memory_order_acquire);
         ++i) {
      (void)service.Prepare(StrCat("fresh", i, "(X)"));
    }
  });
  size_t failures = 0;
  for (size_t i = 0; i < 120; ++i) {
    QueryOptions options;
    options.strategy = kBoundStrategies[i % 3];
    const size_t g = (i / 3) % goals.size();
    auto result = service.Query(prepared[g], options);
    if (!result.ok() ||
        Render(service.snapshot()->factory(), result->tuples) != expected[g]) {
      ++failures;
    }
  }
  done.store(true, std::memory_order_release);
  grower.join();
  EXPECT_EQ(failures, 0u);
}

// Writes maintain and republish the model while Prepare registers unseen
// goal predicates in the shared catalog.
TEST(ServiceStress, WritesWhilePrepareRegistersPredicates) {
  Service service;
  ASSERT_TRUE(service.Load(ParentRandomTree(200, 7) + kAncRules).ok());
  std::atomic<bool> done{false};
  std::thread preparer([&] {
    for (size_t i = 0; i < 4000 && !done.load(std::memory_order_acquire);
         ++i) {
      (void)service.Prepare(StrCat("unseen", i, "(X)"));
    }
  });
  for (size_t i = 0; i < 60; ++i) {
    const std::string leaf = StrCat("parent(p", i, ", w", i, ").");
    ASSERT_TRUE(service.AddFacts(leaf).ok());
    if (i % 2 == 1) ASSERT_TRUE(service.RemoveFacts(leaf).ok());
  }
  done.store(true, std::memory_order_release);
  preparer.join();
  auto result = service.Query("anc(p0, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 199u + 30u);
}

// Concurrent Prepare against concurrent writes: preparation lowers through
// the shared (internally synchronized) interner/factory/catalog.
TEST(ServiceStress, ConcurrentPrepareAndWrite) {
  Service service;
  ASSERT_TRUE(service.Load(kPathProgram).ok());
  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  std::thread preparer([&] {
    size_t i = 0;
    while (!done.load(std::memory_order_acquire) || i < 4) {
      std::string goal = "path(" + std::to_string(1 + (i++ % 7)) + ", X)";
      auto prepared = service.Prepare(goal);
      if (!prepared.ok() || !service.Query(*prepared).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  });
  for (size_t i = 0; i < kNumUpdates; ++i) {
    ASSERT_TRUE(ApplyUpdate(&service, kUpdates[i]).ok());
  }
  done.store(true, std::memory_order_release);
  preparer.join();
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace ldl
