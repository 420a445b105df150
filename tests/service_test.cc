// ldl::Service: snapshot isolation, concurrent serving, and a
// linearizability stress check -- every answer set a reader observes must
// equal what a serial Session produces at the snapshot's published version.
#include "ldl/service.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "eval/bindings.h"
#include "ldl/ldl.h"

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

  std::string formatted = FormatServiceStats(stats);
  EXPECT_NE(formatted.find("queries_served=3"), std::string::npos);
  EXPECT_NE(formatted.find("snapshots_published=3"), std::string::npos);
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
// stratum (childless/1 sits above a negation) and throws its whole database
// away on the re-add fallback.
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

  // Leaf adds and removes, a reparent-style remove/add of an original edge,
  // and every 25th write a re-add of a removed edge (the session rebuilds
  // its database from scratch).
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
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0u)
      << "a held snapshot answered differently from its own version";
  EXPECT_GE(queries.load(), 2 * goals.size());
  EXPECT_GE(service.snapshot()->version(), held->version() + 200);
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
