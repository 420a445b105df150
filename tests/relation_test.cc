#include <gtest/gtest.h>

#include "eval/relation.h"

namespace ldl {
namespace {

class RelationTest : public ::testing::Test {
 protected:
  Tuple T(std::initializer_list<int> values) {
    Tuple t;
    for (int v : values) t.push_back(factory_.MakeInt(v));
    return t;
  }

  Interner interner_;
  TermFactory factory_{&interner_};
};

TEST_F(RelationTest, InsertDeduplicates) {
  Relation r(2);
  EXPECT_TRUE(r.Insert(T({1, 2})));
  EXPECT_FALSE(r.Insert(T({1, 2})));
  EXPECT_TRUE(r.Insert(T({2, 1})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(T({1, 2})));
  EXPECT_FALSE(r.Contains(T({3, 3})));
}

TEST_F(RelationTest, EraseTombstones) {
  Relation r(1);
  r.Insert(T({1}));
  r.Insert(T({2}));
  EXPECT_TRUE(r.Erase(T({1})));
  EXPECT_FALSE(r.Erase(T({1})));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_FALSE(r.Contains(T({1})));
  // Row storage keeps the slot (stable row ids for delta windows).
  EXPECT_EQ(r.row_count(), 2u);
  int seen = 0;
  r.ForEachRow(0, r.row_count(), [&](size_t, RowRef) { ++seen; });
  EXPECT_EQ(seen, 1);
}

TEST_F(RelationTest, ReviveAfterErase) {
  Relation r(1);
  r.Insert(T({1}));
  r.Erase(T({1}));
  EXPECT_TRUE(r.Insert(T({1})));
  EXPECT_TRUE(r.Contains(T({1})));
  EXPECT_EQ(r.size(), 1u);
}

TEST_F(RelationTest, WindowedIteration) {
  Relation r(1);
  for (int i = 0; i < 10; ++i) r.Insert(T({i}));
  std::vector<int64_t> seen;
  r.ForEachRow(4, 7, [&](size_t, RowRef t) {
    seen.push_back(t[0]->int_value());
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{4, 5, 6}));
}

TEST_F(RelationTest, IterationStopsWhenVisitorReturnsFalse) {
  Relation r(1);
  for (int i = 0; i < 20; ++i) r.Insert(T({i}));
  r.Erase(T({1}));
  std::vector<int64_t> seen;
  r.ForEachRow(0, r.row_count(), [&](size_t, RowRef t) {
    seen.push_back(t[0]->int_value());
    return seen.size() < 3;
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 2, 3}));
}

TEST_F(RelationTest, ProbeFindsMatchingRows) {
  Relation r(2);
  r.Insert(T({1, 10}));
  r.Insert(T({2, 20}));
  r.Insert(T({1, 30}));
  std::vector<size_t> rows;
  r.Probe(0, factory_.MakeInt(1), 0, r.row_count(), &rows);
  EXPECT_EQ(rows.size(), 2u);
  r.Probe(1, factory_.MakeInt(20), 0, r.row_count(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(r.row(rows[0])[0]->int_value(), 2);
}

TEST_F(RelationTest, ProbeRespectsWindowAndTombstones) {
  Relation r(1);
  for (int i = 0; i < 5; ++i) r.Insert(T({1}));  // dedup: only one row!
  Relation r2(2);
  for (int i = 0; i < 5; ++i) r2.Insert(T({1, i}));
  std::vector<size_t> rows;
  r2.Probe(0, factory_.MakeInt(1), 2, 4, &rows);
  EXPECT_EQ(rows.size(), 2u);
  r2.Erase(T({1, 2}));
  r2.Probe(0, factory_.MakeInt(1), 2, 4, &rows);
  EXPECT_EQ(rows.size(), 1u);
}

TEST_F(RelationTest, IndexStaysFreshAcrossInserts) {
  Relation r(1);
  r.Insert(T({1}));
  std::vector<size_t> rows;
  r.Probe(0, factory_.MakeInt(1), 0, r.row_count(), &rows);  // builds index
  r.Insert(T({2}));
  r.Probe(0, factory_.MakeInt(2), 0, r.row_count(), &rows);
  EXPECT_EQ(rows.size(), 1u);
}

std::vector<size_t> CompositeProbe(const Relation& r,
                                   std::vector<uint32_t> cols,
                                   const Tuple& values, size_t from, size_t to) {
  std::vector<size_t> rows;
  r.ProbeRows(cols, values, from, to, [&](size_t row, RowRef) {
    rows.push_back(row);
    return true;
  });
  return rows;
}

TEST_F(RelationTest, CompositeProbeMatchesMultipleColumns) {
  Relation r(3);
  r.Insert(T({1, 2, 3}));
  r.Insert(T({1, 5, 3}));
  r.Insert(T({1, 2, 4}));
  r.Insert(T({2, 2, 3}));
  auto rows = CompositeProbe(r, {0, 2}, T({1, 3}), 0, r.row_count());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(r.row(rows[0])[1]->int_value() + r.row(rows[1])[1]->int_value(), 7);
  EXPECT_EQ(r.index_count(), 1u);
  // A different column set builds a second index.
  rows = CompositeProbe(r, {1, 2}, T({2, 3}), 0, r.row_count());
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(r.index_count(), 2u);
}

TEST_F(RelationTest, CompositeProbeTombstoneEraseAndRevive) {
  Relation r(2);
  r.Insert(T({1, 2}));
  r.Insert(T({1, 3}));
  auto rows = CompositeProbe(r, {0, 1}, T({1, 2}), 0, r.row_count());
  ASSERT_EQ(rows.size(), 1u);
  size_t original_row = rows[0];
  // Erased rows are filtered out of probes but keep their index entries.
  r.Erase(T({1, 2}));
  EXPECT_TRUE(CompositeProbe(r, {0, 1}, T({1, 2}), 0, r.row_count()).empty());
  // Revival appends a fresh row; the old one stays a filtered tombstone.
  EXPECT_TRUE(r.Insert(T({1, 2})));
  EXPECT_EQ(r.row_count(), 3u);
  rows = CompositeProbe(r, {0, 1}, T({1, 2}), 0, r.row_count());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 2u);
  EXPECT_FALSE(r.IsLive(original_row));
  EXPECT_EQ(r.Find(T({1, 2})), 2u);
}

TEST_F(RelationTest, CompositeProbeRespectsDeltaWindow) {
  Relation r(2);
  for (int i = 0; i < 6; ++i) r.Insert(T({1, i}));
  r.Insert(T({2, 0}));
  // Rows 2..4 form the delta window; only they may be returned.
  auto rows = CompositeProbe(r, {0}, T({1}), 2, 5);
  ASSERT_EQ(rows.size(), 3u);
  for (size_t row : rows) {
    EXPECT_GE(row, 2u);
    EXPECT_LT(row, 5u);
  }
}

TEST_F(RelationTest, CompositeIndexBuiltBeforeVsAfterInserts) {
  // `before` builds its index on an empty relation and maintains it
  // incrementally; `after` builds it over existing rows on first probe.
  Relation before(2);
  EXPECT_TRUE(CompositeProbe(before, {0, 1}, T({1, 1}), 0, 0).empty());
  Relation after(2);
  for (int i = 0; i < 8; ++i) {
    Tuple t = T({i % 2, i});
    before.Insert(t);
    after.Insert(t);
  }
  auto from_before = CompositeProbe(before, {0, 1}, T({0, 4}), 0, 8);
  auto from_after = CompositeProbe(after, {0, 1}, T({0, 4}), 0, 8);
  EXPECT_EQ(from_before, from_after);
  ASSERT_EQ(from_before.size(), 1u);
  EXPECT_EQ(before.row(from_before[0])[1]->int_value(), 4);
}

TEST_F(RelationTest, SnapshotSkipsTombstones) {
  Relation r(1);
  r.Insert(T({1}));
  r.Insert(T({2}));
  r.Erase(T({1}));
  auto snapshot = r.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0][0]->int_value(), 2);
}

TEST_F(RelationTest, ZeroArityRelation) {
  Relation r(0);
  EXPECT_TRUE(r.Insert(Tuple{}));
  EXPECT_FALSE(r.Insert(Tuple{}));
  EXPECT_TRUE(r.Contains(Tuple{}));
  EXPECT_TRUE(r.Erase(Tuple{}));
  EXPECT_FALSE(r.Contains(Tuple{}));
}

TEST_F(RelationTest, DatabaseLazyRelations) {
  Catalog catalog(&interner_);
  PredId p = catalog.GetOrCreate("p", 2);
  PredId q = catalog.GetOrCreate("q", 1);
  Database db(&catalog);
  db.AddFact(p, T({1, 2}));
  db.AddFact(q, T({3}));
  EXPECT_EQ(db.relation(p).arity(), 2u);
  EXPECT_EQ(db.TotalFacts(), 2u);
  // Registering new predicates after the fact still works.
  PredId r = catalog.GetOrCreate("r", 3);
  db.AddFact(r, T({1, 2, 3}));
  EXPECT_EQ(db.TotalFacts(), 3u);
}

TEST_F(RelationTest, DatabaseGrowsForLateRegisteredPredicates) {
  Catalog catalog(&interner_);
  PredId p = catalog.GetOrCreate("p", 1);
  Database db(&catalog);
  db.AddFact(p, T({1}));
  // References handed out before growth must survive it (the evaluator holds
  // Relation references across nested relation() calls).
  const Relation& held = db.relation(p);
  for (int i = 0; i < 64; ++i) {
    PredId q = catalog.GetOrCreate(("q" + std::to_string(i)).c_str(), 1);
    db.AddFact(q, T({i}));
  }
  EXPECT_EQ(&held, &db.relation(p));
  EXPECT_TRUE(held.Contains(T({1})));
  EXPECT_EQ(db.TotalFacts(), 65u);
  // Explicit pre-sizing covers every registered predicate.
  PredId last = catalog.GetOrCreate("late", 2);
  db.Grow();
  EXPECT_EQ(db.relation(last).arity(), 2u);
}

TEST_F(RelationTest, ClearRetainsIndexesAndBumpsEpoch) {
  Relation r(2);
  r.Insert(T({1, 10}));
  r.Insert(T({2, 20}));
  std::vector<size_t> rows;
  r.Probe(0, factory_.MakeInt(1), 0, r.row_count(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(r.index_count(), 1u);
  const uint64_t epoch = r.epoch();

  // Clear keeps the (now empty) index structures linked for concurrent
  // readers and advances the epoch so caches can notice the wipe.
  r.Clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.row_count(), 0u);
  EXPECT_EQ(r.index_count(), 1u);
  EXPECT_GT(r.epoch(), epoch);
  r.Probe(0, factory_.MakeInt(1), 0, r.row_count(), &rows);
  EXPECT_TRUE(rows.empty());

  // Refilling after a clear dedups and probes correctly again.
  EXPECT_TRUE(r.Insert(T({1, 40})));
  EXPECT_FALSE(r.Insert(T({1, 40})));
  r.Probe(0, factory_.MakeInt(1), 0, r.row_count(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(r.index_count(), 1u);  // the retained index was reused
}

// Compact drops the tombstones: the live rows keep their order and their
// derivation counts, and lookups, probes and built indexes answer as
// before, over renumbered rows.
TEST_F(RelationTest, CompactKeepsLiveRowsCountsAndIndexes) {
  Relation r(2);
  r.EnableCounts();
  for (int i = 0; i < 100; ++i) r.Insert(T({i, i % 7}));
  for (int i = 0; i < 100; i += 3) r.Insert(T({i, i % 7}));  // count 2
  const std::vector<uint32_t> by_first = {0};
  const std::vector<uint32_t> by_second = {1};
  const std::vector<uint32_t> by_both = {1, 0};
  auto probe = [&](std::span<const uint32_t> cols, Tuple values) {
    std::vector<Tuple> hits;
    r.ProbeRows(cols, values, 0, r.row_count(), [&](size_t, RowRef row) {
      hits.emplace_back(row.begin(), row.end());
      return true;
    });
    return hits;
  };
  probe(by_first, T({0}));
  probe(by_second, T({0}));
  probe(by_both, T({0, 0}));
  for (int i = 0; i < 100; i += 2) ASSERT_TRUE(r.Erase(T({i, i % 7})));
  r.SetLive(r.Find(T({1, 1})), false);
  ASSERT_TRUE(r.Insert(T({4, 4})));  // re-insert: a fresh row, count 1
  ASSERT_GT(r.row_count() - r.size(), 50u);

  struct Observed {
    std::vector<Tuple> rows;
    std::vector<uint32_t> counts;
    std::vector<bool> contains;
    std::vector<std::vector<Tuple>> probes;
    bool operator==(const Observed&) const = default;
  };
  auto observe = [&] {
    Observed o;
    r.ForEachRow(0, r.row_count(), [&](size_t i, RowRef row) {
      o.rows.emplace_back(row.begin(), row.end());
      o.counts.push_back(r.derivation_count(i));
      EXPECT_EQ(r.Find(row), i);
    });
    for (int i = 0; i < 100; ++i) {
      o.contains.push_back(r.Contains(T({i, i % 7})));
      o.probes.push_back(probe(by_first, T({i})));
    }
    for (int k = 0; k < 7; ++k) {
      o.probes.push_back(probe(by_second, T({k})));
      o.probes.push_back(probe(by_both, T({k, k})));
    }
    return o;
  };
  const Observed before = observe();
  const size_t live = r.size();
  const uint64_t epoch = r.epoch();
  ASSERT_EQ(r.index_count(), 3u);

  r.Compact();
  EXPECT_EQ(r.size(), live);
  EXPECT_EQ(r.row_count(), live);
  EXPECT_GT(r.epoch(), epoch);
  EXPECT_EQ(r.index_count(), 3u);
  EXPECT_TRUE(r.counted());
  EXPECT_EQ(observe(), before);
  EXPECT_EQ(before.rows.back(), T({4, 4}));
  EXPECT_EQ(before.counts.front(), 2u);  // (3, 3): inserted twice
  // Erased facts are gone from the dedup table, not just dead.
  EXPECT_EQ(r.Find(T({0, 0})), Relation::npos);
  EXPECT_EQ(r.Stats().raw_rows, live);

  // The compacted relation keeps deduplicating, counting and indexing.
  EXPECT_FALSE(r.Insert(T({3, 3})));
  EXPECT_EQ(r.derivation_count(r.Find(T({3, 3}))), 3u);
  EXPECT_TRUE(r.Insert(T({0, 0})));
  EXPECT_EQ(r.Find(T({0, 0})), live);
  EXPECT_EQ(probe(by_both, T({0, 0})), (std::vector<Tuple>{T({0, 0})}));
  EXPECT_EQ(r.index_count(), 3u);
}

TEST_F(RelationTest, DatabaseCopyFrom) {
  Catalog catalog(&interner_);
  PredId p = catalog.GetOrCreate("p", 1);
  PredId q = catalog.GetOrCreate("q", 1);
  Database source(&catalog);
  source.AddFact(p, T({1}));
  source.AddFact(q, T({2}));
  Database target(&catalog);
  target.CopyFrom(source, {p});
  EXPECT_EQ(target.relation(p).size(), 1u);
  EXPECT_EQ(target.relation(q).size(), 0u);
}

// Everything a reader can observe of a relation, over a fixed probe set.
struct FrozenView {
  std::vector<std::pair<size_t, std::vector<int64_t>>> rows;
  std::vector<bool> contains;
  std::vector<std::vector<size_t>> probes;
  size_t size = 0;
  size_t row_count = 0;
  bool operator==(const FrozenView&) const = default;
};

class SharedRelationTest : public RelationTest {
 protected:
  FrozenView View(const Relation& r) {
    FrozenView view;
    r.ForEachRow(0, r.row_count(), [&](size_t i, RowRef row) {
      view.rows.emplace_back(
          i, std::vector<int64_t>{row[0]->int_value(), row[1]->int_value()});
    });
    for (int i = 0; i < 12; ++i) {
      view.contains.push_back(r.Contains(T({i, i})));
      std::vector<size_t> hits;
      r.Probe(0, factory_.MakeInt(i), 0, r.row_count(), &hits);
      view.probes.push_back(hits);
    }
    view.size = r.size();
    view.row_count = r.row_count();
    return view;
  }
};

// A shared snapshot reads the writer's chunks in place, and no writer
// mutation -- appending into the shared tail chunk, tombstoning, derivation
// decrements, re-inserting an erased fact, dedup-table growth, clearing --
// changes what it answers.
TEST_F(SharedRelationTest, SnapshotStaysFrozenUnderWriterMutation) {
  Relation writer(2);
  writer.EnableCounts();
  for (int i = 0; i < 6; ++i) writer.Insert(T({i, i}));
  writer.Erase(T({5, 5}));
  Relation snapshot;
  snapshot.ShareFrom(writer);
  EXPECT_TRUE(snapshot.frozen());
  ASSERT_EQ(snapshot.row_count(), 6u);
  for (size_t i = 0; i < snapshot.row_count(); ++i) {
    EXPECT_EQ(snapshot.row(i).data(), writer.row(i).data()) << "row " << i;
  }
  const FrozenView frozen = View(snapshot);
  EXPECT_EQ(frozen.size, 5u);
  EXPECT_FALSE(frozen.contains[5]);

  writer.Insert(T({6, 6}));  // lands in the shared tail chunk
  EXPECT_EQ(View(snapshot), frozen);
  writer.Erase(T({0, 0}));
  EXPECT_EQ(View(snapshot), frozen);
  writer.SetLive(1, false);
  EXPECT_EQ(View(snapshot), frozen);
  EXPECT_TRUE(writer.DecrementDerivation(2));
  EXPECT_EQ(View(snapshot), frozen);
  EXPECT_TRUE(writer.Insert(T({5, 5})));  // re-insert: a fresh row
  EXPECT_EQ(writer.Find(T({5, 5})), 7u);
  EXPECT_EQ(View(snapshot), frozen);
  for (int i = 100; i < 300; ++i) writer.Insert(T({i, i}));  // table grows
  EXPECT_EQ(View(snapshot), frozen);
  writer.Clear();
  EXPECT_EQ(View(snapshot), frozen);
  for (int i = 0; i < 12; ++i) writer.Insert(T({i, i + 1}));  // fresh chunks
  EXPECT_NE(snapshot.row(0).data(), writer.row(0).data());
  EXPECT_EQ(View(snapshot), frozen);
  for (size_t i = 0; i < snapshot.row_count(); ++i) {
    EXPECT_EQ(snapshot.row(i)[0]->int_value(), static_cast<int64_t>(i));
  }
}

// The lazily built dedup table of a frozen relation resolves a re-inserted
// fact to its newest row, as the writer's own table does.
TEST_F(SharedRelationTest, FrozenLookupFindsNewestRow) {
  Relation writer(2);
  for (int i = 0; i < 20; ++i) writer.Insert(T({i, i}));
  writer.Erase(T({3, 3}));
  writer.Insert(T({3, 3}));
  Relation snapshot;
  snapshot.ShareFrom(writer);
  EXPECT_EQ(snapshot.Find(T({3, 3})), writer.Find(T({3, 3})));
  EXPECT_EQ(snapshot.Find(T({3, 3})), 20u);
  EXPECT_TRUE(snapshot.Contains(T({3, 3})));
  EXPECT_EQ(snapshot.size(), 20u);
  EXPECT_EQ(snapshot.Stats().column_distinct, writer.Stats().column_distinct);
}

// Compacting the writer moves its live rows into fresh chunks; a view
// taken before keeps reading the old ones, tombstones included.
TEST_F(SharedRelationTest, ViewTakenBeforeCompactReadsItsOwnRows) {
  Relation writer(2);
  for (int i = 0; i < 12; ++i) writer.Insert(T({i, i}));
  for (int i = 0; i < 12; i += 3) writer.Erase(T({i, i}));
  Relation snapshot;
  snapshot.ShareFrom(writer);
  const FrozenView frozen = View(snapshot);
  const Term* const* shared_row = snapshot.row(1).data();
  ASSERT_EQ(shared_row, writer.row(1).data());

  writer.Compact();
  EXPECT_EQ(writer.row_count(), 8u);
  EXPECT_EQ(writer.row(0)[0]->int_value(), 1);
  EXPECT_NE(writer.row(0).data(), shared_row);
  EXPECT_EQ(View(snapshot), frozen);
  EXPECT_EQ(snapshot.row(1).data(), shared_row);
  for (int i = 0; i < 12; ++i) writer.Insert(T({i, i}));
  writer.Erase(T({1, 1}));
  EXPECT_EQ(View(snapshot), frozen);
  EXPECT_EQ(snapshot.row_count(), 12u);
  EXPECT_FALSE(snapshot.Contains(T({0, 0})));
  EXPECT_TRUE(snapshot.Contains(T({1, 1})));
}

// Rows cross chunk boundaries intact: an 8-row first chunk, doubling, then
// fixed 4096-row chunks.
TEST_F(SharedRelationTest, RowsSurviveChunkBoundaries) {
  Relation r(2);
  constexpr int kRows = 9000;
  for (int i = 0; i < kRows; ++i) r.Insert(T({i, -i}));
  ASSERT_EQ(r.row_count(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) {
    ASSERT_EQ(r.row(i)[0]->int_value(), i);
    ASSERT_EQ(r.row(i)[1]->int_value(), -i);
  }
  int64_t seen = 0;
  r.ForEachRow(5, 8200, [&](size_t i, RowRef row) {
    EXPECT_EQ(row[0]->int_value(), static_cast<int64_t>(i));
    ++seen;
  });
  EXPECT_EQ(seen, 8195);
  EXPECT_TRUE(r.Contains(T({8999, -8999})));
}

TEST_F(SharedRelationTest, DatabaseShareFromFreezesEveryRelation) {
  Catalog catalog(&interner_);
  PredId p = catalog.GetOrCreate("p", 2);
  PredId q = catalog.GetOrCreate("q", 2);
  Database writer(&catalog);
  writer.AddFact(p, T({1, 2}));
  Database snapshot(&catalog);
  snapshot.ShareFrom(writer);
  ASSERT_NE(snapshot.FindRelation(q), nullptr);
  EXPECT_TRUE(snapshot.FindRelation(p)->frozen());
  EXPECT_TRUE(snapshot.FindRelation(q)->frozen());
  EXPECT_EQ(snapshot.TotalFacts(), 1u);
  writer.AddFact(p, T({3, 4}));
  writer.AddFact(q, T({5, 6}));
  EXPECT_EQ(snapshot.TotalFacts(), 1u);
  EXPECT_TRUE(snapshot.FindRelation(p)->Contains(T({1, 2})));
  EXPECT_FALSE(snapshot.FindRelation(p)->Contains(T({3, 4})));
}

}  // namespace
}  // namespace ldl
