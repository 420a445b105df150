#include "eval/relation.h"

#include <algorithm>
#include <cmath>

namespace ldl {

size_t Relation::FindSlot(RowRef tuple, uint64_t hash) const {
  const uint64_t high = hash >> 32;
  const size_t mask = table_.size() - 1;
  for (size_t idx = high & mask;; idx = (idx + 1) & mask) {
    const uint64_t entry = table_[idx];
    if (entry == kEmptySlot) return idx;
    if ((entry >> 32) == high &&
        std::equal(tuple.begin(), tuple.end(), RowData(EntryRow(entry)))) {
      return idx;
    }
  }
}

size_t Relation::FindRow(RowRef tuple) const {
  if (frozen_) {
    std::call_once(table_once_, [this] {
      // Smallest power of two (>= 16) the writer's 7/8 load rule allows,
      // filled in row order so a re-inserted tuple's newest row wins.
      size_t capacity = 16;
      while ((row_count_ + 1) * 8 >= capacity * 7) capacity *= 2;
      table_.assign(capacity, kEmptySlot);
      for (size_t row = 0; row < row_count_; ++row) {
        const uint64_t hash = HashRow(this->row(row));
        table_[FindSlot(this->row(row), hash)] = TableEntry(hash, row);
      }
    });
  }
  if (table_.empty()) return kNoRow;
  const uint64_t entry = table_[FindSlot(tuple, HashRow(tuple))];
  return entry == kEmptySlot ? kNoRow : EntryRow(entry);
}

void Relation::GrowTable() {
  std::vector<uint64_t> old = std::move(table_);
  table_.assign(old.empty() ? 16 : old.size() * 2, kEmptySlot);
  const size_t mask = table_.size() - 1;
  for (uint64_t entry : old) {
    if (entry == kEmptySlot) continue;
    size_t idx = (entry >> 32) & mask;
    while (table_[idx] != kEmptySlot) idx = (idx + 1) & mask;
    table_[idx] = entry;
  }
}

bool Relation::Insert(RowRef tuple) {
  assert(!frozen_ && tuple.size() == arity_);
  // Grow at 7/8 load (entries are never removed, so load only rises).
  if ((row_count_ + 1) * 8 >= table_.size() * 7) GrowTable();
  const uint64_t hash = HashRow(tuple);
  const size_t slot = FindSlot(tuple, hash);
  if (table_[slot] != kEmptySlot && live_[EntryRow(table_[slot])]) {
    if (counted_) {
      const size_t row = EntryRow(table_[slot]);
      // A pinned (saturated) count can never reach zero again, so the
      // counts as a whole stop being trustworthy for deletion.
      if (counts_[row] == UINT32_MAX) {
        DisableCounts();
      } else {
        ++counts_[row];
      }
    }
    return false;
  }
  // A fresh fact, or the re-insert of a tombstoned one. Either way the
  // tuple gets a new row past every existing one: rows are never rewritten
  // (snapshots share them), and a re-inserted fact must land inside the
  // delta windows opened after its deletion. A tombstoned predecessor stays
  // dead; the dedup slot now names the new row.
  const size_t row = row_count_;
  assert(row < kEmptySlot >> 32);  // row ids are 32-bit
  const RowSlot at = Locate(row);
  if (at.chunk == chunks_.size()) {
    chunks_.push_back(std::make_shared_for_overwrite<const Term*[]>(
        ChunkRows(at.chunk) * arity_));
  }
  std::copy(tuple.begin(), tuple.end(),
            chunks_[at.chunk].get() + at.offset * arity_);
  ++row_count_;
  table_[slot] = TableEntry(hash, row);
  live_.push_back(true);
  ++live_count_;
  if (counted_) counts_.push_back(1);
  // Fold the new row into the per-column distinct sketches (planner stats).
  if (sketches_.size() < arity_) sketches_.resize(arity_, ColumnSketch{});
  for (uint32_t col = 0; col < arity_; ++col) {
    uint64_t pos = tuple[col]->hash() & (kSketchWords * 64 - 1);
    sketches_[col][pos >> 6] |= uint64_t{1} << (pos & 63);
  }
  // Maintain built indexes. Insert only runs on the single writer, so
  // mutating the maps is safe.
  for (CompositeIndex* index = index_head_.load(std::memory_order_acquire);
       index != nullptr; index = index->next) {
    uint64_t h = 0x7e11ab1eULL;
    for (uint32_t col : index->cols) h = HashCombine(h, tuple[col]->hash());
    index->map[h].push_back(static_cast<uint32_t>(row));
  }
  return true;
}

bool Relation::Contains(RowRef tuple) const {
  const size_t row = FindRow(tuple);
  return row != kNoRow && live_[row];
}

size_t Relation::Find(RowRef tuple) const {
  const size_t row = FindRow(tuple);
  return row == kNoRow ? npos : row;
}

bool Relation::Erase(RowRef tuple) {
  assert(!frozen_);
  const size_t row = FindRow(tuple);
  if (row == kNoRow || !live_[row]) return false;
  live_[row] = false;
  --live_count_;
  return true;
}

const Relation::CompositeIndex& Relation::EnsureIndex(
    std::span<const uint32_t> cols) const {
  // Fast path: lock-free walk of the published list.
  for (const CompositeIndex* index = index_head_.load(std::memory_order_acquire);
       index != nullptr; index = index->next) {
    if (std::equal(index->cols.begin(), index->cols.end(), cols.begin(),
                   cols.end())) {
      return *index;
    }
  }
  // Miss: build under the lock, re-checking for a racing builder. The node
  // is fully constructed before the release store publishes it, so readers
  // that observe the new head see a complete index.
  std::lock_guard<std::mutex> lock(index_mu_);
  CompositeIndex* head = index_head_.load(std::memory_order_relaxed);
  for (CompositeIndex* index = head; index != nullptr; index = index->next) {
    if (std::equal(index->cols.begin(), index->cols.end(), cols.begin(),
                   cols.end())) {
      return *index;
    }
  }
  auto* index = new CompositeIndex;
  index->cols.assign(cols.begin(), cols.end());
  index->map.reserve(row_count_);
  // Index tombstoned rows too: DRed revives rows in place (SetLive), and
  // probes filter on live_ anyway.
  for (size_t row = 0; row < row_count_; ++row) {
    const Term* const* tuple = RowData(row);
    uint64_t h = 0x7e11ab1eULL;
    for (uint32_t col : index->cols) h = HashCombine(h, tuple[col]->hash());
    index->map[h].push_back(static_cast<uint32_t>(row));
  }
  index->next = head;
  index_head_.store(index, std::memory_order_release);
  return *index;
}

void Relation::FreeIndexes() {
  CompositeIndex* index = index_head_.exchange(nullptr, std::memory_order_acquire);
  while (index != nullptr) {
    CompositeIndex* next = index->next;
    delete index;
    index = next;
  }
}

void Relation::Probe(uint32_t column, const Term* value, size_t from, size_t to,
                     std::vector<size_t>* out) const {
  out->clear();
  ProbeRows({&column, 1}, {&value, 1}, from, to, [&](size_t row, RowRef) {
    out->push_back(row);
    return true;
  });
}

double Relation::DistinctEstimate(uint32_t column) const {
  if (column >= sketches_.size() || live_count_ == 0) {
    return static_cast<double>(live_count_);
  }
  constexpr double kBits = kSketchWords * 64;
  size_t ones = 0;
  for (uint64_t word : sketches_[column]) ones += std::popcount(word);
  size_t zeros = kSketchWords * 64 - ones;
  // Linear counting: E[distinct] = B * ln(B / zeros). A saturated sketch
  // (zeros == 0) can't discriminate beyond ~B*ln(B); fall back to the row
  // count, which is the true upper bound anyway.
  double estimate = zeros == 0
                        ? static_cast<double>(live_count_)
                        : kBits * std::log(kBits / static_cast<double>(zeros));
  return std::min(estimate, static_cast<double>(live_count_));
}

RelationStats Relation::Stats() const {
  RelationStats stats;
  stats.rows = live_count_;
  stats.raw_rows = row_count_;
  stats.column_distinct.reserve(arity_);
  for (uint32_t col = 0; col < arity_; ++col) {
    stats.column_distinct.push_back(DistinctEstimate(col));
  }
  return stats;
}

std::vector<Tuple> Relation::Snapshot() const {
  std::vector<Tuple> result;
  result.reserve(live_count_);
  ForEachRow(0, row_count_, [&](size_t, RowRef tuple) {
    result.emplace_back(tuple.begin(), tuple.end());
  });
  return result;
}

void Relation::Clear() {
  assert(!frozen_);
  chunks_.clear();  // snapshots sharing the old chunks keep them alive
  row_count_ = 0;
  live_.clear();
  live_count_ = 0;
  table_.clear();
  counts_.clear();  // counted_ survives: re-derivation recounts from scratch
  sketches_.clear();
  // Keep the index nodes linked (holders of the relation may still walk
  // them); just drop their contents. Insert repopulates the maps, so a
  // retained index stays consistent with the emptied row store.
  for (CompositeIndex* index = index_head_.load(std::memory_order_acquire);
       index != nullptr; index = index->next) {
    index->map.clear();
  }
  ++epoch_;
}

void Relation::ShareFrom(const Relation& source) {
  assert(row_count_ == 0 && !frozen_);
  arity_ = source.arity_;
  chunks_ = source.chunks_;
  row_count_ = source.row_count_;
  live_ = source.live_;
  live_count_ = source.live_count_;
  sketches_ = source.sketches_;
  frozen_ = true;
}

void Database::Grow() {
  while (relations_.size() < catalog_->size()) {
    relations_.emplace_back(
        catalog_->info(static_cast<PredId>(relations_.size())).arity);
  }
}

Relation& Database::relation(PredId pred) {
  if (relations_.size() <= pred) Grow();
  return relations_[pred];
}

const Relation& Database::relation(PredId pred) const {
  return const_cast<Database*>(this)->relation(pred);
}

size_t Database::TotalFacts() const {
  size_t total = 0;
  for (const Relation& relation : relations_) total += relation.size();
  return total;
}

void Database::ShareFrom(const Database& other) {
  Grow();
  for (size_t pred = 0; pred < relations_.size(); ++pred) {
    if (pred < other.relations_.size()) {
      relations_[pred].ShareFrom(other.relations_[pred]);
    }
    relations_[pred].frozen_ = true;
  }
}

void Database::CopyFrom(const Database& other, const std::vector<PredId>& preds) {
  for (PredId pred : preds) {
    const Relation& source = other.relation(pred);
    Relation& target = relation(pred);
    source.ForEachRow(0, source.row_count(),
                      [&](size_t, RowRef tuple) { target.Insert(tuple); });
  }
}

}  // namespace ldl
