// anc_serve: the write-path workload. Ancestor closure over a random
// forest (each person i > 0 has a parent drawn uniformly from [0, i), the
// law of ldl::ParentRandomTree, redrawn until the model size is within
// kSizeTolerance of its expectation so that seeds differ in shape, not in
// size), served through kModel bound reads, three per write. A write either
// reparents a person -- AddFacts of an edge to a new parent at the depth of
// the old one, then RemoveFacts of the old edge -- or adds or removes a
// fresh leaf. Each write runs stage -> maintain through the delta and DRed
// paths against the live model, then the publish copy; moving a person
// moves its whole subtree. A same-depth move leaves every depth, and so the
// model size, unchanged, and cannot form a cycle.
//
// Two tombstone rules shape the stream; the oracle tracks which rows are
// tombstoned, i.e. deleted since the model was last rebuilt:
//   * Re-adding a tombstoned parent edge makes the session drop the model
//     and rebuild it from scratch (the counted conservative fallback). One
//     reparent in kRebuildOneIn does so on purpose, so the fallback share
//     is fixed by the seed.
//   * An insertion that re-derives a tombstoned anc fact is not maintained
//     correctly at this revision (the delta pass does not see the revived
//     row, so facts above it go missing), so other reparents never re-derive
//     one. Attaching the new edge before detaching the old one keeps the
//     ancestors both parents share alive throughout.
#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/str_util.h"
#include "harness.h"
#include "workload/workload.h"

namespace ldl_bench {
namespace {

constexpr const char* kRules =
    "anc(X, Y) :- parent(X, Y).\n"
    "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n";

constexpr size_t kPeople = 1500;
constexpr double kSizeTolerance = 0.005;
constexpr uint64_t kRebuildOneIn = 20;  // reparents that re-add a tombstoned edge
constexpr size_t kLiveLeafTarget = 16;
constexpr size_t kTracedOps = 2000;

class AncServe : public Workload {
 public:
  explicit AncServe(uint64_t seed)
      : ops_rng_(seed * 0x9e3779b97f4a7c15ULL + 1), parent_(kPeople, 0),
        depth_(kPeople, 0), kids_(kPeople) {
    // The expected depth of person i is the harmonic number H_i.
    double expected = 0;
    double harmonic = 0;
    for (size_t i = 1; i < kPeople; ++i) {
      harmonic += 1.0 / static_cast<double>(i);
      expected += harmonic;
    }
    for (uint64_t attempt = 0;; ++attempt) {
      ldl::Rng tree_rng(seed + attempt * 0x100000001b3ULL);
      double total = 0;
      for (size_t i = 1; i < kPeople; ++i) {
        parent_[i] = tree_rng.Below(i);
        depth_[i] = depth_[parent_[i]] + 1;
        total += static_cast<double>(depth_[i]);
      }
      if (std::abs(total - expected) <= kSizeTolerance * expected) break;
    }
    for (size_t i = 1; i < kPeople; ++i) {
      kids_[parent_[i]].push_back(i);
      if (by_depth_.size() <= depth_[i]) by_depth_.resize(depth_[i] + 1);
      by_depth_[depth_[i]].push_back(i);
    }
    by_depth_[0].push_back(0);
  }

  std::string ProgramText() const override {
    std::string text = kRules;
    text.reserve(kPeople * 24);
    for (size_t i = 1; i < kPeople; ++i) {
      ldl::StrAppend(text, "parent(p", parent_[i], ", p", i, ").\n");
    }
    for (const Leaf& leaf : leaves_) text += LeafFact(leaf);
    return text;
  }

  ldl::Status PrepareGoals(Backend* backend) override {
    goals_.clear();
    goals_.reserve(kPeople);
    for (size_t i = 0; i < kPeople; ++i) {
      LDL_ASSIGN_OR_RETURN(ldl::PreparedQuery goal,
                           backend->Prepare(ldl::StrCat("anc(X, p", i, ")")));
      goals_.push_back(std::move(goal));
    }
    return ldl::Status::OK();
  }

  OpOutcome RunOp(Backend* backend, OpContext* ctx) override {
    switch (schedule_.Next(ops_rng_)) {
      case 0:
        return Read(backend, ctx);
      case 1:
        return Reparent(backend, ctx);
      default:
        return LeafOp(backend, ctx);
    }
  }

  size_t TracedOps() const override { return kTracedOps; }

  std::string SizesJson() const override {
    size_t anc_facts = 0;
    for (size_t i = 0; i < kPeople; ++i) anc_facts += Ancestors(i).size();
    return ldl::StrCat("\"people\": ", kPeople, ", \"anc_facts\": ", anc_facts,
                       ", \"live_leaves\": ", leaves_.size());
  }

  std::string OpCountsJson() const override {
    return ldl::StrCat("\"read\": ", reads_, ", \"reparent\": ", reparents_,
                       ", \"rebuild_readd\": ", rebuild_readds_,
                       ", \"leaf_add\": ", leaf_adds_,
                       ", \"leaf_remove\": ", leaf_removes_);
  }

 private:
  // A fresh leaf f<id>; its node id is kPeople + id.
  struct Leaf {
    uint64_t id;
    uint64_t parent;
    ldl::PreparedQuery goal;
  };

  static std::string LeafFact(const Leaf& leaf) {
    return ldl::StrCat("parent(p", leaf.parent, ", f", leaf.id, ").\n");
  }

  // Person ids of the ancestors of person `i`, nearest first.
  std::vector<uint64_t> Ancestors(uint64_t i) const {
    std::vector<uint64_t> out;
    while (i != 0) {
      i = parent_[i];
      out.push_back(i);
    }
    return out;
  }

  // `i` and its ancestors.
  std::vector<uint64_t> SelfAndAncestors(uint64_t i) const {
    std::vector<uint64_t> out = Ancestors(i);
    out.insert(out.begin(), i);
    return out;
  }

  static std::vector<std::string> Names(const std::vector<uint64_t>& people) {
    std::vector<std::string> names;
    names.reserve(people.size());
    for (uint64_t p : people) names.push_back(ldl::StrCat("p", p));
    return names;
  }

  // Node ids of person `v` and everyone (people and leaves) below it.
  std::vector<uint64_t> Subtree(uint64_t v) const {
    std::vector<uint64_t> nodes = {v};
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] < kPeople) {
        nodes.insert(nodes.end(), kids_[nodes[i]].begin(), kids_[nodes[i]].end());
      }
    }
    return nodes;
  }

  static uint64_t FactKey(uint64_t ancestor, uint64_t node) {
    return (ancestor << 32) | node;
  }

  // Checks that `answer` to `goal` -- anc(X, <someone>) -- is `expected`.
  OpOutcome CheckAncestors(Backend* backend, const ldl::PreparedQuery& goal,
                           std::vector<std::string> expected,
                           const ldl::StatusOr<std::vector<ldl::Tuple>>& answer) {
    if (!answer.ok()) return {false, answer.status().ToString()};
    std::sort(expected.begin(), expected.end());
    const std::vector<std::string> got = ColumnTexts(backend->factory(), *answer, 0);
    if (got != expected) {
      return {false, ldl::StrCat("wrong answer to ", goal.text(), ": ", got.size(),
                                 " ancestors instead of ", expected.size())};
    }
    return {};
  }

  // An unmeasured read of the key a write changed.
  OpOutcome VerifyAncestors(Backend* backend, const ldl::PreparedQuery& goal,
                            std::vector<std::string> expected) {
    return CheckAncestors(
        backend, goal, std::move(expected),
        backend->Query(goal, ldl::QueryStrategy::kModel, /*timed=*/false));
  }

  OpOutcome Read(Backend* backend, OpContext* ctx) {
    const uint64_t who = ops_rng_.Below(kPeople);
    ++reads_;
    ctx->BeginOp("op.read");
    ldl::StatusOr<std::vector<ldl::Tuple>> answer =
        backend->Query(goals_[who], ldl::QueryStrategy::kModel);
    ctx->EndOp();
    return ctx->Excluded([&] {
      return CheckAncestors(backend, goals_[who], Names(Ancestors(who)), answer);
    });
  }

  // True when attaching `child` under `to` would re-derive a tombstoned
  // anc fact.
  bool RevivesFact(uint64_t child, uint64_t to) const {
    const std::vector<uint64_t> kept = SelfAndAncestors(parent_[child]);
    const std::vector<uint64_t> subtree = Subtree(child);
    for (uint64_t a : SelfAndAncestors(to)) {
      if (std::find(kept.begin(), kept.end(), a) != kept.end()) continue;
      for (uint64_t node : subtree) {
        if (dead_facts_.count(FactKey(a, node)) != 0) return true;
      }
    }
    return false;
  }

  OpOutcome Reparent(Backend* backend, OpContext* ctx) {
    uint64_t child = 0;
    uint64_t to = 0;
    const bool rebuild = !dead_edges_.empty() && ops_rng_.Below(kRebuildOneIn) == 0;
    if (rebuild) {
      const uint64_t key = dead_edge_list_[ops_rng_.Below(dead_edge_list_.size())];
      to = key >> 32;
      child = key & 0xffffffffu;
    } else {
      const bool found = ctx->Excluded([&] {
        for (int attempt = 0; attempt < 16; ++attempt) {
          child = 1 + ops_rng_.Below(kPeople - 1);
          const std::vector<uint64_t>& peers = by_depth_[depth_[child] - 1];
          to = peers[ops_rng_.Below(peers.size())];
          if (to != parent_[child] && dead_edges_.count(FactKey(to, child)) == 0 &&
              !RevivesFact(child, to)) {
            return true;
          }
        }
        return false;
      });
      if (!found) return LeafOp(backend, ctx);
    }
    const uint64_t from = parent_[child];
    ++reparents_;
    if (rebuild) ++rebuild_readds_;
    ctx->BeginOp("op.reparent");
    ldl::Status status = backend->Write(
        WriteKind::kAdd, ldl::StrCat("parent(p", to, ", p", child, ")."));
    if (status.ok()) {
      status = backend->Write(WriteKind::kRemove,
                              ldl::StrCat("parent(p", from, ", p", child, ")."));
    }
    ctx->EndOp();
    return ctx->Excluded([&]() -> OpOutcome {
      if (rebuild) {
        // The re-add rebuilt the model: nothing stays tombstoned.
        dead_edges_.clear();
        dead_edge_list_.clear();
        dead_facts_.clear();
      }
      const std::vector<uint64_t> kept = SelfAndAncestors(to);
      for (uint64_t a : SelfAndAncestors(from)) {
        if (std::find(kept.begin(), kept.end(), a) != kept.end()) continue;
        for (uint64_t node : Subtree(child)) dead_facts_.insert(FactKey(a, node));
      }
      dead_edges_.insert(FactKey(from, child));
      dead_edge_list_.push_back(FactKey(from, child));
      std::vector<uint64_t>& siblings = kids_[from];
      siblings.erase(std::find(siblings.begin(), siblings.end(), child));
      kids_[to].push_back(child);
      parent_[child] = to;
      if (!status.ok()) return {false, status.ToString()};
      return VerifyAncestors(backend, goals_[child], Names(Ancestors(child)));
    });
  }

  OpOutcome LeafOp(Backend* backend, OpContext* ctx) {
    const bool add = leaves_.size() < kLiveLeafTarget ? ops_rng_.Below(4) != 0
                                                      : ops_rng_.Below(4) == 0;
    if (add || leaves_.empty()) {
      Leaf leaf{next_leaf_++, ops_rng_.Below(kPeople), {}};
      ++leaf_adds_;
      ctx->BeginOp("op.leaf_add");
      ldl::Status status = backend->Write(WriteKind::kAdd, LeafFact(leaf));
      ctx->EndOp();
      return ctx->Excluded([&]() -> OpOutcome {
        kids_[leaf.parent].push_back(kPeople + leaf.id);
        if (!status.ok()) return {false, status.ToString()};
        ldl::StatusOr<ldl::PreparedQuery> goal =
            backend->Prepare(ldl::StrCat("anc(X, f", leaf.id, ")"));
        if (!goal.ok()) return {false, goal.status().ToString()};
        leaf.goal = std::move(*goal);
        OpOutcome outcome = VerifyAncestors(backend, leaf.goal,
                                            Names(SelfAndAncestors(leaf.parent)));
        leaves_.push_back(std::move(leaf));
        return outcome;
      });
    }
    const size_t index = ops_rng_.Below(leaves_.size());
    Leaf leaf = std::move(leaves_[index]);
    leaves_[index] = std::move(leaves_.back());
    leaves_.pop_back();
    ++leaf_removes_;
    ctx->BeginOp("op.leaf_remove");
    ldl::Status status = backend->Write(WriteKind::kRemove, LeafFact(leaf));
    ctx->EndOp();
    return ctx->Excluded([&]() -> OpOutcome {
      std::vector<uint64_t>& siblings = kids_[leaf.parent];
      siblings.erase(std::find(siblings.begin(), siblings.end(), kPeople + leaf.id));
      if (!status.ok()) return {false, status.ToString()};
      return VerifyAncestors(backend, leaf.goal, {});
    });
  }

  ldl::Rng ops_rng_;
  // Per block of 8 ops: 6 reads, 1 reparent, 1 leaf add or remove.
  OpSchedule schedule_{{6, 1, 1}};
  std::vector<uint64_t> parent_;  // parent_[0] is unused: p0 is the root
  std::vector<uint64_t> depth_;   // fixed: moves keep every depth
  std::vector<std::vector<uint64_t>> by_depth_;  // people at each depth
  std::vector<std::vector<uint64_t>> kids_;  // node ids under each person
  std::vector<Leaf> leaves_;
  uint64_t next_leaf_ = 0;
  // Rows deleted since the model was last rebuilt, keyed FactKey(a, b): the
  // parent edges, and the anc facts (a removed leaf's facts are never
  // re-derived, its name being fresh, so they need no tracking).
  std::unordered_set<uint64_t> dead_edges_;
  std::vector<uint64_t> dead_edge_list_;
  std::unordered_set<uint64_t> dead_facts_;
  std::vector<ldl::PreparedQuery> goals_;
  size_t reads_ = 0;
  size_t reparents_ = 0;
  size_t rebuild_readds_ = 0;
  size_t leaf_adds_ = 0;
  size_t leaf_removes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeAncServe(uint64_t seed) {
  return std::make_unique<AncServe>(seed);
}

}  // namespace ldl_bench
