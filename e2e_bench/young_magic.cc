// young_magic: the read-only strategy workload. The paper's §6 program
//   young(X, <Y>) :- !a(X, Z), sg(X, Y).
// over a ldl::MakeSameGeneration forest of complete trees. Every op is a
// bound goal young(<leaf>, S); all leaves are symmetric, so the work per
// query is unimodal. Ops rotate through kMagic, kMagicSupplementary and
// kTopDown, so the magic rewrite, saturating evaluation and the top-down
// engine do all the work while maintenance and publish do none.
//
// Every kMagicSupplementary query registers fresh predicates in the
// Service's catalog, and every later query pays for the grown catalog. The
// stream therefore moves to a freshly loaded Service every kOpsPerService
// ops, so that a run's latencies depend on that fixed op count rather than
// on how many ops the machine managed in the run.
#include <algorithm>
#include <string>
#include <vector>

#include "base/str_util.h"
#include "harness.h"
#include "workload/workload.h"

namespace ldl_bench {
namespace {

constexpr const char* kRules =
    "a(X, Y) :- p(X, Y).\n"
    "a(X, Y) :- a(X, Z), a(Z, Y).\n"
    "sg(X, Y) :- siblings(X, Y).\n"
    "sg(X, Y) :- p(Z1, X), sg(Z1, Z2), p(Z2, Y).\n"
    "young(X, <Y>) :- !a(X, Z), sg(X, Y).\n";

constexpr size_t kRoots = 3;
constexpr size_t kBranching = 2;
constexpr size_t kDepth = 4;
constexpr size_t kTracedOps = 1500;
constexpr size_t kOpsPerService = 600;

constexpr ldl::QueryStrategy kRotation[] = {
    ldl::QueryStrategy::kMagic,
    ldl::QueryStrategy::kMagicSupplementary,
    ldl::QueryStrategy::kTopDown,
};

class YoungMagic : public Workload {
 public:
  explicit YoungMagic(uint64_t seed)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + 3),
        forest_(ldl::MakeSameGeneration(kRoots, kBranching, kDepth)),
        next_strategy_(seed % 3) {
    // MakeSameGeneration numbers people breadth-first: the roots, then each
    // level in the order of its parents. Replay that numbering to learn
    // every leaf's root.
    std::vector<size_t> frontier;
    std::vector<size_t> root_of;
    for (size_t r = 0; r < kRoots; ++r) {
      frontier.push_back(r);
      root_of.push_back(r);
    }
    for (size_t level = 0; level < kDepth; ++level) {
      std::vector<size_t> next;
      for (size_t parent : frontier) {
        for (size_t b = 0; b < kBranching; ++b) {
          next.push_back(root_of.size());
          root_of.push_back(root_of[parent]);
        }
      }
      frontier = std::move(next);
    }
    leaves_ = frontier;
    leaf_root_.reserve(leaves_.size());
    for (size_t leaf : leaves_) leaf_root_.push_back(root_of[leaf]);
    // young(x, S) for a leaf x: S holds the leaves of every other root.
    same_generation_.resize(kRoots);
    for (size_t r = 0; r < kRoots; ++r) {
      for (size_t i = 0; i < leaves_.size(); ++i) {
        if (leaf_root_[i] != r) {
          same_generation_[r].push_back(ldl::StrCat("x", leaves_[i]));
        }
      }
      std::sort(same_generation_[r].begin(), same_generation_[r].end());
    }
  }

  std::string ProgramText() const override { return forest_.facts + kRules; }

  ldl::Status PrepareGoals(Backend* backend) override {
    goals_.clear();
    goals_.reserve(leaves_.size());
    for (size_t leaf : leaves_) {
      LDL_ASSIGN_OR_RETURN(ldl::PreparedQuery goal,
                           backend->Prepare(ldl::StrCat("young(x", leaf, ", S)")));
      goals_.push_back(std::move(goal));
    }
    return ldl::Status::OK();
  }

  OpOutcome RunOp(Backend* backend, OpContext* ctx) override {
    const size_t i = rng_.Below(leaves_.size());
    const size_t strategy = next_strategy_;
    next_strategy_ = (next_strategy_ + 1) % 3;
    ++by_strategy_[strategy];
    static constexpr const char* kOpNames[] = {"op.magic", "op.magic_sup",
                                               "op.topdown"};
    ctx->BeginOp(kOpNames[strategy]);
    ldl::StatusOr<std::vector<ldl::Tuple>> answer =
        backend->Query(goals_[i], kRotation[strategy]);
    ctx->EndOp();
    return ctx->Excluded([&]() -> OpOutcome {
      if (!answer.ok()) return {false, answer.status().ToString()};
      const ldl::TermFactory& factory = backend->factory();
      if (answer->size() != 1 ||
          factory.ToString((*answer)[0][0]) != ldl::StrCat("x", leaves_[i]) ||
          SetTexts(factory, (*answer)[0][1]) != same_generation_[leaf_root_[i]]) {
        return {false, ldl::StrCat("wrong answer to ", goals_[i].text(), " under ",
                                   ldl::ToString(kRotation[strategy]))};
      }
      return {};
    });
  }

  size_t TracedOps() const override { return kTracedOps; }
  size_t OpsPerService() const override { return kOpsPerService; }

  std::string SizesJson() const override {
    return ldl::StrCat("\"roots\": ", kRoots, ", \"branching\": ", kBranching,
                       ", \"depth\": ", kDepth, ", \"people\": ",
                       forest_.person_count, ", \"leaves\": ", leaves_.size());
  }

  std::string OpCountsJson() const override {
    return ldl::StrCat("\"magic\": ", by_strategy_[0], ", \"magic_sup\": ",
                       by_strategy_[1], ", \"topdown\": ", by_strategy_[2]);
  }

 private:
  ldl::Rng rng_;
  ldl::SameGenerationWorkload forest_;
  std::vector<size_t> leaves_;     // person ids of the leaves
  std::vector<size_t> leaf_root_;  // root of each leaf
  std::vector<std::vector<std::string>> same_generation_;  // per root
  std::vector<ldl::PreparedQuery> goals_;
  size_t next_strategy_;
  size_t by_strategy_[3] = {0, 0, 0};
};

}  // namespace

std::unique_ptr<Workload> MakeYoungMagic(uint64_t seed) {
  return std::make_unique<YoungMagic>(seed);
}

}  // namespace ldl_bench
