// org_sets: the set-heavy workload. The organizational-analytics program
// of examples/org_analytics.cpp -- recursion (reports_to), grouping (org,
// skill_set, required), subset, member and stratified negation
// (unstaffable) -- over a generated org. Five ops in a hundred materialize
// the whole program in a fresh Service; six write (has_skill toggles, new
// hires added and removed); the rest are kModel
// reads of org(m, T), can_staff(e, P) and unstaffable(P). Parse -> analyze
// and full set-heavy evaluation dominate, and writes go through the
// grouping-regrow and recompute strata rather than delta/DRed.
#include <algorithm>
#include <string>
#include <vector>

#include "base/str_util.h"
#include "harness.h"
#include "workload/workload.h"

namespace ldl_bench {
namespace {

constexpr const char* kRules = R"(
  reports_to(E, M) :- manages(M, E).
  reports_to(E, M) :- manages(M, X), reports_to(E, X).
  org(M, <E>) :- reports_to(E, M).
  skill_set(E, <S>) :- has_skill(E, S).
  required(P, <S>) :- needs(P, S).
  can_staff(E, P) :- skill_set(E, Skills), required(P, Req),
                     subset(Req, Skills).
  project(P) :- needs(P, _).
  person(E) :- has_skill(E, _).
  unstaffable(P) :- project(P), !can_staff(E, P).
  versatile(M) :- org(M, Team), project(P), can_staff(E, P),
                  member(E, Team).
)";

constexpr size_t kPeople = 400;
constexpr size_t kSkillCount = 5;
constexpr const char* kSkills[kSkillCount] = {"sql", "cpp", "ml", "ops", "ui"};
constexpr size_t kProjectCount = 3;
constexpr const char* kProjects[kProjectCount] = {"engine", "moonshot",
                                                  "warehouse"};
// Required skills of each project, as bit masks over kSkills.
constexpr unsigned kRequired[kProjectCount] = {
    1u << 1,                          // engine: cpp
    (1u << 2) | (1u << 1) | (1u << 4),  // moonshot: ml, cpp, ui
    (1u << 0) | (1u << 3),            // warehouse: sql, ops
};
constexpr size_t kLiveHireTarget = 8;
constexpr size_t kTracedOps = 600;

class OrgSets : public Workload {
 public:
  explicit OrgSets(uint64_t seed) : rng_(seed * 0x9e3779b97f4a7c15ULL + 5) {
    ldl::Rng gen(seed);
    boss_.assign(kPeople, 0);
    children_.resize(kPeople);
    // Each person's boss is drawn from [(i-1)/4, (i-1)/2], a jittered
    // ternary-ish hierarchy: seeds differ in who reports to whom, hardly in
    // how deep the org is, so in how large the reports-to closure is.
    for (size_t i = 1; i < kPeople; ++i) {
      const size_t lo = (i - 1) / 4;
      boss_[i] = lo + gen.Below((i - 1) / 2 - lo + 1);
      children_[boss_[i]].push_back(i);
    }
    skills_.assign(kPeople, 0);
    for (size_t i = 0; i < kPeople; ++i) {
      const size_t k = 1 + gen.Below(3);
      while (static_cast<size_t>(__builtin_popcount(skills_[i])) < k) {
        skills_[i] |= 1u << gen.Below(kSkillCount);
      }
    }
    hires_of_.resize(kPeople);
  }

  std::string ProgramText() const override {
    std::string text = kRules;
    text.reserve(kPeople * 64);
    for (size_t i = 1; i < kPeople; ++i) {
      ldl::StrAppend(text, "manages(e", boss_[i], ", e", i, ").\n");
    }
    for (size_t i = 0; i < kPeople; ++i) {
      for (size_t s = 0; s < kSkillCount; ++s) {
        if (skills_[i] & (1u << s)) {
          ldl::StrAppend(text, "has_skill(e", i, ", ", kSkills[s], ").\n");
        }
      }
    }
    for (const Hire& hire : hires_) text += HireFacts(hire);
    text +=
        "needs(warehouse, sql). needs(warehouse, ops).\n"
        "needs(engine, cpp).\n"
        "needs(moonshot, ml). needs(moonshot, cpp). needs(moonshot, ui).\n";
    return text;
  }

  ldl::Status PrepareGoals(Backend* backend) override {
    org_goals_.clear();
    staff_goals_.clear();
    for (size_t i = 0; i < kPeople; ++i) {
      LDL_ASSIGN_OR_RETURN(ldl::PreparedQuery org,
                           backend->Prepare(ldl::StrCat("org(e", i, ", T)")));
      LDL_ASSIGN_OR_RETURN(ldl::PreparedQuery staff,
                           backend->Prepare(ldl::StrCat("can_staff(e", i, ", P)")));
      org_goals_.push_back(std::move(org));
      staff_goals_.push_back(std::move(staff));
    }
    LDL_ASSIGN_OR_RETURN(unstaffable_goal_, backend->Prepare("unstaffable(P)"));
    return ldl::Status::OK();
  }

  OpOutcome RunOp(Backend* backend, OpContext* ctx) override {
    switch (schedule_.Next(rng_)) {
      case 0:
        return Materialize(backend, ctx);
      case 1:
        return ToggleSkill(backend, ctx);
      case 2:
        return HireOp(backend, ctx);
      case 3:
        return ReadOrg(backend, ctx, rng_.Below(kPeople), true);
      case 4:
        return ReadStaff(backend, ctx, rng_.Below(kPeople), true);
      default:
        return ReadUnstaffable(backend, ctx);
    }
  }

  size_t TracedOps() const override { return kTracedOps; }

  std::string SizesJson() const override {
    size_t reports_to = 0;
    for (size_t i = 1; i < kPeople; ++i) {
      for (size_t m = i; m != 0; m = boss_[m]) ++reports_to;
    }
    return ldl::StrCat("\"people\": ", kPeople, ", \"reports_to_facts\": ",
                       reports_to, ", \"live_hires\": ", hires_.size());
  }

  std::string OpCountsJson() const override {
    return ldl::StrCat("\"read\": ", reads_, ", \"materialize\": ",
                       materializations_, ", \"skill_toggle\": ", toggles_,
                       ", \"hire_add\": ", hire_adds_, ", \"hire_remove\": ",
                       hire_removes_);
  }

 private:
  struct Hire {
    uint64_t id;
    uint64_t boss;
    size_t skill;
  };

  static std::string HireFacts(const Hire& hire) {
    return ldl::StrCat("manages(e", hire.boss, ", h", hire.id, ").\nhas_skill(h",
                       hire.id, ", ", kSkills[hire.skill], ").\n");
  }

  static bool CanStaff(unsigned skills, size_t project) {
    return (kRequired[project] & ~skills) == 0;
  }

  // Sorted names of everyone who reports to person `m`, directly or not.
  std::vector<std::string> Organization(size_t m) const {
    std::vector<std::string> names;
    std::vector<size_t> stack = {m};
    while (!stack.empty()) {
      const size_t at = stack.back();
      stack.pop_back();
      for (uint64_t hire : hires_of_[at]) names.push_back(ldl::StrCat("h", hire));
      for (size_t child : children_[at]) {
        names.push_back(ldl::StrCat("e", child));
        stack.push_back(child);
      }
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  OpOutcome CheckOrg(Backend* backend, size_t m,
                     const ldl::StatusOr<std::vector<ldl::Tuple>>& answer) const {
    if (!answer.ok()) return {false, answer.status().ToString()};
    const std::vector<std::string> expected = Organization(m);
    const bool ok =
        expected.empty()
            ? answer->empty()
            : answer->size() == 1 &&
                  SetTexts(backend->factory(), (*answer)[0][1]) == expected;
    if (!ok) return {false, ldl::StrCat("wrong answer to ", org_goals_[m].text())};
    return {};
  }

  OpOutcome CheckStaff(Backend* backend, size_t e,
                       const ldl::StatusOr<std::vector<ldl::Tuple>>& answer) const {
    if (!answer.ok()) return {false, answer.status().ToString()};
    std::vector<std::string> expected;
    for (size_t p = 0; p < kProjectCount; ++p) {
      if (CanStaff(skills_[e], p)) expected.push_back(kProjects[p]);
    }
    if (ColumnTexts(backend->factory(), *answer, 1) != expected) {
      return {false, ldl::StrCat("wrong answer to ", staff_goals_[e].text())};
    }
    return {};
  }

  OpOutcome ReadOrg(Backend* backend, OpContext* ctx, size_t m, bool timed) {
    if (timed) {
      ++reads_;
      ctx->BeginOp("op.read_org");
    }
    ldl::StatusOr<std::vector<ldl::Tuple>> answer =
        backend->Query(org_goals_[m], ldl::QueryStrategy::kModel, timed);
    if (timed) ctx->EndOp();
    return ctx->Excluded([&] { return CheckOrg(backend, m, answer); });
  }

  OpOutcome ReadStaff(Backend* backend, OpContext* ctx, size_t e, bool timed) {
    if (timed) {
      ++reads_;
      ctx->BeginOp("op.read_staff");
    }
    ldl::StatusOr<std::vector<ldl::Tuple>> answer =
        backend->Query(staff_goals_[e], ldl::QueryStrategy::kModel, timed);
    if (timed) ctx->EndOp();
    return ctx->Excluded([&] { return CheckStaff(backend, e, answer); });
  }

  OpOutcome ReadUnstaffable(Backend* backend, OpContext* ctx) {
    ++reads_;
    ctx->BeginOp("op.read_unstaffable");
    ldl::StatusOr<std::vector<ldl::Tuple>> answer =
        backend->Query(unstaffable_goal_, ldl::QueryStrategy::kModel);
    ctx->EndOp();
    return ctx->Excluded([&]() -> OpOutcome {
      if (!answer.ok()) return {false, answer.status().ToString()};
      // Projects nobody, hires included, can staff.
      std::vector<std::string> expected;
      for (size_t p = 0; p < kProjectCount; ++p) {
        bool staffed = false;
        for (size_t e = 0; e < kPeople && !staffed; ++e) {
          staffed = CanStaff(skills_[e], p);
        }
        for (const Hire& hire : hires_) {
          staffed = staffed || CanStaff(1u << hire.skill, p);
        }
        if (!staffed) expected.push_back(kProjects[p]);
      }
      if (ColumnTexts(backend->factory(), *answer, 0) != expected) {
        return {false, "wrong answer to unstaffable(P)"};
      }
      return {};
    });
  }

  OpOutcome Materialize(Backend* backend, OpContext* ctx) {
    ++materializations_;
    const std::string text = ctx->Excluded([&] { return ProgramText(); });
    ctx->BeginOp("op.materialize");
    ldl::Status status = backend->Materialize(text);
    ctx->EndOp();
    if (!status.ok()) return {false, status.ToString()};
    return {};
  }

  OpOutcome ToggleSkill(Backend* backend, OpContext* ctx) {
    const size_t e = rng_.Below(kPeople);
    const size_t s = rng_.Below(kSkillCount);
    const bool had = (skills_[e] & (1u << s)) != 0;
    ++toggles_;
    ctx->BeginOp("op.skill_toggle");
    ldl::Status status =
        backend->Write(had ? WriteKind::kRemove : WriteKind::kAdd,
                       ldl::StrCat("has_skill(e", e, ", ", kSkills[s], ")."));
    ctx->EndOp();
    skills_[e] ^= 1u << s;
    if (!status.ok()) return {false, status.ToString()};
    return ctx->Excluded([&] { return ReadStaff(backend, ctx, e, false); });
  }

  OpOutcome HireOp(Backend* backend, OpContext* ctx) {
    const bool add = hires_.size() < kLiveHireTarget ? rng_.Below(4) != 0
                                                     : rng_.Below(4) == 0;
    Hire hire;
    WriteKind kind;
    if (add || hires_.empty()) {
      hire = Hire{next_hire_++, rng_.Below(kPeople), rng_.Below(kSkillCount)};
      kind = WriteKind::kAdd;
      ++hire_adds_;
    } else {
      const size_t index = rng_.Below(hires_.size());
      hire = hires_[index];
      kind = WriteKind::kRemove;
      ++hire_removes_;
    }
    ctx->BeginOp(kind == WriteKind::kAdd ? "op.hire_add" : "op.hire_remove");
    ldl::Status status = backend->Write(kind, HireFacts(hire));
    ctx->EndOp();
    std::vector<uint64_t>& under = hires_of_[hire.boss];
    if (kind == WriteKind::kAdd) {
      hires_.push_back(hire);
      under.push_back(hire.id);
    } else {
      hires_.erase(std::find_if(hires_.begin(), hires_.end(),
                                [&](const Hire& h) { return h.id == hire.id; }));
      under.erase(std::find(under.begin(), under.end(), hire.id));
    }
    if (!status.ok()) return {false, status.ToString()};
    return ctx->Excluded([&] { return ReadOrg(backend, ctx, hire.boss, false); });
  }

  ldl::Rng rng_;
  // Per block of 100 ops: 5 materializations, 3 skill toggles, 3 hire
  // writes, 40 org reads, 44 can_staff reads, 5 unstaffable reads.
  OpSchedule schedule_{{5, 3, 3, 40, 44, 5}};
  std::vector<uint64_t> boss_;  // boss_[0] is unused: e0 heads the org
  std::vector<std::vector<size_t>> children_;
  std::vector<unsigned> skills_;  // bit masks over kSkills
  std::vector<Hire> hires_;       // live hires, in hiring order
  std::vector<std::vector<uint64_t>> hires_of_;  // live hire ids per boss
  uint64_t next_hire_ = 0;
  std::vector<ldl::PreparedQuery> org_goals_;
  std::vector<ldl::PreparedQuery> staff_goals_;
  ldl::PreparedQuery unstaffable_goal_;
  size_t reads_ = 0;
  size_t materializations_ = 0;
  size_t toggles_ = 0;
  size_t hire_adds_ = 0;
  size_t hire_removes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeOrgSets(uint64_t seed) {
  return std::make_unique<OrgSets>(seed);
}

}  // namespace ldl_bench
