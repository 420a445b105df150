// Compiled join plans for bottom-up rule evaluation.
//
// A JoinPlan is the compile-once/execute-many form of one (rule, literal
// order) pair: the rule's variables are numbered into dense slots and each
// body literal becomes a LiteralPlan that the evaluator executes over a flat
// slot array instead of a symbol-keyed substitution.
//
//   * kScan: a positive relational literal. The argument positions whose
//     variables are all bound at this depth form a (possibly composite)
//     probe spec (ValueRef: a slot, a constant, or a complex argument
//     instantiated under the step's inputs). The remaining columns run a
//     match program (bind slot / check slot) when they are plain variables;
//     when one of them is a complex pattern (functor, set, scons) a
//     residual MatchArgs over the step's inputs binds the outputs instead.
//   * kNegated: an anti-join with the same probe spec; the other columns
//     are existential under the negation, so the step asks only whether
//     some live fact matches, and stops at the first.
//   * kBuiltin: evaluated through the builtin machinery over a scratch
//     substitution materialized from the slots the literal mentions.
//
// The head is a ValueRef per argument in the same form.
//
// A head-seeded plan treats every head variable as bound before the first
// step: its root input rows carry the unifiers of the head with one given
// fact, so the plan enumerates exactly the body solutions deriving that
// fact (DRed rederivation asks this per over-deleted row).
//
// Plans depend only on the rule structure, the literal order and the
// seeding, never on the database, so Engine caches them in a PlanCache
// keyed by a structural fingerprint (interned Term pointers are stable for
// the factory's lifetime, which makes the fingerprint collision-free).
#ifndef LDL1_EVAL_PLAN_H_
#define LDL1_EVAL_PLAN_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "program/ir.h"
#include "term/term_ops.h"

namespace ldl {

// A probe key column or head argument: a slot read, a pointer constant (a
// ground scons-free term), or an argument instantiated under the row's
// bindings (a complex term whose variables are all bound, or a ground term
// holding scons, which must be evaluated before it denotes an element of U).
struct ValueRef {
  int slot = -1;               // >= 0: read slots[slot]
  const Term* term = nullptr;  // slot < 0: the constant, or the argument
  bool instantiate = false;    // instantiate `term` instead of reading it
};

enum class MatchOpKind : uint8_t {
  kBind,       // slots[slot] = tuple[column]
  kCheckSlot,  // tuple[column] == slots[slot] (repeated variable)
};

struct MatchOp {
  MatchOpKind kind;
  uint32_t column;
  int slot;
};

enum class StepKind : uint8_t { kScan, kNegated, kBuiltin };

// Compiled form of one body literal at its position in the join order.
struct LiteralPlan {
  StepKind kind;
  int literal_index;              // position in RuleIr::body
  PredId pred = kInvalidPred;     // relational literals only

  // kScan / kNegated: the key columns (the probe spec), ascending;
  // probe_cols[i] is the column probe[i] feeds. kScan without residual:
  // the match program for the remaining columns.
  std::vector<uint32_t> probe_cols;
  std::vector<ValueRef> probe;
  std::vector<MatchOp> match;

  // A candidate row must pass MatchArgs under the step's inputs instead of
  // the match program: a non-key column holds a complex argument (or, in
  // kNegated, a variable repeated in the literal).
  bool residual = false;

  // Variables of this literal bound before the step (materialized into a
  // scratch substitution when a key column, a residual match or a builtin
  // needs one) and variables the step newly binds (harvested back into
  // slots by a residual match or a builtin).
  std::vector<std::pair<Symbol, int>> inputs;
  std::vector<std::pair<Symbol, int>> outputs;
};

class JoinPlan {
 public:
  // Compiles `rule` under `order` (from OrderBodyLiterals; pass the head
  // variables as its `initially_bound` when head_seeded). Never fails:
  // every literal compiles to one of the three step kinds.
  static JoinPlan Compile(const RuleIr& rule, const std::vector<int>& order,
                          bool head_seeded = false);

  const std::vector<LiteralPlan>& steps() const { return steps_; }
  size_t slot_count() const { return slot_count_; }

  // All rule variables with their slots, sorted by symbol for lookup.
  const std::vector<std::pair<Symbol, int>>& var_slots() const {
    return var_slots_;
  }
  // Slot of `var`, or -1 if the rule does not mention it.
  int SlotOf(Symbol var) const;

  // One ValueRef per head argument.
  const std::vector<ValueRef>& head() const { return head_; }

  // Head-seeded plans: the slots of the head variables, which every root
  // input row must bind. Empty otherwise.
  const std::vector<int>& seeded_slots() const { return seeded_slots_; }
  bool head_seeded() const { return head_seeded_; }

 private:
  std::vector<LiteralPlan> steps_;
  std::vector<std::pair<Symbol, int>> var_slots_;
  size_t slot_count_ = 0;
  std::vector<ValueRef> head_;
  bool head_seeded_ = false;
  std::vector<int> seeded_slots_;
};

// Read-only view of one body solution: a block row read through the
// plan's variable-to-slot map.
class SolutionView {
 public:
  SolutionView(const JoinPlan* plan, std::span<const Term* const> slots)
      : plan_(plan), slots_(slots) {}

  // Binds every bound variable of this solution into `out`.
  void AppendBindings(Subst* out) const;

  std::span<const Term* const> slots() const { return slots_; }

 private:
  const JoinPlan* plan_;
  std::span<const Term* const> slots_;
};

// Engine-level cache of compiled plans keyed by a structural fingerprint of
// (rule, order, head seeding). Structural keying (head/body predicates and
// interned term pointers) keeps entries valid across temporary ProgramIr
// instances, e.g. the per-query magic rewrites, which may reuse addresses
// of freed rules.
//
// Internally synchronized: probes take a shared lock and misses compile
// outside the lock before inserting under an exclusive one, so one cache can
// serve many concurrent query threads (ldl::Service shares a single cache
// across its snapshot readers and the writer session).
class PlanCache {
 public:
  // Returns the plan for (rule, order, head_seeded), compiling it on a
  // miss. `hits`, when non-null, is incremented on a cache hit.
  std::shared_ptr<const JoinPlan> Get(const RuleIr& rule,
                                      const std::vector<int>& order,
                                      size_t* hits = nullptr,
                                      bool head_seeded = false);

  void Clear();
  size_t size() const;

 private:
  struct Entry {
    std::vector<uint64_t> fingerprint;
    std::shared_ptr<const JoinPlan> plan;
  };
  mutable std::shared_mutex mu_;
  std::unordered_map<uint64_t, std::vector<Entry>> entries_;
};

}  // namespace ldl

#endif  // LDL1_EVAL_PLAN_H_
