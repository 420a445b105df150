// Compiled join plans for bottom-up rule evaluation.
//
// A JoinPlan is the compile-once/execute-many form of one (rule, literal
// order) pair: the rule's variables are numbered into dense slots and each
// body literal becomes a LiteralPlan that the evaluator executes over a flat
// slot array instead of a symbol-keyed substitution.
//
//   * kScan: a positive literal whose arguments are all plain variables or
//     ground scons-free constants. The statically bound argument positions
//     form a (possibly composite) probe spec fed from slots/constants; the
//     remaining columns run a match program (bind slot / check slot / check
//     constant) with no generic unification.
//   * kGenericScan: a positive literal with complex argument patterns
//     (functors, sets, scons, ...). Falls back to MatchArgs unification, but
//     still probes on the statically bound columns after instantiating them
//     through a scratch substitution.
//   * kNegated: an anti-join. The argument positions bound at this point
//     form a probe spec like kScan's (a complex argument whose variables
//     are all bound instantiates into the key at run time); the rest are
//     existential under the negation, so the step asks only whether some
//     live fact matches, and stops at the first.
//   * kBuiltin: evaluated through the builtin machinery over a scratch
//     substitution materialized from the slots the literal mentions.
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

// A probe key component or head output: read from a slot or a constant.
// In a kNegated probe spec, a ref with neither instantiates the column's
// complex argument under the step's inputs.
struct ValueRef {
  int slot = -1;                   // >= 0: read slots[slot]
  const Term* constant = nullptr;  // used when slot < 0
};

enum class MatchOpKind : uint8_t {
  kBind,        // slots[slot] = tuple[column]
  kCheckSlot,   // tuple[column] == slots[slot] (repeated variable)
  kCheckConst,  // tuple[column] == constant
};

struct MatchOp {
  MatchOpKind kind;
  uint32_t column;
  int slot = -1;
  const Term* constant = nullptr;
};

enum class StepKind : uint8_t { kScan, kGenericScan, kBuiltin, kNegated };

// Compiled form of one body literal at its position in the join order.
struct LiteralPlan {
  StepKind kind;
  int literal_index;              // position in RuleIr::body
  PredId pred = kInvalidPred;     // relational literals only

  // kScan / kNegated: statically bound columns (the probe spec), ascending;
  // probe_cols[i] is the column probe[i] feeds. kScan: the match program
  // for the remaining columns.
  std::vector<uint32_t> probe_cols;
  std::vector<ValueRef> probe;
  std::vector<MatchOp> match;

  // kNegated: a candidate row must also pass MatchArgs, because an unbound
  // column holds a complex argument or a variable repeated in the literal.
  // Otherwise every unbound column is a distinct variable and any row
  // matching the key matches the literal.
  bool residual = false;

  // kGenericScan: columns whose argument patterns are fully bound under the
  // slots available at this depth; instantiated at runtime to probe keys.
  std::vector<uint32_t> bound_columns;

  // kGenericScan / kBuiltin / kNegated: variables of this literal bound
  // before the step (materialized into the scratch substitution) and
  // variables the step newly binds (harvested back into slots).
  std::vector<std::pair<Symbol, int>> inputs;
  std::vector<std::pair<Symbol, int>> outputs;
};

class JoinPlan {
 public:
  // Compiles `rule` under `order` (from OrderBodyLiterals; pass the head
  // variables as its `initially_bound` when head_seeded). Never fails:
  // anything that cannot be specialized becomes a generic step.
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

  // True when every head argument is a plain variable or a ground scons-free
  // constant, so head tuples can be built straight from slots.
  bool head_simple() const { return head_simple_; }
  const std::vector<ValueRef>& head() const { return head_; }

  // Head-seeded plans: the slots of the head variables, which every root
  // input row must bind. Empty otherwise.
  const std::vector<int>& seeded_slots() const { return seeded_slots_; }
  bool head_seeded() const { return head_seeded_; }

 private:
  std::vector<LiteralPlan> steps_;
  std::vector<std::pair<Symbol, int>> var_slots_;
  size_t slot_count_ = 0;
  bool head_simple_ = false;
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
