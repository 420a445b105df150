// Static well-formedness checks (paper §2.1 and the §7 syntactic safety
// restriction), and the one static binding-mode analysis every consumer of
// body orders shares.
//
//   * a grouping rule's body literals must all be positive (§2.1, (3));
//   * facts must be ground (§7: "facts may not have variables as arguments");
//   * range restriction / safety: every variable occurring in the head, in a
//     negated literal, or in a comparison must be bound by the positive part
//     of the body. Built-ins bind variables according to their modes (e.g.
//     +(A, B, C) binds any one argument once the other two are bound;
//     member(X, S) binds X once S is bound), so boundness is computed by
//     scheduling the body under the mode table below.
//
// The mode table (LiteralStaticallyReady) and the body scheduler
// (ScheduleBody) answer "can this literal run under these bound variables,
// and what does it bind?" for range restriction, the §6 sip, adornment,
// magic and supplementary-magic rules, and both evaluation planners
// (OrderBodyLiterals, OrderBodyLiteralsCostBased). A rule this file accepts
// therefore has a complete schedule under every one of them.
#ifndef LDL1_PROGRAM_WELLFORMED_H_
#define LDL1_PROGRAM_WELLFORMED_H_

#include <functional>
#include <vector>

#include "base/status.h"
#include "program/catalog.h"
#include "program/ir.h"

namespace ldl {

struct WellformedOptions {
  // Enforce the §7 range restriction. On by default; the paper discusses it
  // as the syntactic guard against grouping sets "out of" the universe.
  bool require_range_restriction = true;
  // Enforce §2.1 restriction (3): no negated literals in grouping-rule
  // bodies. Off by default because the paper's own §6 running example
  // (young(X, <Y>) <-- !a(X, Z), sg(X, Y)) violates it; stratification
  // already guarantees the negated predicate is complete before the
  // grouping rule fires, so the relaxed form is safe.
  bool strict_grouping_positivity = false;
};

// Checks one rule.
Status CheckRuleWellformed(const Catalog& catalog, const RuleIr& rule,
                           const WellformedOptions& options = {});

// Checks every rule of the program.
Status CheckProgramWellformed(const Catalog& catalog, const ProgramIr& program,
                              const WellformedOptions& options = {});

// --- Static binding modes -------------------------------------------------

// True when every variable of `t` appears in `bound`.
bool TermVarsBound(const Term* t, const std::vector<Symbol>& bound);

// Adds every variable occurring in `literal`'s arguments to `bound`. Once a
// non-negated literal has run, all of its variables are bound.
void BindLiteralVars(const LiteralIr& literal, std::vector<Symbol>* bound);

// For each body literal of `rule`: if it is a negated relational literal,
// the variables it shares with the head or another literal (readiness only
// requires those; variables local to the literal are existential under the
// negation, paper §6 rule 5). Empty for every other literal.
std::vector<std::vector<Symbol>> NegationSharedVars(const RuleIr& rule);

// The mode table: true when `literal` can run once the variables in `bound`
// are bound. A positive built-in needs one of its evaluable modes (the
// runtime modes of eval/builtins.cc); a negated built-in needs every
// argument; a negated relational literal needs `negation_shared`, its
// NegationSharedVars entry. Positive relational literals are always ready.
bool LiteralStaticallyReady(const LiteralIr& literal,
                            const std::vector<Symbol>& negation_shared,
                            const std::vector<Symbol>& bound);

// Places every built-in and negated literal of `rule` that is not yet
// `scheduled` and that the mode table finds ready under `bound`, repeating
// until none is left. `place(i)` must mark literal i in `scheduled` and bind
// its variables into `bound`. ScheduleBody and the cost planner both run
// their filters through this.
void PlaceReadyLiterals(const RuleIr& rule,
                        const std::vector<std::vector<Symbol>>& negation_shared,
                        const std::vector<bool>& scheduled,
                        const std::vector<Symbol>& bound,
                        const std::function<void(size_t)>& place);

// The one body order. Orders `rule`'s body from the variables in `bound`:
// built-ins and negated literals go in as soon as they are ready, otherwise
// the positive relational literal with the most bound argument positions
// (ties go textually). If forced_first >= 0 that literal goes first
// (semi-naive delta variant). Literals that never become ready are left out,
// so the order is short exactly when the rule has no evaluable order from
// `bound`. A non-null `bound_after` receives the variables bound once the
// order has run.
std::vector<int> ScheduleBody(const RuleIr& rule, std::vector<Symbol> bound,
                              int forced_first = -1,
                              std::vector<Symbol>* bound_after = nullptr);

// The kNotWellFormed error for a `rule` whose body literals outside
// `order` (a short ScheduleBody result) never become ready.
Status UnevaluableBodyError(const Catalog& catalog, const RuleIr& rule,
                            const std::vector<int>& order);

}  // namespace ldl

#endif  // LDL1_PROGRAM_WELLFORMED_H_
