// Sideways information passing strategies (paper §6).
//
// A sip for a rule (given the bound head arguments) describes how bindings
// flow from the head and already-evaluated body literals into each body
// literal. §6 allows any sip that respects grouping, negation and the
// built-ins' modes; ours follows the planner's bound-first scheduler
// (ScheduleBody, program/wellformed.h), so the magic rules pass bindings in
// the order evaluation runs the body: after the ready built-ins and
// negations, the positive literal with the most bound argument positions
// goes next, ties in textual order. A free-first goal such as anc(X, c)
// under anc(X, Y) :- parent(X, Z), anc(Z, Y) thus calls anc(Z, Y) first
// with Y bound, rather than scanning parent with nothing bound.
//
// The paper's conditions on a sip hold whatever the positive order:
//
//   * built-ins run only in an evaluable mode: the scheduler places each as
//     soon as the mode table (LiteralStaticallyReady) finds it ready;
//   * negated body literals are fully evaluated: each goes in once the
//     variables it shares with the rule are bound, receives bindings and
//     contributes none;
//   * the head's grouped argument <X> never passes bindings into the body
//     (§6, footnote 6): the grouped head position is always free, and
//     AdornLiteral suppresses bindings into a callee's grouped argument
//     positions likewise (its adornment stays 'f' there).
#ifndef LDL1_REWRITE_SIP_H_
#define LDL1_REWRITE_SIP_H_

#include <string>
#include <vector>

#include "program/catalog.h"
#include "program/ir.h"

namespace ldl {

struct Sip {
  // The body order (textual literal indices). Adornment, the plain magic
  // rules' body prefixes and the supplementary chain all follow it.
  std::vector<int> order;
  // Per body literal (textual index): the adornment its predicate receives
  // at its place in `order` ('b'/'f' per argument). Empty for built-ins.
  std::vector<std::string> literal_adornments;
};

// Builds the sip for `rule` under `head_adornment` (one char per head
// argument; 'f' is forced at the grouped position). A rule the range
// restriction rejects may have literals that never become ready; they end
// the order in textual order.
Sip BuildSip(const Catalog& catalog, const RuleIr& rule,
             const std::string& head_adornment);

}  // namespace ldl

#endif  // LDL1_REWRITE_SIP_H_
