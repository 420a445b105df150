// Sideways information passing strategies (paper §6).
//
// A sip for a rule (given the bound head arguments) describes how bindings
// flow from the head and already-evaluated body literals into each body
// literal. We implement the left-to-right sip. Its body order comes from the
// shared scheduler (ScheduleBody, program/wellformed.h), which enforces the
// paper's conditions on a sip:
//
//   * built-ins run only in an evaluable mode: each goes in as soon as the
//     mode table finds it ready;
//   * negated body literals are fully evaluated: each goes in once the
//     variables it shares with the rule are bound, receives bindings and
//     contributes none;
//   * the head's grouped argument <X> never passes bindings into the body
//     (§6, footnote 6): the grouped head position is always free, and
//     bindings into a callee's grouped argument positions are suppressed
//     likewise (its adornment stays 'f' there).
//
// Between those, positive literals go in textual order.
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

// Builds the left-to-right sip for `rule` under `head_adornment` (one char
// per head argument; 'f' is forced at the grouped position). A rule the
// range restriction rejects may have literals that never become ready;
// they end the order in textual order.
Sip BuildLeftToRightSip(const Catalog& catalog, const RuleIr& rule,
                        const std::string& head_adornment);

}  // namespace ldl

#endif  // LDL1_REWRITE_SIP_H_
