// Predicate adornment (paper §6, following [BR87]).
//
// Starting from the query's binding pattern, every reachable IDB predicate
// is specialized per adornment: p with adornment "bf" becomes a new
// predicate p__bf whose defining rules are the original rules with body
// predicates adorned according to the rule's sip. Grouped argument
// positions are always adorned 'f' (§6, footnote 6).
#ifndef LDL1_REWRITE_ADORN_H_
#define LDL1_REWRITE_ADORN_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "program/ir.h"
#include "term/term.h"

namespace ldl {

struct AdornedInfo {
  PredId original = kInvalidPred;
  std::string adornment;
};

struct AdornedProgram {
  ProgramIr rules;
  // Per rule of `rules`: the body order of the sip it was adorned under
  // (Sip::order). The magic rewriting follows it.
  std::vector<std::vector<int>> sip_orders;
  // The adorned predicate answering the query.
  PredId query_pred = kInvalidPred;
  std::string query_adornment;
  // Adorned predicate -> (original predicate, adornment).
  std::unordered_map<PredId, AdornedInfo> adorned;

  bool IsAdorned(PredId pred) const { return adorned.count(pred) > 0; }
};

// Computes the adornment of the query goal: argument i is 'b' iff it is
// ground and not a grouped position of the goal predicate.
std::string QueryAdornment(const Catalog& catalog, const LiteralIr& goal);

// Adorns the program for `goal`. The goal predicate must be intensional
// (have rules); EDB-only goals need no magic. New adorned predicates are
// registered in the catalog as "<name>__<adornment>".
StatusOr<AdornedProgram> AdornProgram(const ProgramIr& program, Catalog* catalog,
                                      const LiteralIr& goal);

}  // namespace ldl

#endif  // LDL1_REWRITE_ADORN_H_
