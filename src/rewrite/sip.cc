#include "rewrite/sip.h"

#include <algorithm>

#include "program/wellformed.h"
#include "term/term_ops.h"

namespace ldl {

namespace {

// The adornment of one literal given the currently bound variables:
// position i is 'b' iff the argument is fully bound and not a grouped
// argument position of the callee.
std::string AdornLiteral(const Catalog& catalog, const LiteralIr& literal,
                         const std::vector<Symbol>& bound_vars) {
  const PredicateInfo& info = catalog.info(literal.pred);
  std::string adornment;
  adornment.reserve(literal.args.size());
  for (size_t i = 0; i < literal.args.size(); ++i) {
    // §6 footnote 6: a grouped argument position never receives bindings.
    bool grouped = i < info.grouped_args.size() && info.grouped_args[i];
    bool bound = !grouped && TermVarsBound(literal.args[i], bound_vars);
    adornment.push_back(bound ? 'b' : 'f');
  }
  return adornment;
}

}  // namespace

Sip BuildSip(const Catalog& catalog, const RuleIr& rule,
             const std::string& head_adornment) {
  Sip sip;
  sip.literal_adornments.resize(rule.body.size());

  // Bound head variables: the 'b' positions, never the grouped one.
  std::vector<Symbol> bound;
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    if (i < head_adornment.size() && head_adornment[i] == 'b' &&
        static_cast<int>(i) != rule.group_index) {
      CollectVars(rule.head_args[i], &bound);
    }
  }

  sip.order = ScheduleBody(rule, bound);
  for (size_t j = 0; j < rule.body.size(); ++j) {
    if (std::find(sip.order.begin(), sip.order.end(), static_cast<int>(j)) ==
        sip.order.end()) {
      sip.order.push_back(static_cast<int>(j));
    }
  }

  for (int j : sip.order) {
    const LiteralIr& literal = rule.body[j];
    if (!literal.is_builtin()) {
      sip.literal_adornments[j] = AdornLiteral(catalog, literal, bound);
    }
    if (!literal.negated) BindLiteralVars(literal, &bound);
  }
  return sip;
}

}  // namespace ldl
