#include "rewrite/adorn.h"

#include <algorithm>
#include <deque>

#include "base/str_util.h"
#include "rewrite/sip.h"

namespace ldl {

namespace {

std::string AdornedName(const Catalog& catalog, PredId pred,
                        const std::string& adornment) {
  return StrCat(catalog.interner()->Lookup(catalog.info(pred).name), "__",
                adornment);
}

}  // namespace

std::string QueryAdornment(const Catalog& catalog, const LiteralIr& goal) {
  const PredicateInfo& info = catalog.info(goal.pred);
  std::string adornment;
  for (size_t i = 0; i < goal.args.size(); ++i) {
    bool grouped = i < info.grouped_args.size() && info.grouped_args[i];
    adornment.push_back(!grouped && goal.args[i]->ground() ? 'b' : 'f');
  }
  return adornment;
}

StatusOr<AdornedProgram> AdornProgram(const ProgramIr& program, Catalog* catalog,
                                      const LiteralIr& goal) {
  if (goal.is_builtin() || goal.negated) {
    return InvalidArgumentError("magic rewriting needs a positive relational goal");
  }
  if (!catalog->info(goal.pred).has_rules) {
    return InvalidArgumentError(
        StrCat("goal predicate ", catalog->DebugName(goal.pred),
               " is extensional; magic rewriting does not apply"));
  }

  // Rules indexed by head predicate.
  std::unordered_map<PredId, std::vector<const RuleIr*>> rules_by_head;
  for (const RuleIr& rule : program.rules) {
    rules_by_head[rule.head_pred].push_back(&rule);
  }

  AdornedProgram result;
  result.query_adornment = QueryAdornment(*catalog, goal);

  // (pred, adornment) -> adorned pred id.
  std::unordered_map<std::string, PredId> adorned_ids;
  std::deque<std::pair<PredId, std::string>> worklist;

  auto get_adorned = [&](PredId pred, const std::string& adornment) -> PredId {
    std::string key = StrCat(pred, "/", adornment);
    auto it = adorned_ids.find(key);
    if (it != adorned_ids.end()) return it->second;
    PredId id = catalog->GetOrCreate(AdornedName(*catalog, pred, adornment),
                                     catalog->info(pred).arity);
    PredicateInfo& info = catalog->mutable_info(id);
    info.has_rules = true;
    info.grouped_args = catalog->info(pred).grouped_args;
    adorned_ids.emplace(std::move(key), id);
    result.adorned.emplace(id, AdornedInfo{pred, adornment});
    worklist.emplace_back(pred, adornment);
    return id;
  };

  result.query_pred = get_adorned(goal.pred, result.query_adornment);

  while (!worklist.empty()) {
    auto [pred, adornment] = std::move(worklist.front());
    worklist.pop_front();
    PredId adorned_head = adorned_ids.at(StrCat(pred, "/", adornment));

    for (const RuleIr* rule : rules_by_head[pred]) {
      RuleIr adorned_rule = *rule;
      adorned_rule.head_pred = adorned_head;
      Sip sip = BuildSip(*catalog, *rule, adornment);
      for (size_t j = 0; j < adorned_rule.body.size(); ++j) {
        LiteralIr& literal = adorned_rule.body[j];
        if (literal.is_builtin()) continue;
        if (!catalog->info(literal.pred).has_rules) continue;  // EDB stays
        literal.pred = get_adorned(literal.pred, sip.literal_adornments[j]);
      }
      result.rules.rules.push_back(std::move(adorned_rule));
      result.sip_orders.push_back(std::move(sip.order));
    }
  }
  return result;
}

}  // namespace ldl
