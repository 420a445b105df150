#include "rewrite/magic.h"

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_map>

#include "base/str_util.h"
#include "program/wellformed.h"
#include "term/term_ops.h"

namespace ldl {

namespace {

// Bound argument patterns of a literal/head under an adornment.
std::vector<const Term*> BoundArgs(const std::vector<const Term*>& args,
                                   const std::string& adornment) {
  std::vector<const Term*> result;
  for (size_t i = 0; i < args.size() && i < adornment.size(); ++i) {
    if (adornment[i] == 'b') result.push_back(args[i]);
  }
  return result;
}

// Leaves out of a plain magic rule's `body` every built-in that binds
// variables only to leave them unread by the head and by the literals kept
// after it: such a built-in multiplies the rule's solutions (a member/2
// enumerating a set the callee never sees) without restricting its head.
// Filters, which bind nothing, stay.
void DropUnreadBuiltins(const std::vector<const Term*>& head_args,
                        std::vector<LiteralIr>* body) {
  std::vector<std::vector<Symbol>> binds(body->size());
  std::vector<Symbol> bound;
  for (size_t k = 0; k < body->size(); ++k) {
    std::vector<Symbol> vars;
    BindLiteralVars((*body)[k], &vars);
    for (Symbol var : vars) {
      if (std::find(bound.begin(), bound.end(), var) != bound.end()) continue;
      bound.push_back(var);
      binds[k].push_back(var);
    }
  }
  std::vector<Symbol> read;
  for (const Term* arg : head_args) CollectVars(arg, &read);
  std::vector<bool> keep(body->size(), true);
  for (size_t k = body->size(); k-- > 0;) {
    const LiteralIr& literal = (*body)[k];
    keep[k] = !literal.is_builtin() || binds[k].empty() ||
              std::any_of(binds[k].begin(), binds[k].end(), [&](Symbol var) {
                return std::find(read.begin(), read.end(), var) != read.end();
              });
    if (keep[k]) BindLiteralVars(literal, &read);
  }
  std::vector<LiteralIr> kept;
  for (size_t k = 0; k < body->size(); ++k) {
    if (keep[k]) kept.push_back(std::move((*body)[k]));
  }
  *body = std::move(kept);
}

// Appends the magic rule `rule` to `rules`, less the built-ins nothing
// reads (DropUnreadBuiltins). A rule left as m_p(X) :- m_p(X) -- the head's
// own magic fact demanding itself, as a left-recursive literal bound on the
// head's bound arguments does -- derives nothing and is not emitted.
void AddMagicRule(RuleIr rule, ProgramIr* rules) {
  DropUnreadBuiltins(rule.head_args, &rule.body);
  if (rule.body.size() == 1 && rule.body[0].pred == rule.head_pred &&
      rule.body[0].args == rule.head_args) {
    return;
  }
  rules->rules.push_back(std::move(rule));
}

// Builds the supplementary-magic rewriting for one adorned rule with a
// non-empty body, following its sip order: chain step k holds the literals
// up to and including the k-th positive relational literal of the order
// (a trailing run of built-ins and negations is a step of its own).
// `sup_prefix` names the rule's supplementary chain; step k's predicate is
// "<sup_prefix>$<k>".
void EmitSupplementary(const RuleIr& rule, const std::vector<int>& order,
                       const std::string& sup_prefix, PredId head_magic,
                       const std::vector<const Term*>& head_bound,
                       const AdornedProgram& adorned, Catalog* catalog,
                       const std::function<PredId(PredId)>& magic_pred,
                       MagicShape* result) {
  std::vector<std::vector<int>> steps(1);
  for (int index : order) {
    steps.back().push_back(index);
    const LiteralIr& literal = rule.body[index];
    if (!literal.is_builtin() && !literal.negated) steps.emplace_back();
  }
  if (steps.back().empty()) steps.pop_back();

  auto used_later = [&](size_t from_step, Symbol var) {
    for (const Term* arg : rule.head_args) {
      if (OccursIn(arg, var)) return true;
    }
    for (size_t k = from_step; k < steps.size(); ++k) {
      for (int index : steps[k]) {
        for (const Term* arg : rule.body[index].args) {
          if (OccursIn(arg, var)) return true;
        }
      }
    }
    return false;
  };

  size_t sup_steps = 0;
  auto make_sup = [&](const std::vector<Symbol>& vars) {
    PredId pred = catalog->GetOrCreate(StrCat(sup_prefix, "$", sup_steps++),
                                       static_cast<uint32_t>(vars.size()));
    catalog->mutable_info(pred).has_rules = true;
    return pred;
  };
  // sup heads reuse the variable Term pointers found in the rule (every
  // bound var symbol occurs somewhere in the head or body).
  std::unordered_map<Symbol, const Term*> var_terms;
  {
    std::function<void(const Term*)> scan = [&](const Term* t) {
      if (t->is_var()) {
        var_terms.emplace(t->symbol(), t);
        return;
      }
      for (const Term* arg : t->args()) scan(arg);
    };
    for (const Term* arg : rule.head_args) scan(arg);
    for (const LiteralIr& literal : rule.body) {
      for (const Term* arg : literal.args) scan(arg);
    }
  }
  auto vars_to_terms = [&](const std::vector<Symbol>& vars) {
    std::vector<const Term*> terms;
    for (Symbol var : vars) terms.push_back(var_terms.at(var));
    return terms;
  };

  // The variables of `vars` still needed from chain step `from_step` on.
  auto live = [&](size_t from_step, std::vector<Symbol> vars) {
    std::erase_if(vars, [&](Symbol var) { return !used_later(from_step, var); });
    return vars;
  };

  // V_0: bound head variables still needed later.
  std::vector<Symbol> head_bound_vars;
  for (const Term* arg : head_bound) CollectVars(arg, &head_bound_vars);
  std::vector<Symbol> v_prev = live(0, head_bound_vars);
  PredId sup_prev = make_sup(v_prev);
  // The literal reading the previous chain step.
  auto sup_literal = [&] {
    LiteralIr literal;
    literal.pred = sup_prev;
    literal.args = vars_to_terms(v_prev);
    return literal;
  };
  {
    RuleIr sup0;
    sup0.head_pred = sup_prev;
    sup0.head_args = vars_to_terms(v_prev);
    sup0.source_index = rule.source_index;
    LiteralIr guard;
    guard.pred = head_magic;
    guard.args = head_bound;
    sup0.body.push_back(std::move(guard));
    result->rules.rules.push_back(std::move(sup0));
  }

  std::vector<Symbol> bound_so_far = head_bound_vars;
  for (size_t k = 0; k < steps.size(); ++k) {
    // Magic rules for adorned literals in this step read sup_{k-1} plus any
    // same-step literals scheduled before them (deferred built-ins may bind
    // the adorned literal's arguments within the step).
    for (size_t t = 0; t < steps[k].size(); ++t) {
      const LiteralIr& literal = rule.body[steps[k][t]];
      if (literal.is_builtin() || !adorned.IsAdorned(literal.pred)) continue;
      const AdornedInfo& callee_info = adorned.adorned.at(literal.pred);
      RuleIr magic_rule;
      magic_rule.head_pred = magic_pred(literal.pred);
      magic_rule.head_args = BoundArgs(literal.args, callee_info.adornment);
      magic_rule.source_index = rule.source_index;
      magic_rule.body.push_back(sup_literal());
      for (size_t u = 0; u < t; ++u) {
        const LiteralIr& earlier = rule.body[steps[k][u]];
        if (!earlier.negated) magic_rule.body.push_back(earlier);
      }
      AddMagicRule(std::move(magic_rule), &result->rules);
    }

    // Advance the bound set with this step's positive literals.
    for (int index : steps[k]) {
      const LiteralIr& literal = rule.body[index];
      if (literal.negated) continue;
      for (const Term* arg : literal.args) CollectVars(arg, &bound_so_far);
    }

    if (k + 1 == steps.size()) {
      // Final step feeds the modified rule directly.
      RuleIr modified;
      modified.head_pred = rule.head_pred;
      modified.head_args = rule.head_args;
      modified.group_index = rule.group_index;
      modified.group_var = rule.group_var;
      modified.source_index = rule.source_index;
      modified.body.push_back(sup_literal());
      for (int index : steps[k]) modified.body.push_back(rule.body[index]);
      result->rules.rules.push_back(std::move(modified));
      return;
    }

    // Live set after this step.
    std::vector<Symbol> v_next = live(k + 1, bound_so_far);
    RuleIr sup_rule;
    PredId sup_next = make_sup(v_next);
    sup_rule.head_pred = sup_next;
    sup_rule.head_args = vars_to_terms(v_next);
    sup_rule.source_index = rule.source_index;
    sup_rule.body.push_back(sup_literal());
    for (int index : steps[k]) sup_rule.body.push_back(rule.body[index]);
    result->rules.rules.push_back(std::move(sup_rule));
    sup_prev = sup_next;
    v_prev = std::move(v_next);
  }
}

}  // namespace

StatusOr<MagicShape> MagicRewriteShape(const ProgramIr& program,
                                       Catalog* catalog, const LiteralIr& goal,
                                       const MagicOptions& options) {
  LDL_ASSIGN_OR_RETURN(AdornedProgram adorned, AdornProgram(program, catalog, goal));

  MagicShape result;
  result.answer_pred = adorned.query_pred;
  result.adornment = adorned.query_adornment;

  // Create magic predicates.
  auto magic_pred = [&](PredId adorned_pred) -> PredId {
    auto it = result.magic_of.find(adorned_pred);
    if (it != result.magic_of.end()) return it->second;
    const AdornedInfo& info = adorned.adorned.at(adorned_pred);
    size_t bound_count = static_cast<size_t>(
        std::count(info.adornment.begin(), info.adornment.end(), 'b'));
    PredId id = catalog->GetOrCreate(
        StrCat("m_", catalog->interner()->Lookup(catalog->info(adorned_pred).name)),
        static_cast<uint32_t>(bound_count));
    catalog->mutable_info(id).has_rules = true;
    result.magic_of.emplace(adorned_pred, id);
    result.rules.magic_preds.push_back(id);
    return id;
  };

  // Per adorned head: how many of its rules have been rewritten so far.
  // Numbering the supplementary chains by this ordinal keeps their names a
  // function of the adorned program alone.
  std::unordered_map<PredId, size_t> rules_per_head;
  for (size_t r = 0; r < adorned.rules.rules.size(); ++r) {
    const RuleIr& rule = adorned.rules.rules[r];
    const std::vector<int>& order = adorned.sip_orders[r];
    const AdornedInfo& head_info = adorned.adorned.at(rule.head_pred);
    PredId head_magic = magic_pred(rule.head_pred);
    std::vector<const Term*> head_bound =
        BoundArgs(rule.head_args, head_info.adornment);
    const size_t ordinal = rules_per_head[rule.head_pred]++;

    if (options.supplementary && !rule.body.empty()) {
      EmitSupplementary(
          rule, order,
          StrCat("sup$",
                 catalog->interner()->Lookup(catalog->info(rule.head_pred).name),
                 "$", ordinal),
          head_magic, head_bound, adorned, catalog, magic_pred, &result);
      continue;
    }

    // Magic rules for adorned body literals, one per occurrence: the head's
    // magic predicate and the non-negated literals before it in the sip
    // order, less the built-ins whose bindings nothing reads.
    LiteralIr head_magic_lit;
    head_magic_lit.pred = head_magic;
    head_magic_lit.args = head_bound;
    std::vector<LiteralIr> prefix = {head_magic_lit};
    for (int j : order) {
      const LiteralIr& literal = rule.body[j];
      if (!literal.is_builtin() && adorned.IsAdorned(literal.pred)) {
        const AdornedInfo& callee_info = adorned.adorned.at(literal.pred);
        RuleIr magic_rule;
        magic_rule.head_pred = magic_pred(literal.pred);
        magic_rule.head_args = BoundArgs(literal.args, callee_info.adornment);
        magic_rule.source_index = rule.source_index;
        magic_rule.body = prefix;
        AddMagicRule(std::move(magic_rule), &result.rules);
      }
      if (!literal.negated) prefix.push_back(literal);
    }

    // Modified rule: magic guard in front.
    RuleIr modified = rule;
    modified.body.insert(modified.body.begin(), std::move(head_magic_lit));
    result.rules.rules.push_back(std::move(modified));
  }

  // The query's magic predicate, which the seed fact populates.
  magic_pred(adorned.query_pred);

  // EDB predicates referenced by the rewritten program.
  std::vector<bool> seen(catalog->size(), false);
  for (const RuleIr& rule : result.rules.rules) {
    for (const LiteralIr& literal : rule.body) {
      if (literal.is_builtin()) continue;
      if (!catalog->info(literal.pred).has_rules && !seen[literal.pred]) {
        seen[literal.pred] = true;
        result.edb_preds.push_back(literal.pred);
      }
    }
  }
  return result;
}

RuleIr MagicSeed(const MagicShape& shape, const LiteralIr& goal) {
  RuleIr seed;
  seed.head_pred = shape.magic_of.at(shape.answer_pred);
  seed.head_args = BoundArgs(goal.args, shape.adornment);
  return seed;
}

StatusOr<MagicProgram> MagicRewrite(const ProgramIr& program, Catalog* catalog,
                                    const LiteralIr& goal,
                                    const MagicOptions& options) {
  LDL_ASSIGN_OR_RETURN(MagicShape shape,
                       MagicRewriteShape(program, catalog, goal, options));
  MagicProgram result;
  RuleIr seed = MagicSeed(shape, goal);
  result.rules = std::move(shape.rules);
  result.rules.rules.push_back(std::move(seed));
  result.answer_pred = shape.answer_pred;
  result.edb_preds = std::move(shape.edb_preds);
  result.magic_of = std::move(shape.magic_of);
  return result;
}

}  // namespace ldl
