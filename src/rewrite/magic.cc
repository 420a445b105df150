#include "rewrite/magic.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
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

// Leaves out of a magic rule's `body` every built-in that binds
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

// True when the magic-rule `body` keeps a set built-in that enumerates: a
// partition or member that binds a variable, yielding one solution per split
// or element. Such a prefix is worth storing once: the rules that re-ran it
// would re-split or re-scan every set for each new fact they join.
bool Enumerates(const std::vector<LiteralIr>& body) {
  std::vector<Symbol> bound;
  for (const LiteralIr& literal : body) {
    if (literal.is_builtin() && (literal.builtin == BuiltinKind::kMember ||
                                 literal.builtin == BuiltinKind::kPartition)) {
      std::vector<Symbol> vars;
      BindLiteralVars(literal, &vars);
      for (Symbol var : vars) {
        if (std::find(bound.begin(), bound.end(), var) == bound.end()) {
          return true;
        }
      }
    }
    BindLiteralVars(literal, &bound);
  }
  return false;
}

// Appends the distinct variables of `t` to `out` as the Term pointers found
// in it, in CollectVars' first-occurrence order.
void CollectVarTerms(const Term* t, std::vector<const Term*>* out) {
  if (t->ground()) return;
  if (t->is_var()) {
    if (std::none_of(out->begin(), out->end(), [&](const Term* var) {
          return var->symbol() == t->symbol();
        })) {
      out->push_back(t);
    }
    return;
  }
  for (const Term* arg : t->args()) CollectVarTerms(arg, out);
}

// Emits the magic rules and the modified rule of adorned rules into a shape.
class RuleEmitter {
 public:
  RuleEmitter(const AdornedProgram& adorned, Catalog* catalog,
              MagicShape* shape, bool supplementary)
      : adorned_(adorned),
        catalog_(catalog),
        shape_(shape),
        supplementary_(supplementary) {}

  // The magic predicate m_<adorned_pred>, created on first use.
  PredId MagicPred(PredId adorned_pred) {
    auto it = shape_->magic_of.find(adorned_pred);
    if (it != shape_->magic_of.end()) return it->second;
    const std::string& adornment = adorned_.adorned.at(adorned_pred).adornment;
    PredId id = catalog_->GetOrCreate(
        StrCat("m_", Name(adorned_pred)),
        static_cast<uint32_t>(
            std::count(adornment.begin(), adornment.end(), 'b')));
    catalog_->mutable_info(id).has_rules = true;
    shape_->magic_of.emplace(adorned_pred, id);
    shape_->rules.magic_preds.push_back(id);
    return id;
  }

  // Walks `rule`'s sip `order` keeping the prefix: the literals that the
  // next magic rule or the modified rule reads, starting from the head's
  // magic literal. Each adorned body literal gets a magic rule reading the
  // prefix's non-negated literals, less the built-ins whose bindings nothing
  // reads (DropUnreadBuiltins). Where that body still Enumerates, the
  // prefix is first materialized as
  //   sup$<head>$<ordinal>$<k>(live vars) :- prefix.
  // and the magic rule, like the rest of the walk, reads that sup literal
  // instead, so no magic rule re-runs an enumerator. The supplementary
  // variant also materializes the head's magic literal itself (step 0,
  // k = 0) and the prefix after every positive relational literal (a chain
  // boundary) with literals left; k counts a rule's materializations from
  // 0 there and from 1 in plain magic. A magic rule left copying the head's
  // magic set onto itself -- m_p(X) :- m_p(X), or the same through step 0,
  // as a left-recursive literal bound on the head's bound arguments gives --
  // derives nothing and is not emitted. With nothing materialized the
  // modified rule is `rule` in textual order with the magic literal in
  // front; otherwise it reads the last sup literal and the literals after
  // it.
  void EmitRule(const RuleIr& rule, const std::vector<int>& order,
                size_t ordinal) {
    LiteralIr guard;
    guard.pred = MagicPred(rule.head_pred);
    guard.args = BoundArgs(rule.head_args,
                           adorned_.adorned.at(rule.head_pred).adornment);
    std::vector<LiteralIr> prefix = {guard};
    std::vector<const Term*> bound;
    for (const Term* arg : guard.args) CollectVarTerms(arg, &bound);
    size_t step = supplementary_ ? 0 : 1;
    bool materialized = false;
    // Stores the prefix over the variables that the head or the literals
    // from order[next] on read.
    auto materialize = [&](size_t next) {
      LiteralIr sup;
      for (const Term* var : bound) {
        auto reads = [&](const Term* arg) {
          return OccursIn(arg, var->symbol());
        };
        bool live =
            std::any_of(rule.head_args.begin(), rule.head_args.end(), reads);
        for (size_t j = next; j < order.size() && !live; ++j) {
          const std::vector<const Term*>& args = rule.body[order[j]].args;
          live = std::any_of(args.begin(), args.end(), reads);
        }
        if (live) sup.args.push_back(var);
      }
      sup.pred = catalog_->GetOrCreate(
          StrCat("sup$", Name(rule.head_pred), "$", ordinal, "$", step++),
          static_cast<uint32_t>(sup.args.size()));
      catalog_->mutable_info(sup.pred).has_rules = true;
      RuleIr sup_rule;
      sup_rule.head_pred = sup.pred;
      sup_rule.head_args = sup.args;
      sup_rule.source_index = rule.source_index;
      sup_rule.body = std::move(prefix);
      shape_->rules.rules.push_back(std::move(sup_rule));
      prefix = {std::move(sup)};
      materialized = true;
    };
    if (supplementary_ && !rule.body.empty()) materialize(0);
    const PredId start = prefix[0].pred;

    for (size_t i = 0; i < order.size(); ++i) {
      const LiteralIr& literal = rule.body[order[i]];
      if (!literal.is_builtin() && adorned_.IsAdorned(literal.pred)) {
        RuleIr magic_rule;
        magic_rule.head_pred = MagicPred(literal.pred);
        magic_rule.head_args = BoundArgs(
            literal.args, adorned_.adorned.at(literal.pred).adornment);
        magic_rule.source_index = rule.source_index;
        for (const LiteralIr& read : prefix) {
          if (!read.negated) magic_rule.body.push_back(read);
        }
        DropUnreadBuiltins(magic_rule.head_args, &magic_rule.body);
        if (Enumerates(magic_rule.body)) {
          materialize(i);
          magic_rule.body = prefix;
        }
        if (magic_rule.body.size() != 1 || magic_rule.body[0].pred != start ||
            magic_rule.head_pred != guard.pred ||
            magic_rule.head_args != guard.args) {
          shape_->rules.rules.push_back(std::move(magic_rule));
        }
      }
      prefix.push_back(literal);
      if (literal.negated) continue;
      for (const Term* arg : literal.args) CollectVarTerms(arg, &bound);
      if (supplementary_ && !literal.is_builtin() && i + 1 < order.size()) {
        materialize(i + 1);
      }
    }

    RuleIr modified = rule;
    if (materialized) {
      modified.body = std::move(prefix);
    } else {
      modified.body.insert(modified.body.begin(), std::move(guard));
    }
    shape_->rules.rules.push_back(std::move(modified));
  }

 private:
  std::string_view Name(PredId pred) const {
    return catalog_->interner()->Lookup(catalog_->info(pred).name);
  }

  const AdornedProgram& adorned_;
  Catalog* catalog_;
  MagicShape* shape_;
  const bool supplementary_;
};

}  // namespace

StatusOr<MagicShape> MagicRewriteShape(const ProgramIr& program,
                                       Catalog* catalog, const LiteralIr& goal,
                                       const MagicOptions& options) {
  LDL_ASSIGN_OR_RETURN(AdornedProgram adorned, AdornProgram(program, catalog, goal));

  MagicShape result;
  result.answer_pred = adorned.query_pred;
  result.adornment = adorned.query_adornment;
  RuleEmitter emitter(adorned, catalog, &result, options.supplementary);

  // Per adorned head: how many of its rules have been rewritten so far.
  // Numbering the supplementary chains by this ordinal keeps their names a
  // function of the adorned program alone.
  std::unordered_map<PredId, size_t> rules_per_head;
  for (size_t r = 0; r < adorned.rules.rules.size(); ++r) {
    const RuleIr& rule = adorned.rules.rules[r];
    emitter.EmitRule(rule, adorned.sip_orders[r],
                     rules_per_head[rule.head_pred]++);
  }

  // The query's magic predicate, which the seed fact populates.
  emitter.MagicPred(adorned.query_pred);

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
