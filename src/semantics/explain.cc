#include "semantics/explain.h"

#include <set>
#include <unordered_set>

#include "base/str_util.h"
#include "eval/bindings.h"
#include "eval/grouping.h"
#include "eval/rule_eval.h"
#include "term/unify.h"

namespace ldl {

namespace {

constexpr size_t kMaxGroupPremises = 8;

// Visits every body solution of `evaluator` over `db` one row at a time, in
// enumeration order, until `visit` returns false.
template <typename Visit>
Status VisitSolutions(RuleEvaluator& evaluator, const Database& db,
                      Visit&& visit) {
  EvalStats stats;
  return evaluator.ForEachBlock(
      db, {},
      [&](const TupleBlock& block) {
        for (uint32_t idx : block.sel()) {
          if (!visit(SolutionView(&evaluator.plan(),
                                  {block.row(idx), block.width()}))) {
            return false;
          }
        }
        return true;
      },
      &stats);
}

class Explainer {
 public:
  Explainer(TermFactory& factory, const Catalog& catalog, const ProgramIr& program,
            const Database& model, const ExplainOptions& options)
      : factory_(factory),
        catalog_(catalog),
        program_(program),
        model_(model),
        options_(options) {}

  StatusOr<std::unique_ptr<Derivation>> Run(PredId pred, const Tuple& fact) {
    return ExplainFact(pred, fact, 0);
  }

 private:
  using PathKey = std::pair<PredId, Tuple>;
  struct PathKeyHash {
    size_t operator()(const PathKey& key) const {
      return TupleHash()(key.second) * 1000003 + key.first;
    }
  };

  StatusOr<std::unique_ptr<Derivation>> ExplainFact(PredId pred, const Tuple& fact,
                                                    size_t depth) {
    if (!model_.relation(pred).Contains(fact)) {
      return NotFoundError(StrCat(FormatFact(factory_, catalog_, pred, fact),
                                  " is not in the model"));
    }
    auto node = std::make_unique<Derivation>();
    node->pred = pred;
    node->fact = fact;

    if (!catalog_.info(pred).has_rules) return node;  // EDB leaf

    if (depth >= options_.max_depth) {
      node->notes.push_back("... (max depth reached)");
      return node;
    }
    PathKey key{pred, fact};
    if (!path_.insert(key).second) {
      node->notes.push_back("... (already being derived above)");
      return node;
    }

    Status status = WitnessRules(pred, fact, depth, node.get());
    path_.erase(key);
    if (!status.ok()) return status;
    if (node->rule_index < 0 && node->notes.empty()) {
      // In the model, intensional, but no witnessing rule: it must have been
      // loaded as a fact of an intensional predicate.
      node->notes.push_back("asserted as a fact");
    }
    return node;
  }

  // Tries each rule for `pred`; fills in the first witness found.
  Status WitnessRules(PredId pred, const Tuple& fact, size_t depth,
                      Derivation* node) {
    for (size_t r = 0; r < program_.rules.size(); ++r) {
      const RuleIr& rule = program_.rules[r];
      if (rule.head_pred != pred) continue;
      if (rule.is_fact()) {
        InstantiationResult inst =
            InstantiateArgs(factory_, rule.head_args, Subst());
        if (!inst.unbound && !inst.outside_universe && inst.tuple == fact) {
          node->rule_index = static_cast<int>(r);
          return Status::OK();
        }
        continue;
      }
      StatusOr<bool> witnessed =
          rule.is_grouping() ? WitnessGroupingRule(rule, r, fact, depth, node)
                             : WitnessPlainRule(rule, r, fact, depth, node);
      LDL_RETURN_IF_ERROR(witnessed.status());
      if (*witnessed) return Status::OK();
    }
    return Status::OK();
  }

  StatusOr<bool> WitnessPlainRule(const RuleIr& rule, size_t rule_index,
                                  const Tuple& fact, size_t depth,
                                  Derivation* node) {
    LDL_ASSIGN_OR_RETURN(std::vector<int> order, OrderBodyLiterals(catalog_, rule));
    RuleEvaluator evaluator(&factory_, &rule, order);
    // Capture the first body solution whose instantiated head equals `fact`.
    Subst subst;
    bool found = false;
    LDL_RETURN_IF_ERROR(
        VisitSolutions(evaluator, model_, [&](const SolutionView& view) {
          InstantiationResult inst = evaluator.InstantiateHead(view);
          if (inst.unbound || inst.outside_universe || inst.tuple != fact) {
            return true;
          }
          view.AppendBindings(&subst);
          found = true;
          return false;
        }));
    if (!found) return false;

    node->rule_index = static_cast<int>(rule_index);
    for (const LiteralIr& literal : rule.body) {
      LDL_RETURN_IF_ERROR(AttachPremise(literal, subst, depth, node));
    }
    return true;
  }

  StatusOr<bool> WitnessGroupingRule(const RuleIr& rule, size_t rule_index,
                                     const Tuple& fact, size_t depth,
                                     Derivation* node) {
    LDL_ASSIGN_OR_RETURN(std::vector<int> order, OrderBodyLiterals(catalog_, rule));
    RuleEvaluator evaluator(&factory_, &rule, order);
    EvalStats stats;
    LDL_ASSIGN_OR_RETURN(std::vector<GroupResult> groups,
                         ComputeGroups(factory_, evaluator, model_, &stats));
    for (const GroupResult& group : groups) {
      if (group.fact != fact) continue;
      node->rule_index = static_cast<int>(rule_index);
      const Term* grouped_set = fact[rule.group_index];
      node->notes.push_back(StrCat("grouped ", grouped_set->size(),
                                   " element(s) into ",
                                   factory_.ToString(grouped_set)));
      // Premises: the body solutions contributing to this partition,
      // capped for readability.
      std::set<std::pair<PredId, Tuple>> seen;
      size_t skipped = 0;
      Status inner;
      Status status = VisitSolutions(
          evaluator, model_, [&](const SolutionView& view) {
            Subst subst;
            view.AppendBindings(&subst);
            InstantiationResult inst =
                InstantiateArgs(factory_, rule.head_args, subst);
            // Same partition iff the non-grouped head values agree.
            if (inst.unbound || inst.outside_universe) return true;
            bool same = true;
            for (size_t i = 0; i < fact.size(); ++i) {
              if (static_cast<int>(i) == rule.group_index) continue;
              if (inst.tuple[i] != fact[i]) same = false;
            }
            if (!same) return true;
            for (const LiteralIr& literal : rule.body) {
              if (literal.is_builtin() || literal.negated) continue;
              InstantiationResult args =
                  InstantiateArgs(factory_, literal.args, subst);
              if (args.unbound || args.outside_universe) continue;
              if (!seen.insert({literal.pred, args.tuple}).second) continue;
              if (seen.size() > kMaxGroupPremises) {
                ++skipped;
                continue;
              }
              Status attach = AttachFactPremise(literal.pred, args.tuple,
                                                depth, node);
              if (!attach.ok()) {
                inner = attach;
                return false;
              }
            }
            return true;
          });
      LDL_RETURN_IF_ERROR(status);
      LDL_RETURN_IF_ERROR(inner);
      if (skipped > 0) {
        node->notes.push_back(StrCat("... and ", skipped, " more supporting facts"));
      }
      return true;
    }
    return false;
  }

  Status AttachPremise(const LiteralIr& literal, const Subst& subst, size_t depth,
                       Derivation* node) {
    if (literal.is_builtin()) {
      InstantiationResult inst = InstantiateArgs(factory_, literal.args, subst);
      if (!inst.unbound && !inst.outside_universe) {
        std::string text(BuiltinName(literal.builtin));
        StrAppend(text, FormatTuple(factory_, inst.tuple),
                  literal.negated ? " fails" : " holds");
        node->notes.push_back(std::move(text));
      }
      return Status::OK();
    }
    InstantiationResult inst = InstantiateArgs(factory_, literal.args, subst);
    if (literal.negated) {
      std::string rendered =
          inst.unbound
              ? StrCat("no matching ", catalog_.DebugName(literal.pred), " fact")
              : StrCat("not ",
                       FormatFact(factory_, catalog_, literal.pred, inst.tuple));
      node->notes.push_back(std::move(rendered));
      return Status::OK();
    }
    if (inst.unbound || inst.outside_universe) {
      return InternalError("unbound positive premise during explanation");
    }
    return AttachFactPremise(literal.pred, inst.tuple, depth, node);
  }

  Status AttachFactPremise(PredId pred, const Tuple& fact, size_t depth,
                           Derivation* node) {
    LDL_ASSIGN_OR_RETURN(std::unique_ptr<Derivation> premise,
                         ExplainFact(pred, fact, depth + 1));
    node->premises.push_back(std::move(premise));
    return Status::OK();
  }

  TermFactory& factory_;
  const Catalog& catalog_;
  const ProgramIr& program_;
  const Database& model_;
  const ExplainOptions& options_;
  std::unordered_set<PathKey, PathKeyHash> path_;
};

void FormatNode(const TermFactory& factory, const Catalog& catalog,
                const Derivation& node, size_t indent, std::string* out) {
  StrAppend(*out, std::string(indent * 2, ' '),
            FormatFact(factory, catalog, node.pred, node.fact));
  if (node.rule_index >= 0) {
    StrAppend(*out, "   [rule ", node.rule_index + 1, "]");
  } else if (!catalog.info(node.pred).has_rules) {
    StrAppend(*out, "   [edb]");
  }
  StrAppend(*out, '\n');
  for (const std::string& note : node.notes) {
    StrAppend(*out, std::string(indent * 2 + 2, ' '), "(", note, ")\n");
  }
  for (const auto& premise : node.premises) {
    FormatNode(factory, catalog, *premise, indent + 1, out);
  }
}

}  // namespace

StatusOr<std::unique_ptr<Derivation>> Explain(TermFactory& factory,
                                              const Catalog& catalog,
                                              const ProgramIr& program,
                                              const Database& model, PredId pred,
                                              const Tuple& fact,
                                              const ExplainOptions& options) {
  Explainer explainer(factory, catalog, program, model, options);
  return explainer.Run(pred, fact);
}

std::string FormatDerivation(const TermFactory& factory, const Catalog& catalog,
                             const Derivation& derivation) {
  std::string out;
  FormatNode(factory, catalog, derivation, 0, &out);
  return out;
}

}  // namespace ldl
