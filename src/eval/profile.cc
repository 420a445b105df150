#include "eval/profile.h"

#include <cstdio>

#include "base/str_util.h"
#include "program/catalog.h"
#include "program/ir.h"
#include "term/term.h"

namespace ldl {

const char* ToString(StratumMode mode) {
  switch (mode) {
    case StratumMode::kFull:
      return "full";
    case StratumMode::kSkipped:
      return "skipped";
    case StratumMode::kDelta:
      return "delta";
    case StratumMode::kRecomputed:
      return "recomputed";
    case StratumMode::kGroupRegrow:
      return "group-regrow";
    case StratumMode::kShrink:
      return "shrink";
  }
  return "?";
}

namespace {

// JSON string escaping for rule labels (quotes, backslashes, control
// characters; everything else in our rendered rules is plain ASCII).
std::string EscapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendLiteral(const TermFactory& factory, const Catalog& catalog,
                   const LiteralIr& literal, std::string* out) {
  if (literal.negated) StrAppend(*out, "!");
  if (literal.is_builtin()) {
    StrAppend(*out, BuiltinName(literal.builtin));
  } else {
    // DebugName renders "name/arity"; the argument list already shows the
    // arity, so keep just the name.
    std::string name = catalog.DebugName(literal.pred);
    StrAppend(*out, name.substr(0, name.rfind('/')));
  }
  StrAppend(*out, "(");
  for (size_t i = 0; i < literal.args.size(); ++i) {
    if (i > 0) StrAppend(*out, ", ");
    StrAppend(*out, factory.ToString(literal.args[i]));
  }
  StrAppend(*out, ")");
}

}  // namespace

std::string FormatLiteral(const TermFactory& factory, const Catalog& catalog,
                          const LiteralIr& literal) {
  std::string out;
  AppendLiteral(factory, catalog, literal, &out);
  return out;
}

std::string FormatRuleLabel(const TermFactory& factory, const Catalog& catalog,
                            const RuleIr& rule) {
  std::string out;
  std::string head = catalog.DebugName(rule.head_pred);
  StrAppend(out, head.substr(0, head.rfind('/')), "(");
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    if (i > 0) StrAppend(out, ", ");
    if (static_cast<int>(i) == rule.group_index) {
      StrAppend(out, "<", factory.ToString(rule.head_args[i]), ">");
    } else {
      StrAppend(out, factory.ToString(rule.head_args[i]));
    }
  }
  StrAppend(out, ")");
  if (rule.body.empty()) return out;
  StrAppend(out, " :- ");
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (i > 0) StrAppend(out, ", ");
    AppendLiteral(factory, catalog, rule.body[i], &out);
  }
  return out;
}

void EvalProfile::Clear() {
  total_wall_ns_ = 0;
  rules_.clear();
  strata_.clear();
  topdown_ = TopDownProfile();
}

void EvalProfile::ReserveRules(size_t rule_count) {
  if (rules_.size() < rule_count) rules_.resize(rule_count);
}

RuleProfileEntry& EvalProfile::EntryFor(int rule_index, int stratum) {
  if (rule_index >= static_cast<int>(rules_.size())) {
    rules_.resize(rule_index + 1);
  }
  RuleProfileEntry& entry = rules_[rule_index];
  if (entry.rule_index < 0) {
    entry.rule_index = rule_index;
    entry.stratum = stratum;
  }
  return entry;
}

std::string EvalProfile::ToJson() const {
  std::string out = "{";
  StrAppend(out, "\"total_wall_ns\": ", total_wall_ns_);

  StrAppend(out, ", \"strata\": [");
  bool first = true;
  for (const StratumProfile& stratum : strata_) {
    if (!first) StrAppend(out, ", ");
    first = false;
    StrAppend(out, "{\"stratum\": ", stratum.stratum,
              ", \"mode\": \"", ToString(stratum.mode), "\"",
              ", \"wall_ns\": ", stratum.wall_ns,
              ", \"rounds\": ", stratum.rounds,
              ", \"facts_derived\": ", stratum.facts_derived, "}");
  }
  StrAppend(out, "]");

  StrAppend(out, ", \"rules\": [");
  first = true;
  for (const RuleProfileEntry& entry : rules_) {
    if (entry.rule_index < 0) continue;  // never touched
    if (!first) StrAppend(out, ", ");
    first = false;
    StrAppend(out, "{\"rule\": ", entry.rule_index,
              ", \"stratum\": ", entry.stratum, ", \"label\": \"",
              EscapeJson(entry.label), "\"");
    entry.counters.ForEachField([&](const char* name, uint64_t value) {
      StrAppend(out, ", \"", name, "\": ", value);
    });
    StrAppend(out, "}");
  }
  StrAppend(out, "]");

  if (topdown_.used) {
    StrAppend(out, ", \"topdown\": {\"wall_ns\": ", topdown_.wall_ns,
              ", \"calls\": ", topdown_.calls,
              ", \"expansions\": ", topdown_.expansions,
              ", \"answers\": ", topdown_.answers,
              ", \"restarts\": ", topdown_.restarts,
              ", \"tables\": ", topdown_.tables, "}");
  }
  StrAppend(out, "}");
  return out;
}

}  // namespace ldl
