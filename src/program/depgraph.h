// Predicate dependency graph with the paper's >= and > relations (§3.1).
//
//   p >= q : some rule derives p without grouping and uses q positively.
//   p >  q : some rule derives p with grouping in the head and uses q
//            (positively or negatively), or uses q negated.
//
// A program is admissible iff no dependency cycle contains a strict (>)
// edge, i.e. iff no strongly connected component contains a strict edge.
#ifndef LDL1_PROGRAM_DEPGRAPH_H_
#define LDL1_PROGRAM_DEPGRAPH_H_

#include <vector>

#include "program/catalog.h"
#include "program/ir.h"

namespace ldl {

struct DepEdge {
  PredId from = kInvalidPred;  // the head (dependent) predicate
  PredId to = kInvalidPred;    // the body (dependee) predicate
  bool strict = false;         // true for >, false for >=
  int rule_index = -1;         // rule that induced the edge (diagnostics)
};

class DepGraph {
 public:
  // Builds the dependency graph of `program` over `catalog`'s predicates.
  // Edges into `program.magic_preds` are left out.
  static DepGraph Build(const Catalog& catalog, const ProgramIr& program);

  size_t node_count() const { return adjacency_.size(); }
  const std::vector<DepEdge>& edges() const { return edges_; }
  // Outgoing edge indices (into edges()) for predicate `p`.
  const std::vector<int>& out_edges(PredId p) const { return adjacency_[p]; }

  // Tarjan SCC. Returns component id per predicate; components are numbered
  // in reverse topological order (a component only depends on components
  // with smaller ids).
  std::vector<int> StronglyConnectedComponents(int* component_count) const;

 private:
  std::vector<DepEdge> edges_;
  std::vector<std::vector<int>> adjacency_;  // PredId -> edge indices
};

}  // namespace ldl

#endif  // LDL1_PROGRAM_DEPGRAPH_H_
