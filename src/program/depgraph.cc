#include "program/depgraph.h"

#include <algorithm>

namespace ldl {

DepGraph DepGraph::Build(const Catalog& catalog, const ProgramIr& program) {
  DepGraph graph;
  graph.adjacency_.resize(catalog.size());
  std::vector<bool> magic(catalog.size(), false);
  for (PredId p : program.magic_preds) magic[p] = true;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const RuleIr& rule = program.rules[r];
    for (const LiteralIr& literal : rule.body) {
      if (literal.is_builtin() || magic[literal.pred]) continue;
      DepEdge edge;
      edge.from = rule.head_pred;
      edge.to = literal.pred;
      // Paper §3.1: grouping heads depend strictly on *all* body predicates;
      // negated body predicates are strict regardless of the head.
      edge.strict = rule.is_grouping() || literal.negated;
      edge.rule_index = static_cast<int>(r);
      graph.adjacency_[edge.from].push_back(static_cast<int>(graph.edges_.size()));
      graph.edges_.push_back(edge);
    }
  }
  return graph;
}

namespace {

// Iterative Tarjan to survive deep rule chains without stack overflow.
struct TarjanState {
  const DepGraph* graph;
  std::vector<int> index;    // -1 = unvisited
  std::vector<int> lowlink;
  std::vector<bool> on_stack;
  std::vector<PredId> stack;
  std::vector<int> component;
  int next_index = 0;
  int component_count = 0;

  void Run(PredId root) {
    struct Frame {
      PredId node;
      size_t edge_pos;
    };
    std::vector<Frame> frames;
    frames.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!frames.empty()) {
      Frame& frame = frames.back();
      const std::vector<int>& out = graph->out_edges(frame.node);
      if (frame.edge_pos < out.size()) {
        PredId next = graph->edges()[out[frame.edge_pos++]].to;
        if (index[next] == -1) {
          index[next] = lowlink[next] = next_index++;
          stack.push_back(next);
          on_stack[next] = true;
          frames.push_back({next, 0});
        } else if (on_stack[next]) {
          lowlink[frame.node] = std::min(lowlink[frame.node], index[next]);
        }
        continue;
      }
      // All edges done: close the node.
      PredId node = frame.node;
      frames.pop_back();
      if (!frames.empty()) {
        PredId parent = frames.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[node]);
      }
      if (lowlink[node] == index[node]) {
        for (;;) {
          PredId member = stack.back();
          stack.pop_back();
          on_stack[member] = false;
          component[member] = component_count;
          if (member == node) break;
        }
        ++component_count;
      }
    }
  }
};

}  // namespace

std::vector<int> DepGraph::StronglyConnectedComponents(int* component_count) const {
  TarjanState state;
  state.graph = this;
  size_t n = adjacency_.size();
  state.index.assign(n, -1);
  state.lowlink.assign(n, 0);
  state.on_stack.assign(n, false);
  state.component.assign(n, -1);
  for (PredId p = 0; p < n; ++p) {
    if (state.index[p] == -1) state.Run(p);
  }
  *component_count = state.component_count;
  return std::move(state.component);
}

}  // namespace ldl
