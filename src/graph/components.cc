#include "src/graph/components.h"

namespace agmdp::graph {

std::vector<uint32_t> ConnectedComponents(const Graph& g,
                                          uint32_t* num_components) {
  const NodeId n = g.num_nodes();
  constexpr uint32_t kUnvisited = 0xffffffffu;
  std::vector<uint32_t> label(n, kUnvisited);
  std::vector<NodeId> stack;
  uint32_t next_label = 0;
  for (NodeId start = 0; start < n; ++start) {
    if (label[start] != kUnvisited) continue;
    label[start] = next_label;
    stack.push_back(start);
    while (!stack.empty()) {
      NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : g.Neighbors(u)) {
        if (label[v] == kUnvisited) {
          label[v] = next_label;
          stack.push_back(v);
        }
      }
    }
    ++next_label;
  }
  if (num_components != nullptr) *num_components = next_label;
  return label;
}

}  // namespace agmdp::graph
