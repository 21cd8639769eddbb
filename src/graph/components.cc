#include "src/graph/components.h"

#include <algorithm>


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

bool IsConnected(const Graph& g) {
  uint32_t count = 0;
  ConnectedComponents(g, &count);
  return count <= 1;
}

std::vector<NodeId> LargestComponent(const Graph& g) {
  uint32_t count = 0;
  std::vector<uint32_t> label = ConnectedComponents(g, &count);
  if (count == 0) return {};
  std::vector<uint64_t> sizes(count, 0);
  for (uint32_t l : label) ++sizes[l];
  uint32_t best =
      static_cast<uint32_t>(std::max_element(sizes.begin(), sizes.end()) -
                            sizes.begin());
  std::vector<NodeId> nodes;
  nodes.reserve(sizes[best]);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (label[v] == best) nodes.push_back(v);
  }
  return nodes;
}

}  // namespace agmdp::graph
