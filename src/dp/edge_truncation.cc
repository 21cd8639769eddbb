#include "src/dp/edge_truncation.h"

#include <cmath>

namespace agmdp::dp {

graph::CsrGraph TruncateEdges(const graph::CsrGraph& g, uint32_t k) {
  std::vector<graph::Edge> kept;
  ForEachTruncatedEdge(g, k, [&](graph::NodeId u, graph::NodeId v) {
    kept.emplace_back(u, v);
  });
  return graph::CsrGraph::FromCanonicalEdges(g.num_nodes(), kept);
}

uint32_t HeuristicTruncationK(graph::NodeId n) {
  uint32_t k = static_cast<uint32_t>(
      std::llround(std::cbrt(static_cast<double>(n))));
  return k < 2 ? 2 : k;
}

}  // namespace agmdp::dp
