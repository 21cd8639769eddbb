#include "src/models/erdos_renyi.h"

namespace agmdp::models {

graph::Graph ErdosRenyiGnm(graph::NodeId n, uint64_t m, util::Rng& rng) {
  graph::Graph g(n);
  if (n < 2) return g;
  const uint64_t max_edges =
      static_cast<uint64_t>(n) * (n - 1) / 2;
  if (m > max_edges) m = max_edges;
  while (g.num_edges() < m) {
    auto u = static_cast<graph::NodeId>(rng.UniformIndex(n));
    auto v = static_cast<graph::NodeId>(rng.UniformIndex(n));
    g.AddEdge(u, v);  // rejects self-loops and duplicates internally
  }
  return g;
}

}  // namespace agmdp::models
