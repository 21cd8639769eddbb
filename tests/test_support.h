// Helpers only the tests use: a G(n, p) graph source, a Gaussian draw for
// filling test vectors, and connectivity checks on generator output. The
// library's own random graphs come from models::ErdosRenyiGnm and its
// components code from graph::ConnectedComponents, on which these build.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/graph/components.h"
#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace agmdp::test_support {

/// G(n, p): each pair independently an edge with probability p, by
/// Batagelj-Brandes geometric skipping over the strictly-upper-triangular
/// pair list, O(n + m) expected time.
inline graph::Graph ErdosRenyiGnp(graph::NodeId n, double p,
                                  util::Rng& rng) {
  graph::Graph g(n);
  if (p <= 0.0 || n < 2) return g;
  if (p >= 1.0) {
    for (graph::NodeId u = 0; u < n; ++u) {
      for (graph::NodeId v = u + 1; v < n; ++v) g.AddEdge(u, v);
    }
    return g;
  }
  const double log_q = std::log(1.0 - p);
  int64_t v = 1, w = -1;
  while (v < static_cast<int64_t>(n)) {
    double u = rng.UniformDouble();
    if (u <= 0.0) u = 0x1.0p-53;
    w += 1 + static_cast<int64_t>(std::floor(std::log(u) / log_q));
    while (w >= v && v < static_cast<int64_t>(n)) {
      w -= v;
      ++v;
    }
    if (v < static_cast<int64_t>(n)) {
      g.AddEdge(static_cast<graph::NodeId>(w), static_cast<graph::NodeId>(v));
    }
  }
  return g;
}

/// Standard normal draw by Box-Muller, one value per call (the twin is
/// discarded).
inline double Gaussian(util::Rng& rng) {
  double u1 = rng.UniformDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = rng.UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

/// True iff the graph has exactly one connected component (vacuously true
/// for the empty graph).
inline bool IsConnected(const graph::Graph& g) {
  uint32_t count = 0;
  graph::ConnectedComponents(g, &count);
  return count <= 1;
}

/// Node ids of the largest connected component, ascending.
inline std::vector<graph::NodeId> LargestComponent(const graph::Graph& g) {
  uint32_t count = 0;
  const std::vector<uint32_t> label = graph::ConnectedComponents(g, &count);
  if (count == 0) return {};
  std::vector<uint64_t> sizes(count, 0);
  for (uint32_t l : label) ++sizes[l];
  const auto best = static_cast<uint32_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<graph::NodeId> nodes;
  nodes.reserve(sizes[best]);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (label[v] == best) nodes.push_back(v);
  }
  return nodes;
}

}  // namespace agmdp::test_support
