// FNV-1a digests for pinning generator outputs as literals in tests: a
// changed draw, accept/reject decision or insertion order anywhere in a
// generator shows up as a different value.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"

namespace agmdp::golden {

class GoldenHash {
 public:
  void Add(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

/// Digest of an edge list in the given order.
inline uint64_t HashEdges(const std::vector<graph::Edge>& edges) {
  GoldenHash hash;
  for (const graph::Edge& e : edges) hash.Add(graph::PackEdge(e.u, e.v));
  return hash.value();
}

/// Digest of every neighbor list in stored order — the order the rewiring
/// models' uniform neighbor picks index into, fixed by the graph's full
/// add/remove history.
inline uint64_t HashAdjacency(const graph::Graph& g) {
  GoldenHash hash;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    hash.Add(g.Degree(v));
    for (graph::NodeId w : g.Neighbors(v)) hash.Add(w);
  }
  return hash.value();
}

}  // namespace agmdp::golden
