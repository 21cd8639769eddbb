// FNV-1a digests for pinning generator outputs as literals in tests: a
// changed draw, accept/reject decision or insertion order anywhere in a
// generator shows up as a different value.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
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

/// Byte-wise FNV-1a of a serialized document (an artifact file, say).
inline uint64_t HashBytes(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Digest of the bit patterns of a vector of doubles.
inline uint64_t HashDoubles(const std::vector<double>& values) {
  GoldenHash hash;
  for (double value : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    hash.Add(bits);
  }
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
