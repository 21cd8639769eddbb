// Dynamic undirected simple graph.
//
// The representation is tuned for the workloads in this library:
//   * neighbor lists as vectors       -> O(1) uniform-random neighbor
//     sampling (TriCycLe's friend-of-a-friend proposals),
//   * a flat packed-edge hash set     -> O(1) HasEdge with no per-bucket
//     allocation or pointer chase (util::FlatEdgeSet; the sampler hot path
//     calls this once per proposal), and
//   * swap-erase removal              -> O(degree) edge deletion, cheap at
//     social-network average degrees.
//
// The node set is fixed at construction (the paper treats n as public);
// self-loops and parallel edges are rejected, matching the paper's "simple
// graph" setting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/util/flat_edge_set.h"
#include "src/util/status.h"

namespace agmdp::graph {

using NodeId = uint32_t;

/// An undirected edge; normalized so that u <= v.
struct Edge {
  NodeId u;
  NodeId v;

  Edge() : u(0), v(0) {}
  Edge(NodeId a, NodeId b) : u(a < b ? a : b), v(a < b ? b : a) {}

  bool operator==(const Edge& o) const { return u == o.u && v == o.v; }
  bool operator<(const Edge& o) const {
    return u != o.u ? u < o.u : v < o.v;
  }
};

/// Packs an edge into a single 64-bit key (u in high bits).
inline uint64_t PackEdge(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

/// Edge capacity of a simple graph over n nodes: n * (n - 1) / 2,
/// overflow-free for any 32-bit n.
inline uint64_t MaxPossibleEdges(NodeId num_nodes) {
  const uint64_t n = num_nodes;
  if (n < 2) return 0;
  return (n % 2 == 0) ? (n / 2) * (n - 1) : n * ((n - 1) / 2);
}

/// \brief Undirected simple graph over nodes {0, ..., n-1}.
class Graph {
 public:
  Graph() = default;

  /// Creates an empty graph with `num_nodes` isolated nodes.
  explicit Graph(NodeId num_nodes);

  NodeId num_nodes() const { return static_cast<NodeId>(adj_.size()); }
  uint64_t num_edges() const { return num_edges_; }

  /// Adds edge {u, v}. Returns false (and leaves the graph unchanged) if the
  /// edge is a self-loop, already present, or an endpoint is out of range.
  bool AddEdge(NodeId u, NodeId v);

  /// Removes edge {u, v}. Returns false if the edge is not present.
  bool RemoveEdge(NodeId u, NodeId v);

  bool HasEdge(NodeId u, NodeId v) const {
    if (u == v || u >= num_nodes() || v >= num_nodes()) return false;
    return edge_set_.Contains(PackEdge(u, v));
  }

  uint32_t Degree(NodeId v) const {
    return static_cast<uint32_t>(adj_[v].size());
  }

  /// Neighbor list of v (unordered; stable between mutations).
  const std::vector<NodeId>& Neighbors(NodeId v) const { return adj_[v]; }

  /// Number of common neighbors of u and v, i.e. |Γ(u) ∩ Γ(v)|. This equals
  /// the number of triangles the edge {u, v} participates in (or would
  /// create).
  uint32_t CommonNeighborCount(NodeId u, NodeId v) const;

  /// Maximum degree over all nodes (0 for an empty graph).
  uint32_t MaxDegree() const;

  /// All edges in canonical (lexicographically sorted) order. Definition 2's
  /// truncation operator and deterministic iteration rely on this order.
  std::vector<Edge> CanonicalEdges() const;

  /// Invokes fn(u, v) once per edge with u < v, in adjacency order (not
  /// canonical order) — cheaper than CanonicalEdges when order is irrelevant.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (NodeId u = 0; u < num_nodes(); ++u) {
      for (NodeId v : adj_[u]) {
        if (u < v) fn(u, v);
      }
    }
  }

  /// Removes all edges, keeping the node set.
  void ClearEdges();

  /// Pre-sizes the edge-set hash table for `expected_edges` insertions.
  /// The hint is clamped to the maximum possible simple-graph edge count,
  /// so callers may pass raw (even absurd) target knobs.
  void ReserveEdges(uint64_t expected_edges) {
    edge_set_.Reserve(static_cast<size_t>(
        std::min(expected_edges, MaxPossibleEdges(num_nodes()))));
  }

  /// Pre-sizes each node's neighbor list for the degree it is expected to
  /// reach (`degrees[v]`, one entry per node, clamped to n - 1), so a
  /// generator adding edges one by one stops reallocating the lists.
  void ReserveNeighbors(const std::vector<uint32_t>& degrees);

 private:
  std::vector<std::vector<NodeId>> adj_;
  util::FlatEdgeSet edge_set_;
  uint64_t num_edges_ = 0;
};

}  // namespace agmdp::graph
