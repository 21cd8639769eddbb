// Immutable CSR (compressed sparse row) snapshot of a Graph.
//
// The mutable adjacency-list Graph is tuned for TriCycLe's edge churn
// (O(1) random neighbor sampling, hash-set edge oracle, swap-erase
// removal); every utility metric, however, is computed on an *immutable*
// released graph, where pointer-chasing vectors and hash probes dominate
// the cost of full-scale sweeps. CsrGraph trades all mutability for two
// contiguous arrays — offsets and sorted neighbor ranges — giving
// cache-friendly sequential scans, O(log d) HasEdge via binary search, and
// merge-join set intersections on sorted ranges instead of hash probes.
//
// The arrays are *views*: a snapshot either owns them (FromGraph copies
// out of the adjacency lists, FromArrays adopts the text reader's) or
// borrows them from external storage
// (FromExternal — the mmap-backed binary graph container,
// graph/graph_container.h, points the views straight into the mapped
// file and parks the mapping in a shared_ptr owner). Every kernel reads
// through the same two pointers either way, so analytics on an mmap
// snapshot are bitwise-identical to the in-RAM path by construction.
//
// Usage contract: build one snapshot per released graph
// (CsrGraph::FromGraph or GraphSource::Open), hand it to every analytics
// kernel, and keep the mutable Graph only for generation. The snapshot is
// a value type; copying copies owned arrays and shares external backing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/graph/attributed_graph.h"
#include "src/graph/graph.h"

namespace agmdp::graph {

/// Contiguous, ascending-sorted neighbor range of one node.
struct NeighborRange {
  const NodeId* first = nullptr;
  const NodeId* last = nullptr;

  const NodeId* begin() const { return first; }
  const NodeId* end() const { return last; }
  size_t size() const { return static_cast<size_t>(last - first); }
  bool empty() const { return first == last; }
};

/// \brief Immutable CSR snapshot of an undirected simple graph.
class CsrGraph {
 public:
  CsrGraph() = default;
  CsrGraph(const CsrGraph& other);
  CsrGraph& operator=(const CsrGraph& other);
  CsrGraph(CsrGraph&&) noexcept = default;
  CsrGraph& operator=(CsrGraph&&) noexcept = default;

  /// Builds an owning snapshot: one pass over the adjacency lists plus a
  /// sort of each neighbor range (ascending by node id).
  static CsrGraph FromGraph(const Graph& g);

  /// Builds an owning snapshot of n nodes from edges given in canonical
  /// order (u < v, sorted by (u, v)) — the order ForEachEdge emits, so a
  /// filtered ForEachEdge walk (dp::TruncateEdges) rebuilds into sorted
  /// ranges without a sort.
  static CsrGraph FromCanonicalEdges(NodeId n, const std::vector<Edge>& edges);

  /// Takes ownership of ready-made arrays: `offsets` has n + 1 entries and
  /// `neighbors` the 2m endpoints, each range sorted (the text reader,
  /// graph/graph_io.h, fills them). The caller vouches for the CSR
  /// invariants, as for FromExternal.
  static CsrGraph FromArrays(std::vector<uint64_t> offsets,
                             std::vector<NodeId> neighbors);

  /// Wraps externally owned arrays without copying: `offsets` has
  /// num_nodes + 1 entries, `neighbors` has 2 * num_edges, and `owner`
  /// keeps the backing storage (e.g. a util::MappedFile) alive for the
  /// lifetime of every copy of the snapshot. The caller is responsible
  /// for the CSR invariants (monotone offsets, sorted simple-graph
  /// ranges) — the binary container reader validates them before calling.
  /// Degrees and the max degree are derived here (owned, O(n) RAM).
  static CsrGraph FromExternal(const uint64_t* offsets,
                               const NodeId* neighbors, NodeId num_nodes,
                               uint64_t num_edges,
                               std::shared_ptr<const void> owner);

  NodeId num_nodes() const { return num_nodes_; }
  uint64_t num_edges() const { return num_edges_; }

  uint32_t Degree(NodeId v) const { return degrees_[v]; }
  /// Precomputed degree array, indexed by node id.
  const std::vector<uint32_t>& degrees() const { return degrees_; }
  uint32_t MaxDegree() const { return max_degree_; }

  /// Sorted neighbor range of v.
  NeighborRange Neighbors(NodeId v) const {
    return {neighbors_ + offsets_[v], neighbors_ + offsets_[v + 1]};
  }

  /// O(log d) membership test: binary search in the smaller endpoint's
  /// sorted neighbor range. Same domain semantics as Graph::HasEdge
  /// (self-loops and out-of-range endpoints are absent).
  bool HasEdge(NodeId u, NodeId v) const;

  /// |Γ(u) ∩ Γ(v)| via a merge-join of the two sorted ranges — the number
  /// of triangles through the edge {u, v}. Agrees exactly with
  /// Graph::CommonNeighborCount.
  uint32_t CommonNeighborCount(NodeId u, NodeId v) const;

  /// True when the snapshot reads external (e.g. memory-mapped) storage.
  bool is_external() const { return external_owner_ != nullptr; }

  /// Invokes fn(u, v) once per edge with u < v, in canonical
  /// (lexicographically sorted) order — CSR neighbor ranges are sorted, so
  /// the forward scan *is* the canonical order.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    const NodeId n = num_nodes();
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v : Neighbors(u)) {
        if (v > u) fn(u, v);
      }
    }
  }

 private:
  /// Derives degrees_/max_degree_ from the offset view and points the
  /// views at whichever storage this snapshot carries.
  void FinishFromViews();

  // Views every accessor reads through (owned or external storage).
  const uint64_t* offsets_ = nullptr;  // n + 1 range bounds into neighbors
  const NodeId* neighbors_ = nullptr;  // 2m endpoints, sorted within a node

  // Owned backing (FromArrays) — empty for external snapshots.
  std::vector<uint64_t> owned_offsets_;
  std::vector<NodeId> owned_neighbors_;
  // External backing (FromExternal) — shared across copies.
  std::shared_ptr<const void> external_owner_;

  std::vector<uint32_t> degrees_;  // offsets_[v+1] - offsets_[v], cached
  NodeId num_nodes_ = 0;
  uint32_t max_degree_ = 0;
  uint64_t num_edges_ = 0;
};

/// \brief Immutable attributed snapshot: CSR structure plus the node
/// attribute vector — owned (copied out of the AttributedGraph) or a view
/// into the same external storage as the structure.
struct AttributedCsrGraph {
  static AttributedCsrGraph FromGraph(const AttributedGraph& g);
  /// Owning counterpart of FromExternal: `attributes` has
  /// structure.num_nodes() entries.
  static AttributedCsrGraph FromArrays(CsrGraph structure,
                                       std::vector<AttrConfig> attributes,
                                       int num_attributes);
  /// External-attributes counterpart of CsrGraph::FromExternal: `attrs`
  /// has structure.num_nodes() entries inside storage kept alive by
  /// `owner`.
  static AttributedCsrGraph FromExternal(CsrGraph structure,
                                         const AttrConfig* attrs,
                                         int num_attributes,
                                         std::shared_ptr<const void> owner);

  AttributedCsrGraph() = default;
  AttributedCsrGraph(const AttributedCsrGraph& other);
  AttributedCsrGraph& operator=(const AttributedCsrGraph& other);
  AttributedCsrGraph(AttributedCsrGraph&&) noexcept = default;
  AttributedCsrGraph& operator=(AttributedCsrGraph&&) noexcept = default;

  CsrGraph structure;
  int num_attributes = 0;

  NodeId num_nodes() const { return structure.num_nodes(); }
  uint64_t num_edges() const { return structure.num_edges(); }
  AttrConfig attribute(NodeId v) const { return attributes_[v]; }
  /// Contiguous attribute array (num_nodes() entries; may be null for an
  /// empty graph).
  const AttrConfig* attributes_data() const { return attributes_; }

 private:
  const AttrConfig* attributes_ = nullptr;
  std::vector<AttrConfig> owned_attributes_;
  std::shared_ptr<const void> external_owner_;
};

}  // namespace agmdp::graph
