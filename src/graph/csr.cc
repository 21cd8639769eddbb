#include "src/graph/csr.h"

#include <algorithm>
#include <utility>

namespace agmdp::graph {

void CsrGraph::FinishFromViews() {
  if (!owned_offsets_.empty()) {
    offsets_ = owned_offsets_.data();
    neighbors_ = owned_neighbors_.data();
  }
  const NodeId n = num_nodes_;
  degrees_.resize(n);
  max_degree_ = 0;
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t d = static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
    degrees_[v] = d;
    max_degree_ = std::max(max_degree_, d);
  }
}

CsrGraph::CsrGraph(const CsrGraph& other)
    : owned_offsets_(other.owned_offsets_),
      owned_neighbors_(other.owned_neighbors_),
      external_owner_(other.external_owner_),
      degrees_(other.degrees_),
      num_nodes_(other.num_nodes_),
      max_degree_(other.max_degree_),
      num_edges_(other.num_edges_) {
  // Owned snapshots must re-point at *this* copy's vectors; external
  // snapshots share the mapping, so the source's pointers stay valid.
  offsets_ = owned_offsets_.empty() ? other.offsets_ : owned_offsets_.data();
  neighbors_ =
      owned_neighbors_.empty() ? other.neighbors_ : owned_neighbors_.data();
}

CsrGraph& CsrGraph::operator=(const CsrGraph& other) {
  if (this != &other) *this = CsrGraph(other);
  return *this;
}

CsrGraph CsrGraph::FromGraph(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<uint64_t> offsets(static_cast<size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + g.Degree(v);
  }
  std::vector<NodeId> neighbors(offsets[n]);
  for (NodeId v = 0; v < n; ++v) {
    const std::vector<NodeId>& adj = g.Neighbors(v);
    NodeId* out = neighbors.data() + offsets[v];
    std::copy(adj.begin(), adj.end(), out);
    std::sort(out, out + adj.size());
  }
  return FromArrays(std::move(offsets), std::move(neighbors));
}

CsrGraph CsrGraph::FromCanonicalEdges(NodeId n,
                                      const std::vector<Edge>& edges) {
  std::vector<uint64_t> offsets(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] += offsets[v];
  }
  // Canonical order visits every edge {w, x} with w < x before any edge
  // {x, y}, each group ascending — so appending both endpoints in that
  // order leaves every neighbor range sorted.
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<NodeId> neighbors(offsets[n]);
  for (const Edge& e : edges) {
    neighbors[cursor[e.u]++] = e.v;
    neighbors[cursor[e.v]++] = e.u;
  }
  return FromArrays(std::move(offsets), std::move(neighbors));
}

CsrGraph CsrGraph::FromArrays(std::vector<uint64_t> offsets,
                              std::vector<NodeId> neighbors) {
  CsrGraph csr;
  csr.num_nodes_ = static_cast<NodeId>(offsets.size() - 1);
  csr.num_edges_ = neighbors.size() / 2;
  csr.owned_offsets_ = std::move(offsets);
  csr.owned_neighbors_ = std::move(neighbors);
  csr.FinishFromViews();
  return csr;
}

CsrGraph CsrGraph::FromExternal(const uint64_t* offsets,
                                const NodeId* neighbors, NodeId num_nodes,
                                uint64_t num_edges,
                                std::shared_ptr<const void> owner) {
  CsrGraph csr;
  csr.offsets_ = offsets;
  csr.neighbors_ = neighbors;
  csr.num_nodes_ = num_nodes;
  csr.num_edges_ = num_edges;
  csr.external_owner_ = std::move(owner);
  csr.FinishFromViews();
  return csr;
}

bool CsrGraph::HasEdge(NodeId u, NodeId v) const {
  if (u == v || u >= num_nodes() || v >= num_nodes()) return false;
  if (Degree(u) > Degree(v)) std::swap(u, v);
  const NeighborRange range = Neighbors(u);
  return std::binary_search(range.begin(), range.end(), v);
}

uint32_t CsrGraph::CommonNeighborCount(NodeId u, NodeId v) const {
  const NeighborRange a = Neighbors(u);
  const NeighborRange b = Neighbors(v);
  const NodeId* i = a.begin();
  const NodeId* j = b.begin();
  uint32_t count = 0;
  // Neither range contains u or v (simple graph), so the intersection is
  // exactly the common-neighbor set.
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

AttributedCsrGraph::AttributedCsrGraph(const AttributedCsrGraph& other)
    : structure(other.structure),
      num_attributes(other.num_attributes),
      owned_attributes_(other.owned_attributes_),
      external_owner_(other.external_owner_) {
  attributes_ = owned_attributes_.empty() ? other.attributes_
                                          : owned_attributes_.data();
}

AttributedCsrGraph& AttributedCsrGraph::operator=(
    const AttributedCsrGraph& other) {
  if (this != &other) *this = AttributedCsrGraph(other);
  return *this;
}

AttributedCsrGraph AttributedCsrGraph::FromGraph(const AttributedGraph& g) {
  return FromArrays(CsrGraph::FromGraph(g.structure()), g.attributes(),
                    g.num_attributes());
}

AttributedCsrGraph AttributedCsrGraph::FromArrays(
    CsrGraph structure, std::vector<AttrConfig> attributes,
    int num_attributes) {
  AttributedCsrGraph snapshot;
  snapshot.structure = std::move(structure);
  snapshot.owned_attributes_ = std::move(attributes);
  snapshot.attributes_ = snapshot.owned_attributes_.data();
  snapshot.num_attributes = num_attributes;
  return snapshot;
}

AttributedCsrGraph AttributedCsrGraph::FromExternal(
    CsrGraph structure, const AttrConfig* attrs, int num_attributes,
    std::shared_ptr<const void> owner) {
  AttributedCsrGraph snapshot;
  snapshot.structure = std::move(structure);
  snapshot.attributes_ = attrs;
  snapshot.num_attributes = num_attributes;
  snapshot.external_owner_ = std::move(owner);
  return snapshot;
}

}  // namespace agmdp::graph
