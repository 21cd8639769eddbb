#include "src/graph/graph.h"

#include <algorithm>

#include "src/util/check.h"

namespace agmdp::graph {

Graph::Graph(NodeId num_nodes) : adj_(num_nodes) {}

bool Graph::AddEdge(NodeId u, NodeId v) {
  if (u == v || u >= num_nodes() || v >= num_nodes()) return false;
  if (!edge_set_.Insert(PackEdge(u, v))) return false;
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  ++num_edges_;
  return true;
}

bool Graph::RemoveEdge(NodeId u, NodeId v) {
  if (u == v || u >= num_nodes() || v >= num_nodes()) return false;
  if (!edge_set_.Erase(PackEdge(u, v))) return false;
  auto drop = [](std::vector<NodeId>& list, NodeId x) {
    auto it = std::find(list.begin(), list.end(), x);
    AGMDP_CHECK(it != list.end());
    *it = list.back();
    list.pop_back();
  };
  drop(adj_[u], v);
  drop(adj_[v], u);
  --num_edges_;
  return true;
}

uint32_t Graph::CommonNeighborCount(NodeId u, NodeId v) const {
  const std::vector<NodeId>& smaller =
      adj_[u].size() <= adj_[v].size() ? adj_[u] : adj_[v];
  const NodeId other = adj_[u].size() <= adj_[v].size() ? v : u;
  uint32_t count = 0;
  for (NodeId w : smaller) {
    if (w != other && HasEdge(w, other)) ++count;
  }
  return count;
}

uint32_t Graph::MaxDegree() const {
  uint32_t max_degree = 0;
  for (const auto& list : adj_) {
    max_degree = std::max(max_degree, static_cast<uint32_t>(list.size()));
  }
  return max_degree;
}

std::vector<Edge> Graph::CanonicalEdges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  // u ascends, so sorting each node's (u, v > u) run by v alone yields the
  // global lexicographic order without a global sort.
  for (NodeId u = 0; u < num_nodes(); ++u) {
    const size_t begin = edges.size();
    for (NodeId v : adj_[u]) {
      if (u < v) edges.emplace_back(u, v);
    }
    std::sort(edges.begin() + static_cast<ptrdiff_t>(begin), edges.end());
  }
  return edges;
}

void Graph::ReserveNeighbors(const std::vector<uint32_t>& degrees) {
  AGMDP_CHECK(degrees.size() == adj_.size());
  const uint32_t max_degree = num_nodes() > 0 ? num_nodes() - 1 : 0;
  for (size_t v = 0; v < adj_.size(); ++v) {
    adj_[v].reserve(std::min(degrees[v] + degrees[v] / 4 + 2, max_degree));
  }
}

void Graph::ClearEdges() {
  for (auto& list : adj_) list.clear();
  edge_set_.Clear();
  num_edges_ = 0;
}

}  // namespace agmdp::graph
