#include "src/graph/triangle_count.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "src/util/check.h"
#include "src/util/parallel.h"

namespace agmdp::graph {

namespace {

// Degree-based rank: nodes ordered by (degree, id); edges are directed from
// lower rank to higher rank, so each triangle is found exactly once at its
// lowest-rank corner. Shared by both representations.
template <typename AnyGraph>
std::vector<uint32_t> DegreeRanks(const AnyGraph& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
    uint32_t da = g.Degree(a), db = g.Degree(b);
    return da != db ? da < db : a < b;
  });
  std::vector<uint32_t> rank(n);
  for (NodeId i = 0; i < n; ++i) rank[order[i]] = i;
  return rank;
}

// Rank-directed adjacency in CSR form: neighbors of higher rank only, so
// each triangle has exactly one node that sees its other two corners here.
struct ForwardCsr {
  std::vector<uint64_t> offsets;
  std::vector<NodeId> neighbors;
};

template <typename AnyGraph>
ForwardCsr BuildForward(const AnyGraph& g, const std::vector<uint32_t>& rank) {
  const NodeId n = g.num_nodes();
  ForwardCsr fwd;
  fwd.offsets.resize(static_cast<size_t>(n) + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    uint64_t count = 0;
    for (NodeId v : g.Neighbors(u)) {
      if (rank[u] < rank[v]) ++count;
    }
    fwd.offsets[u + 1] = fwd.offsets[u] + count;
  }
  fwd.neighbors.resize(fwd.offsets[n]);
  for (NodeId u = 0; u < n; ++u) {
    NodeId* out = fwd.neighbors.data() + fwd.offsets[u];
    for (NodeId v : g.Neighbors(u)) {
      if (rank[u] < rank[v]) *out++ = v;
    }
  }
  return fwd;
}

// The forward kernel of both representations. Workers own contiguous node
// ranges; the triangle total is an integer, so the atomic accumulation is
// exact and partition-independent (and adjacency order is irrelevant).
template <typename AnyGraph>
uint64_t CountTrianglesImpl(const AnyGraph& g, int threads) {
  const NodeId n = g.num_nodes();
  if (n == 0) return 0;
  const ForwardCsr fwd = BuildForward(g, DegreeRanks(g));

  std::atomic<uint64_t> triangles{0};
  util::ParallelNodeRanges(n, threads, [&](uint64_t begin, uint64_t end) {
    std::vector<uint8_t> mark(n, 0);
    uint64_t local = 0;
    for (uint64_t u = begin; u < end; ++u) {
      const NodeId* first = fwd.neighbors.data() + fwd.offsets[u];
      const NodeId* last = fwd.neighbors.data() + fwd.offsets[u + 1];
      for (const NodeId* v = first; v != last; ++v) mark[*v] = 1;
      for (const NodeId* v = first; v != last; ++v) {
        const NodeId* wf = fwd.neighbors.data() + fwd.offsets[*v];
        const NodeId* wl = fwd.neighbors.data() + fwd.offsets[*v + 1];
        for (const NodeId* w = wf; w != wl; ++w) {
          if (mark[*w]) ++local;
        }
      }
      for (const NodeId* v = first; v != last; ++v) mark[*v] = 0;
    }
    triangles.fetch_add(local, std::memory_order_relaxed);
  });
  return triangles.load();
}

}  // namespace

uint64_t CountTriangles(const Graph& g) { return CountTrianglesImpl(g, 1); }

uint64_t CountTriangles(const CsrGraph& g, int threads) {
  return CountTrianglesImpl(g, threads);
}

uint64_t CountTrianglesBrute(const Graph& g) {
  const NodeId n = g.num_nodes();
  uint64_t triangles = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (!g.HasEdge(a, b)) continue;
      for (NodeId c = b + 1; c < n; ++c) {
        if (g.HasEdge(a, c) && g.HasEdge(b, c)) ++triangles;
      }
    }
  }
  return triangles;
}

uint64_t CountWedges(const CsrGraph& g) {
  uint64_t wedges = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    uint64_t d = g.Degree(v);
    wedges += d * (d - 1) / 2;
  }
  return wedges;
}

std::vector<uint64_t> PerNodeTriangles(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<uint64_t> counts(n, 0);
  // Edge iterator: each edge's common-neighbor count is the number of
  // triangles through that edge; a triangle has three edges and each of its
  // corners sits on two of them, so crediting both endpoints of every edge
  // counts each corner exactly twice.
  g.ForEachEdge([&](NodeId u, NodeId v) {
    uint32_t t = g.CommonNeighborCount(u, v);
    counts[u] += t;
    counts[v] += t;
  });
  for (auto& c : counts) {
    AGMDP_CHECK(c % 2 == 0);
    c /= 2;
  }
  return counts;
}

std::vector<uint64_t> PerNodeTriangles(const CsrGraph& g, int threads) {
  const NodeId n = g.num_nodes();
  std::vector<uint64_t> counts(n, 0);
  if (n == 0) return counts;

  // Forward edge positions: node u's canonical edges {u, v} with v > u are
  // the tail of its sorted neighbor range; fwd_offsets[u] is the global
  // index of the first one.
  std::vector<uint64_t> fwd_offsets(static_cast<size_t>(n) + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    const NeighborRange range = g.Neighbors(u);
    const uint64_t forward = static_cast<uint64_t>(
        range.end() - std::upper_bound(range.begin(), range.end(), u));
    fwd_offsets[u + 1] = fwd_offsets[u] + forward;
  }

  // Phase 1 (parallel): merge-join common-neighbor count of every canonical
  // edge — the number of triangles through that edge — into a slot owned by
  // its position.
  std::vector<uint32_t> edge_triangles(fwd_offsets[n]);
  util::ParallelNodeRanges(n, threads, [&](uint64_t begin, uint64_t end) {
    for (uint64_t u = begin; u < end; ++u) {
      const NodeId node = static_cast<NodeId>(u);
      const NeighborRange range = g.Neighbors(node);
      const NodeId* v = std::upper_bound(range.begin(), range.end(), node);
      uint64_t slot = fwd_offsets[u];
      for (; v != range.end(); ++v) {
        edge_triangles[slot++] = g.CommonNeighborCount(node, *v);
      }
    }
  });

  // Phase 2 (sequential, integer): credit both endpoints of every edge —
  // each corner of a triangle sits on two of its edges, so every node is
  // credited exactly twice per triangle.
  for (NodeId u = 0; u < n; ++u) {
    const NeighborRange range = g.Neighbors(u);
    const NodeId* v = std::upper_bound(range.begin(), range.end(), u);
    uint64_t slot = fwd_offsets[u];
    for (; v != range.end(); ++v) {
      const uint32_t t = edge_triangles[slot++];
      counts[u] += t;
      counts[*v] += t;
    }
  }
  for (auto& c : counts) {
    AGMDP_CHECK(c % 2 == 0);
    c /= 2;
  }
  return counts;
}

util::Result<uint32_t> MaxCommonNeighborCount(const Graph& g,
                                              uint64_t max_work) {
  const NodeId n = g.num_nodes();
  // Work is sum over nodes of degree^2 (each node, via its neighbors'
  // adjacency lists, touches that many two-hop endpoints).
  uint64_t work = 0;
  for (NodeId v = 0; v < n; ++v) {
    uint64_t d = g.Degree(v);
    work += d * d;
    if (work > max_work) {
      return util::Status::FailedPrecondition(
          "MaxCommonNeighborCount: wedge work exceeds max_work budget");
    }
  }

  std::vector<uint32_t> counter(n, 0);
  std::vector<NodeId> touched;
  uint32_t best = 0;
  for (NodeId u = 0; u < n; ++u) {
    touched.clear();
    for (NodeId w : g.Neighbors(u)) {
      for (NodeId x : g.Neighbors(w)) {
        if (x <= u) continue;  // each unordered pair handled once (u < x)
        if (counter[x]++ == 0) touched.push_back(x);
      }
    }
    for (NodeId x : touched) {
      best = std::max(best, counter[x]);
      counter[x] = 0;
    }
  }
  return best;
}

}  // namespace agmdp::graph
