// Edge truncation operator µ(G, k) — Definition 2 of the paper (after
// Blocki et al.).
//
// Fix the canonical (lexicographic) edge order; iterate the edges in order
// and delete an edge iff, at processing time, either endpoint's *current*
// degree exceeds k (deletions take effect immediately, matching the proof of
// Proposition 1). The result is a k-bounded graph, and computing the edge
// count queries Q_F on it has global sensitivity 2k (Proposition 1).
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/csr.h"
#include "src/util/check.h"

namespace agmdp::dp {

/// Calls fn(u, v) for every edge of µ(G, k), in canonical order: one pass
/// over the snapshot's forward ranges with a running degree counter.
/// Requires k >= 1.
template <typename Fn>
void ForEachTruncatedEdge(const graph::CsrGraph& g, uint32_t k, Fn&& fn) {
  AGMDP_CHECK_MSG(k >= 1, "truncation parameter must be >= 1");
  // Degrees evolve as edges are deleted; an edge survives iff both endpoint
  // degrees are <= k at the moment it is processed.
  std::vector<uint32_t> degree = g.degrees();
  g.ForEachEdge([&](graph::NodeId u, graph::NodeId v) {
    if (degree[u] > k || degree[v] > k) {
      // Delete: the endpoints' current degrees drop.
      --degree[u];
      --degree[v];
    } else {
      fn(u, v);
    }
  });
}

/// Returns µ(G, k) as a sorted snapshot. Requires k >= 1.
graph::CsrGraph TruncateEdges(const graph::CsrGraph& g, uint32_t k);

/// The paper's data-independent heuristic k = n^(1/3) (Section 3.1), at
/// least 2 (k = 1 would make the 2k sensitivity argument of Proposition 1
/// degenerate and deletes nearly everything anyway).
uint32_t HeuristicTruncationK(graph::NodeId n);

}  // namespace agmdp::dp
