// Triangle and wedge counting.
//
// CountTriangles is the degree-ordered edge-iterator ("forward") algorithm,
// O(m^{3/2}); CountTrianglesBrute is the O(n^3) reference used in tests.
// MaxCommonNeighborCount supports the Ladder mechanism (dp/ladder_mechanism):
// the local sensitivity of the triangle count at an edge {u, v} is
// |Γ(u) ∩ Γ(v)|, so its maximum over all node pairs is the graph's local
// sensitivity.
// Both CountTriangles overloads run one kernel over a forward adjacency in
// CSR form, ordered by (degree, id) rank; the CsrGraph overload may split
// it over threads. PerNodeTriangles on a CsrGraph merge-joins sorted
// neighbor ranges (instead of hash probes) for the per-edge
// common-neighbor counts. All counts are integers, so any static work
// partition reduces to the same result — bitwise-identical to the Graph
// path at every thread count (threads <= 0 selects hardware concurrency).
#pragma once

#include <cstdint>

#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/util/status.h"

namespace agmdp::graph {

/// Exact triangle count n∆.
uint64_t CountTriangles(const Graph& g);
uint64_t CountTriangles(const CsrGraph& g, int threads = 1);

/// O(n^3) reference implementation (tests only; keep graphs tiny).
uint64_t CountTrianglesBrute(const Graph& g);

/// Number of wedges (paths of length two), n_W = sum_v C(d_v, 2).
uint64_t CountWedges(const CsrGraph& g);

/// Per-node triangle participation counts (each triangle contributes one to
/// each of its three corners).
std::vector<uint64_t> PerNodeTriangles(const Graph& g);
std::vector<uint64_t> PerNodeTriangles(const CsrGraph& g, int threads = 1);

/// Exact max_{u != v} |Γ(u) ∩ Γ(v)| over all node pairs (only pairs at
/// distance <= 2 can have a nonzero count, so the scan enumerates wedges).
/// Returns FailedPrecondition if the wedge work exceeds `max_work` (callers
/// then fall back to the degree bound; see dp/ladder_mechanism.h).
util::Result<uint32_t> MaxCommonNeighborCount(const CsrGraph& g,
                                              uint64_t max_work);

}  // namespace agmdp::graph
