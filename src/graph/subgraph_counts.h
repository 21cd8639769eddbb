// k-star counting. A k-star is a center node with k chosen neighbors, so a
// node of degree d contributes C(d, k) stars. Together with triangles these
// are the standard subgraph statistics of the DP graph-analysis literature
// (the Ladder framework of Zhang et al. covers both); the DP estimator
// lives in dp/ladder_mechanism.h.
#pragma once

#include <cstdint>

#include "src/graph/csr.h"

namespace agmdp::graph {

/// Binomial coefficient C(n, k) saturating at UINT64_MAX (no overflow UB).
uint64_t BinomialOrSaturate(uint64_t n, uint64_t k);

/// Number of k-stars: sum over nodes of C(degree, k). Requires k >= 1.
/// (k = 2 equals the wedge count.)
uint64_t CountKStars(const CsrGraph& g, uint32_t k);

}  // namespace agmdp::graph
