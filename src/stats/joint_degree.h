// dK-2 series: the joint degree distribution, i.e. the distribution over
// the unordered degree pairs observed on edges. This is the statistic the
// Pygmalion / dK-graph line of related work (Sala et al.) models directly;
// here it serves as another held-out fidelity metric for synthetic graphs
// (AGM-DP never optimizes it).
// The per-edge tally is parallelized over `threads` workers (<= 0 selects
// hardware concurrency); tallies are integers keyed by degree pair, so
// merged maps are identical at any thread count.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "src/graph/csr.h"

namespace agmdp::stats {

/// Probability mass per unordered degree pair (d_min, d_max) over edges.
/// Empty for edgeless graphs.
std::map<std::pair<uint32_t, uint32_t>, double> JointDegreeDistribution(
    const graph::CsrGraph& g, int threads = 1);

/// Hellinger distance between the dK-2 series of two graphs (union of
/// supports; in [0, 1]).
double JointDegreeDistance(const graph::CsrGraph& a, const graph::CsrGraph& b,
                           int threads = 1);

}  // namespace agmdp::stats
