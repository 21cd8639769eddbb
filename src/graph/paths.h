// Shortest-path statistics (BFS-based). Average path length and effective
// diameter are standard structural-fidelity checks for synthetic social
// graphs; the extended-stats bench uses them to stress AGM-DP beyond the
// statistics its models explicitly target.
// BFS depths do not depend on the neighbor visit order, so distances, and
// every statistic derived from them, are a pure function of the edge set
// (given the same rng sequence).
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/csr.h"
#include "src/util/rng.h"

namespace agmdp::graph {

/// BFS distances from `source` (unreachable nodes get UINT32_MAX).
std::vector<uint32_t> BfsDistances(const CsrGraph& g, NodeId source);

struct PathStats {
  /// Mean finite pairwise distance over the sampled sources.
  double avg_path_length = 0.0;
  /// Max distance observed from any sampled source (lower bound on the
  /// diameter; exact when all nodes are sampled).
  uint32_t diameter_lower_bound = 0;
  /// 90th-percentile distance ("effective diameter").
  double effective_diameter = 0.0;
};

/// Estimates path statistics by running BFS from `sample_sources` uniformly
/// random sources (all nodes when sample_sources >= n; deterministic given
/// rng). Unreachable pairs are excluded from the averages.
PathStats EstimatePathStats(const CsrGraph& g, uint32_t sample_sources,
                            util::Rng& rng);

}  // namespace agmdp::graph
