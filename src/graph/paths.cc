#include "src/graph/paths.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/util/check.h"

namespace agmdp::graph {

namespace {

constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();

}  // namespace

std::vector<uint32_t> BfsDistances(const CsrGraph& g, NodeId source) {
  AGMDP_CHECK(source < g.num_nodes());
  std::vector<uint32_t> dist(g.num_nodes(), kUnreachable);
  std::vector<NodeId> frontier = {source};
  dist[source] = 0;
  uint32_t depth = 0;
  std::vector<NodeId> next;
  while (!frontier.empty()) {
    ++depth;
    next.clear();
    for (NodeId u : frontier) {
      for (NodeId v : g.Neighbors(u)) {
        if (dist[v] == kUnreachable) {
          dist[v] = depth;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

PathStats EstimatePathStats(const CsrGraph& g, uint32_t sample_sources,
                            util::Rng& rng) {
  PathStats stats;
  const NodeId n = g.num_nodes();
  if (n == 0) return stats;

  std::vector<NodeId> sources;
  if (sample_sources >= n) {
    sources.resize(n);
    std::iota(sources.begin(), sources.end(), 0);
  } else {
    sources.reserve(sample_sources);
    for (uint32_t i = 0; i < sample_sources; ++i) {
      sources.push_back(static_cast<NodeId>(rng.UniformIndex(n)));
    }
  }

  double sum = 0.0;
  uint64_t count = 0;
  std::vector<uint64_t> depth_histogram;
  for (NodeId s : sources) {
    for (uint32_t d : BfsDistances(g, s)) {
      if (d == kUnreachable || d == 0) continue;
      sum += d;
      ++count;
      if (d >= depth_histogram.size()) depth_histogram.resize(d + 1, 0);
      ++depth_histogram[d];
      stats.diameter_lower_bound = std::max(stats.diameter_lower_bound, d);
    }
  }
  if (count == 0) return stats;
  stats.avg_path_length = sum / static_cast<double>(count);

  // Effective diameter: smallest depth covering >= 90% of reachable pairs,
  // with linear interpolation inside the final bucket.
  const double target = 0.9 * static_cast<double>(count);
  double covered = 0.0;
  for (uint32_t d = 1; d < depth_histogram.size(); ++d) {
    const double next_covered = covered + static_cast<double>(depth_histogram[d]);
    if (next_covered >= target) {
      const double inside =
          depth_histogram[d] == 0
              ? 0.0
              : (target - covered) / static_cast<double>(depth_histogram[d]);
      stats.effective_diameter = static_cast<double>(d - 1) + inside;
      break;
    }
    covered = next_covered;
  }
  return stats;
}

}  // namespace agmdp::graph
