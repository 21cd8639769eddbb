#include "src/graph/clustering.h"

#include <utility>

#include "src/graph/triangle_count.h"

namespace agmdp::graph {

ClusteringStats ClusteringStatsFromTriangles(
    const CsrGraph& g, std::vector<uint64_t> per_node_triangles) {
  ClusteringStats stats;
  stats.per_node_triangles = std::move(per_node_triangles);
  stats.local_coefficients.assign(g.num_nodes(), 0.0);
  uint64_t corner_sum = 0;
  double coefficient_sum = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const uint64_t d = g.Degree(v);
    const uint64_t t = stats.per_node_triangles[v];
    if (d >= 2) {
      stats.local_coefficients[v] =
          2.0 * static_cast<double>(t) /
          (static_cast<double>(d) * static_cast<double>(d - 1));
    }
    corner_sum += t;
    coefficient_sum += stats.local_coefficients[v];
  }
  stats.triangles = corner_sum / 3;  // each triangle has three corners
  stats.wedges = CountWedges(g);
  if (g.num_nodes() > 0) {
    stats.avg_local_clustering =
        coefficient_sum / static_cast<double>(g.num_nodes());
  }
  if (stats.wedges > 0) {
    stats.global_clustering = 3.0 * static_cast<double>(stats.triangles) /
                              static_cast<double>(stats.wedges);
  }
  return stats;
}

std::vector<double> DegreeWiseClusteringFromCoefficients(
    const CsrGraph& g, const std::vector<double>& coeffs) {
  std::vector<double> sum(g.MaxDegree() + 1, 0.0);
  std::vector<uint64_t> count(g.MaxDegree() + 1, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    sum[g.Degree(v)] += coeffs[v];
    ++count[g.Degree(v)];
  }
  for (size_t d = 0; d < sum.size(); ++d) {
    if (count[d] > 0) sum[d] /= static_cast<double>(count[d]);
  }
  return sum;
}

}  // namespace agmdp::graph
