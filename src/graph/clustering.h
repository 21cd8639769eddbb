// Clustering coefficient statistics (Section 5.1 of the paper).
//
// The triangle phase runs once, in the fused evaluation kernel
// (fused_eval.h); these formula tails turn its per-node triangle counts
// into the clustering family. Every per-node coefficient is a pure
// function of integer triangle and degree counts, and the averages reduce
// sequentially in node order, so the results are bitwise-identical at
// every analytics thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/csr.h"

namespace agmdp::graph {

/// \brief The whole triangle-derived statistic family of one graph.
///
/// Local clustering coefficient per node: C_i = 2 t_i / (d_i (d_i - 1)),
/// where t_i is the number of triangles through node i. Nodes of degree < 2
/// get C_i = 0 (the usual convention, also what CCDF plots assume).
struct ClusteringStats {
  std::vector<uint64_t> per_node_triangles;
  std::vector<double> local_coefficients;
  uint64_t triangles = 0;  // sum(per_node_triangles) / 3
  uint64_t wedges = 0;
  double avg_local_clustering = 0.0;  // C̄ = (1/n) Σ C_i, 0 for empty graphs
  double global_clustering = 0.0;  // 3 n∆ / n_W, 0 for wedge-free graphs
};

/// Derives the full ClusteringStats bundle from per-node triangle counts.
ClusteringStats ClusteringStatsFromTriangles(
    const CsrGraph& g, std::vector<uint64_t> per_node_triangles);

/// Degree-wise clustering profile c_d from the local coefficients: the
/// mean coefficient over nodes of degree d, indexed by degree (length
/// MaxDegree + 1; degrees with no nodes get 0). This is the statistic the
/// BTER model is parameterized by (Section 3.3 discusses why that makes
/// BTER hard to release under DP).
std::vector<double> DegreeWiseClusteringFromCoefficients(
    const CsrGraph& g, const std::vector<double>& coeffs);

}  // namespace agmdp::graph
