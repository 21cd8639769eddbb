// Clustering coefficient statistics (Section 5.1 of the paper).
//
// The CsrGraph overloads run the triangle phase on `threads` workers (<= 0
// selects hardware concurrency). Every per-node coefficient is a pure
// function of integer triangle and degree counts, and the averages reduce
// sequentially in node order — so the results are bitwise-identical to the
// Graph path at every thread count.
#pragma once

#include <vector>

#include "src/graph/csr.h"
#include "src/graph/graph.h"

namespace agmdp::graph {

/// Local clustering coefficient per node: C_i = 2 t_i / (d_i (d_i - 1)),
/// where t_i is the number of triangles through node i. Nodes of degree < 2
/// get C_i = 0 (the usual convention, also what CCDF plots assume).
std::vector<double> LocalClusteringCoefficients(const Graph& g);
std::vector<double> LocalClusteringCoefficients(const CsrGraph& g,
                                                int threads = 1);

/// Average of the local clustering coefficients, C̄ = (1/n) Σ C_i.
double AverageLocalClustering(const Graph& g);
double AverageLocalClustering(const CsrGraph& g, int threads = 1);

/// Global clustering coefficient (transitivity): C = 3 n∆ / n_W. Returns 0
/// for wedge-free graphs.
double GlobalClusteringCoefficient(const CsrGraph& g, int threads = 1);

/// Degree-wise clustering profile c_d: the mean local clustering
/// coefficient over nodes of degree d, indexed by degree (length
/// MaxDegree + 1; degrees with no nodes get 0). This is the statistic the
/// BTER model is parameterized by (Section 3.3 discusses why that makes
/// BTER hard to release under DP).
std::vector<double> DegreeWiseClustering(const Graph& g);
std::vector<double> DegreeWiseClustering(const CsrGraph& g, int threads = 1);

/// \brief The whole triangle-derived statistic family from ONE run of the
/// per-node triangle kernel (the dominant analytics cost): the total is
/// the exact integer identity sum(per-node)/3, so every field matches the
/// standalone kernels bit-for-bit. The eval layer and Summarize use this
/// instead of paying for the triangle kernel once per statistic.
struct ClusteringStats {
  std::vector<uint64_t> per_node_triangles;
  std::vector<double> local_coefficients;
  uint64_t triangles = 0;  // sum(per_node_triangles) / 3
  uint64_t wedges = 0;
  double avg_local_clustering = 0.0;  // C̄, 0 for empty graphs
  double global_clustering = 0.0;  // 3 n∆ / n_W, 0 for wedge-free graphs
};

ClusteringStats ComputeClusteringStats(const CsrGraph& g, int threads = 1);

/// Derives the full ClusteringStats bundle from already-computed per-node
/// triangle counts — the ONE formula tail shared by ComputeClusteringStats
/// and the fused kernel (fused_eval.h), so the two paths cannot drift.
ClusteringStats ClusteringStatsFromTriangles(
    const CsrGraph& g, std::vector<uint64_t> per_node_triangles);

/// The c_d profile from already-computed local coefficients (same shared
/// formula as DegreeWiseClustering, exported for the fused kernel).
std::vector<double> DegreeWiseClusteringFromCoefficients(
    const CsrGraph& g, const std::vector<double>& coeffs);

}  // namespace agmdp::graph
