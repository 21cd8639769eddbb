// Per-metric reference kernels for the analytics statistics the fused
// evaluation kernel (src/graph/fused_eval.h) computes: triangles, local,
// average, global and degree-wise clustering, and degree and attribute
// assortativity. The library has exactly one implementation of each
// statistic; these are the independent, one-pass-per-metric, sequential
// definitions the tests compare it against.
//
// Each oracle follows the summation order the fused kernel documents
// (coefficients and their mean in node order; assortativity partials per
// source node over ascending forward neighbors, reduced in node order), so
// a comparison with the fused result is bitwise, not approximate. The
// clustering oracles are templated over graph::Graph and graph::CsrGraph.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/attribute_encoding.h"
#include "src/graph/clustering.h"
#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/stats/assortativity.h"

namespace agmdp::oracle {

/// Per-node triangle participation counts by the edge iterator: an edge's
/// common-neighbor count is the number of triangles through it, and each
/// corner of a triangle sits on two of its edges, so crediting both
/// endpoints of every edge counts each corner exactly twice.
template <typename AnyGraph>
std::vector<uint64_t> PerNodeTriangles(const AnyGraph& g) {
  std::vector<uint64_t> counts(g.num_nodes(), 0);
  g.ForEachEdge([&](graph::NodeId u, graph::NodeId v) {
    const uint32_t t = g.CommonNeighborCount(u, v);
    counts[u] += t;
    counts[v] += t;
  });
  for (uint64_t& c : counts) c /= 2;
  return counts;
}

/// O(n^3) triangle count (keep graphs tiny).
inline uint64_t CountTrianglesBrute(const graph::Graph& g) {
  const graph::NodeId n = g.num_nodes();
  uint64_t triangles = 0;
  for (graph::NodeId a = 0; a < n; ++a) {
    for (graph::NodeId b = a + 1; b < n; ++b) {
      if (!g.HasEdge(a, b)) continue;
      for (graph::NodeId c = b + 1; c < n; ++c) {
        if (g.HasEdge(a, c) && g.HasEdge(b, c)) ++triangles;
      }
    }
  }
  return triangles;
}

/// The whole clustering family from the per-node triangle counts:
/// C_i = 2 t_i / (d_i (d_i - 1)) (0 below degree 2), C̄ = (1/n) Σ C_i, and
/// C = 3 n∆ / n_W (0 for wedge-free graphs).
template <typename AnyGraph>
graph::ClusteringStats ComputeClusteringStats(const AnyGraph& g) {
  graph::ClusteringStats s;
  s.per_node_triangles = PerNodeTriangles(g);
  s.local_coefficients.assign(g.num_nodes(), 0.0);
  uint64_t corners = 0;
  double sum = 0.0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const uint64_t d = g.Degree(v);
    const uint64_t t = s.per_node_triangles[v];
    if (d >= 2) {
      s.local_coefficients[v] =
          2.0 * static_cast<double>(t) /
          (static_cast<double>(d) * static_cast<double>(d - 1));
    }
    corners += t;
    s.wedges += d * (d - 1) / 2;
    sum += s.local_coefficients[v];
  }
  s.triangles = corners / 3;
  if (g.num_nodes() > 0) {
    s.avg_local_clustering = sum / static_cast<double>(g.num_nodes());
  }
  if (s.wedges > 0) {
    s.global_clustering = 3.0 * static_cast<double>(s.triangles) /
                          static_cast<double>(s.wedges);
  }
  return s;
}

template <typename AnyGraph>
std::vector<double> LocalClusteringCoefficients(const AnyGraph& g) {
  return ComputeClusteringStats(g).local_coefficients;
}

template <typename AnyGraph>
double AverageLocalClustering(const AnyGraph& g) {
  return ComputeClusteringStats(g).avg_local_clustering;
}

template <typename AnyGraph>
double GlobalClusteringCoefficient(const AnyGraph& g) {
  return ComputeClusteringStats(g).global_clustering;
}

/// c_d: the mean local coefficient over the nodes of degree d (length
/// MaxDegree + 1; degrees with no nodes get 0).
template <typename AnyGraph>
std::vector<double> DegreeWiseClustering(const AnyGraph& g) {
  const std::vector<double> coeffs = LocalClusteringCoefficients(g);
  std::vector<double> sum(g.MaxDegree() + 1, 0.0);
  std::vector<uint64_t> count(g.MaxDegree() + 1, 0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    sum[g.Degree(v)] += coeffs[v];
    ++count[g.Degree(v)];
  }
  for (size_t d = 0; d < sum.size(); ++d) {
    if (count[d] > 0) sum[d] /= static_cast<double>(count[d]);
  }
  return sum;
}

/// Newman's degree assortativity r over the 2m ordered endpoint pairs.
inline double DegreeAssortativity(const graph::CsrGraph& g) {
  double sum_xy = 0.0, sum_x = 0.0, sum_x2 = 0.0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    const double du = g.Degree(u);
    double a = 0.0, b = 0.0, c = 0.0;
    for (graph::NodeId v : g.Neighbors(u)) {
      if (v <= u) continue;
      const double dv = g.Degree(v);
      a += 2.0 * du * dv;
      b += du + dv;
      c += du * du + dv * dv;
    }
    sum_xy += a;
    sum_x += b;
    sum_x2 += c;
  }
  return stats::DegreeAssortativityFromSums(sum_xy, sum_x, sum_x2,
                                            g.num_edges());
}

/// Attribute assortativity from the k x k ordered-endpoint mixing tallies.
inline double AttributeAssortativity(const graph::AttributedCsrGraph& g) {
  const uint32_t k = graph::NumNodeConfigs(g.num_attributes);
  std::vector<uint64_t> counts(static_cast<size_t>(k) * k, 0);
  g.structure.ForEachEdge([&](graph::NodeId u, graph::NodeId v) {
    const graph::AttrConfig a = g.attribute(u), b = g.attribute(v);
    ++counts[static_cast<size_t>(a) * k + b];
    ++counts[static_cast<size_t>(b) * k + a];
  });
  return stats::AttributeAssortativityFromMixingCounts(counts, k,
                                                       g.num_edges());
}

/// Per attribute bit, the fraction of edges whose endpoints agree on it.
inline std::vector<double> PerAttributeHomophily(
    const graph::AttributedCsrGraph& g) {
  const auto w = static_cast<size_t>(g.num_attributes);
  std::vector<uint64_t> counts(w, 0);
  g.structure.ForEachEdge([&](graph::NodeId u, graph::NodeId v) {
    const graph::AttrConfig agree = ~(g.attribute(u) ^ g.attribute(v));
    for (size_t a = 0; a < w; ++a) {
      if ((agree >> a) & 1u) ++counts[a];
    }
  });
  return stats::PerAttributeHomophilyFromCounts(counts, g.num_edges());
}

}  // namespace agmdp::oracle
