// CsrGraph snapshot layer: FromGraph round-trip equivalence against the
// mutable Graph, edge cases (empty / star / complete), and the determinism
// contract of the parallel analytics kernels — every metric computed via
// the snapshot must be bitwise-identical to the legacy adjacency-list path,
// and identical across 1/2/4 analytics threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/agm/theta_f.h"
#include "src/eval/utility_report.h"
#include "src/graph/attributed_graph.h"
#include "src/graph/clustering.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/graph.h"
#include "src/graph/paths.h"
#include "src/graph/triangle_count.h"
#include "src/stats/assortativity.h"
#include "src/stats/joint_degree.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"

namespace agmdp::graph {
namespace {

Graph RandomGraph(NodeId n, double p, uint64_t seed) {
  util::Rng rng(seed);
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) g.AddEdge(u, v);
    }
  }
  return g;
}

AttributedGraph RandomAttributed(NodeId n, double p, int w, uint64_t seed) {
  AttributedGraph g(RandomGraph(n, p, seed), w);
  util::Rng rng(seed + 1);
  for (NodeId v = 0; v < n; ++v) {
    g.set_attribute(v, static_cast<AttrConfig>(rng.UniformIndex(1u << w)));
  }
  return g;
}

std::vector<NodeId> SortedNeighbors(const Graph& g, NodeId v) {
  std::vector<NodeId> out = g.Neighbors(v);
  std::sort(out.begin(), out.end());
  return out;
}

// --------------------------------------------------------- structure --

TEST(CsrGraphTest, EmptyGraph) {
  const CsrGraph csr = CsrGraph::FromGraph(Graph());
  EXPECT_EQ(csr.num_nodes(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
  EXPECT_EQ(csr.MaxDegree(), 0u);
  EXPECT_EQ(CountTriangles(csr), 0u);
  EXPECT_EQ(CountWedges(csr), 0u);
  EXPECT_TRUE(PerNodeTriangles(csr).empty());
  EXPECT_TRUE(LocalClusteringCoefficients(csr).empty());
  EXPECT_EQ(AverageLocalClustering(csr), 0.0);
}

TEST(CsrGraphTest, EdgelessGraph) {
  const CsrGraph csr = CsrGraph::FromGraph(Graph(7));
  EXPECT_EQ(csr.num_nodes(), 7u);
  EXPECT_EQ(csr.num_edges(), 0u);
  for (NodeId v = 0; v < 7; ++v) {
    EXPECT_EQ(csr.Degree(v), 0u);
    EXPECT_TRUE(csr.Neighbors(v).empty());
  }
  EXPECT_FALSE(csr.HasEdge(0, 1));
}

TEST(CsrGraphTest, StarGraph) {
  Graph g(6);  // center 0, leaves 1..5
  for (NodeId v = 1; v < 6; ++v) g.AddEdge(0, v);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_EQ(csr.Degree(0), 5u);
  EXPECT_EQ(csr.MaxDegree(), 5u);
  for (NodeId v = 1; v < 6; ++v) {
    EXPECT_EQ(csr.Degree(v), 1u);
    EXPECT_TRUE(csr.HasEdge(0, v));
    EXPECT_TRUE(csr.HasEdge(v, 0));
  }
  EXPECT_FALSE(csr.HasEdge(1, 2));
  EXPECT_EQ(CountTriangles(csr), 0u);
  EXPECT_EQ(CountWedges(csr), 10u);  // C(5, 2) at the center
  EXPECT_EQ(csr.CommonNeighborCount(1, 2), 1u);  // the center
  EXPECT_EQ(csr.CommonNeighborCount(0, 1), 0u);
}

TEST(CsrGraphTest, CompleteGraph) {
  const NodeId n = 6;
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_EQ(csr.num_edges(), 15u);
  EXPECT_EQ(CountTriangles(csr), 20u);  // C(6, 3)
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(csr.Degree(u), n - 1);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(csr.HasEdge(u, v), u != v);
    }
  }
  const std::vector<double> cc = LocalClusteringCoefficients(csr);
  for (double c : cc) EXPECT_EQ(c, 1.0);
}

TEST(CsrGraphTest, RoundTripMatchesGraph) {
  const Graph g = RandomGraph(40, 0.15, 11);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  ASSERT_EQ(csr.num_nodes(), g.num_nodes());
  EXPECT_EQ(csr.num_edges(), g.num_edges());
  EXPECT_EQ(csr.MaxDegree(), g.MaxDegree());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(csr.Degree(v), g.Degree(v));
    const std::vector<NodeId> expected = SortedNeighbors(g, v);
    const NeighborRange range = csr.Neighbors(v);
    ASSERT_EQ(range.size(), expected.size());
    EXPECT_TRUE(std::equal(range.begin(), range.end(), expected.begin()));
    EXPECT_TRUE(std::is_sorted(range.begin(), range.end()));
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(csr.HasEdge(u, v), g.HasEdge(u, v)) << u << "," << v;
      if (u != v) {
        EXPECT_EQ(csr.CommonNeighborCount(u, v), g.CommonNeighborCount(u, v));
      }
    }
  }
  EXPECT_EQ(DegreeSequence(csr), DegreeSequence(g));
  EXPECT_EQ(SortedDegreeSequence(csr), SortedDegreeSequence(g));
  EXPECT_EQ(DegreeHistogram(csr), DegreeHistogram(g));
  EXPECT_EQ(AverageDegree(csr), AverageDegree(g));
}

TEST(CsrGraphTest, ForEachEdgeIsCanonicalOrder) {
  const Graph g = RandomGraph(30, 0.2, 12);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  std::vector<Edge> seen;
  csr.ForEachEdge([&](NodeId u, NodeId v) { seen.emplace_back(u, v); });
  EXPECT_EQ(seen, g.CanonicalEdges());
}

// ----------------------------------------------------------- kernels --

TEST(CsrKernelsTest, TriangleKernelsMatchLegacyAtEveryThreadCount) {
  const Graph g = RandomGraph(60, 0.12, 13);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const uint64_t brute = CountTrianglesBrute(g);
  EXPECT_EQ(CountTriangles(g), brute);
  const std::vector<uint64_t> per_node = PerNodeTriangles(g);
  EXPECT_EQ(CountWedges(csr), CountWedges(g));
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(CountTriangles(csr, threads), brute);
    EXPECT_EQ(PerNodeTriangles(csr, threads), per_node);
  }
}

TEST(CsrKernelsTest, TriangleKernelAgreesAfterAddRemoveChurn) {
  // Swap-pop removal leaves adjacency lists unordered; the shared forward
  // kernel must not depend on neighbor order in either representation.
  Graph g = RandomGraph(48, 0.2, 29);
  util::Rng rng(31);
  for (int step = 0; step < 3000; ++step) {
    const auto u = static_cast<NodeId>(rng.UniformIndex(g.num_nodes()));
    const auto v = static_cast<NodeId>(rng.UniformIndex(g.num_nodes()));
    if (rng.Bernoulli(0.5)) {
      g.AddEdge(u, v);
    } else {
      g.RemoveEdge(u, v);
    }
    if (step % 500 != 499) continue;
    const uint64_t brute = CountTrianglesBrute(g);
    ASSERT_GT(brute, 0u);
    EXPECT_EQ(CountTriangles(g), brute) << "step " << step;
    const CsrGraph csr = CsrGraph::FromGraph(g);
    for (int threads : {1, 4}) {
      EXPECT_EQ(CountTriangles(csr, threads), brute)
          << "step " << step << " threads " << threads;
    }
  }
}

TEST(CsrKernelsTest, ClusteringBitwiseEqualAtEveryThreadCount) {
  const Graph g = RandomGraph(60, 0.12, 14);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const std::vector<double> cc = LocalClusteringCoefficients(g);
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(LocalClusteringCoefficients(csr, threads), cc);
    EXPECT_EQ(AverageLocalClustering(csr, threads),
              AverageLocalClustering(g));
    EXPECT_EQ(GlobalClusteringCoefficient(csr, threads),
              GlobalClusteringCoefficient(g));
    EXPECT_EQ(DegreeWiseClustering(csr, threads), DegreeWiseClustering(g));
  }
}

TEST(CsrKernelsTest, ClusteringStatsBundleMatchesStandaloneKernels) {
  const Graph g = RandomGraph(60, 0.12, 18);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  for (int threads : {1, 2, 4}) {
    const ClusteringStats stats = ComputeClusteringStats(csr, threads);
    EXPECT_EQ(stats.per_node_triangles, PerNodeTriangles(g));
    EXPECT_EQ(stats.local_coefficients, LocalClusteringCoefficients(g));
    EXPECT_EQ(stats.triangles, CountTriangles(g));
    EXPECT_EQ(stats.wedges, CountWedges(g));
    EXPECT_EQ(stats.global_clustering, GlobalClusteringCoefficient(g));
  }
}

TEST(CsrKernelsTest, StatsBitwiseEqualAtEveryThreadCount) {
  const AttributedGraph g = RandomAttributed(70, 0.1, 3, 15);
  const AttributedCsrGraph snapshot = AttributedCsrGraph::FromGraph(g);
  const Graph& s = g.structure();
  const CsrGraph& csr = snapshot.structure;
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(stats::DegreeAssortativity(csr, threads),
              stats::DegreeAssortativity(s));
    EXPECT_EQ(stats::AttributeAssortativity(snapshot, threads),
              stats::AttributeAssortativity(g));
    EXPECT_EQ(stats::PerAttributeHomophily(snapshot, threads),
              stats::PerAttributeHomophily(g));
    EXPECT_EQ(stats::JointDegreeDistribution(csr, threads),
              stats::JointDegreeDistribution(s));
    EXPECT_EQ(agm::ComputeConnectionCounts(snapshot, threads),
              agm::ComputeConnectionCounts(g));
    EXPECT_EQ(agm::ComputeThetaF(snapshot, threads), agm::ComputeThetaF(g));
  }
  EXPECT_EQ(stats::DegreeDistribution(csr), stats::DegreeDistribution(s));
  EXPECT_EQ(stats::JointDegreeDistance(csr, csr),
            stats::JointDegreeDistance(s, s));
}

TEST(CsrKernelsTest, BfsAndPathStatsMatchLegacy) {
  const Graph g = RandomGraph(50, 0.08, 16);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  for (NodeId s : {NodeId{0}, NodeId{17}, NodeId{49}}) {
    EXPECT_EQ(BfsDistances(csr, s), BfsDistances(g, s));
  }
  util::Rng rng_legacy(99), rng_csr(99);
  const PathStats legacy = EstimatePathStats(g, 16, rng_legacy);
  const PathStats snapshot = EstimatePathStats(csr, 16, rng_csr);
  EXPECT_EQ(snapshot.avg_path_length, legacy.avg_path_length);
  EXPECT_EQ(snapshot.effective_diameter, legacy.effective_diameter);
  EXPECT_EQ(snapshot.diameter_lower_bound, legacy.diameter_lower_bound);
}

// -------------------------------------------------------------- eval --

TEST(CsrEvalTest, EvaluateReleaseBitwiseEqualsLegacyAtEveryThreadCount) {
  // A random "original" and a random "released" graph, with different
  // attribute dimensions to exercise the common-prefix homophily path.
  const AttributedGraph original = RandomAttributed(80, 0.08, 3, 21);
  const AttributedGraph released = RandomAttributed(70, 0.1, 2, 22);

  const eval::ReferenceProfile ref_legacy =
      eval::ProfileReferenceLegacy(original);
  const eval::UtilityReport report_legacy =
      eval::EvaluateReleaseLegacy(ref_legacy, released);
  const auto flat_legacy = report_legacy.Flatten();

  for (int threads : {1, 2, 4}) {
    const eval::ReferenceProfile ref = eval::ProfileReference(original, threads);
    EXPECT_EQ(ref.theta_f, ref_legacy.theta_f);
    EXPECT_EQ(ref.sorted_degrees, ref_legacy.sorted_degrees);
    EXPECT_EQ(ref.degree_distribution, ref_legacy.degree_distribution);
    EXPECT_EQ(ref.local_clustering, ref_legacy.local_clustering);
    EXPECT_EQ(ref.avg_clustering, ref_legacy.avg_clustering);
    EXPECT_EQ(ref.global_clustering, ref_legacy.global_clustering);
    EXPECT_EQ(ref.triangles, ref_legacy.triangles);
    EXPECT_EQ(ref.degree_assortativity, ref_legacy.degree_assortativity);
    EXPECT_EQ(ref.attribute_assortativity, ref_legacy.attribute_assortativity);
    EXPECT_EQ(ref.homophily, ref_legacy.homophily);

    // Both entry points: the AttributedGraph wrapper (one snapshot built
    // internally) and a caller-built snapshot.
    const auto flat_wrapped =
        eval::EvaluateRelease(ref, released, threads).Flatten();
    const auto flat_snapshot =
        eval::EvaluateRelease(ref, graph::AttributedCsrGraph::FromGraph(released),
                              threads)
            .Flatten();
    EXPECT_EQ(flat_wrapped, flat_legacy);
    EXPECT_EQ(flat_snapshot, flat_legacy);
  }
}

TEST(CsrEvalTest, CcdfSeriesMatchLegacy) {
  const Graph g = RandomGraph(60, 0.1, 23);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_EQ(eval::DegreeCcdfSeries(csr, 30), eval::DegreeCcdfSeries(g, 30));
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(eval::ClusteringCcdfSeries(csr, 30, threads),
              eval::ClusteringCcdfSeries(g, 30));
  }
}

TEST(CsrEvalTest, ProfileGraphMatchesAcrossThreadCounts) {
  const AttributedGraph g = RandomAttributed(60, 0.1, 2, 24);
  util::Rng rng1(7), rng2(7);
  const eval::StructuralProfile p1 = eval::ProfileGraph(g, 16, rng1, 1);
  const eval::StructuralProfile p4 = eval::ProfileGraph(g, 16, rng2, 4);
  EXPECT_EQ(p1.avg_path_length, p4.avg_path_length);
  EXPECT_EQ(p1.degree_assortativity, p4.degree_assortativity);
  EXPECT_EQ(p1.attribute_assortativity, p4.attribute_assortativity);
  EXPECT_EQ(p1.homophily, p4.homophily);
}

}  // namespace
}  // namespace agmdp::graph
