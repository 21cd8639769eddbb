// CsrGraph snapshot layer: FromGraph round-trip equivalence against the
// mutable Graph, edge cases (empty / star / complete), and the determinism
// contract of the parallel analytics kernels — every metric computed via
// the snapshot must match the Graph kernels the generators use where both
// exist, and be bitwise-identical across 1/2/4 analytics threads.
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
#include "src/graph/triangle_count.h"
#include "src/stats/assortativity.h"
#include "src/stats/ccdf.h"
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
  std::vector<uint32_t> sorted = DegreeSequence(g);
  EXPECT_EQ(csr.degrees(), sorted);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(SortedDegreeSequence(csr), sorted);
  std::vector<uint64_t> hist(g.MaxDegree() + 1, 0);
  for (uint32_t d : sorted) ++hist[d];
  EXPECT_EQ(DegreeHistogram(csr), hist);
  EXPECT_EQ(AverageDegree(csr), 2.0 * static_cast<double>(g.num_edges()) /
                                    static_cast<double>(g.num_nodes()));
}

TEST(CsrGraphTest, ForEachEdgeIsCanonicalOrder) {
  const Graph g = RandomGraph(30, 0.2, 12);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  std::vector<Edge> seen;
  csr.ForEachEdge([&](NodeId u, NodeId v) { seen.emplace_back(u, v); });
  EXPECT_EQ(seen, g.CanonicalEdges());
}

// ----------------------------------------------------------- kernels --

TEST(CsrKernelsTest, TriangleKernelsMatchGraphKernelsAtEveryThreadCount) {
  const Graph g = RandomGraph(60, 0.12, 13);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const uint64_t brute = CountTrianglesBrute(g);
  EXPECT_EQ(CountTriangles(g), brute);
  const std::vector<uint64_t> per_node = PerNodeTriangles(g);
  uint64_t wedges = 0;
  for (uint64_t d : DegreeSequence(g)) wedges += d * (d - 1) / 2;
  EXPECT_EQ(CountWedges(csr), wedges);
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
  const double global = 3.0 * static_cast<double>(CountTriangles(g)) /
                        static_cast<double>(CountWedges(csr));
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(LocalClusteringCoefficients(csr, threads), cc);
    EXPECT_EQ(AverageLocalClustering(csr, threads),
              AverageLocalClustering(g));
    EXPECT_EQ(GlobalClusteringCoefficient(csr, threads), global);
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
    EXPECT_EQ(stats.wedges, CountWedges(csr));
    EXPECT_EQ(stats.global_clustering, GlobalClusteringCoefficient(csr));
  }
}

// The kernels' values are checked against brute-force definitions in
// fuzz_test.cc; here every thread count must reproduce the 1-thread bits.
TEST(CsrKernelsTest, StatsBitwiseEqualAtEveryThreadCount) {
  const AttributedGraph g = RandomAttributed(70, 0.1, 3, 15);
  const AttributedCsrGraph snapshot = AttributedCsrGraph::FromGraph(g);
  const CsrGraph& csr = snapshot.structure;
  const double degree_assort = stats::DegreeAssortativity(csr);
  const double attr_assort = stats::AttributeAssortativity(snapshot);
  const std::vector<double> homophily = stats::PerAttributeHomophily(snapshot);
  const auto joint = stats::JointDegreeDistribution(csr);
  const std::vector<double> counts = agm::ComputeConnectionCounts(snapshot);
  const std::vector<double> theta_f = agm::ComputeThetaF(snapshot);
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(stats::DegreeAssortativity(csr, threads), degree_assort);
    EXPECT_EQ(stats::AttributeAssortativity(snapshot, threads), attr_assort);
    EXPECT_EQ(stats::PerAttributeHomophily(snapshot, threads), homophily);
    EXPECT_EQ(stats::JointDegreeDistribution(csr, threads), joint);
    EXPECT_EQ(agm::ComputeConnectionCounts(snapshot, threads), counts);
    EXPECT_EQ(agm::ComputeThetaF(snapshot, threads), theta_f);
  }
  EXPECT_EQ(stats::JointDegreeDistance(csr, csr), 0.0);
}

// -------------------------------------------------------------- eval --

TEST(CsrEvalTest, EvaluateReleaseBitwiseEqualAtEveryThreadCount) {
  // A random "original" and a random "released" graph, with different
  // attribute dimensions to exercise the common-prefix homophily path.
  // Report values are checked against a per-metric oracle in
  // fused_eval_test.cc; here threads and entry points must agree.
  const AttributedCsrGraph original =
      AttributedCsrGraph::FromGraph(RandomAttributed(80, 0.08, 3, 21));
  const AttributedGraph released = RandomAttributed(70, 0.1, 2, 22);

  const eval::ReferenceProfile ref_1t = eval::ProfileReference(original);
  const auto flat_1t = eval::EvaluateRelease(ref_1t, released).Flatten();

  for (int threads : {1, 2, 4}) {
    const eval::ReferenceProfile ref = eval::ProfileReference(original, threads);
    EXPECT_EQ(ref.theta_f, ref_1t.theta_f);
    EXPECT_EQ(ref.degree_distribution, ref_1t.degree_distribution);
    EXPECT_EQ(ref.sorted_local_clustering, ref_1t.sorted_local_clustering);
    EXPECT_EQ(ref.avg_clustering, ref_1t.avg_clustering);
    EXPECT_EQ(ref.global_clustering, ref_1t.global_clustering);
    EXPECT_EQ(ref.triangles, ref_1t.triangles);
    EXPECT_EQ(ref.degree_assortativity, ref_1t.degree_assortativity);
    EXPECT_EQ(ref.attribute_assortativity, ref_1t.attribute_assortativity);
    EXPECT_EQ(ref.homophily, ref_1t.homophily);
    EXPECT_EQ(ref.degree_histogram, ref_1t.degree_histogram);

    // Both entry points: the AttributedGraph wrapper (one snapshot built
    // internally) and a caller-built snapshot.
    const auto flat_wrapped =
        eval::EvaluateRelease(ref, released, threads).Flatten();
    const auto flat_snapshot =
        eval::EvaluateRelease(ref, graph::AttributedCsrGraph::FromGraph(released),
                              threads)
            .Flatten();
    EXPECT_EQ(flat_wrapped, flat_1t);
    EXPECT_EQ(flat_snapshot, flat_1t);
  }
}

TEST(CsrEvalTest, CcdfSeriesMatchTheirDefinitions) {
  const Graph g = RandomGraph(60, 0.1, 23);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const std::vector<uint32_t> degrees = DegreeSequence(g);
  EXPECT_EQ(eval::DegreeCcdfSeries(csr, 30),
            stats::DownsampleCcdf(
                stats::Ccdf(std::vector<double>(degrees.begin(), degrees.end())),
                30));
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(eval::ClusteringCcdfSeries(csr, 30, threads),
              stats::DownsampleCcdf(
                  stats::Ccdf(LocalClusteringCoefficients(g)), 30));
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
