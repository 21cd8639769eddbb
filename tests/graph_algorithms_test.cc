#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/graph/clustering.h"
#include "src/graph/components.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/fused_eval.h"
#include "src/graph/triangle_count.h"
#include "src/util/rng.h"
#include "tests/analytics_oracle.h"
#include "tests/test_support.h"

namespace agmdp::graph {
namespace {

Graph Triangle() {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  return g;
}

// The library's clustering family of a graph (the fused kernel's triangle
// sweep and formula tail).
ClusteringStats Clustering(const Graph& g) {
  return FusedEvaluate(CsrGraph::FromGraph(g)).clustering;
}

Graph CompleteGraph(NodeId n) {
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  return g;
}

// -------------------------------------------------------------- Triangles --

TEST(TriangleCountTest, EmptyAndTinyGraphs) {
  EXPECT_EQ(CountTriangles(Graph(0)), 0u);
  EXPECT_EQ(CountTriangles(Graph(5)), 0u);
  EXPECT_EQ(CountTriangles(Triangle()), 1u);
}

TEST(TriangleCountTest, CompleteGraphHasBinomialTriangles) {
  for (NodeId n : {4u, 6u, 9u}) {
    const uint64_t expected =
        static_cast<uint64_t>(n) * (n - 1) * (n - 2) / 6;
    EXPECT_EQ(CountTriangles(CompleteGraph(n)), expected) << "K_" << n;
  }
}

TEST(TriangleCountTest, BipartiteGraphHasNone) {
  Graph g(6);  // K_{3,3}
  for (NodeId u = 0; u < 3; ++u) {
    for (NodeId v = 3; v < 6; ++v) g.AddEdge(u, v);
  }
  EXPECT_EQ(CountTriangles(g), 0u);
}

// Property sweep: the fast counter must agree with brute force on random
// graphs across densities.
class TriangleAgreementTest : public ::testing::TestWithParam<double> {};

TEST_P(TriangleAgreementTest, FastMatchesBruteForce) {
  util::Rng rng(1234 + static_cast<uint64_t>(GetParam() * 100));
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = test_support::ErdosRenyiGnp(40, GetParam(), rng);
    EXPECT_EQ(CountTriangles(g), oracle::CountTrianglesBrute(g));
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, TriangleAgreementTest,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4, 0.7));

TEST(WedgeCountTest, StarAndTriangle) {
  Graph star(5);
  for (NodeId v = 1; v < 5; ++v) star.AddEdge(0, v);
  EXPECT_EQ(CountWedges(CsrGraph::FromGraph(star)), 6u);  // C(4,2)
  EXPECT_EQ(CountWedges(CsrGraph::FromGraph(Triangle())), 3u);
}

TEST(PerNodeTrianglesTest, MatchesTotal) {
  util::Rng rng(99);
  Graph g = test_support::ErdosRenyiGnp(50, 0.2, rng);
  std::vector<uint64_t> per_node = Clustering(g).per_node_triangles;
  uint64_t sum = std::accumulate(per_node.begin(), per_node.end(),
                                 uint64_t{0});
  EXPECT_EQ(sum, 3 * CountTriangles(g));  // each triangle has 3 corners
}

TEST(MaxCommonNeighborTest, KnownValues) {
  // Two nodes sharing 3 common neighbors.
  Graph g(5);
  for (NodeId w = 2; w < 5; ++w) {
    g.AddEdge(0, w);
    g.AddEdge(1, w);
  }
  auto result = MaxCommonNeighborCount(CsrGraph::FromGraph(g), 1'000'000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 3u);
}

TEST(MaxCommonNeighborTest, RespectsWorkBudget) {
  const CsrGraph g = CsrGraph::FromGraph(CompleteGraph(30));
  EXPECT_FALSE(MaxCommonNeighborCount(g, 10).ok());
  auto full = MaxCommonNeighborCount(g, 10'000'000);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value(), 28u);  // K_30: every pair shares n-2 neighbors
}

TEST(MaxCommonNeighborTest, UpperBoundsEveryEdgeEffect) {
  // Removing any edge changes the triangle count by its common-neighbor
  // count, so amax must bound the per-edge triangle deltas (the ladder's
  // local sensitivity argument).
  util::Rng rng(7);
  Graph g = test_support::ErdosRenyiGnp(40, 0.25, rng);
  auto amax = MaxCommonNeighborCount(CsrGraph::FromGraph(g), 10'000'000);
  ASSERT_TRUE(amax.ok());
  const uint64_t before = CountTriangles(g);
  std::vector<Edge> edges = g.CanonicalEdges();
  for (size_t i = 0; i < std::min<size_t>(edges.size(), 30); ++i) {
    Graph h = g;
    h.RemoveEdge(edges[i].u, edges[i].v);
    const uint64_t after = CountTriangles(h);
    EXPECT_LE(before - after, amax.value());
  }
}

// ------------------------------------------------------------- Clustering --

TEST(ClusteringTest, TriangleIsFullyClustered) {
  const ClusteringStats stats = Clustering(Triangle());
  for (double c : stats.local_coefficients) EXPECT_DOUBLE_EQ(c, 1.0);
  EXPECT_DOUBLE_EQ(stats.avg_local_clustering, 1.0);
  EXPECT_DOUBLE_EQ(stats.global_clustering, 1.0);
}

TEST(ClusteringTest, StarHasZeroClustering) {
  Graph g(5);
  for (NodeId v = 1; v < 5; ++v) g.AddEdge(0, v);
  const ClusteringStats stats = Clustering(g);
  EXPECT_DOUBLE_EQ(stats.avg_local_clustering, 0.0);
  EXPECT_DOUBLE_EQ(stats.global_clustering, 0.0);
}

TEST(ClusteringTest, PaperFormulaOnMixedGraph) {
  // Triangle 0-1-2 plus pendant 3 attached to 0.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  const ClusteringStats stats = Clustering(g);
  const std::vector<double>& local = stats.local_coefficients;
  EXPECT_DOUBLE_EQ(local[0], 1.0 / 3.0);  // d=3, one triangle
  EXPECT_DOUBLE_EQ(local[1], 1.0);
  EXPECT_DOUBLE_EQ(local[3], 0.0);        // degree 1
  // Global: 3 * 1 triangle / (3 + C(3,2)) wedges = 3 / 5... wedges: node0
  // C(3,2)=3, node1 C(2,2)=1, node2 C(2,2)=1 -> 5 wedges.
  EXPECT_DOUBLE_EQ(stats.global_clustering, 3.0 / 5.0);
}

TEST(ClusteringTest, GlobalVsLocalEmphasis) {
  // The paper keeps both statistics because they weight nodes differently;
  // verify they actually differ on a hub-heavy graph.
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);  // triangle among {0,1,2}
  g.AddEdge(0, 3);
  g.AddEdge(0, 4);
  g.AddEdge(0, 5);  // hub 0
  const ClusteringStats stats = Clustering(g);
  EXPECT_NE(stats.avg_local_clustering, stats.global_clustering);
}

// ------------------------------------------------------------- Components --

TEST(ComponentsTest, SingleComponent) {
  Graph g = Triangle();
  uint32_t count = 0;
  ConnectedComponents(g, &count);
  EXPECT_EQ(count, 1u);
  EXPECT_TRUE(test_support::IsConnected(g));
}

TEST(ComponentsTest, CountsIsolatedNodes) {
  Graph g(5);
  g.AddEdge(0, 1);
  uint32_t count = 0;
  std::vector<uint32_t> label = ConnectedComponents(g, &count);
  EXPECT_EQ(count, 4u);  // {0,1}, {2}, {3}, {4}
  EXPECT_EQ(label[0], label[1]);
  EXPECT_FALSE(test_support::IsConnected(g));
}

TEST(ComponentsTest, LargestComponentExtraction) {
  Graph g(7);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);  // component of 4
  g.AddEdge(4, 5);  // component of 2
  std::vector<NodeId> largest = test_support::LargestComponent(g);
  EXPECT_EQ(largest, (std::vector<NodeId>{0, 1, 2, 3}));
}

// ----------------------------------------------------------------- Degree --

TEST(DegreeTest, SequencesAndHistogram) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  EXPECT_EQ(DegreeSequence(g), (std::vector<uint32_t>{3, 1, 1, 1}));
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_EQ(SortedDegreeSequence(csr), (std::vector<uint32_t>{1, 1, 1, 3}));
  EXPECT_EQ(DegreeHistogram(csr), (std::vector<uint64_t>{0, 3, 0, 1}));
  EXPECT_DOUBLE_EQ(AverageDegree(csr), 1.5);
}

TEST(DegreeTest, HandlesEdgelessGraph) {
  const CsrGraph g = CsrGraph::FromGraph(Graph(3));
  EXPECT_EQ(DegreeHistogram(g), (std::vector<uint64_t>{3}));
  EXPECT_DOUBLE_EQ(AverageDegree(g), 0.0);
}

}  // namespace
}  // namespace agmdp::graph
