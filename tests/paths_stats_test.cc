#include <gtest/gtest.h>

#include <limits>

#include "src/datasets/homophily.h"
#include "src/graph/clustering.h"
#include "src/graph/paths.h"
#include "src/graph/subgraph_counts.h"
#include "src/graph/triangle_count.h"
#include "src/models/erdos_renyi.h"
#include "src/models/holme_kim.h"
#include "src/stats/assortativity.h"
#include "src/stats/joint_degree.h"
#include "src/util/rng.h"

namespace agmdp {
namespace {

graph::Graph PathGraph(graph::NodeId n) {
  graph::Graph g(n);
  for (graph::NodeId v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1);
  return g;
}

graph::Graph StarGraph(graph::NodeId n) {
  graph::Graph g(n);
  for (graph::NodeId v = 1; v < n; ++v) g.AddEdge(0, v);
  return g;
}

// Analytics read immutable snapshots; the generators build mutable Graphs.
graph::CsrGraph Snap(const graph::Graph& g) {
  return graph::CsrGraph::FromGraph(g);
}
graph::AttributedCsrGraph Snap(const graph::AttributedGraph& g) {
  return graph::AttributedCsrGraph::FromGraph(g);
}

// ------------------------------------------------------------------ Paths --

TEST(PathsTest, BfsDistancesOnPath) {
  graph::Graph g = PathGraph(5);
  std::vector<uint32_t> dist = graph::BfsDistances(Snap(g), 0);
  for (graph::NodeId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(PathsTest, UnreachableMarked) {
  graph::Graph g(4);
  g.AddEdge(0, 1);
  std::vector<uint32_t> dist = graph::BfsDistances(Snap(g), 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], std::numeric_limits<uint32_t>::max());
}

TEST(PathsTest, PathStatsOnStar) {
  util::Rng rng(1);
  graph::Graph g = StarGraph(11);
  graph::PathStats stats = graph::EstimatePathStats(Snap(g), 11, rng);
  // Star: 10 pairs at distance 1 from hub; leaf-to-leaf distance 2.
  EXPECT_EQ(stats.diameter_lower_bound, 2u);
  EXPECT_GT(stats.avg_path_length, 1.0);
  EXPECT_LT(stats.avg_path_length, 2.0);
}

TEST(PathsTest, SampledStatsApproximateFull) {
  util::Rng rng(2);
  graph::Graph g = models::ErdosRenyiGnp(300, 0.03, rng);
  graph::PathStats full = graph::EstimatePathStats(Snap(g), 300, rng);
  graph::PathStats sampled = graph::EstimatePathStats(Snap(g), 60, rng);
  EXPECT_NEAR(sampled.avg_path_length, full.avg_path_length,
              full.avg_path_length * 0.1);
}

TEST(PathsTest, SmallWorldDiameter) {
  util::Rng rng(3);
  models::HolmeKimOptions options;
  options.edges_per_node = 4;
  auto g = models::HolmeKim(2000, options, rng);
  ASSERT_TRUE(g.ok());
  graph::PathStats stats = graph::EstimatePathStats(Snap(g.value()), 50, rng);
  EXPECT_LT(stats.avg_path_length, 6.0);  // small world
  EXPECT_GT(stats.avg_path_length, 1.5);
}

// ---------------------------------------------------------- Assortativity --

TEST(AssortativityTest, StarIsDisassortative) {
  EXPECT_LT(stats::DegreeAssortativity(Snap(StarGraph(10))), -0.99);
}

TEST(AssortativityTest, RegularGraphIsDegenerate) {
  // A cycle: constant degrees, zero variance -> defined as 0.
  graph::Graph g(6);
  for (graph::NodeId v = 0; v < 6; ++v) g.AddEdge(v, (v + 1) % 6);
  EXPECT_DOUBLE_EQ(stats::DegreeAssortativity(Snap(g)), 0.0);
}

TEST(AssortativityTest, ErdosRenyiNearZero) {
  util::Rng rng(4);
  graph::Graph g = models::ErdosRenyiGnp(800, 0.02, rng);
  EXPECT_NEAR(stats::DegreeAssortativity(Snap(g)), 0.0, 0.08);
}

TEST(AssortativityTest, PerfectAttributeHomophily) {
  // Two disconnected cliques with distinct configs: assortativity 1.
  graph::AttributedGraph g(6, 1);
  g.structure().AddEdge(0, 1);
  g.structure().AddEdge(1, 2);
  g.structure().AddEdge(0, 2);
  g.structure().AddEdge(3, 4);
  g.structure().AddEdge(4, 5);
  g.structure().AddEdge(3, 5);
  ASSERT_TRUE(g.SetAttributes({0, 0, 0, 1, 1, 1}).ok());
  EXPECT_NEAR(stats::AttributeAssortativity(Snap(g)), 1.0, 1e-9);
}

TEST(AssortativityTest, PerfectHeterophilyIsNegative) {
  // Bipartite matching between configs.
  graph::AttributedGraph g(4, 1);
  g.structure().AddEdge(0, 2);
  g.structure().AddEdge(1, 3);
  ASSERT_TRUE(g.SetAttributes({0, 0, 1, 1}).ok());
  EXPECT_LT(stats::AttributeAssortativity(Snap(g)), -0.99);
}

TEST(AssortativityTest, HomophilySwapsRaiseAssortativity) {
  util::Rng rng(5);
  graph::AttributedGraph g(models::ErdosRenyiGnp(400, 0.03, rng), 2);
  std::vector<double> theta = {0.25, 0.25, 0.25, 0.25};
  datasets::HomophilyOptions weak;
  weak.max_swaps = 1;
  ASSERT_TRUE(
      datasets::AssignHomophilousAttributes(&g, theta, weak, rng).ok());
  const double before = stats::AttributeAssortativity(Snap(g));
  datasets::HomophilyOptions strong;
  strong.target_same_fraction = 0.7;
  ASSERT_TRUE(
      datasets::AssignHomophilousAttributes(&g, theta, strong, rng).ok());
  EXPECT_GT(stats::AttributeAssortativity(Snap(g)), before + 0.1);
}

TEST(AssortativityTest, SingleConfigIsDegenerate) {
  graph::AttributedGraph g(3, 1);
  g.structure().AddEdge(0, 1);
  EXPECT_DOUBLE_EQ(stats::AttributeAssortativity(Snap(g)), 0.0);
}

// --------------------------------------------------------- SubgraphCounts --

TEST(SubgraphCountsTest, BinomialValues) {
  EXPECT_EQ(graph::BinomialOrSaturate(5, 2), 10u);
  EXPECT_EQ(graph::BinomialOrSaturate(10, 0), 1u);
  EXPECT_EQ(graph::BinomialOrSaturate(4, 5), 0u);
  EXPECT_EQ(graph::BinomialOrSaturate(52, 5), 2598960u);
}

TEST(SubgraphCountsTest, BinomialSaturatesInsteadOfOverflowing) {
  EXPECT_EQ(graph::BinomialOrSaturate(10000, 5000),
            std::numeric_limits<uint64_t>::max());
}

TEST(SubgraphCountsTest, TwoStarsAreWedges) {
  util::Rng rng(6);
  graph::Graph g = models::ErdosRenyiGnp(100, 0.05, rng);
  EXPECT_EQ(graph::CountKStars(g, 2), graph::CountWedges(Snap(g)));
}

TEST(SubgraphCountsTest, StarGraphKStars) {
  graph::Graph g = StarGraph(6);  // hub degree 5
  EXPECT_EQ(graph::CountKStars(g, 3), 10u);  // C(5,3); leaves contribute 0
  EXPECT_EQ(graph::CountKStars(g, 5), 1u);
  EXPECT_EQ(graph::CountKStars(g, 6), 0u);
}

TEST(SubgraphCountsTest, OneStarsAreEdgeEndpoints) {
  graph::Graph g = PathGraph(4);
  EXPECT_EQ(graph::CountKStars(g, 1), 2 * g.num_edges());
}

// ------------------------------------------------------------ JointDegree --

TEST(JointDegreeTest, PathGraphDistribution) {
  graph::Graph g = PathGraph(4);  // degrees 1,2,2,1; edges (1,2),(2,2),(2,1)
  auto dist = stats::JointDegreeDistribution(Snap(g));
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_NEAR((dist[{1, 2}]), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR((dist[{2, 2}]), 1.0 / 3.0, 1e-12);
}

TEST(JointDegreeTest, MassSumsToOne) {
  util::Rng rng(20);
  graph::Graph g = models::ErdosRenyiGnp(100, 0.06, rng);
  double total = 0.0;
  for (const auto& [key, mass] : stats::JointDegreeDistribution(Snap(g))) {
    total += mass;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(JointDegreeTest, DistanceZeroForSameGraph) {
  util::Rng rng(21);
  graph::Graph g = models::ErdosRenyiGnp(80, 0.08, rng);
  EXPECT_DOUBLE_EQ(stats::JointDegreeDistance(Snap(g), Snap(g)), 0.0);
}

TEST(JointDegreeTest, DisjointSupportsHaveDistanceOne) {
  // 2-regular cycle vs star: no common degree pair.
  graph::Graph cycle(6);
  for (graph::NodeId v = 0; v < 6; ++v) cycle.AddEdge(v, (v + 1) % 6);
  graph::Graph star = StarGraph(6);
  EXPECT_NEAR(stats::JointDegreeDistance(Snap(cycle), Snap(star)), 1.0, 1e-12);
}

TEST(JointDegreeTest, SeparatesAssortativeFromRandom) {
  util::Rng rng(22);
  graph::Graph er = models::ErdosRenyiGnp(500, 0.02, rng);
  models::HolmeKimOptions options;
  options.edges_per_node = 5;
  auto hk = models::HolmeKim(500, options, rng);
  ASSERT_TRUE(hk.ok());
  // Same graph family is closer to itself than to a different family.
  graph::Graph er2 = models::ErdosRenyiGnp(500, 0.02, rng);
  EXPECT_LT(stats::JointDegreeDistance(Snap(er), Snap(er2)),
            stats::JointDegreeDistance(Snap(er), Snap(hk.value())));
}

// --------------------------------------------------- DegreeWiseClustering --

TEST(DegreeWiseClusteringTest, TriangleWithPendant) {
  graph::Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  std::vector<double> profile = graph::DegreeWiseClustering(g);
  ASSERT_EQ(profile.size(), 4u);
  EXPECT_DOUBLE_EQ(profile[1], 0.0);          // pendant node
  EXPECT_DOUBLE_EQ(profile[2], 1.0);          // nodes 1, 2
  EXPECT_DOUBLE_EQ(profile[3], 1.0 / 3.0);    // node 0
}

TEST(DegreeWiseClusteringTest, DecaysWithDegreeOnClusteredGraphs) {
  util::Rng rng(7);
  models::HolmeKimOptions options;
  options.edges_per_node = 4;
  options.triad_probability = 0.8;
  auto g = models::HolmeKim(3000, options, rng);
  ASSERT_TRUE(g.ok());
  std::vector<double> profile = graph::DegreeWiseClustering(g.value());
  // Low-degree clustering should exceed hub clustering (standard social-
  // network shape).
  const uint32_t dmax = g.value().MaxDegree();
  EXPECT_GT(profile[4], profile[dmax]);
}

}  // namespace
}  // namespace agmdp
