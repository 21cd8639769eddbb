#include <gtest/gtest.h>

#include <numeric>

#include "src/agm/theta_x.h"
#include "src/datasets/datasets.h"
#include "src/datasets/homophily.h"
#include "src/graph/clustering.h"
#include "src/graph/components.h"
#include "src/graph/degree.h"
#include "src/graph/triangle_count.h"
#include "src/models/erdos_renyi.h"
#include "src/util/rng.h"

namespace agmdp::datasets {
namespace {

// ------------------------------------------------------------------ Specs --

TEST(DatasetSpecTest, Table6NumbersPresent) {
  const DatasetSpec& lastfm = PaperSpec(DatasetId::kLastFm);
  EXPECT_EQ(lastfm.nodes, 1843u);
  EXPECT_EQ(lastfm.edges, 12668u);
  EXPECT_EQ(lastfm.max_degree, 119u);
  EXPECT_EQ(lastfm.triangles, 19651u);

  const DatasetSpec& pokec = PaperSpec(DatasetId::kPokec);
  EXPECT_EQ(pokec.nodes, 592627u);
  EXPECT_EQ(pokec.edges, 3725424u);
  EXPECT_DOUBLE_EQ(pokec.avg_clustering, 0.104);
}

TEST(DatasetSpecTest, ThetaXMarginalsAreDistributions) {
  for (DatasetId id : AllDatasets()) {
    const DatasetSpec& spec = PaperSpec(id);
    ASSERT_EQ(spec.theta_x.size(), 4u) << spec.name;  // w=2
    double sum = std::accumulate(spec.theta_x.begin(), spec.theta_x.end(),
                                 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9) << spec.name;
  }
}

TEST(DatasetSpecTest, EpsilonGridsMatchPaper) {
  EXPECT_EQ(PaperSpec(DatasetId::kLastFm).table_epsilons.size(), 4u);
  EXPECT_DOUBLE_EQ(PaperSpec(DatasetId::kPokec).table_epsilons[3], 0.01);
}

TEST(DatasetSpecTest, LookupByName) {
  EXPECT_EQ(static_cast<int>(DatasetByName("epinions")),
            static_cast<int>(DatasetId::kEpinions));
}

// ------------------------------------------------------------- Generation --

TEST(GenerateDatasetTest, RejectsBadScale) {
  EXPECT_FALSE(GenerateDataset(DatasetId::kLastFm, 0.0, 1).ok());
  EXPECT_FALSE(GenerateDataset(DatasetId::kLastFm, 1.5, 1).ok());
}

TEST(GenerateDatasetTest, DeterministicInSeed) {
  auto a = GenerateDataset(DatasetId::kLastFm, 0.2, 42);
  auto b = GenerateDataset(DatasetId::kLastFm, 0.2, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().structure().CanonicalEdges(),
            b.value().structure().CanonicalEdges());
  EXPECT_EQ(a.value().attributes(), b.value().attributes());
}

TEST(GenerateDatasetTest, DifferentSeedsDiffer) {
  auto a = GenerateDataset(DatasetId::kLastFm, 0.2, 1);
  auto b = GenerateDataset(DatasetId::kLastFm, 0.2, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().structure().CanonicalEdges(),
            b.value().structure().CanonicalEdges());
}

TEST(GenerateDatasetTest, LandsNearSpecTargets) {
  auto g = GenerateDataset(DatasetId::kLastFm, 1.0, 7);
  ASSERT_TRUE(g.ok());
  const DatasetSpec& spec = PaperSpec(DatasetId::kLastFm);
  EXPECT_EQ(g.value().num_nodes(), spec.nodes);
  // Edge count within 15% of Table 6's m (whose davg column is m/n).
  EXPECT_NEAR(static_cast<double>(g.value().num_edges()),
              static_cast<double>(spec.edges),
              static_cast<double>(spec.edges) * 0.15);
  // Triangle density is the calibration target (DESIGN.md substitution #1);
  // within 40% of Table 6's triangles-per-node.
  const double tri_per_node =
      static_cast<double>(graph::CountTriangles(g.value().structure())) /
      static_cast<double>(spec.nodes);
  const double target_tri =
      static_cast<double>(spec.triangles) / static_cast<double>(spec.nodes);
  EXPECT_NEAR(tri_per_node, target_tri, target_tri * 0.4);
  // Local clustering is only clamped (Holme-Kim concentrates triads on
  // incoming nodes): must stay within ~2.3x of the published value.
  EXPECT_LT(graph::AverageLocalClustering(g.value().structure()),
            spec.avg_clustering * 2.3);
  // The published max degree caps the hubs.
  EXPECT_LE(g.value().structure().MaxDegree(), spec.max_degree);
  EXPECT_TRUE(graph::IsConnected(g.value().structure()));
}

TEST(GenerateDatasetTest, ScaleShrinksNodeCount) {
  auto g = GenerateDataset(DatasetId::kPetster, 0.25, 3);
  ASSERT_TRUE(g.ok());
  EXPECT_NEAR(static_cast<double>(g.value().num_nodes()), 1788 * 0.25, 2.0);
}

TEST(GenerateDatasetTest, AttributeMarginalsMatchSpec) {
  auto g = GenerateDataset(DatasetId::kEpinions, 0.1, 11);
  ASSERT_TRUE(g.ok());
  std::vector<double> theta =
      agm::ComputeThetaX(graph::AttributedCsrGraph::FromGraph(g.value()));
  const DatasetSpec& spec = PaperSpec(DatasetId::kEpinions);
  for (size_t i = 0; i < theta.size(); ++i) {
    EXPECT_NEAR(theta[i], spec.theta_x[i], 0.01) << "config " << i;
  }
}

TEST(GenerateDatasetTest, ExhibitsHomophily) {
  auto g = GenerateDataset(DatasetId::kLastFm, 0.5, 13);
  ASSERT_TRUE(g.ok());
  // Baseline same-config rate for random assignment is sum of theta^2.
  const DatasetSpec& spec = PaperSpec(DatasetId::kLastFm);
  double random_rate = 0.0;
  for (double p : spec.theta_x) random_rate += p * p;
  EXPECT_GT(SameConfigEdgeFraction(g.value()), random_rate * 1.3);
}

// -------------------------------------------------------------- Homophily --

TEST(HomophilyTest, PreservesMarginalExactly) {
  util::Rng rng(1);
  graph::AttributedGraph g(models::ErdosRenyiGnp(200, 0.05, rng), 2);
  std::vector<double> theta = {0.5, 0.25, 0.15, 0.10};
  HomophilyOptions options;
  ASSERT_TRUE(AssignHomophilousAttributes(&g, theta, options, rng).ok());
  std::vector<int> counts(4, 0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) ++counts[g.attribute(v)];
  EXPECT_EQ(counts[0], 100);
  EXPECT_EQ(counts[1], 50);
  EXPECT_EQ(counts[2], 30);
  EXPECT_EQ(counts[3], 20);
}

TEST(HomophilyTest, IncreasesSameConfigFraction) {
  util::Rng rng(2);
  graph::AttributedGraph g(models::ErdosRenyiGnp(300, 0.04, rng), 1);
  std::vector<double> theta = {0.5, 0.5};
  // First assign without swaps to measure the baseline.
  HomophilyOptions no_swaps;
  no_swaps.max_swaps = 1;
  ASSERT_TRUE(AssignHomophilousAttributes(&g, theta, no_swaps, rng).ok());
  const double before = SameConfigEdgeFraction(g);
  HomophilyOptions options;
  options.target_same_fraction = 0.8;
  ASSERT_TRUE(AssignHomophilousAttributes(&g, theta, options, rng).ok());
  EXPECT_GT(SameConfigEdgeFraction(g), before);
}

TEST(HomophilyTest, ValidatesThetaDimension) {
  util::Rng rng(3);
  graph::AttributedGraph g(models::ErdosRenyiGnp(50, 0.1, rng), 2);
  EXPECT_FALSE(
      AssignHomophilousAttributes(&g, {0.5, 0.5}, HomophilyOptions{}, rng)
          .ok());
}

TEST(HomophilyTest, SameConfigFractionBounds) {
  util::Rng rng(4);
  graph::AttributedGraph g(models::ErdosRenyiGnp(100, 0.05, rng), 1);
  ASSERT_TRUE(AssignHomophilousAttributes(&g, {0.6, 0.4}, HomophilyOptions{},
                                          rng)
                  .ok());
  const double f = SameConfigEdgeFraction(g);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
}

}  // namespace
}  // namespace agmdp::datasets
