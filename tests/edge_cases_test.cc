// Boundary-condition and robustness tests: degenerate graphs, extreme
// parameters and hostile-but-legal inputs must produce defined behaviour
// (a Status, a sensible default, or a clamped value — never UB or a hang).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/agm/agm_dp.h"
#include "src/agm/theta_f.h"
#include "src/agm/theta_x.h"
#include "src/dp/constrained_inference.h"
#include "src/dp/edge_truncation.h"
#include "src/dp/ladder_mechanism.h"
#include "src/graph/components.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/fused_eval.h"
#include "src/graph/paths.h"
#include "src/graph/triangle_count.h"
#include "src/models/chung_lu.h"
#include "src/models/tricycle.h"
#include "src/pipeline/release_pipeline.h"
#include "src/stats/ccdf.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace agmdp {
namespace {

// ----------------------------------------------------- degenerate graphs --

TEST(EdgeCasesTest, EmptyGraphAlgorithms) {
  graph::Graph g(0);
  EXPECT_EQ(graph::CountTriangles(g), 0u);
  const graph::CsrGraph csr = graph::CsrGraph::FromGraph(g);
  const graph::ClusteringStats clustering =
      graph::FusedEvaluate(csr).clustering;
  EXPECT_DOUBLE_EQ(clustering.avg_local_clustering, 0.0);
  EXPECT_EQ(graph::CountWedges(csr), 0u);
  EXPECT_DOUBLE_EQ(clustering.global_clustering, 0.0);
  EXPECT_DOUBLE_EQ(graph::AverageDegree(csr), 0.0);
  uint32_t components = 99;
  graph::ConnectedComponents(g, &components);
  EXPECT_EQ(components, 0u);
  EXPECT_TRUE(test_support::IsConnected(g));  // vacuously
  EXPECT_TRUE(test_support::LargestComponent(g).empty());
}

TEST(EdgeCasesTest, SingleNodeGraph) {
  graph::Graph g(1);
  EXPECT_EQ(g.MaxDegree(), 0u);
  EXPECT_FALSE(g.AddEdge(0, 0));
  util::Rng rng(1);
  graph::PathStats stats = graph::EstimatePathStats(graph::CsrGraph::FromGraph(g), 10, rng);
  EXPECT_DOUBLE_EQ(stats.avg_path_length, 0.0);
}

TEST(EdgeCasesTest, TruncationOnEdgelessGraph) {
  graph::Graph g(10);
  graph::CsrGraph t = dp::TruncateEdges(graph::CsrGraph::FromGraph(g), 3);
  EXPECT_EQ(t.num_edges(), 0u);
  EXPECT_EQ(t.num_nodes(), 10u);
}

TEST(EdgeCasesTest, AttributedGraphWithZeroAttributes) {
  graph::AttributedGraph g(5, 0);
  EXPECT_EQ(graph::NumNodeConfigs(0), 1u);
  EXPECT_EQ(graph::NumEdgeConfigs(0), 1u);
  g.structure().AddEdge(0, 1);
  std::vector<double> theta_f =
      agm::ComputeThetaF(graph::AttributedCsrGraph::FromGraph(g));
  ASSERT_EQ(theta_f.size(), 1u);
  EXPECT_DOUBLE_EQ(theta_f[0], 1.0);
}

// --------------------------------------------------------- DP mechanisms --

TEST(EdgeCasesTest, DpDegreeSequenceEmptyInput) {
  util::Rng rng(2);
  EXPECT_TRUE(dp::DpDegreeSequence({}, 1.0, rng).empty());
}

TEST(EdgeCasesTest, IsotonicRegressionSingletonAndEmpty) {
  EXPECT_TRUE(dp::IsotonicRegressionL2({}).empty());
  std::vector<double> one = dp::IsotonicRegressionL2({3.5});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 3.5);
}

TEST(EdgeCasesTest, LadderOnTriangleFreeGraph) {
  // base a_max can be 0 (no wedges at all): rung widths grow from zero.
  graph::Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  g.AddEdge(4, 5);  // perfect matching: no two-hop pairs
  util::Rng rng(3);
  const graph::CsrGraph csr = graph::CsrGraph::FromGraph(g);
  for (int i = 0; i < 50; ++i) {
    auto r = dp::DpTriangleCount(csr, 0.5, rng);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value(), 0);
  }
}

TEST(EdgeCasesTest, LadderAtExtremeEpsilons) {
  util::Rng rng(4);
  graph::Graph g(10);
  for (graph::NodeId v = 1; v < 10; ++v) g.AddEdge(0, v);
  const graph::CsrGraph csr = graph::CsrGraph::FromGraph(g);
  // Very small epsilon must terminate and stay in range.
  auto tiny = dp::DpTriangleCount(csr, 1e-4, rng);
  ASSERT_TRUE(tiny.ok());
  EXPECT_GE(tiny.value(), 0);
  EXPECT_LE(tiny.value(), 120);  // C(10,3)
  // Very large epsilon returns the exact count (0 for a star).
  auto huge = dp::DpTriangleCount(csr, 1e6, rng);
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge.value(), 0);
}

TEST(EdgeCasesTest, TruncationWithKOne) {
  // k = 1 is legal for the operator itself (the 2k sensitivity bound of
  // Proposition 1 needs k > 1, which LearnCorrelationsDp's heuristic
  // respects); every node ends with degree <= 1.
  util::Rng rng(5);
  graph::Graph g(20);
  for (graph::NodeId v = 1; v < 20; ++v) g.AddEdge(0, v);
  graph::CsrGraph t = dp::TruncateEdges(graph::CsrGraph::FromGraph(g), 1);
  EXPECT_LE(t.MaxDegree(), 1u);
}

// -------------------------------------------------------------- sampling --

TEST(EdgeCasesTest, FclWithZeroTotalDegree) {
  util::Rng rng(6);
  std::vector<uint32_t> degrees(10, 0);
  auto g = models::FastChungLu(degrees, rng);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_edges(), 0u);
}

TEST(EdgeCasesTest, TriCycLeWithZeroTriangleTarget) {
  util::Rng rng(7);
  std::vector<uint32_t> degrees(50, 3);
  auto result = models::GenerateTriCycLe(degrees, 0, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().reached_target);
  EXPECT_EQ(result.value().proposals, 0u);  // no rewiring needed
}

TEST(EdgeCasesTest, SampleAttributesWithPointMass) {
  util::Rng rng(8);
  std::vector<double> theta = {0.0, 1.0, 0.0, 0.0};
  auto attrs = agm::SampleAttributes(theta, 100, rng);
  ASSERT_TRUE(attrs.ok());
  for (auto a : attrs.value()) EXPECT_EQ(a, 1u);
}

TEST(EdgeCasesTest, AgmDpOnMinimalGraph) {
  // Two nodes, one edge: the smallest legal input must run end to end.
  graph::AttributedGraph g(2, 1);
  g.structure().AddEdge(0, 1);
  ASSERT_TRUE(g.SetAttributes({0, 1}).ok());
  util::Rng rng(9);
  pipeline::PipelineConfig config;
  config.epsilon = 1.0;
  config.acceptance_iterations = 1;
  auto result = pipeline::RunPrivateRelease(
      graph::AttributedCsrGraph::FromGraph(g), config, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().graph.num_nodes(), 2u);
}

TEST(EdgeCasesTest, AgmDpRejectsSingleNode) {
  graph::AttributedGraph g(1, 1);
  util::Rng rng(10);
  EXPECT_FALSE(pipeline::RunPrivateRelease(
                   graph::AttributedCsrGraph::FromGraph(g),
                   pipeline::PipelineConfig{}, rng)
                   .ok());
}

// ------------------------------------------------------------- statistics --

TEST(EdgeCasesTest, MetricsOnConstantInputs) {
  EXPECT_DOUBLE_EQ(stats::HellingerDistance({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(stats::KsStatistic({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(stats::KsStatistic({1}, {}), 1.0);
  auto ccdf = stats::Ccdf({5.0});
  ASSERT_EQ(ccdf.size(), 1u);
  EXPECT_DOUBLE_EQ(ccdf[0].second, 0.0);
}

TEST(EdgeCasesTest, RelativeErrorAgainstZeroTruth) {
  // Guarded by the floor; never divides by zero.
  const double e = stats::RelativeError(0.5, 0.0);
  EXPECT_TRUE(std::isfinite(e));
}

}  // namespace
}  // namespace agmdp
