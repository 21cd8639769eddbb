// Tests for the extension modules: geometric mechanism, k-star ladder,
// BTER, AGM parameter persistence, GraphML export.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "src/agm/agm_sampler.h"
#include "src/dp/geometric_mechanism.h"
#include "src/dp/ladder_mechanism.h"
#include "src/graph/clustering.h"
#include "src/graph/degree.h"
#include "src/graph/graph_io.h"
#include "src/graph/subgraph_counts.h"
#include "src/graph/triangle_count.h"
#include "src/models/bter.h"
#include "src/models/chung_lu.h"
#include "src/models/erdos_renyi.h"
#include "src/models/holme_kim.h"
#include "src/pipeline/release_artifact.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"

namespace agmdp {
namespace {

// ---------------------------------------------------- GeometricMechanism --

TEST(GeometricMechanismTest, ZeroNoiseProbabilityMatchesTheory) {
  util::Rng rng(1);
  const double eps = 1.0, sens = 1.0;
  const double alpha = std::exp(-eps / sens);
  const double p_zero = (1.0 - alpha) / (1.0 + alpha);
  int zeros = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    zeros += dp::TwoSidedGeometricNoise(eps, sens, rng) == 0;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / trials, p_zero, 0.01);
}

TEST(GeometricMechanismTest, SymmetricAroundZero) {
  util::Rng rng(2);
  double sum = 0.0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(dp::TwoSidedGeometricNoise(0.5, 1.0, rng));
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.05);
}

TEST(GeometricMechanismTest, NoiseShrinksWithEpsilon) {
  util::Rng rng(3);
  auto mean_abs = [&](double eps) {
    double total = 0.0;
    const int trials = 50000;
    for (int i = 0; i < trials; ++i) {
      total += std::llabs(dp::TwoSidedGeometricNoise(eps, 1.0, rng));
    }
    return total / trials;
  };
  EXPECT_LT(mean_abs(2.0), mean_abs(0.2));
}

TEST(GeometricMechanismTest, IntegerOutput) {
  util::Rng rng(4);
  const int64_t value = 42;
  for (int i = 0; i < 100; ++i) {
    int64_t out = dp::GeometricMechanism(value, 1.0, 100.0, rng);
    EXPECT_NEAR(static_cast<double>(out), 42.0, 5.0);
  }
}

// ------------------------------------------------------------ KStarLadder --

TEST(DpKStarCountTest, ValidatesInput) {
  util::Rng rng(5);
  graph::Graph g(10);
  EXPECT_FALSE(dp::DpKStarCount(g, 2, 0.0, rng).ok());
  EXPECT_FALSE(dp::DpKStarCount(g, 1, 1.0, rng).ok());
}

TEST(DpKStarCountTest, TinyGraphReturnsZero) {
  util::Rng rng(6);
  auto r = dp::DpKStarCount(graph::Graph(3), 3, 1.0, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(DpKStarCountTest, NonNegativeAndBounded) {
  util::Rng rng(7);
  graph::Graph g = models::ErdosRenyiGnp(50, 0.2, rng);
  const double max_stars =
      50.0 * static_cast<double>(graph::BinomialOrSaturate(49, 3));
  for (double eps : {0.05, 0.5, 5.0}) {
    for (int i = 0; i < 100; ++i) {
      auto r = dp::DpKStarCount(g, 3, eps, rng);
      ASSERT_TRUE(r.ok());
      EXPECT_GE(r.value(), 0.0);
      EXPECT_LE(r.value(), max_stars);
    }
  }
}

TEST(DpKStarCountTest, ConcentratesAtLargeEpsilon) {
  util::Rng rng(8);
  graph::Graph g = models::ErdosRenyiGnp(80, 0.1, rng);
  const auto truth = static_cast<double>(graph::CountKStars(g, 2));
  double sum = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    sum += dp::DpKStarCount(g, 2, 20.0, rng).value();
  }
  EXPECT_NEAR(sum / trials, truth, truth * 0.05);
}

TEST(DpKStarCountTest, ErrorShrinksWithEpsilon) {
  util::Rng rng(9);
  graph::Graph g = models::ErdosRenyiGnp(100, 0.08, rng);
  const auto truth = static_cast<double>(graph::CountKStars(g, 3));
  auto mean_err = [&](double eps) {
    double total = 0.0;
    const int trials = 100;
    for (int i = 0; i < trials; ++i) {
      total += std::fabs(dp::DpKStarCount(g, 3, eps, rng).value() - truth);
    }
    return total / trials;
  };
  EXPECT_LT(mean_err(2.0), mean_err(0.05));
}

// ------------------------------------------------------------------- BTER --

TEST(BterTest, RejectsEmpty) {
  util::Rng rng(10);
  EXPECT_FALSE(models::GenerateBter(models::BterParams{}, rng).ok());
}

TEST(BterTest, FitMeasuresProfiles) {
  util::Rng rng(11);
  models::HolmeKimOptions options;
  options.edges_per_node = 4;
  options.triad_probability = 0.7;
  auto g = models::HolmeKim(500, options, rng);
  ASSERT_TRUE(g.ok());
  models::BterParams params = models::FitBter(g.value());
  EXPECT_EQ(params.degrees.size(), 500u);
  EXPECT_EQ(params.clustering_by_degree.size(),
            g.value().MaxDegree() + 1);
}

TEST(BterTest, ReproducesEdgeCountApproximately) {
  util::Rng rng(12);
  models::HolmeKimOptions options;
  options.edges_per_node = 4;
  auto input = models::HolmeKim(800, options, rng);
  ASSERT_TRUE(input.ok());
  auto g = models::GenerateBter(models::FitBter(input.value()), rng);
  ASSERT_TRUE(g.ok());
  const double m_in = static_cast<double>(input.value().num_edges());
  EXPECT_NEAR(static_cast<double>(g.value().num_edges()), m_in, m_in * 0.25);
}

TEST(BterTest, ReproducesClusteringBetterThanFcl) {
  util::Rng rng(13);
  models::HolmeKimOptions options;
  options.edges_per_node = 4;
  options.triad_probability = 0.8;
  auto input = models::HolmeKim(1200, options, rng);
  ASSERT_TRUE(input.ok());
  const double target = graph::AverageLocalClustering(input.value());

  auto bter = models::GenerateBter(models::FitBter(input.value()), rng);
  ASSERT_TRUE(bter.ok());
  auto fcl =
      models::FastChungLu(graph::DegreeSequence(input.value()), rng);
  ASSERT_TRUE(fcl.ok());

  const double err_bter =
      std::fabs(graph::AverageLocalClustering(bter.value()) - target);
  const double err_fcl =
      std::fabs(graph::AverageLocalClustering(fcl.value()) - target);
  EXPECT_LT(err_bter, err_fcl);
}

TEST(BterTest, DegreeDistributionTracked) {
  util::Rng rng(14);
  models::HolmeKimOptions options;
  options.edges_per_node = 4;
  auto input = models::HolmeKim(1000, options, rng);
  ASSERT_TRUE(input.ok());
  auto g = models::GenerateBter(models::FitBter(input.value()), rng);
  ASSERT_TRUE(g.ok());
  EXPECT_LT(stats::KsStatistic(
                graph::SortedDegreeSequence(graph::CsrGraph::FromGraph(g.value())),
                graph::SortedDegreeSequence(
                    graph::CsrGraph::FromGraph(input.value()))),
            0.25);
}

// ---------------------------------------------------------- StoredParams --
// Parameters persist inside release artifacts (pipeline/release_artifact.h).

pipeline::ReleaseArtifact ArtifactOf(const agm::AgmParams& params) {
  pipeline::PipelineConfig config;
  config.model = "fcl";
  return pipeline::MakeReleaseArtifact(params, config);
}

TEST(StoredParamsTest, RoundTrip) {
  agm::AgmParams params;
  params.w = 2;
  params.theta_x = {0.4, 0.3, 0.2, 0.1};
  params.theta_f.assign(10, 0.1);
  // 21 nodes, so 1234 triangles is feasible (C(21, 3) = 1330).
  params.degree_sequence = {1, 2, 2, 3, 7};
  params.degree_sequence.resize(21, 2);
  params.target_triangles = 1234;

  const std::string path = testing::TempDir() + "/params_roundtrip.json";
  ASSERT_TRUE(pipeline::WriteReleaseArtifact(ArtifactOf(params), path).ok());
  auto back = pipeline::ReadReleaseArtifact(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().params.w, 2);
  EXPECT_EQ(back.value().params.theta_x, params.theta_x);
  EXPECT_EQ(back.value().params.theta_f, params.theta_f);
  EXPECT_EQ(back.value().params.degree_sequence, params.degree_sequence);
  EXPECT_EQ(back.value().params.target_triangles, 1234u);
  std::remove(path.c_str());
}

TEST(StoredParamsTest, RejectsCorruptFiles) {
  agm::AgmParams params;
  params.w = 1;
  params.theta_x = {0.5, 0.5};
  params.theta_f = {0.3, 0.3, 0.4};
  params.degree_sequence = {1, 1};
  const std::string json = pipeline::ReleaseArtifactToJson(ArtifactOf(params));
  const std::string path = testing::TempDir() + "/params_bad.json";
  {
    std::ofstream out(path);
    out << json.substr(0, json.size() / 2);  // truncated
  }
  EXPECT_FALSE(pipeline::ReadReleaseArtifact(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(pipeline::ReadReleaseArtifact("/nonexistent/params").ok());
}

TEST(StoredParamsTest, RejectsDimensionMismatch) {
  agm::AgmParams params;
  params.w = 2;
  params.theta_x = {0.25, 0.25, 0.25, 0.25};
  params.theta_f = {0.3, 0.3, 0.4};  // w=2 needs 10 entries, not 3
  params.degree_sequence = {1, 1};
  EXPECT_FALSE(agm::ValidateAgmParams(params).ok());
  EXPECT_FALSE(
      pipeline::ReleaseArtifactFromJson(
          pipeline::ReleaseArtifactToJson(ArtifactOf(params)))
          .ok());
}

TEST(StoredParamsTest, SampledGraphFromStoredParamsMatchesDirect) {
  // fit -> save -> load -> sample must equal fit -> sample with equal seeds.
  agm::AgmParams params;
  params.w = 1;
  params.theta_x = {0.6, 0.4};
  params.theta_f = {0.5, 0.2, 0.3};
  params.degree_sequence.assign(60, 3);
  params.target_triangles = 20;

  const std::string path = testing::TempDir() + "/params_sample.json";
  ASSERT_TRUE(pipeline::WriteReleaseArtifact(ArtifactOf(params), path).ok());
  auto loaded = pipeline::ReadReleaseArtifact(path);
  ASSERT_TRUE(loaded.ok());

  agm::AgmSampleOptions options;
  options.acceptance_iterations = 1;
  util::Rng rng1(77), rng2(77);
  auto direct = agm::SampleAgmGraph(params, options, rng1);
  auto via_disk = agm::SampleAgmGraph(loaded.value().params, options, rng2);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_disk.ok());
  EXPECT_EQ(direct.value().structure().CanonicalEdges(),
            via_disk.value().structure().CanonicalEdges());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- GraphMl --

TEST(GraphMlTest, WritesWellFormedDocument) {
  graph::AttributedGraph g(3, 2);
  g.structure().AddEdge(0, 1);
  g.structure().AddEdge(1, 2);
  ASSERT_TRUE(g.SetAttributes({3, 0, 1}).ok());
  const std::string path = testing::TempDir() + "/export.graphml";
  ASSERT_TRUE(graph::WriteGraphMl(g, path).ok());

  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("<graphml"), std::string::npos);
  EXPECT_NE(content.find("</graphml>"), std::string::npos);
  EXPECT_NE(content.find("edgedefault=\"undirected\""), std::string::npos);
  // Node 0 has config 3 = bits 11 -> both attributes 1.
  EXPECT_NE(content.find("<node id=\"n0\"><data key=\"a0\">1</data>"
                         "<data key=\"a1\">1</data></node>"),
            std::string::npos);
  // Two edges.
  EXPECT_NE(content.find("source=\"n0\" target=\"n1\""), std::string::npos);
  EXPECT_NE(content.find("source=\"n1\" target=\"n2\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace agmdp
