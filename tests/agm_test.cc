#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

#include "src/agm/agm_dp.h"
#include "src/agm/agm_sampler.h"
#include "src/agm/theta_f.h"
#include "src/agm/theta_x.h"
#include "src/datasets/homophily.h"
#include "src/dp/laplace_mechanism.h"
#include "src/dp/sample_aggregate.h"
#include "src/graph/triangle_count.h"
#include "src/models/erdos_renyi.h"
#include "src/pipeline/release_pipeline.h"
#include "src/stats/metrics.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "tests/golden_hash.h"

namespace agmdp::agm {
namespace {

using Snapshot = graph::AttributedCsrGraph;

// A small attributed graph with known parameters: 4 nodes, w=1.
Snapshot TinyGraph() {
  graph::AttributedGraph g(4, 1);
  g.structure().AddEdge(0, 1);
  g.structure().AddEdge(1, 2);
  g.structure().AddEdge(2, 3);
  // attrs: 0 -> 0, 1 -> 1, 2 -> 1, 3 -> 0
  EXPECT_TRUE(g.SetAttributes({0, 1, 1, 0}).ok());
  return Snapshot::FromGraph(g);
}

// A homophilous random attributed graph for statistical tests.
Snapshot RandomAttributed(graph::NodeId n, double p, int w, uint64_t seed) {
  util::Rng rng(seed);
  graph::AttributedGraph g(models::ErdosRenyiGnp(n, p, rng), w);
  std::vector<double> theta_x(graph::NumNodeConfigs(w),
                              1.0 / graph::NumNodeConfigs(w));
  datasets::HomophilyOptions options;
  options.target_same_fraction = 0.6;
  EXPECT_TRUE(
      datasets::AssignHomophilousAttributes(&g, theta_x, options, rng).ok());
  return Snapshot::FromGraph(g);
}

// ----------------------------------------------------------------- ThetaX --

TEST(ThetaXTest, ExactCountsAndDistribution) {
  const Snapshot g = TinyGraph();
  std::vector<double> counts = ComputeAttributeCounts(g);
  EXPECT_DOUBLE_EQ(counts[0], 2.0);
  EXPECT_DOUBLE_EQ(counts[1], 2.0);
  std::vector<double> theta = ComputeThetaX(g);
  EXPECT_DOUBLE_EQ(theta[0], 0.5);
  EXPECT_DOUBLE_EQ(theta[1], 0.5);
}

TEST(ThetaXTest, DpVersionIsDistribution) {
  util::Rng rng(1);
  const Snapshot g = RandomAttributed(100, 0.05, 2, 7);
  std::vector<double> theta = LearnAttributesDp(g, 0.5, rng);
  ASSERT_EQ(theta.size(), 4u);
  double sum = std::accumulate(theta.begin(), theta.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (double p : theta) EXPECT_GE(p, 0.0);
}

TEST(ThetaXTest, DpConvergesToExactAtLargeEpsilon) {
  util::Rng rng(2);
  const Snapshot g = RandomAttributed(500, 0.02, 2, 8);
  std::vector<double> exact = ComputeThetaX(g);
  std::vector<double> noisy = LearnAttributesDp(g, 1000.0, rng);
  EXPECT_LT(stats::MeanAbsoluteError(noisy, exact), 0.001);
}

TEST(ThetaXTest, DpErrorShrinksWithEpsilon) {
  const Snapshot g = RandomAttributed(300, 0.03, 2, 9);
  std::vector<double> exact = ComputeThetaX(g);
  auto mean_error = [&](double eps, uint64_t seed) {
    util::Rng rng(seed);
    double total = 0.0;
    for (int i = 0; i < 50; ++i) {
      total += stats::MeanAbsoluteError(LearnAttributesDp(g, eps, rng), exact);
    }
    return total / 50;
  };
  EXPECT_LT(mean_error(1.0, 3), mean_error(0.01, 4));
}

TEST(SampleAttributesTest, MatchesMarginal) {
  util::Rng rng(5);
  std::vector<double> theta = {0.7, 0.1, 0.1, 0.1};
  auto attrs = SampleAttributes(theta, 20000, rng);
  ASSERT_TRUE(attrs.ok());
  std::vector<int> counts(4, 0);
  for (auto a : attrs.value()) ++counts[a];
  EXPECT_NEAR(counts[0] / 20000.0, 0.7, 0.02);
  EXPECT_NEAR(counts[2] / 20000.0, 0.1, 0.01);
}

TEST(SampleAttributesTest, FailsOnDegenerateTheta) {
  util::Rng rng(6);
  EXPECT_FALSE(SampleAttributes({0.0, 0.0}, 10, rng).ok());
}

// ----------------------------------------------------------------- ThetaF --

TEST(ThetaFTest, ExactCountsOnTinyGraph) {
  const Snapshot g = TinyGraph();
  // Edges: (0,1): configs {0,1}; (1,2): {1,1}; (2,3): {1,0}.
  // w=1 edge configs: {0,0} -> 0, {0,1} -> 1, {1,1} -> 2.
  std::vector<double> counts = ComputeConnectionCounts(g);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_DOUBLE_EQ(counts[0], 0.0);
  EXPECT_DOUBLE_EQ(counts[1], 2.0);
  EXPECT_DOUBLE_EQ(counts[2], 1.0);
  std::vector<double> theta = ComputeThetaF(g);
  EXPECT_DOUBLE_EQ(theta[1], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(theta[2], 1.0 / 3.0);
}

TEST(ThetaFTest, EdgelessGraphGivesUniform) {
  const Snapshot g = Snapshot::FromGraph(graph::AttributedGraph(5, 1));
  std::vector<double> theta = ComputeThetaF(g);
  for (double p : theta) EXPECT_DOUBLE_EQ(p, 1.0 / 3.0);
}

class ThetaFDpMethodsTest : public ::testing::TestWithParam<int> {
 protected:
  std::vector<double> Learn(const Snapshot& g, double eps, util::Rng& rng) {
    switch (GetParam()) {
      case 0:
        return LearnCorrelationsDp(g, eps, /*k=*/0, rng);
      case 1:
        return LearnCorrelationsSmooth(g, eps, 1e-6, rng);
      case 2:
        return LearnCorrelationsSampleAggregate(g, eps, 25, rng);
      default:
        return LearnCorrelationsNaive(g, eps, rng);
    }
  }
};

TEST_P(ThetaFDpMethodsTest, ProducesValidDistribution) {
  util::Rng rng(10);
  const Snapshot g = RandomAttributed(200, 0.05, 2, 11);
  std::vector<double> theta = Learn(g, 0.5, rng);
  ASSERT_EQ(theta.size(), 10u);  // C(5,2) for w=2
  double sum = std::accumulate(theta.begin(), theta.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (double p : theta) EXPECT_GE(p, 0.0);
}

TEST_P(ThetaFDpMethodsTest, ErrorShrinksWithEpsilon) {
  const Snapshot g = RandomAttributed(400, 0.03, 2, 12);
  std::vector<double> exact = ComputeThetaF(g);
  auto mean_error = [&](double eps, uint64_t seed) {
    util::Rng rng(seed);
    double total = 0.0;
    for (int i = 0; i < 30; ++i) {
      total += stats::MeanAbsoluteError(Learn(g, eps, rng), exact);
    }
    return total / 30;
  };
  EXPECT_LE(mean_error(2.0, 13), mean_error(0.02, 14) + 1e-3);
}

std::string ThetaFMethodName(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"EdgeTruncation", "Smooth", "SampleAggregate",
                                 "Naive"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ThetaFDpMethodsTest,
                         ::testing::Values(0, 1, 2, 3), ThetaFMethodName);

TEST(ThetaFComparisonTest, TruncationBeatsNaiveBaseline) {
  // Figure 5's qualitative claim at moderate epsilon on a small graph.
  const Snapshot g = RandomAttributed(300, 0.04, 2, 15);
  std::vector<double> exact = ComputeThetaF(g);
  util::Rng rng(16);
  double err_trunc = 0.0, err_naive = 0.0;
  for (int i = 0; i < 40; ++i) {
    err_trunc += stats::MeanAbsoluteError(
        LearnCorrelationsDp(g, 0.3, 0, rng), exact);
    err_naive += stats::MeanAbsoluteError(
        LearnCorrelationsNaive(g, 0.3, rng), exact);
  }
  EXPECT_LT(err_trunc, err_naive);
}

// Appendix B.2 by its definition: per group, materialize the induced
// subgraph, take its exact ΘF, then average and noise. The estimator's
// one-pass group tally must reproduce it bit for bit from the same stream.
std::vector<double> SampleAggregateOracle(const graph::AttributedGraph& g,
                                          double epsilon, uint32_t group_size,
                                          util::Rng& rng) {
  auto partition = dp::RandomNodePartition(g.num_nodes(), group_size, rng);
  EXPECT_TRUE(partition.ok());
  std::vector<std::vector<double>> per_group;
  for (const std::vector<graph::NodeId>& group : partition.value()) {
    graph::AttributedGraph sub(static_cast<graph::NodeId>(group.size()),
                               g.num_attributes());
    for (graph::NodeId i = 0; i < group.size(); ++i) {
      sub.set_attribute(i, g.attribute(group[i]));
      for (graph::NodeId j = i + 1; j < group.size(); ++j) {
        if (g.structure().HasEdge(group[i], group[j])) {
          sub.structure().AddEdge(i, j);
        }
      }
    }
    per_group.push_back(ComputeThetaF(Snapshot::FromGraph(sub)));
  }
  const std::vector<double> mean = dp::AverageVectors(per_group).value();
  const double t = static_cast<double>(per_group.size());
  return dp::ClampAndNormalize(
      dp::NoisyCounts(mean, 2.0 / t, epsilon, rng), 0.0, 1.0);
}

TEST(ThetaFTest, SampleAggregateMatchesInducedSubgraphOracle) {
  for (uint64_t seed : {40u, 41u, 42u}) {
    util::Rng graph_rng(seed);
    graph::AttributedGraph g(models::ErdosRenyiGnp(120, 0.08, graph_rng), 2);
    std::vector<graph::AttrConfig> attrs(g.num_nodes());
    for (graph::AttrConfig& a : attrs) {
      a = static_cast<graph::AttrConfig>(graph_rng.UniformIndex(4));
    }
    ASSERT_TRUE(g.SetAttributes(attrs).ok());
    for (uint32_t group_size : {1u, 7u, 25u, 120u}) {
      util::Rng a(seed * 10 + group_size), b(seed * 10 + group_size);
      EXPECT_EQ(LearnCorrelationsSampleAggregate(Snapshot::FromGraph(g), 0.5,
                                                 group_size, a),
                SampleAggregateOracle(g, 0.5, group_size, b))
          << "seed " << seed << " group " << group_size;
    }
  }
}

TEST(ThetaFTest, NodeDpVariantIsValidDistribution) {
  util::Rng rng(17);
  const Snapshot g = RandomAttributed(200, 0.05, 2, 18);
  std::vector<double> theta = LearnCorrelationsNodeDp(g, 0.7, 0.01, 0, rng);
  double sum = std::accumulate(theta.begin(), theta.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// ------------------------------------------------- Acceptance probabilities --

TEST(AcceptanceTest, UniformWhenObservedMatchesTarget) {
  std::vector<double> target = {0.5, 0.3, 0.2};
  std::vector<double> acceptance =
      ComputeAcceptanceProbabilities(target, target, {}, 1e-3);
  for (double a : acceptance) EXPECT_NEAR(a, 1.0, 1e-9);
}

TEST(AcceptanceTest, UnderrepresentedConfigGetsHighestAcceptance) {
  std::vector<double> target = {0.6, 0.2, 0.2};
  std::vector<double> observed = {0.2, 0.4, 0.4};
  std::vector<double> acceptance =
      ComputeAcceptanceProbabilities(target, observed, {}, 1e-3);
  EXPECT_DOUBLE_EQ(acceptance[0], 1.0);  // ratio 3 is the sup
  EXPECT_NEAR(acceptance[1], 0.5 / 3.0, 1e-9);
}

TEST(AcceptanceTest, CarriesOldAcceptanceForward) {
  std::vector<double> target = {0.5, 0.5};
  std::vector<double> observed = {0.5, 0.5};
  std::vector<double> a_old = {1.0, 0.5};
  std::vector<double> acceptance =
      ComputeAcceptanceProbabilities(target, observed, a_old, 1e-3);
  EXPECT_DOUBLE_EQ(acceptance[0], 1.0);
  EXPECT_DOUBLE_EQ(acceptance[1], 0.5);
}

TEST(AcceptanceTest, ZeroObservedWithDemandGetsTopRatio) {
  std::vector<double> target = {0.5, 0.5};
  std::vector<double> observed = {1.0, 0.0};
  std::vector<double> acceptance =
      ComputeAcceptanceProbabilities(target, observed, {}, 1e-3);
  EXPECT_DOUBLE_EQ(acceptance[1], 1.0);  // missing config maxed out
}

TEST(AcceptanceTest, DeadConfigStaysDead) {
  std::vector<double> target = {1.0, 0.0};
  std::vector<double> observed = {0.5, 0.5};
  std::vector<double> acceptance =
      ComputeAcceptanceProbabilities(target, observed, {}, 1e-3);
  EXPECT_DOUBLE_EQ(acceptance[1], 0.0);  // no demand, no floor
}

// -------------------------------------------------------------- AGM sampler --

TEST(AgmSamplerTest, LearnParamsExact) {
  const Snapshot g = TinyGraph();
  AgmParams params = LearnAgmParams(g);
  EXPECT_EQ(params.w, 1);
  EXPECT_EQ(params.degree_sequence, (std::vector<uint32_t>{1, 2, 2, 1}));
  EXPECT_EQ(params.target_triangles, 0u);
  EXPECT_DOUBLE_EQ(params.theta_x[0], 0.5);
}

TEST(AgmSamplerTest, ValidatesDimensions) {
  util::Rng rng(20);
  AgmParams params;
  params.w = 2;
  params.theta_x = {1.0};  // wrong size for w=2
  params.theta_f = std::vector<double>(10, 0.1);
  params.degree_sequence = {1, 1};
  EXPECT_FALSE(SampleAgmGraph(params, AgmSampleOptions{}, rng).ok());
}

TEST(AgmSamplerTest, AcceptanceIterationsImproveCorrelations) {
  // The accept/reject loop is what pulls Θ'F toward the target; compare the
  // filtered pipeline against the structural model alone (0 iterations).
  const Snapshot g = RandomAttributed(400, 0.03, 2, 21);
  AgmParams params = LearnAgmParams(g);
  AgmSampleOptions no_filter;
  no_filter.model = StructuralModelKind::kFcl;
  no_filter.acceptance_iterations = 0;
  AgmSampleOptions filtered = no_filter;
  filtered.acceptance_iterations = 5;

  double err_plain = 0.0, err_filtered = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    util::Rng rng(22 + trial);
    auto a = SampleAgmGraph(params, no_filter, rng);
    auto b = SampleAgmGraph(params, filtered, rng);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b.value().num_nodes(), 400u);
    EXPECT_GT(b.value().num_edges(), 0u);
    err_plain += stats::HellingerDistance(
        ComputeThetaF(Snapshot::FromGraph(a.value())), params.theta_f);
    err_filtered += stats::HellingerDistance(
        ComputeThetaF(Snapshot::FromGraph(b.value())), params.theta_f);
  }
  EXPECT_LT(err_filtered, err_plain);
}

TEST(AgmSamplerTest, TriCycLePipelineApproachesTriangleTarget) {
  const Snapshot g = RandomAttributed(200, 0.06, 2, 23);
  AgmParams params = LearnAgmParams(g);
  AgmSampleOptions options;
  options.model = StructuralModelKind::kTriCycLe;
  options.acceptance_iterations = 2;
  util::Rng rng(24);
  auto synthetic = SampleAgmGraph(params, options, rng);
  ASSERT_TRUE(synthetic.ok());
  const uint64_t achieved =
      graph::CountTriangles(synthetic.value().structure());
  EXPECT_GT(achieved, params.target_triangles / 3);
}

// ------------------------------------------------------------------ AGM-DP --

// Algorithm 3 end to end is pipeline::RunPrivateRelease: LearnAgmParamsDp
// under one accountant, then SampleAgmGraph's loop on a one-shot engine.
pipeline::PipelineConfig DpConfig(double epsilon, const char* model) {
  pipeline::PipelineConfig config;
  config.epsilon = epsilon;
  config.model = model;
  config.sample.acceptance_iterations = 1;
  return config;
}

TEST(AgmDpTest, ValidatesOptions) {
  util::Rng rng(25);
  const Snapshot g = RandomAttributed(50, 0.1, 2, 26);
  AgmDpOptions options;
  options.epsilon = 0.0;
  dp::PrivacyAccountant accountant(1.0);
  EXPECT_FALSE(LearnAgmParamsDp(g, options, accountant, rng).ok());
  EXPECT_FALSE(
      pipeline::RunPrivateRelease(g, DpConfig(0.0, "tricycle"), rng).ok());

  options.epsilon = 1.0;
  options.split.theta_x = 2.0;  // exceeds epsilon
  options.split.theta_f = 0.1;
  options.split.degree_seq = 0.1;
  options.split.triangles = 0.1;
  EXPECT_FALSE(LearnAgmParamsDp(g, options, accountant, rng).ok());
  EXPECT_EQ(accountant.spent(), 0.0);
  pipeline::PipelineConfig config = DpConfig(1.0, "tricycle");
  config.split = options.split;
  EXPECT_FALSE(pipeline::RunPrivateRelease(g, config, rng).ok());
}

TEST(AgmDpTest, LedgerSumsToBudget) {
  util::Rng rng(27);
  const Snapshot g = RandomAttributed(150, 0.05, 2, 28);
  auto result =
      pipeline::RunPrivateRelease(g, DpConfig(0.8, "tricycle"), rng);
  ASSERT_TRUE(result.ok());
  double spent = 0.0;
  for (const auto& [label, eps] : result.value().ledger) spent += eps;
  EXPECT_NEAR(spent, 0.8, 1e-9);
  EXPECT_EQ(result.value().ledger.size(), 4u);  // TriCycLe: 4 params
}

TEST(AgmDpTest, FclLedgerHasThreeSpends) {
  util::Rng rng(29);
  const Snapshot g = RandomAttributed(150, 0.05, 2, 30);
  auto result = pipeline::RunPrivateRelease(g, DpConfig(0.8, "fcl"), rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().ledger.size(), 3u);
  double degree_share = 0.0;
  for (const auto& [label, eps] : result.value().ledger) {
    if (label == "degree_sequence") degree_share = eps;
  }
  EXPECT_DOUBLE_EQ(degree_share, 0.4);  // half the budget
}

TEST(AgmDpTest, OutputPreservesNodeCountAndW) {
  util::Rng rng(31);
  const Snapshot g = RandomAttributed(120, 0.06, 2, 32);
  auto result =
      pipeline::RunPrivateRelease(g, DpConfig(1.0, "tricycle"), rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().graph.num_nodes(), 120u);
  EXPECT_EQ(result.value().graph.num_attributes(), 2);
}

TEST(AgmDpTest, DeterministicGivenSeed) {
  const Snapshot g = RandomAttributed(100, 0.06, 2, 33);
  util::Rng rng1(99), rng2(99);
  auto r1 = pipeline::RunPrivateRelease(g, DpConfig(0.5, "tricycle"), rng1);
  auto r2 = pipeline::RunPrivateRelease(g, DpConfig(0.5, "tricycle"), rng2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().graph.structure().CanonicalEdges(),
            r2.value().graph.structure().CanonicalEdges());
  EXPECT_EQ(r1.value().graph.attributes(), r2.value().graph.attributes());
}

TEST(AgmDpTest, NonPrivateBaselineRuns) {
  util::Rng rng(34);
  const Snapshot g = RandomAttributed(100, 0.06, 2, 35);
  AgmSampleOptions options;
  options.model = StructuralModelKind::kFcl;
  auto result = SampleAgmGraph(LearnAgmParams(g), options, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_nodes(), 100u);
}

TEST(AgmDpTest, AllThetaFMethodsRunEndToEnd) {
  const Snapshot g = RandomAttributed(100, 0.06, 2, 36);
  for (ThetaFMethod method :
       {ThetaFMethod::kEdgeTruncation, ThetaFMethod::kSmoothSensitivity,
        ThetaFMethod::kSampleAggregate, ThetaFMethod::kNaiveLaplace}) {
    util::Rng rng(37);
    pipeline::PipelineConfig config = DpConfig(1.0, "tricycle");
    config.theta_f_method = method;
    auto result = pipeline::RunPrivateRelease(g, config, rng);
    EXPECT_TRUE(result.ok()) << "method " << static_cast<int>(method);
  }
}

// ---------------------------------------------------------------- golden --

// Literal outputs of the sharded FCL path, pinned at worker pools of 1, 2,
// 4 and 64: the shard schedule must never show in the output, and a change
// to how shards are drawn or merged must keep every bit. The cases cover a
// hub-reweighting calibration over two filtered iterations, a proposal
// budget so tight that no shard fills its quota (the merge reads all 64
// shards and still falls short), and a small dense sequence whose
// cross-shard duplicates make the merge read well past the minimum shard
// count without hub reweighting (the pilot itself is returned).
TEST(ShardedFclGoldenTest, SampleMatchesPinnedLiteralsAtAnyPoolSize) {
  struct Case {
    const char* name;
    graph::NodeId nodes;
    bool skewed;  // heavy-tailed with hubs, else every degree is 12
    uint64_t max_proposals_per_edge;
    int acceptance_iterations;
    uint64_t attributes_hash;
    uint64_t adjacency_hash;
    uint64_t canonical_hash;
    uint64_t next_draw;
  };
  static const Case kCases[] = {
      {"skewed", 3000, true, 200, 2, 0xbc8dca6f77576fc3ULL,
       0x3874c104e600e7f9ULL, 0x14e1144c60381ff7ULL, 0x8adb7853e62975f2ULL},
      {"budget-starved", 3000, true, 1, 1, 0xbc8dca6f77576fc3ULL,
       0x2209e450c06014d8ULL, 0x6e320c5196bde0a6ULL, 0x52692091915360f0ULL},
      {"duplicate-heavy", 24, false, 200, 1, 0xb10c03b8634d1742ULL,
       0xf3093de613d5d0adULL, 0xd7e8a3b5274f3f11ULL, 0xcb91462c98dd0872ULL},
  };
  for (const Case& c : kCases) {
    AgmParams params;
    params.w = 1;
    params.theta_x = {0.6, 0.4};
    params.theta_f = {0.5, 0.2, 0.3};
    util::Rng degree_rng(29);
    params.degree_sequence.resize(c.nodes);
    for (graph::NodeId i = 0; i < c.nodes; ++i) {
      params.degree_sequence[i] =
          !c.skewed ? 12
          : i % 40 == 0
              ? static_cast<uint32_t>(40 + degree_rng.UniformIndex(41))
              : static_cast<uint32_t>(1 + degree_rng.UniformIndex(6));
    }
    for (int workers : {1, 2, 4, 64}) {
      SCOPED_TRACE(std::string(c.name) + " workers " +
                   std::to_string(workers));
      util::WorkerPool pool(workers);
      AgmSampleOptions options;
      options.model = StructuralModelKind::kFcl;
      options.pool = &pool;
      options.acceptance_iterations = c.acceptance_iterations;
      options.fcl.max_proposals_per_edge = c.max_proposals_per_edge;
      util::Rng rng(31);
      auto sampled = SampleAgmGraph(params, options, rng);
      ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
      const graph::AttributedGraph& g = sampled.value();
      golden::GoldenHash attributes;
      for (graph::AttrConfig x : g.attributes()) attributes.Add(x);
      const uint64_t adjacency = golden::HashAdjacency(g.structure());
      const uint64_t canonical =
          golden::HashEdges(g.structure().CanonicalEdges());
      const uint64_t next = rng.Next();
      EXPECT_EQ(attributes.value(), c.attributes_hash);
      EXPECT_EQ(adjacency, c.adjacency_hash);
      EXPECT_EQ(canonical, c.canonical_hash);
      EXPECT_EQ(next, c.next_draw);
    }
  }
}

}  // namespace
}  // namespace agmdp::agm
