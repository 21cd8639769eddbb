#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <string>

#include "src/agm/agm_dp.h"
#include "src/agm/agm_sampler.h"
#include "src/agm/theta_f.h"
#include "src/agm/theta_x.h"
#include "src/datasets/homophily.h"
#include "src/dp/laplace_mechanism.h"
#include "src/dp/sample_aggregate.h"
#include "src/graph/triangle_count.h"
#include "src/models/chung_lu.h"
#include "src/models/proposal_kernel.h"
#include "src/pipeline/model_registry.h"
#include "src/pipeline/release_pipeline.h"
#include "src/stats/metrics.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "tests/golden_hash.h"
#include "tests/test_support.h"

namespace agmdp::agm {
namespace {

using Snapshot = graph::AttributedCsrGraph;

// The structural-model registry's binding of `name`.
const StructuralModel& RegistryModel(const char* name) {
  return pipeline::FindStructuralModel(name)->model;
}

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
  graph::AttributedGraph g(test_support::ErdosRenyiGnp(n, p, rng), w);
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
    graph::AttributedGraph g(
        test_support::ErdosRenyiGnp(120, 0.08, graph_rng), 2);
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
  util::WorkerPool pool(1);
  EXPECT_FALSE(SampleAgmGraph(params, RegistryModel("tricycle"),
                              AgmSampleOptions{}, pool, rng)
                   .ok());
}

TEST(AgmSamplerTest, AcceptanceIterationsImproveCorrelations) {
  // The accept/reject loop is what pulls Θ'F toward the target; compare the
  // filtered pipeline against the structural model alone (0 iterations).
  const Snapshot g = RandomAttributed(400, 0.03, 2, 21);
  AgmParams params = LearnAgmParams(g);
  AgmSampleOptions no_filter;
  no_filter.acceptance_iterations = 0;
  AgmSampleOptions filtered = no_filter;
  filtered.acceptance_iterations = 5;
  const StructuralModel& fcl = RegistryModel("fcl");
  util::WorkerPool pool(1);

  double err_plain = 0.0, err_filtered = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    util::Rng rng(22 + trial);
    auto a = SampleAgmGraph(params, fcl, no_filter, pool, rng);
    auto b = SampleAgmGraph(params, fcl, filtered, pool, rng);
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
  options.acceptance_iterations = 2;
  util::WorkerPool pool(1);
  util::Rng rng(24);
  auto synthetic =
      SampleAgmGraph(params, RegistryModel("tricycle"), options, pool, rng);
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
  config.acceptance_iterations = 1;
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
  util::WorkerPool pool(1);
  auto result = SampleAgmGraph(LearnAgmParams(g), RegistryModel("fcl"),
                               AgmSampleOptions{}, pool, rng);
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
// shards and still falls short), a small dense sequence whose cross-shard
// duplicates make the merge read well past the minimum shard count without
// hub reweighting (the pilot itself is returned), and a filter-starved
// pass: ΘF asks for nearly every edge to join two of the rare attribute-1
// nodes, so the calibrated acceptance floors the other two configurations
// at min_acceptance, every shard spends its default 200 x quota budget on
// filter rejections, and the merge falls well short of the target. The
// unfiltered case runs no acceptance iteration, so its graph is the cold,
// unfiltered sharded pass alone.
TEST(ShardedFclGoldenTest, SampleMatchesPinnedLiteralsAtAnyPoolSize) {
  struct Case {
    const char* name;
    graph::NodeId nodes;
    bool skewed;  // heavy-tailed with hubs, else every degree is 12
    uint64_t max_proposals_per_edge;
    int acceptance_iterations;
    std::vector<double> theta_x;
    std::vector<double> theta_f;
    uint64_t attributes_hash;
    uint64_t adjacency_hash;
    uint64_t canonical_hash;
    uint64_t next_draw;
  };
  const std::vector<double> kThetaX = {0.6, 0.4};
  const std::vector<double> kThetaF = {0.5, 0.2, 0.3};
  const Case kCases[] = {
      {"skewed", 3000, true, 200, 2, kThetaX, kThetaF,
       0xbc8dca6f77576fc3ULL, 0x9560cbd0ce1dae89ULL, 0xd777ac2f043cc55fULL,
       0x8adb7853e62975f2ULL},
      {"budget-starved", 3000, true, 1, 1, kThetaX, kThetaF,
       0xbc8dca6f77576fc3ULL, 0xfacf8383784fcf7fULL, 0xd120af932131c345ULL,
       0x52692091915360f0ULL},
      {"duplicate-heavy", 24, false, 200, 1, kThetaX, kThetaF,
       0xb10c03b8634d1742ULL, 0x71c4ef766e62cbfeULL, 0xb56781a057d0ca7aULL,
       0xcb91462c98dd0872ULL},
      {"filter-starved", 3000, true, 200, 1, {0.97, 0.03},
       {1e-4, 1e-4, 0.9998}, 0x06029c051eed17e2ULL, 0x5c1f9ea4938e49eaULL,
       0x4476af947a4f513eULL, 0x52692091915360f0ULL},
      {"unfiltered", 3000, true, 200, 0, kThetaX, kThetaF,
       0xbc8dca6f77576fc3ULL, 0x6653ece8914baaaeULL, 0xf89b8f48a2246280ULL,
       0xed22a98849852340ULL},
  };
  for (const Case& c : kCases) {
    AgmParams params;
    params.w = 1;
    params.theta_x = c.theta_x;
    params.theta_f = c.theta_f;
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
      options.acceptance_iterations = c.acceptance_iterations;
      util::Rng rng(31);
      auto sampled =
          SampleAgmGraph(params, ShardedFclModel(c.max_proposals_per_edge),
                         options, pool, rng);
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

// The sharded FCL pass draws a one-worker pool's shards straight into the
// output and merges a larger pool's waves of drawn-ahead shards. Both must
// give the same edges and adjacency order, pilot and calibrated pass
// alike.
TEST(ShardedFclPassTest, OneWorkerPassMatchesTheWavePath) {
  // One draw of ShardedFclModel on a pool of `workers`; the model keys the
  // pass with the first draw of Rng(seed).
  const auto draw = [](const std::vector<uint32_t>& degrees,
                       const models::EdgeFilter& filter,
                       uint64_t max_proposals_per_edge, int workers,
                       uint64_t seed) {
    AgmParams params;
    params.degree_sequence = degrees;
    util::WorkerPool pool(workers);
    util::Rng rng(seed);
    return ShardedFclModel(max_proposals_per_edge)(params, pool)(filter, rng);
  };
  util::Rng degree_rng(29);
  std::vector<uint32_t> skewed(3000);
  for (size_t i = 0; i < skewed.size(); ++i) {
    skewed[i] = i % 40 == 0
                    ? static_cast<uint32_t>(40 + degree_rng.UniformIndex(41))
                    : static_cast<uint32_t>(1 + degree_rng.UniformIndex(6));
  }
  std::vector<graph::AttrConfig> configs(skewed.size());
  for (graph::AttrConfig& x : configs) {
    x = static_cast<graph::AttrConfig>(degree_rng.UniformIndex(2));
  }
  const models::EdgeFilter table =
      models::EdgeFilter::FromAcceptanceTable(configs, {1.0, 0.3, 0.6}, 1);
  const models::EdgeFilter coin = [](graph::NodeId u, graph::NodeId v,
                                     util::Rng& rng) {
    return rng.Bernoulli((u + v) % 3 == 0 ? 0.9 : 0.4);
  };
  // Node 0 is the only hub, and the filter lets its edges through twice as
  // often as the others, so the pilot meets its degree and is kept.
  std::vector<uint32_t> kept_pilot(200, 3);
  kept_pilot[0] = 11;
  const models::EdgeFilter hub_first = [](graph::NodeId u, graph::NodeId v,
                                          util::Rng&) {
    return u == 0 || v == 0 || (u + v) % 2 == 0;
  };
  const std::vector<uint32_t> regular(3000, 12);  // no hub: one pass
  const std::vector<uint32_t> complete(12, 11);   // K12: 66 pairs, quota 4

  struct Case {
    const char* name;
    const std::vector<uint32_t>* degrees;
    models::EdgeFilter filter;
    uint64_t max_proposals_per_edge;
  };
  const Case kCases[] = {
      {"no filter", &skewed, {}, 200},
      {"acceptance table", &skewed, table, 200},
      {"predicate", &skewed, coin, 200},
      {"target cut in mid-shard", &regular, {}, 200},
      {"budget-starved", &skewed, table, 1},
      {"pilot kept", &kept_pilot, hub_first, 200},
      {"recurring cross-shard duplicates", &complete, {}, 200},
  };
  for (const Case& c : kCases) {
    for (const uint64_t seed : {uint64_t{31}, uint64_t{0x5eed}}) {
      auto one_worker =
          draw(*c.degrees, c.filter, c.max_proposals_per_edge, 1, seed);
      ASSERT_TRUE(one_worker.ok()) << one_worker.status().ToString();
      const graph::Graph& g = one_worker.value();
      for (int workers : {2, 4}) {
        SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed) +
                     " workers " + std::to_string(workers));
        auto wave =
            draw(*c.degrees, c.filter, c.max_proposals_per_edge, workers,
                 seed);
        ASSERT_TRUE(wave.ok()) << wave.status().ToString();
        EXPECT_EQ(wave.value().CanonicalEdges(), g.CanonicalEdges());
        for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
          ASSERT_EQ(wave.value().Neighbors(v), g.Neighbors(v)) << v;
        }
      }
    }
  }

  // What makes the cases what they are. A regular degree sequence has no
  // hub, so its one pass meets the target of 18,000 edges, which no shard
  // boundary reaches (quota 354 per shard).
  auto regular_graph = draw(regular, {}, 200, 1, 31);
  ASSERT_TRUE(regular_graph.ok());
  EXPECT_TRUE(models::FclHubs(regular).empty());
  EXPECT_EQ(regular_graph.value().num_edges(), 18000u);
  EXPECT_NE(18000u % 354u, 0u);

  // The kept pilot's hub reaches its degree, so the calibration changes no
  // weight (a kept pilot is the output).
  auto kept = draw(kept_pilot, hub_first, 200, 1, 31);
  ASSERT_TRUE(kept.ok());
  models::FclPilot pilot(kept.value().num_edges());
  kept.value().ForEachEdge(
      [&](graph::NodeId u, graph::NodeId v) { pilot.AddEdge(u, v); });
  std::vector<double> weights(kept_pilot.begin(), kept_pilot.end());
  EXPECT_FALSE(models::ReweightHubs(kept_pilot,
                                    models::FclHubs(kept_pilot), pilot,
                                    &weights));

  // Replaying K12's shard streams (no hub, so one pass from offset 0):
  // some shard accepts an edge an earlier shard added and then proposes
  // it again, before the output fills.
  auto pi = models::PiTables::Build(
      std::vector<double>(complete.begin(), complete.end()), {});
  ASSERT_TRUE(pi.ok());
  EXPECT_TRUE(models::FclHubs(complete).empty());
  const models::EdgeFilter none;
  const models::CandidateKernel kernel(pi.value(), none);
  const uint64_t target = 66;
  const uint64_t quota = 4;  // 2 + 2 / 4 + 2
  for (const uint64_t seed : {uint64_t{31}, uint64_t{0x5eed}}) {
    const uint64_t seed_base = util::Rng(seed).Next();
    std::set<uint64_t> output;
    int recurrences = 0;
    for (int s = 0; s < kSamplerProposalShards && output.size() < target;
         ++s) {
      util::Rng rng =
          util::Rng::Substream(seed_base, static_cast<uint64_t>(s));
      models::PassBudget budget(200 * quota);
      std::set<uint64_t> shard;
      std::set<uint64_t> from_earlier;  // accepted here, added before
      kernel.Run([&](const auto& arm) {
        graph::NodeId u = 0;
        graph::NodeId v = 0;
        while (shard.size() < quota && output.size() < target &&
               arm.Propose(rng, budget, u, v)) {
          const uint64_t key = graph::PackEdge(u, v);
          if (shard.count(key) != 0) {
            recurrences += static_cast<int>(from_earlier.count(key));
            continue;
          }
          if (!arm.Admit(u, v, rng)) continue;
          shard.insert(key);
          if (!output.insert(key).second) from_earlier.insert(key);
        }
      });
    }
    EXPECT_GT(recurrences, 0) << seed;
  }
}

}  // namespace
}  // namespace agmdp::agm
