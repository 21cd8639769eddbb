#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/dp/constrained_inference.h"
#include "src/dp/edge_truncation.h"
#include "src/dp/exponential_mechanism.h"
#include "src/dp/laplace_mechanism.h"
#include "src/dp/privacy_budget.h"
#include "src/dp/sample_aggregate.h"
#include "src/dp/smooth_sensitivity.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/models/erdos_renyi.h"
#include "src/util/rng.h"

namespace agmdp::dp {
namespace {

// ------------------------------------------------------- PrivacyAccountant --

TEST(PrivacyAccountantTest, TracksSpends) {
  PrivacyAccountant acc(1.0);
  EXPECT_TRUE(acc.Spend(0.25, "theta_x").ok());
  EXPECT_TRUE(acc.Spend(0.25, "theta_f").ok());
  EXPECT_DOUBLE_EQ(acc.spent(), 0.5);
  EXPECT_DOUBLE_EQ(acc.remaining(), 0.5);
  ASSERT_EQ(acc.ledger().size(), 2u);
  EXPECT_EQ(acc.ledger()[0].first, "theta_x");
}

TEST(PrivacyAccountantTest, RejectsOverspend) {
  PrivacyAccountant acc(0.5);
  EXPECT_TRUE(acc.Spend(0.5, "all").ok());
  EXPECT_FALSE(acc.Spend(0.01, "extra").ok());
  EXPECT_DOUBLE_EQ(acc.spent(), 0.5);  // failed spend not recorded
}

TEST(PrivacyAccountantTest, RejectsNonPositive) {
  PrivacyAccountant acc(1.0);
  EXPECT_FALSE(acc.Spend(0.0, "zero").ok());
  EXPECT_FALSE(acc.Spend(-0.1, "negative").ok());
}

TEST(PrivacyAccountantTest, ExactFourWaySplitFits) {
  // The paper's even split must consume exactly the whole budget despite
  // floating-point division.
  const double eps = std::log(3.0);
  BudgetSplit split = BudgetSplit::EvenFourWay(eps);
  PrivacyAccountant acc(eps);
  EXPECT_TRUE(acc.Spend(split.theta_x, "x").ok());
  EXPECT_TRUE(acc.Spend(split.theta_f, "f").ok());
  EXPECT_TRUE(acc.Spend(split.degree_seq, "s").ok());
  EXPECT_TRUE(acc.Spend(split.triangles, "t").ok());
  EXPECT_NEAR(acc.remaining(), 0.0, 1e-12);
}

TEST(BudgetSplitTest, FclGivesHalfToDegrees) {
  BudgetSplit split = BudgetSplit::FclThreeWay(0.8);
  EXPECT_DOUBLE_EQ(split.degree_seq, 0.4);
  EXPECT_DOUBLE_EQ(split.theta_x, 0.2);
  EXPECT_DOUBLE_EQ(split.theta_f, 0.2);
  EXPECT_DOUBLE_EQ(split.triangles, 0.0);
  EXPECT_NEAR(split.total(), 0.8, 1e-12);
}

// -------------------------------------------------------- LaplaceMechanism --

TEST(LaplaceMechanismTest, NoiseScaleMatchesSensitivityOverEpsilon) {
  util::Rng rng(5);
  const double sensitivity = 2.0, epsilon = 0.5;
  const int trials = 100000;
  double abs_sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    abs_sum += std::fabs(LaplaceMechanism(0.0, sensitivity, epsilon, rng));
  }
  // E|Lap(b)| = b = sensitivity / epsilon = 4.
  EXPECT_NEAR(abs_sum / trials, 4.0, 0.1);
}

TEST(LaplaceMechanismTest, NoisyCountsPreservesLength) {
  util::Rng rng(6);
  std::vector<double> counts = {10, 20, 30};
  std::vector<double> noisy = NoisyCounts(counts, 1.0, 10.0, rng);
  ASSERT_EQ(noisy.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(noisy[i], counts[i], 5.0);
}

TEST(ClampAndNormalizeTest, ProducesDistribution) {
  std::vector<double> p = ClampAndNormalize({5.0, -3.0, 10.0}, 0.0, 100.0);
  EXPECT_DOUBLE_EQ(p[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p[1], 0.0);  // clamped up to 0
  EXPECT_DOUBLE_EQ(p[2], 2.0 / 3.0);
  EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-12);
}

TEST(ClampAndNormalizeTest, AllZeroFallsBackToUniform) {
  std::vector<double> p = ClampAndNormalize({-1.0, -2.0, -3.0, -4.0}, 0.0, 9.0);
  for (double x : p) EXPECT_DOUBLE_EQ(x, 0.25);
}

TEST(ClampAndNormalizeTest, UpperClampApplies) {
  std::vector<double> p = ClampAndNormalize({50.0, 10.0}, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
}

// ---------------------------------------------------- ExponentialMechanism --

TEST(ExponentialMechanismTest, ValidatesInput) {
  util::Rng rng(7);
  EXPECT_FALSE(ExponentialMechanism({}, 1.0, 1.0, rng).ok());
  EXPECT_FALSE(ExponentialMechanism({1.0}, 0.0, 1.0, rng).ok());
  EXPECT_FALSE(ExponentialMechanism({1.0}, 1.0, -1.0, rng).ok());
}

TEST(ExponentialMechanismTest, PrefersHighScores) {
  util::Rng rng(8);
  std::vector<double> scores = {0.0, 0.0, 10.0, 0.0};
  int best = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    auto r = ExponentialMechanism(scores, 1.0, 5.0, rng);
    ASSERT_TRUE(r.ok());
    best += r.value() == 2;
  }
  EXPECT_GT(best, trials * 0.99);  // margin e^{25} dominates
}

TEST(ExponentialMechanismTest, NearUniformAtTinyEpsilon) {
  util::Rng rng(9);
  std::vector<double> scores = {0.0, 100.0};
  int hi = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    auto r = ExponentialMechanism(scores, 100.0, 1e-6, rng);
    hi += r.value() == 1;
  }
  EXPECT_NEAR(static_cast<double>(hi) / trials, 0.5, 0.02);
}

// ----------------------------------------------------------- EdgeTruncation --

graph::CsrGraph Csr(const graph::Graph& g) {
  return graph::CsrGraph::FromGraph(g);
}

std::vector<graph::Edge> Edges(const graph::CsrGraph& g) {
  std::vector<graph::Edge> edges;
  g.ForEachEdge(
      [&](graph::NodeId u, graph::NodeId v) { edges.emplace_back(u, v); });
  return edges;
}

// Definition 2 verbatim on the mutable graph: walk the canonical edge list,
// deleting an edge (and decrementing both current degrees) when either
// endpoint's current degree exceeds k.
std::vector<graph::Edge> TruncateOracle(const graph::Graph& g, uint32_t k) {
  std::vector<uint32_t> degree(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) degree[v] = g.Degree(v);
  std::vector<graph::Edge> kept;
  for (const graph::Edge& e : g.CanonicalEdges()) {
    if (degree[e.u] > k || degree[e.v] > k) {
      --degree[e.u];
      --degree[e.v];
    } else {
      kept.push_back(e);
    }
  }
  return kept;
}

TEST(EdgeTruncationTest, BoundsAllDegrees) {
  util::Rng rng(10);
  graph::Graph g = models::ErdosRenyiGnp(60, 0.3, rng);
  for (uint32_t k : {2u, 5u, 10u}) {
    graph::CsrGraph t = TruncateEdges(Csr(g), k);
    EXPECT_LE(t.MaxDegree(), k) << "k=" << k;
  }
}

TEST(EdgeTruncationTest, IdentityWhenKAtLeastMaxDegree) {
  util::Rng rng(11);
  graph::Graph g = models::ErdosRenyiGnp(40, 0.2, rng);
  graph::CsrGraph t = TruncateEdges(Csr(g), g.MaxDegree());
  EXPECT_EQ(t.num_edges(), g.num_edges());
}

TEST(EdgeTruncationTest, Deterministic) {
  util::Rng rng(12);
  graph::Graph g = models::ErdosRenyiGnp(50, 0.3, rng);
  EXPECT_EQ(Edges(TruncateEdges(Csr(g), 4)), Edges(TruncateEdges(Csr(g), 4)));
}

TEST(EdgeTruncationTest, OnlyRemovesEdges) {
  util::Rng rng(13);
  graph::Graph g = models::ErdosRenyiGnp(50, 0.3, rng);
  for (const graph::Edge& e : Edges(TruncateEdges(Csr(g), 3))) {
    EXPECT_TRUE(g.HasEdge(e.u, e.v));
  }
}

TEST(EdgeTruncationTest, StarTruncatesToKEdges) {
  graph::Graph star(10);
  for (graph::NodeId v = 1; v < 10; ++v) star.AddEdge(0, v);
  graph::CsrGraph t = TruncateEdges(Csr(star), 3);
  // Hub degree shrinks as edges are deleted; once it reaches k the
  // remaining edges survive.
  EXPECT_EQ(t.num_edges(), 3u);
  EXPECT_EQ(t.Degree(0), 3u);
}

// The one-pass snapshot truncation keeps exactly the edges of the
// canonical-walk definition, and its output is a valid snapshot: sorted
// neighbor ranges, symmetric adjacency, degrees matching the edge list.
TEST(EdgeTruncationTest, SnapshotPassMatchesCanonicalWalkOracle) {
  util::Rng rng(15);
  for (int trial = 0; trial < 10; ++trial) {
    graph::Graph g = models::ErdosRenyiGnp(80, 0.15, rng);
    for (uint32_t k : {1u, 3u, 8u}) {
      const graph::CsrGraph t = TruncateEdges(Csr(g), k);
      const std::vector<graph::Edge> kept = TruncateOracle(g, k);
      EXPECT_EQ(Edges(t), kept) << "k=" << k;
      EXPECT_EQ(t.num_edges(), kept.size());
      uint64_t degree_sum = 0;
      for (graph::NodeId v = 0; v < t.num_nodes(); ++v) {
        const graph::NeighborRange range = t.Neighbors(v);
        EXPECT_TRUE(std::is_sorted(range.begin(), range.end()));
        for (graph::NodeId w : range) EXPECT_TRUE(t.HasEdge(w, v));
        degree_sum += t.Degree(v);
      }
      EXPECT_EQ(degree_sum, 2 * kept.size());
    }
  }
}

TEST(EdgeTruncationTest, EdgeAdditionPerturbsAtMostThreeEdges) {
  // Proposition 1's structural step: neighboring inputs (one extra edge)
  // yield truncated graphs differing in at most 3 edges.
  util::Rng rng(14);
  for (int trial = 0; trial < 20; ++trial) {
    graph::Graph g = models::ErdosRenyiGnp(30, 0.25, rng);
    graph::Graph g2 = g;
    // add one random absent edge
    for (;;) {
      auto u = static_cast<graph::NodeId>(rng.UniformIndex(30));
      auto v = static_cast<graph::NodeId>(rng.UniformIndex(30));
      if (u != v && !g2.HasEdge(u, v)) {
        g2.AddEdge(u, v);
        break;
      }
    }
    const uint32_t k = 5;
    auto t1 = Edges(TruncateEdges(Csr(g), k));
    auto t2 = Edges(TruncateEdges(Csr(g2), k));
    std::vector<graph::Edge> diff;
    std::set_symmetric_difference(t1.begin(), t1.end(), t2.begin(), t2.end(),
                                  std::back_inserter(diff));
    EXPECT_LE(diff.size(), 3u);
  }
}

TEST(EdgeTruncationTest, HeuristicKIsCubeRoot) {
  EXPECT_EQ(HeuristicTruncationK(1843), 12u);   // Last.fm in the paper
  EXPECT_EQ(HeuristicTruncationK(26427), 30u);  // Epinions
  EXPECT_EQ(HeuristicTruncationK(592627), 84u); // Pokec
  EXPECT_GE(HeuristicTruncationK(1), 2u);       // floor at 2
}

// ----------------------------------------------------- ConstrainedInference --

TEST(IsotonicRegressionTest, AlreadyMonotoneIsIdentity) {
  std::vector<double> v = {1, 2, 3, 4.5};
  EXPECT_EQ(IsotonicRegressionL2(v), v);
}

TEST(IsotonicRegressionTest, PoolsViolators) {
  std::vector<double> fit = IsotonicRegressionL2({3.0, 1.0});
  EXPECT_DOUBLE_EQ(fit[0], 2.0);
  EXPECT_DOUBLE_EQ(fit[1], 2.0);
}

TEST(IsotonicRegressionTest, OutputIsMonotone) {
  util::Rng rng(15);
  std::vector<double> v(200);
  for (double& x : v) x = rng.Gaussian() * 10.0;
  std::vector<double> fit = IsotonicRegressionL2(v);
  for (size_t i = 1; i < fit.size(); ++i) EXPECT_LE(fit[i - 1], fit[i]);
}

TEST(IsotonicRegressionTest, IsL2Projection) {
  // The PAVA fit must be at least as close (in L2) as any other monotone
  // candidate; check against simple competitors.
  std::vector<double> v = {5.0, 1.0, 4.0, 2.0, 8.0};
  std::vector<double> fit = IsotonicRegressionL2(v);
  auto l2 = [&](const std::vector<double>& w) {
    double s = 0;
    for (size_t i = 0; i < v.size(); ++i) s += (v[i] - w[i]) * (v[i] - w[i]);
    return s;
  };
  std::vector<std::vector<double>> competitors = {
      {1, 1, 4, 4, 8}, {3, 3, 3, 3, 8}, {2, 2, 3, 3, 8}, {4, 4, 4, 4, 8},
      fit};
  for (const auto& c : competitors) {
    for (size_t i = 1; i < c.size(); ++i) ASSERT_LE(c[i - 1], c[i]);
    EXPECT_LE(l2(fit), l2(c) + 1e-9);
  }
}

TEST(IsotonicRegressionTest, PreservesMean) {
  // Pooling replaces blocks by their means, so the total is invariant.
  std::vector<double> v = {9, 2, 7, 3, 5, 5, 1};
  std::vector<double> fit = IsotonicRegressionL2(v);
  const double sum_v = std::accumulate(v.begin(), v.end(), 0.0);
  const double sum_f = std::accumulate(fit.begin(), fit.end(), 0.0);
  EXPECT_NEAR(sum_v, sum_f, 1e-9);
}

TEST(DpDegreeSequenceTest, OutputSortedAndInRange) {
  util::Rng rng(16);
  graph::Graph g = models::ErdosRenyiGnp(100, 0.1, rng);
  std::vector<uint32_t> s =
      DpDegreeSequence(graph::DegreeSequence(g), 0.5, rng);
  ASSERT_EQ(s.size(), 100u);
  for (size_t i = 1; i < s.size(); ++i) EXPECT_LE(s[i - 1], s[i]);
  for (uint32_t d : s) EXPECT_LE(d, 99u);
}

TEST(DpDegreeSequenceTest, ConstrainedInferenceBeatsRawNoise) {
  // The whole point of Hay et al.: the isotonic projection cancels most of
  // the Laplace noise. Compare L1 errors against the sorted true sequence.
  util::Rng rng(17);
  graph::Graph g = models::ErdosRenyiGnp(400, 0.02, rng);
  std::vector<uint32_t> truth = graph::SortedDegreeSequence(graph::CsrGraph::FromGraph(g));
  const double eps = 0.1;
  double err_ci = 0.0, err_raw = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<uint32_t> private_seq =
        DpDegreeSequence(graph::DegreeSequence(g), eps, rng);
    for (size_t i = 0; i < truth.size(); ++i) {
      err_ci += std::fabs(static_cast<double>(private_seq[i]) - truth[i]);
      err_raw += std::fabs(rng.Laplace(2.0 / eps));
    }
  }
  EXPECT_LT(err_ci, 0.5 * err_raw);
}

TEST(DpDegreeSequenceTest, AccurateAtLargeEpsilon) {
  util::Rng rng(18);
  graph::Graph g = models::ErdosRenyiGnp(200, 0.05, rng);
  std::vector<uint32_t> truth = graph::SortedDegreeSequence(graph::CsrGraph::FromGraph(g));
  std::vector<uint32_t> s =
      DpDegreeSequence(graph::DegreeSequence(g), 1000.0, rng);
  EXPECT_EQ(s, truth);
}

// ------------------------------------------------------- SmoothSensitivity --

TEST(SmoothSensitivityTest, BetaFormula) {
  EXPECT_NEAR(SmoothSensitivityBeta(1.0, 0.01),
              1.0 / (2.0 * std::log(100.0)), 1e-12);
}

TEST(SmoothSensitivityTest, LargeDmaxHitsLocalSensitivity) {
  // Corollary 5: when 1/beta <= 2 dmax the max is at t = 0, i.e. 2 dmax.
  const double beta = 0.5;  // 1/beta = 2 <= 2 * dmax for dmax >= 1
  EXPECT_NEAR(SmoothSensitivityQF(10, 1000, beta), 20.0, 1e-9);
}

TEST(SmoothSensitivityTest, SmallDmaxUsesExponentialForm) {
  // Otherwise S = (2 / beta) e^{beta dmax - 1}.
  const double beta = 0.01;
  const uint32_t dmax = 5;
  const double expected = (2.0 / beta) * std::exp(beta * dmax - 1.0);
  EXPECT_NEAR(SmoothSensitivityQF(dmax, 100000, beta), expected, 1e-6);
}

TEST(SmoothSensitivityTest, NeverBelowLocalAndNeverAboveGlobal) {
  for (uint32_t dmax : {1u, 10u, 100u}) {
    for (double beta : {0.001, 0.01, 0.1, 1.0}) {
      const double s = SmoothSensitivityQF(dmax, 500, beta);
      EXPECT_GE(s, 2.0 * dmax);
      EXPECT_LE(s, 2.0 * 500 - 2.0 + 1e-9);
    }
  }
}

TEST(SmoothSensitivityTest, ScaleDecreasesWithEpsilon) {
  util::Rng rng(19);
  graph::Graph g = models::ErdosRenyiGnp(100, 0.1, rng);
  const double s1 = SmoothLaplaceScaleQF(g.MaxDegree(), g.num_nodes(), 0.1,
                                        1e-6);
  const double s2 = SmoothLaplaceScaleQF(g.MaxDegree(), g.num_nodes(), 1.0,
                                        1e-6);
  EXPECT_GT(s1, s2);
}

TEST(SmoothSensitivityTest, NodeDpScaleExceedsEdgeDpScale) {
  util::Rng rng(20);
  graph::Graph g = models::ErdosRenyiGnp(100, 0.1, rng);
  const uint32_t k = 5;
  const double node_scale =
      NodeDpSmoothLaplaceScaleQF(g.MaxDegree(), k, g.num_nodes(), 0.5, 0.01);
  // Edge-DP truncation scale at the same epsilon is 2k / eps.
  EXPECT_GT(node_scale, 2.0 * k / 0.5);
}

// --------------------------------------------------------- SampleAggregate --

TEST(RandomNodePartitionTest, CoversAllNodesDisjointly) {
  util::Rng rng(21);
  auto groups = RandomNodePartition(103, 10, rng);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups.value().size(), 10u);  // 103 / 10, remainder absorbed
  std::vector<bool> seen(103, false);
  size_t total = 0;
  for (const auto& group : groups.value()) {
    for (graph::NodeId v : group) {
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, 103u);
}

TEST(RandomNodePartitionTest, ValidatesGroupSize) {
  util::Rng rng(22);
  EXPECT_FALSE(RandomNodePartition(10, 0, rng).ok());
  EXPECT_FALSE(RandomNodePartition(10, 11, rng).ok());
  EXPECT_TRUE(RandomNodePartition(10, 10, rng).ok());
}

TEST(AverageVectorsTest, ComputesMean) {
  auto mean = AverageVectors({{1, 2}, {3, 4}});
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ(mean.value()[0], 2.0);
  EXPECT_DOUBLE_EQ(mean.value()[1], 3.0);
}

TEST(AverageVectorsTest, RejectsRaggedOrEmpty) {
  EXPECT_FALSE(AverageVectors({}).ok());
  EXPECT_FALSE(AverageVectors({{1.0}, {1.0, 2.0}}).ok());
}

}  // namespace
}  // namespace agmdp::dp
