#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "src/dp/ladder_mechanism.h"
#include "src/graph/triangle_count.h"
#include "src/models/erdos_renyi.h"
#include "src/util/rng.h"

namespace agmdp::dp {
namespace {

graph::CsrGraph CompleteGraph(graph::NodeId n) {
  graph::Graph g(n);
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  return graph::CsrGraph::FromGraph(g);
}

graph::CsrGraph Gnp(graph::NodeId n, double p, util::Rng& rng) {
  return graph::CsrGraph::FromGraph(models::ErdosRenyiGnp(n, p, rng));
}

graph::CsrGraph Edgeless(graph::NodeId n) {
  return graph::CsrGraph::FromGraph(graph::Graph(n));
}

TEST(LadderMechanismTest, RejectsBadEpsilon) {
  util::Rng rng(1);
  const graph::CsrGraph g = Edgeless(10);
  EXPECT_FALSE(DpTriangleCount(g, 0.0, rng).ok());
  EXPECT_FALSE(DpTriangleCount(g, -1.0, rng).ok());
}

TEST(LadderMechanismTest, TinyGraphsReturnZero) {
  util::Rng rng(2);
  for (graph::NodeId n : {0u, 1u, 2u}) {
    auto r = DpTriangleCount(Edgeless(n), 1.0, rng);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 0);
  }
}

TEST(LadderMechanismTest, OutputAlwaysInFeasibleRange) {
  util::Rng rng(3);
  const graph::CsrGraph g = Gnp(30, 0.3, rng);
  const int64_t max_triangles = 30LL * 29 * 28 / 6;
  for (double eps : {0.01, 0.1, 1.0}) {
    for (int i = 0; i < 200; ++i) {
      auto r = DpTriangleCount(g, eps, rng);
      ASSERT_TRUE(r.ok());
      EXPECT_GE(r.value(), 0);
      EXPECT_LE(r.value(), max_triangles);
    }
  }
}

TEST(LadderMechanismTest, ConcentratesAtLargeEpsilon) {
  util::Rng rng(4);
  const graph::CsrGraph g = Gnp(60, 0.2, rng);
  const auto truth = static_cast<int64_t>(graph::CountTriangles(g));
  int exact = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    auto r = DpTriangleCount(g, 50.0, rng);
    ASSERT_TRUE(r.ok());
    exact += r.value() == truth;
  }
  // At eps = 50 the center rung carries nearly all mass.
  EXPECT_GT(exact, trials / 2);
}

TEST(LadderMechanismTest, ErrorShrinksWithEpsilon) {
  util::Rng rng(5);
  const graph::CsrGraph g = Gnp(80, 0.15, rng);
  const auto truth = static_cast<double>(graph::CountTriangles(g));
  auto mean_abs_error = [&](double eps) {
    double sum = 0.0;
    const int trials = 150;
    for (int i = 0; i < trials; ++i) {
      auto r = DpTriangleCount(g, eps, rng);
      sum += std::fabs(static_cast<double>(r.value()) - truth);
    }
    return sum / trials;
  };
  EXPECT_LT(mean_abs_error(2.0), mean_abs_error(0.05));
}

TEST(LadderMechanismTest, ExactBaseUsedForSmallGraphs) {
  util::Rng rng(6);
  const graph::CsrGraph g = Gnp(40, 0.2, rng);
  LadderDiagnostics diag;
  auto r = DpTriangleCount(g, 1.0, rng, LadderOptions{}, &diag);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(diag.used_exact_base);
  auto amax = graph::MaxCommonNeighborCount(g, 1u << 30);
  ASSERT_TRUE(amax.ok());
  EXPECT_EQ(diag.ladder_base, amax.value());
}

TEST(LadderMechanismTest, DegreeBoundFallbackKicksIn) {
  util::Rng rng(7);
  const graph::CsrGraph g = Gnp(40, 0.2, rng);
  LadderOptions options;
  options.max_exact_work = 1;  // force the fallback
  LadderDiagnostics diag;
  auto r = DpTriangleCount(g, 1.0, rng, options, &diag);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(diag.used_exact_base);
  // The degree bound dominates the exact base.
  auto amax = graph::MaxCommonNeighborCount(g, 1u << 30);
  EXPECT_GE(diag.ladder_base, amax.value());
}

TEST(LadderMechanismTest, ForcedDegreeBoundStillAccurate) {
  util::Rng rng(8);
  const graph::CsrGraph g = Gnp(100, 0.1, rng);
  const auto truth = static_cast<double>(graph::CountTriangles(g));
  LadderOptions options;
  options.force_degree_bound = true;
  double sum = 0.0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    auto r = DpTriangleCount(g, 1.0, rng, options);
    sum += static_cast<double>(r.value());
  }
  // Wider rungs, but the estimate remains centered on the truth.
  EXPECT_NEAR(sum / trials, truth, truth * 0.5 + 50.0);
}

TEST(LadderMechanismTest, LadderBaseOnCompleteGraphIsNMinusTwo) {
  util::Rng rng(9);
  const graph::CsrGraph g = CompleteGraph(12);
  LadderDiagnostics diag;
  auto r = DpTriangleCount(g, 1.0, rng, LadderOptions{}, &diag);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(diag.ladder_base, 10u);  // n - 2
}

TEST(LadderMechanismTest, UnbiasedishAtModerateEpsilon) {
  // The rung construction is symmetric around the true count, so the mean
  // over many draws should sit near the truth (clamping at zero introduces
  // slight upward bias only for tiny counts).
  util::Rng rng(10);
  const graph::CsrGraph g = Gnp(70, 0.2, rng);
  const auto truth = static_cast<double>(graph::CountTriangles(g));
  double sum = 0.0;
  const int trials = 400;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(DpTriangleCount(g, 1.0, rng).value());
  }
  EXPECT_NEAR(sum / trials, truth, truth * 0.15 + 20.0);
}

}  // namespace
}  // namespace agmdp::dp
