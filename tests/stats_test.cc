#include <gtest/gtest.h>

#include <cmath>

#include "src/graph/graph.h"
#include "src/stats/assortativity.h"
#include "src/stats/ccdf.h"
#include "src/stats/metrics.h"
#include "src/stats/summary.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace agmdp::stats {
namespace {

// ----------------------------------------------------------------- Metrics --

TEST(AssortativityTest, AttributeCoefficientIsNewmans) {
  // Tallies over ordered endpoints of a 2 x 2 mix (row-major, 2m in all).
  // Uniform mixing is random mixing: Newman's r is 0, not the 1/3 that
  // subtracting the squared entries of e gives.
  EXPECT_DOUBLE_EQ(AttributeAssortativityFromMixingCounts({1, 1, 1, 1}, 2, 2),
                   0.0);
  EXPECT_DOUBLE_EQ(AttributeAssortativityFromMixingCounts({2, 0, 0, 2}, 2, 2),
                   1.0);
  EXPECT_DOUBLE_EQ(AttributeAssortativityFromMixingCounts({0, 2, 2, 0}, 2, 2),
                   -1.0);
  // Unequal classes: e = [[0.4, 0.1], [0.1, 0.4]] scaled from 10 endpoints
  // with a = b = (0.5, 0.5) gives (0.8 - 0.5) / (1 - 0.5) = 0.6.
  EXPECT_NEAR(AttributeAssortativityFromMixingCounts({4, 1, 1, 4}, 2, 5), 0.6,
              1e-12);
  // One category, or no edges: undefined, reported as 0.
  EXPECT_EQ(AttributeAssortativityFromMixingCounts({4, 0, 0, 0}, 2, 2), 0.0);
  EXPECT_EQ(AttributeAssortativityFromMixingCounts({0, 0, 0, 0}, 2, 0), 0.0);
}

TEST(MetricsTest, RelativeError) {
  EXPECT_DOUBLE_EQ(RelativeError(11.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(9.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(5.0, 0.0, 1.0), 5.0);  // floor applies
}

TEST(MetricsTest, MaeAndMre) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(MeanAbsoluteError(a, b), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(MeanRelativeError(a, b), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(MeanAbsoluteError({}, {}), 0.0);
}

TEST(MetricsTest, HellingerKnownValues) {
  EXPECT_DOUBLE_EQ(HellingerDistance({1.0, 0.0}, {1.0, 0.0}), 0.0);
  // Disjoint distributions have distance 1.
  EXPECT_NEAR(HellingerDistance({1.0, 0.0}, {0.0, 1.0}), 1.0, 1e-12);
  // Pads shorter vector with zeros.
  EXPECT_NEAR(HellingerDistance({1.0}, {0.0, 1.0}), 1.0, 1e-12);
}

TEST(MetricsTest, HellingerSymmetric) {
  std::vector<double> p = {0.2, 0.3, 0.5};
  std::vector<double> q = {0.5, 0.25, 0.25};
  EXPECT_DOUBLE_EQ(HellingerDistance(p, q), HellingerDistance(q, p));
  EXPECT_GT(HellingerDistance(p, q), 0.0);
  EXPECT_LT(HellingerDistance(p, q), 1.0);
}

TEST(MetricsTest, KsIdenticalSequencesIsZero) {
  std::vector<uint32_t> s = {1, 2, 2, 3, 10};
  EXPECT_DOUBLE_EQ(KsStatistic(s, s), 0.0);
}

TEST(MetricsTest, KsDisjointSupportsIsOne) {
  EXPECT_DOUBLE_EQ(KsStatistic({1, 1, 1}, {5, 5, 5}), 1.0);
}

TEST(MetricsTest, KsKnownValue) {
  // F1 jumps to 1 at 1; F2 has 0.5 at 1 and 1 at 2; max gap is 0.5.
  EXPECT_DOUBLE_EQ(KsStatistic({1, 1}, {1, 2}), 0.5);
}

TEST(MetricsTest, KsHandlesDifferentLengths) {
  std::vector<uint32_t> s1 = {1, 2, 3, 4, 5, 6};
  std::vector<uint32_t> s2 = {1, 2, 3};
  const double ks = KsStatistic(s1, s2);
  EXPECT_GE(ks, 0.0);
  EXPECT_LE(ks, 1.0);
}

TEST(MetricsTest, DegreeDistributionSumsToOne) {
  util::Rng rng(1);
  const graph::CsrGraph g =
      graph::CsrGraph::FromGraph(test_support::ErdosRenyiGnp(100, 0.05, rng));
  std::vector<double> dist = DegreeDistribution(g);
  double sum = 0.0;
  for (double x : dist) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MetricsTest, DegreeHellingerZeroForSameGraph) {
  util::Rng rng(2);
  const graph::CsrGraph g =
      graph::CsrGraph::FromGraph(test_support::ErdosRenyiGnp(80, 0.05, rng));
  EXPECT_DOUBLE_EQ(
      HellingerDistance(DegreeDistribution(g), DegreeDistribution(g)), 0.0);
}

// -------------------------------------------------------------------- CCDF --

TEST(CcdfTest, SimpleSeries) {
  auto series = Ccdf({1.0, 2.0, 2.0, 3.0});
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0].first, 1.0);
  EXPECT_DOUBLE_EQ(series[0].second, 0.75);  // 3 of 4 exceed 1
  EXPECT_DOUBLE_EQ(series[1].second, 0.25);  // 1 of 4 exceeds 2
  EXPECT_DOUBLE_EQ(series[2].second, 0.0);   // none exceed 3
}

TEST(CcdfTest, EmptyInput) { EXPECT_TRUE(Ccdf({}).empty()); }

TEST(CcdfTest, MonotoneNonIncreasing) {
  util::Rng rng(3);
  std::vector<double> values(500);
  for (double& v : values) v = rng.UniformDouble() * 10;
  auto series = Ccdf(values);
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_LT(series[i - 1].first, series[i].first);
    EXPECT_GE(series[i - 1].second, series[i].second);
  }
}

TEST(CcdfTest, DownsampleKeepsEndpoints) {
  std::vector<double> values(1000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i);
  auto series = Ccdf(values);
  auto thin = DownsampleCcdf(series, 20);
  ASSERT_LE(thin.size(), 20u);
  EXPECT_DOUBLE_EQ(thin.front().first, series.front().first);
  EXPECT_DOUBLE_EQ(thin.back().first, series.back().first);
}

TEST(CcdfTest, DownsampleNoopWhenSmall) {
  auto series = Ccdf({1.0, 2.0});
  EXPECT_EQ(DownsampleCcdf(series, 10).size(), series.size());
}

// ----------------------------------------------------------------- Summary --

TEST(SummaryTest, TriangleGraph) {
  graph::Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  GraphSummary s = Summarize(graph::CsrGraph::FromGraph(g));
  EXPECT_EQ(s.num_nodes, 3u);
  EXPECT_EQ(s.num_edges, 3u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 2.0);
  EXPECT_EQ(s.triangles, 1u);
  EXPECT_DOUBLE_EQ(s.avg_local_clustering, 1.0);
  EXPECT_DOUBLE_EQ(s.global_clustering, 1.0);
}

TEST(SummaryTest, FormatContainsName) {
  GraphSummary s;
  s.num_nodes = 5;
  std::string line = FormatSummary("lastfm", s);
  EXPECT_NE(line.find("lastfm"), std::string::npos);
  EXPECT_NE(line.find("n=5"), std::string::npos);
}

TEST(UtilityErrorsTest, AccumulateAndAverage) {
  UtilityErrors a;
  a.degree_ks = 0.2;
  a.edges_re = 0.1;
  UtilityErrors b;
  b.degree_ks = 0.4;
  b.edges_re = 0.3;
  a += b;
  UtilityErrors mean = a / 2.0;
  EXPECT_DOUBLE_EQ(mean.degree_ks, 0.3);
  EXPECT_DOUBLE_EQ(mean.edges_re, 0.2);
}

}  // namespace
}  // namespace agmdp::stats
