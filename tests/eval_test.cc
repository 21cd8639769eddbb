// Unit tests for the eval layer on hand-built toy graphs where every
// metric has a closed-form value.
#include <gtest/gtest.h>

#include <cmath>

#include "src/eval/aggregate.h"
#include "src/eval/utility_report.h"
#include "src/stats/assortativity.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"

namespace agmdp::eval {
namespace {

// K3 (triangle) over 3 nodes with one binary attribute: bits 0, 1, 0.
graph::AttributedGraph Triangle() {
  graph::AttributedGraph g(3, 1);
  g.structure().AddEdge(0, 1);
  g.structure().AddEdge(0, 2);
  g.structure().AddEdge(1, 2);
  g.set_attribute(1, 1);
  return g;
}

// P3 (path 0-1-2) over 3 nodes, same attributes.
graph::AttributedGraph Path() {
  graph::AttributedGraph g(3, 1);
  g.structure().AddEdge(0, 1);
  g.structure().AddEdge(1, 2);
  g.set_attribute(1, 1);
  return g;
}

graph::AttributedCsrGraph Snap(const graph::AttributedGraph& g) {
  return graph::AttributedCsrGraph::FromGraph(g);
}

// Profiles the original's snapshot, then scores the release against it.
UtilityReport Evaluate(const graph::AttributedGraph& original,
                       const graph::AttributedGraph& released) {
  return EvaluateRelease(ProfileReference(Snap(original)), released);
}

// --------------------------------------------------- stats primitives --

TEST(MetricPrimitivesTest, KsDistanceClosedForms) {
  EXPECT_DOUBLE_EQ(stats::KsDistance({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(stats::KsDistance({}, {1.0}), 1.0);
  EXPECT_DOUBLE_EQ(stats::KsDistance({1.0, 2.0}, {2.0, 1.0}), 0.0);
  // Disjoint supports: distance 1.
  EXPECT_DOUBLE_EQ(stats::KsDistance({0.0, 0.0}, {1.0, 1.0}), 1.0);
  // {1,2,3} vs {2,2,2}: F1(1)=1/3 vs 0, F1(2)=2/3 vs 1 -> sup = 1/3.
  EXPECT_NEAR(stats::KsDistance({1.0, 2.0, 3.0}, {2.0, 2.0, 2.0}), 1.0 / 3.0,
              1e-12);
}

TEST(MetricPrimitivesTest, KlDivergenceClosedForms) {
  EXPECT_DOUBLE_EQ(stats::KlDivergence({0.5, 0.5}, {0.5, 0.5}), 0.0);
  // KL({1, 0} || {1/2, 1/2}) = ln 2.
  EXPECT_NEAR(stats::KlDivergence({1.0, 0.0}, {0.5, 0.5}), std::log(2.0),
              1e-12);
  // Mass outside q's support is floored, not infinite.
  const double kl = stats::KlDivergence({0.5, 0.5}, {1.0, 0.0});
  EXPECT_TRUE(std::isfinite(kl));
  EXPECT_GT(kl, 1.0);
  // Ragged lengths are zero-padded.
  EXPECT_NEAR(stats::KlDivergence({1.0}, {0.5, 0.5}), std::log(2.0), 1e-12);
}

TEST(MetricPrimitivesTest, PerAttributeHomophilyClosedForms) {
  // Triangle with bits 0,1,0: edges (0,1) differ, (0,2) agree, (1,2) differ.
  const std::vector<double> h = stats::PerAttributeHomophily(Snap(Triangle()));
  ASSERT_EQ(h.size(), 1u);
  EXPECT_NEAR(h[0], 1.0 / 3.0, 1e-12);

  // Edgeless graph: all zeros.
  graph::AttributedGraph empty(3, 2);
  const std::vector<double> h0 = stats::PerAttributeHomophily(Snap(empty));
  ASSERT_EQ(h0.size(), 2u);
  EXPECT_DOUBLE_EQ(h0[0], 0.0);
  EXPECT_DOUBLE_EQ(h0[1], 0.0);

  // Two attributes, perfect agreement on bit 0, none on bit 1.
  graph::AttributedGraph two(2, 2);
  two.structure().AddEdge(0, 1);
  two.set_attribute(0, 0b01);
  two.set_attribute(1, 0b11);
  const std::vector<double> h2 = stats::PerAttributeHomophily(Snap(two));
  ASSERT_EQ(h2.size(), 2u);
  EXPECT_DOUBLE_EQ(h2[0], 1.0);  // both have bit 0 set
  EXPECT_DOUBLE_EQ(h2[1], 0.0);  // bit 1 differs
}

// ----------------------------------------------------- EvaluateRelease --

TEST(EvaluateReleaseTest, IdenticalGraphsScoreZeroEverywhere) {
  const graph::AttributedGraph g = Triangle();
  const UtilityReport report = Evaluate(g, g);
  for (const auto& [name, value] : report.Flatten()) {
    EXPECT_DOUBLE_EQ(value, 0.0) << name;
  }
}

TEST(EvaluateReleaseTest, TriangleVsPathClosedForms) {
  const UtilityReport report = Evaluate(Triangle(), Path());

  // Degrees: K3 = {2,2,2}, P3 = {1,2,1}. KS/CCDF sup distance = 2/3.
  EXPECT_NEAR(report.errors.degree_ks, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(report.degree_ccdf_distance, 2.0 / 3.0, 1e-12);
  // KL(orig || rel): orig P(2)=1; rel P(2)=1/3 -> ln 3.
  EXPECT_NEAR(report.degree_kl, std::log(3.0), 1e-12);

  // Clustering coefficients: K3 all 1, P3 all 0 -> sup distance 1; the
  // relative errors of the means are 1 as well.
  EXPECT_NEAR(report.clustering_ccdf_distance, 1.0, 1e-12);
  EXPECT_NEAR(report.errors.avg_clustering_re, 1.0, 1e-12);
  EXPECT_NEAR(report.errors.global_clustering_re, 1.0, 1e-12);

  // Triangles: 1 -> 0, relative error 1. Edges: 3 -> 2, RE = 1/3.
  EXPECT_NEAR(report.errors.triangles_re, 1.0, 1e-12);
  EXPECT_NEAR(report.errors.edges_re, 1.0 / 3.0, 1e-12);

  // Degree assortativity: K3 has constant degrees (convention 0); P3's
  // endpoint degrees are perfectly anti-correlated (-1). Delta = -1.
  EXPECT_NEAR(report.degree_assortativity_delta, -1.0, 1e-12);

  // Homophily on the single bit: 1/3 of K3 edges agree, 0 of P3 edges.
  ASSERT_EQ(report.homophily_delta.size(), 1u);
  EXPECT_NEAR(report.homophily_delta[0], -1.0 / 3.0, 1e-12);
}

TEST(EvaluateReleaseTest, FlattenHasStableNamesAndHomophilySummary) {
  const UtilityReport report = Evaluate(Triangle(), Path());
  const auto flat = report.Flatten();
  ASSERT_FALSE(flat.empty());
  EXPECT_EQ(flat.front().first, "theta_f_mae");
  EXPECT_EQ(flat.back().first, "homophily_delta_mean_abs");
  EXPECT_NEAR(flat.back().second, 1.0 / 3.0, 1e-12);
  bool has_per_attr = false;
  for (const auto& [name, value] : flat) {
    (void)value;
    if (name == "homophily_delta_a0") has_per_attr = true;
  }
  EXPECT_TRUE(has_per_attr);
}

TEST(CompareThetaFTest, ExactEstimateIsZeroUniformIsNot) {
  const std::vector<double> exact = {0.5, 0.25, 0.25};
  const ThetaFError zero = CompareThetaF(exact, exact);
  EXPECT_DOUBLE_EQ(zero.mae, 0.0);
  EXPECT_DOUBLE_EQ(zero.hellinger, 0.0);

  const std::vector<double> uniform(3, 1.0 / 3.0);
  const ThetaFError off = CompareThetaF(uniform, exact);
  // MAE = (|1/3-1/2| + |1/3-1/4| + |1/3-1/4|) / 3 = 1/9.
  EXPECT_NEAR(off.mae, 1.0 / 9.0, 1e-12);
  EXPECT_GT(off.hellinger, 0.0);
}

TEST(ProfileGraphTest, MatchesDirectStatistics) {
  const graph::AttributedGraph g = Triangle();
  util::Rng rng(3);
  const StructuralProfile profile = ProfileGraph(g, 8, rng);
  EXPECT_DOUBLE_EQ(profile.degree_assortativity,
                   stats::DegreeAssortativity(Snap(g).structure));
  EXPECT_DOUBLE_EQ(profile.attribute_assortativity,
                   stats::AttributeAssortativity(Snap(g)));
  ASSERT_EQ(profile.homophily.size(), 1u);
  EXPECT_NEAR(profile.homophily[0], 1.0 / 3.0, 1e-12);
  // K3: every pair at distance 1.
  EXPECT_NEAR(profile.avg_path_length, 1.0, 1e-9);

  // path_samples = 0 skips BFS and leaves rng untouched.
  util::Rng a(7), b(7);
  const StructuralProfile skipped = ProfileGraph(g, 0, a);
  EXPECT_DOUBLE_EQ(skipped.avg_path_length, 0.0);
  EXPECT_EQ(a.Next(), b.Next());
}

TEST(CcdfSeriesTest, DegreeAndClusteringSeriesAreCcdfs) {
  const graph::AttributedCsrGraph g = Snap(Path());
  // Degrees {1, 2, 1}: CCDF points (1, 1/3), (2, 0).
  const auto series = DegreeCcdfSeries(g.structure, 30);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].first, 1.0);
  EXPECT_NEAR(series[0].second, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(series[1].first, 2.0);
  EXPECT_DOUBLE_EQ(series[1].second, 0.0);

  // All clustering coefficients are 0: a single point (0, 0).
  const auto cc = ClusteringCcdfSeries(g.structure, 30);
  ASSERT_EQ(cc.size(), 1u);
  EXPECT_DOUBLE_EQ(cc[0].first, 0.0);
  EXPECT_DOUBLE_EQ(cc[0].second, 0.0);
}

// --------------------------------------------------------- aggregation --

TEST(ReportAccumulatorTest, MeanAndStddevOverReports) {
  // Two reports: identical-graphs (all zeros) and triangle-vs-path.
  ReportAccumulator acc;
  const graph::AttributedGraph tri = Triangle();
  acc.Add(Evaluate(tri, tri));
  acc.Add(Evaluate(tri, Path()));
  EXPECT_EQ(acc.count(), 2);

  const std::vector<MetricStats> stats = acc.Stats();
  // triangles_re values are {0, 1}: mean 1/2, sample stddev 1/sqrt(2).
  EXPECT_NEAR(MetricMean(stats, "triangles_re"), 0.5, 1e-12);
  for (const MetricStats& s : stats) {
    if (s.name == "triangles_re") {
      EXPECT_NEAR(s.stddev, 1.0 / std::sqrt(2.0), 1e-12);
    }
    EXPECT_GE(s.stddev, 0.0) << s.name;
  }
  EXPECT_DOUBLE_EQ(acc.Mean("no_such_metric"), 0.0);
}

TEST(ReportAccumulatorTest, SingleReportHasZeroStddev) {
  ReportAccumulator acc;
  acc.Add(Evaluate(Triangle(), Path()));
  for (const MetricStats& s : acc.Stats()) {
    EXPECT_DOUBLE_EQ(s.stddev, 0.0) << s.name;
  }
}

}  // namespace
}  // namespace agmdp::eval
