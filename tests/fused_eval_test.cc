// Fused evaluation kernel (graph/fused_eval.h): randomized differential
// tests against the per-metric CSR kernels. Every FusedStats field must be
// bitwise-identical to its standalone counterpart across 1/2/4 analytics
// threads and on BOTH dispatch arms (scalar and, where the host supports
// it, AVX2) — the determinism contract DESIGN.md promises for the eval
// path. At report level, EvaluateRelease is checked against a test-local
// one-pass-per-metric oracle built from the same per-metric kernels.
// Also covers the histogram-based finalizers (KS / CCDF / degree
// distribution) and the vectorized Hellinger primitive against their
// expanded scalar forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/agm/theta_f.h"
#include "src/eval/utility_report.h"
#include "src/graph/attributed_graph.h"
#include "src/graph/clustering.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/fused_eval.h"
#include "src/graph/graph.h"
#include "src/graph/triangle_count.h"
#include "src/stats/assortativity.h"
#include "src/stats/ccdf.h"
#include "src/stats/joint_degree.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"
#include "src/util/simd.h"

namespace agmdp::graph {
namespace {

Graph RandomGraph(NodeId n, double p, uint64_t seed) {
  util::Rng rng(seed);
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) g.AddEdge(u, v);
    }
  }
  return g;
}

AttributedGraph RandomAttributed(NodeId n, double p, int w, uint64_t seed) {
  AttributedGraph g(RandomGraph(n, p, seed), w);
  util::Rng rng(seed + 1);
  for (NodeId v = 0; v < n; ++v) {
    g.set_attribute(v, static_cast<AttrConfig>(rng.UniformIndex(1u << w)));
  }
  return g;
}

// The dispatch arms this host can actually run: scalar always; AVX2 when
// compiled in, supported by the CPU and not disabled by env. Explicitly
// requesting an unavailable arm resolves to scalar, so skipping it here
// (rather than testing a silently-degraded arm twice) keeps intent clear.
std::vector<util::SimdIsa> TestableArms() {
  std::vector<util::SimdIsa> arms = {util::SimdIsa::kScalar};
  if (util::ResolveSimdIsa(util::SimdIsa::kAvx2) == util::SimdIsa::kAvx2) {
    arms.push_back(util::SimdIsa::kAvx2);
  }
  return arms;
}

// Pins ActiveSimdIsa() for the scope (drives the whole EvaluateRelease
// stack down one arm), restoring auto dispatch on exit.
class ScopedIsa {
 public:
  explicit ScopedIsa(util::SimdIsa isa) { util::SetSimdIsaOverride(isa); }
  ~ScopedIsa() { util::SetSimdIsaOverride(util::SimdIsa::kAuto); }
};

std::vector<uint32_t> ExpandHistogram(const std::vector<uint64_t>& hist) {
  std::vector<uint32_t> values;
  for (uint32_t d = 0; d < hist.size(); ++d) {
    for (uint64_t i = 0; i < hist[d]; ++i) values.push_back(d);
  }
  return values;
}

// The (n, p, w) grid every differential test sweeps: empty, singleton,
// attribute-free, and ER graphs of growing size and attribute dimension.
struct GridCase {
  NodeId n;
  double p;
  int w;
};
const GridCase kGrid[] = {
    {0, 0.0, 2},  {1, 0.0, 1},   {12, 0.3, 0},
    {40, 0.15, 1}, {80, 0.08, 3}, {120, 0.05, 5},
};

// ------------------------------------------- fused vs per-metric kernels --

TEST(FusedEvalTest, MatchesPerMetricKernelsOnEveryArmAndThreadCount) {
  for (const GridCase& c : kGrid) {
    const AttributedGraph legacy = RandomAttributed(c.n, c.p, c.w, 31 + c.n);
    const AttributedCsrGraph g = AttributedCsrGraph::FromGraph(legacy);
    const CsrGraph& csr = g.structure;

    // Per-metric oracles (computed once; all deterministic).
    const std::vector<uint64_t> hist = DegreeHistogram(csr);
    const ClusteringStats clustering = ComputeClusteringStats(csr);
    const std::vector<double> degree_wise = DegreeWiseClustering(csr);
    const double degree_assort = stats::DegreeAssortativity(csr);
    const double attr_assort = stats::AttributeAssortativity(g);
    const std::vector<double> homophily = stats::PerAttributeHomophily(g);
    const std::vector<double> connection = agm::ComputeConnectionCounts(legacy);
    const auto joint = stats::JointDegreeDistribution(csr);

    for (util::SimdIsa isa : TestableArms()) {
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << c.n << " w=" << c.w << " threads=" << threads
                     << " isa=" << util::SimdIsaName(isa));
        FusedOptions opts;
        opts.threads = threads;
        opts.isa = isa;
        opts.degree_wise_clustering = true;
        opts.joint_degree = true;
        const FusedStats fused = FusedEvaluate(g, opts);

        EXPECT_EQ(fused.num_nodes, csr.num_nodes());
        EXPECT_EQ(fused.num_edges, csr.num_edges());
        EXPECT_EQ(fused.degree_histogram, hist);

        EXPECT_EQ(fused.clustering.per_node_triangles,
                  clustering.per_node_triangles);
        EXPECT_EQ(fused.clustering.local_coefficients,
                  clustering.local_coefficients);
        EXPECT_EQ(fused.clustering.triangles, clustering.triangles);
        EXPECT_EQ(fused.clustering.wedges, clustering.wedges);
        EXPECT_EQ(fused.clustering.avg_local_clustering,
                  clustering.avg_local_clustering);
        EXPECT_EQ(fused.clustering.global_clustering,
                  clustering.global_clustering);
        EXPECT_EQ(fused.degree_wise_clustering, degree_wise);

        EXPECT_EQ(stats::DegreeAssortativityFromSums(
                      fused.assort_sum_xy, fused.assort_sum_x,
                      fused.assort_sum_x2, fused.num_edges),
                  degree_assort);
        EXPECT_EQ(stats::AttributeAssortativityFromMixingCounts(
                      fused.mixing_counts, fused.num_configs, fused.num_edges),
                  attr_assort);
        EXPECT_EQ(stats::PerAttributeHomophilyFromCounts(fused.homophily_counts,
                                                         fused.num_edges),
                  homophily);

        ASSERT_EQ(fused.connection_counts.size(), connection.size());
        for (size_t i = 0; i < connection.size(); ++i) {
          EXPECT_EQ(static_cast<double>(fused.connection_counts[i]),
                    connection[i]);
        }
        EXPECT_EQ(agm::ThetaFFromConnectionCounts(fused.connection_counts,
                                                  fused.num_edges),
                  agm::ComputeThetaF(legacy));

        // Joint-degree tallies normalize to the dK-2 mass map exactly.
        std::map<std::pair<uint32_t, uint32_t>, double> fused_joint;
        const double m = static_cast<double>(fused.num_edges);
        for (const auto& [key, count] : fused.joint_degree_counts) {
          fused_joint[key] = static_cast<double>(count) / m;
        }
        EXPECT_EQ(fused_joint, joint);
      }
    }
  }
}

TEST(FusedEvalTest, StructureOverloadSkipsAttributeFamilies) {
  const CsrGraph csr = CsrGraph::FromGraph(RandomGraph(60, 0.1, 77));
  const FusedStats fused = FusedEvaluate(csr);
  EXPECT_EQ(fused.num_configs, 0u);
  EXPECT_TRUE(fused.mixing_counts.empty());
  EXPECT_TRUE(fused.homophily_counts.empty());
  EXPECT_TRUE(fused.connection_counts.empty());
  EXPECT_EQ(fused.degree_histogram, DegreeHistogram(csr));
  EXPECT_EQ(fused.clustering.triangles, CountTriangles(csr));
}

TEST(FusedEvalTest, TrianglesOffLeavesClusteringEmpty) {
  const CsrGraph csr = CsrGraph::FromGraph(RandomGraph(50, 0.12, 78));
  FusedOptions opts;
  opts.triangles = false;
  const FusedStats fused = FusedEvaluate(csr, opts);
  EXPECT_TRUE(fused.clustering.per_node_triangles.empty());
  EXPECT_TRUE(fused.clustering.local_coefficients.empty());
  EXPECT_EQ(fused.clustering.triangles, 0u);
  // Sweep-A families are still produced.
  EXPECT_EQ(fused.degree_histogram, DegreeHistogram(csr));
  EXPECT_EQ(stats::DegreeAssortativityFromSums(
                fused.assort_sum_xy, fused.assort_sum_x, fused.assort_sum_x2,
                fused.num_edges),
            stats::DegreeAssortativity(csr));
}

// Direct arm-vs-arm comparison of the whole struct on a denser graph (the
// oracle loop above already pins each arm to the scalar kernels; this one
// fails loudly if the arms ever diverge from EACH OTHER).
TEST(FusedEvalTest, DispatchArmsProduceIdenticalStats) {
  const std::vector<util::SimdIsa> arms = TestableArms();
  if (arms.size() < 2) {
    GTEST_SKIP() << "AVX2 arm unavailable on this host/build";
  }
  const AttributedCsrGraph g =
      AttributedCsrGraph::FromGraph(RandomAttributed(150, 0.08, 4, 91));
  FusedOptions opts;
  opts.degree_wise_clustering = true;
  opts.joint_degree = true;
  opts.isa = arms[0];
  const FusedStats a = FusedEvaluate(g, opts);
  opts.isa = arms[1];
  const FusedStats b = FusedEvaluate(g, opts);
  EXPECT_EQ(a.degree_histogram, b.degree_histogram);
  EXPECT_EQ(a.assort_sum_xy, b.assort_sum_xy);
  EXPECT_EQ(a.assort_sum_x, b.assort_sum_x);
  EXPECT_EQ(a.assort_sum_x2, b.assort_sum_x2);
  EXPECT_EQ(a.clustering.per_node_triangles, b.clustering.per_node_triangles);
  EXPECT_EQ(a.clustering.local_coefficients, b.clustering.local_coefficients);
  EXPECT_EQ(a.clustering.wedges, b.clustering.wedges);
  EXPECT_EQ(a.clustering.avg_local_clustering, b.clustering.avg_local_clustering);
  EXPECT_EQ(a.clustering.global_clustering, b.clustering.global_clustering);
  EXPECT_EQ(a.degree_wise_clustering, b.degree_wise_clustering);
  EXPECT_EQ(a.mixing_counts, b.mixing_counts);
  EXPECT_EQ(a.homophily_counts, b.homophily_counts);
  EXPECT_EQ(a.connection_counts, b.connection_counts);
  EXPECT_EQ(a.joint_degree_counts, b.joint_degree_counts);
}

// ------------------------------------------------- full evaluation stack --

// The one-pass-per-metric evaluation: every statistic of both graphs from
// its own CSR kernel, then the same error formulas EvaluateRelease applies.
eval::UtilityReport MultipassReport(const AttributedCsrGraph& original,
                                    const AttributedCsrGraph& released,
                                    int threads) {
  eval::UtilityReport report;
  const CsrGraph& g0 = original.structure;
  const CsrGraph& g1 = released.structure;

  const eval::ThetaFError theta =
      eval::CompareThetaF(agm::ComputeThetaF(released, threads),
                          agm::ComputeThetaF(original, threads));
  report.errors.theta_f_mae = theta.mae;
  report.errors.theta_f_hellinger = theta.hellinger;

  report.errors.degree_ks =
      stats::KsStatistic(SortedDegreeSequence(g1), SortedDegreeSequence(g0));
  const std::vector<double> dist0 = stats::DegreeDistribution(g0);
  const std::vector<double> dist1 = stats::DegreeDistribution(g1);
  report.errors.degree_hellinger = stats::HellingerDistance(dist1, dist0);
  report.degree_kl = stats::KlDivergence(dist0, dist1);
  report.degree_ccdf_distance = report.errors.degree_ks;

  const ClusteringStats c0 = ComputeClusteringStats(g0, threads);
  const ClusteringStats c1 = ComputeClusteringStats(g1, threads);
  report.clustering_ccdf_distance =
      stats::KsDistance(c0.local_coefficients, c1.local_coefficients);
  report.errors.avg_clustering_re = stats::RelativeError(
      c1.avg_local_clustering, c0.avg_local_clustering);
  report.errors.global_clustering_re =
      stats::RelativeError(c1.global_clustering, c0.global_clustering);
  report.errors.triangles_re =
      stats::RelativeError(static_cast<double>(c1.triangles),
                           static_cast<double>(c0.triangles));
  report.errors.edges_re =
      stats::RelativeError(static_cast<double>(g1.num_edges()),
                           static_cast<double>(g0.num_edges()));

  report.degree_assortativity_delta =
      stats::DegreeAssortativity(g1, threads) -
      stats::DegreeAssortativity(g0, threads);
  report.attribute_assortativity_delta =
      stats::AttributeAssortativity(released, threads) -
      stats::AttributeAssortativity(original, threads);
  const std::vector<double> h0 = stats::PerAttributeHomophily(original, threads);
  const std::vector<double> h1 = stats::PerAttributeHomophily(released, threads);
  for (size_t a = 0; a < std::min(h0.size(), h1.size()); ++a) {
    report.homophily_delta.push_back(h1[a] - h0[a]);
  }
  return report;
}

TEST(FusedEvalTest, EvaluateReleaseMatchesMultipassOracleOnEveryArm) {
  const AttributedCsrGraph original =
      AttributedCsrGraph::FromGraph(RandomAttributed(80, 0.08, 3, 51));
  const AttributedCsrGraph released =
      AttributedCsrGraph::FromGraph(RandomAttributed(70, 0.1, 2, 52));
  const auto flat_oracle = MultipassReport(original, released, 1).Flatten();

  for (util::SimdIsa isa : TestableArms()) {
    ScopedIsa scoped(isa);
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " isa="
                                      << util::SimdIsaName(isa));
      const eval::ReferenceProfile ref =
          eval::ProfileReference(original, threads);
      EXPECT_EQ(eval::EvaluateRelease(ref, released, threads).Flatten(),
                flat_oracle);
      EXPECT_EQ(MultipassReport(original, released, threads).Flatten(),
                flat_oracle);
    }
  }
}

// ------------------------------------------------- histogram finalizers --

TEST(FusedEvalTest, KsStatisticFromHistogramsMatchesExpandedForm) {
  const std::vector<std::vector<uint64_t>> hists = {
      {},
      {0, 0, 0},
      {3},
      {0, 4, 0, 1},
      DegreeHistogram(CsrGraph::FromGraph(RandomGraph(90, 0.07, 61))),
      DegreeHistogram(CsrGraph::FromGraph(RandomGraph(50, 0.2, 62))),
  };
  for (const auto& h1 : hists) {
    for (const auto& h2 : hists) {
      EXPECT_EQ(stats::KsStatisticFromHistograms(h1, h2),
                stats::KsStatistic(ExpandHistogram(h1), ExpandHistogram(h2)));
    }
  }
}

TEST(FusedEvalTest, CcdfFromHistogramMatchesExpandedForm) {
  const std::vector<std::vector<uint64_t>> hists = {
      {},
      {0, 0},
      {2, 0, 5, 0, 0, 1},
      DegreeHistogram(CsrGraph::FromGraph(RandomGraph(90, 0.07, 63))),
  };
  for (const auto& h : hists) {
    const std::vector<uint32_t> values = ExpandHistogram(h);
    std::vector<double> as_doubles(values.begin(), values.end());
    EXPECT_EQ(stats::CcdfFromHistogram(h), stats::Ccdf(std::move(as_doubles)));
  }
}

TEST(FusedEvalTest, DegreeDistributionFromHistogramMatchesGraphPath) {
  const CsrGraph csr = CsrGraph::FromGraph(RandomGraph(70, 0.1, 64));
  EXPECT_EQ(stats::DegreeDistributionFromHistogram(DegreeHistogram(csr),
                                                   csr.num_nodes()),
            stats::DegreeDistribution(csr));
}

TEST(FusedEvalTest, KsDistanceSortedMatchesUnsortedEntryPoint) {
  util::Rng rng(65);
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) a.push_back(rng.UniformDouble());
  for (int i = 0; i < 150; ++i) b.push_back(rng.UniformDouble());
  const double expected = stats::KsDistance(a, b);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(stats::KsDistanceSorted(a, b), expected);
  EXPECT_EQ(stats::KsDistanceSorted(a, {}), 1.0);
  EXPECT_EQ(stats::KsDistanceSorted({}, {}), 0.0);
}

// --------------------------------------------------- SIMD primitives --

TEST(SimdTest, SquaredSqrtDiffArmsBitwiseIdentical) {
  util::Rng rng(66);
  // Lengths straddling the 4-lane width, plus values that exercise the
  // max(0, x) clamp (negatives, exact zeros).
  for (size_t len : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                     size_t{257}}) {
    std::vector<double> p(len), q(len);
    for (size_t i = 0; i < len; ++i) {
      p[i] = rng.UniformDouble() - 0.25;
      q[i] = (i % 5 == 0) ? 0.0 : rng.UniformDouble() - 0.25;
    }
    std::vector<double> expected(len);
    for (size_t i = 0; i < len; ++i) {
      const double d =
          std::sqrt(std::max(0.0, p[i])) - std::sqrt(std::max(0.0, q[i]));
      expected[i] = d * d;
    }
    for (util::SimdIsa isa : TestableArms()) {
      ScopedIsa scoped(isa);
      std::vector<double> out(len, -1.0);
      util::SquaredSqrtDiff(p.data(), q.data(), len, out.data());
      EXPECT_EQ(out, expected) << "len=" << len << " isa="
                               << util::SimdIsaName(isa);
    }
  }
}

TEST(SimdTest, HellingerDistanceUnchangedByVectorization) {
  // The vectorized HellingerDistance must equal the textbook scalar loop.
  util::Rng rng(67);
  std::vector<double> p(37), q(41);
  for (auto& x : p) x = rng.UniformDouble();
  for (auto& x : q) x = rng.UniformDouble();
  const size_t len = std::max(p.size(), q.size());
  double sum = 0.0;
  for (size_t i = 0; i < len; ++i) {
    const double pi = i < p.size() ? p[i] : 0.0;
    const double qi = i < q.size() ? q[i] : 0.0;
    const double d = std::sqrt(std::max(0.0, pi)) - std::sqrt(std::max(0.0, qi));
    sum += d * d;
  }
  const double expected = std::sqrt(sum) / std::sqrt(2.0);
  for (util::SimdIsa isa : TestableArms()) {
    ScopedIsa scoped(isa);
    EXPECT_EQ(stats::HellingerDistance(p, q), expected);
  }
}

TEST(SimdTest, ResolveClampsUnavailableArms) {
  EXPECT_EQ(util::ResolveSimdIsa(util::SimdIsa::kScalar),
            util::SimdIsa::kScalar);
  // kAuto resolves to SOME concrete arm.
  const util::SimdIsa active = util::ActiveSimdIsa();
  EXPECT_NE(active, util::SimdIsa::kAuto);
  // Pinning scalar drives auto dispatch scalar; clearing restores it.
  {
    ScopedIsa scoped(util::SimdIsa::kScalar);
    EXPECT_EQ(util::ActiveSimdIsa(), util::SimdIsa::kScalar);
  }
  EXPECT_EQ(util::ActiveSimdIsa(), active);
}

}  // namespace
}  // namespace agmdp::graph
