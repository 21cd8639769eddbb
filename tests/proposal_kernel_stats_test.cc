// Statistical equivalence of models::CandidateKernel's table arm and the
// per-proposal rejection loop it replaced (tests/proposal_oracle.h). Both
// sides draw 20,000 independent shards (quota 40, budget 8,000 proposals)
// over the same 300-node pi and acceptance table, and three statistics
// are compared: the accepted edges per shard (two-sample z), the histogram
// of edge configurations (chi-square homogeneity) and the per-node degree
// counts (chi-square homogeneity). The seeds are fixed, so the outcome is
// deterministic; the thresholds are set so that, were the seeds drawn at
// random, an exact kernel would fail somewhere with probability at most
// 1e-4. A kernel run on a table with two entries swapped must fail all
// three checks, or the test could not tell the kernel from a broken one.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/agm/agm_sampler.h"
#include "src/graph/attribute_encoding.h"
#include "src/models/proposal_kernel.h"
#include "src/util/alias_sampler.h"
#include "src/util/rng.h"
#include "tests/proposal_oracle.h"

namespace agmdp::models {
namespace {

constexpr graph::NodeId kNodes = 300;
constexpr int kShards = 20000;
constexpr uint64_t kQuota = 40;
constexpr uint64_t kBudget = 8000;
// Twelve null checks (four tables x three statistics), Bonferroni-split for
// a family-wise false-alarm rate of at most 1e-4.
constexpr double kAlpha = 1e-4 / 12;

// Regularized upper incomplete gamma Q(s, x): the series for P below
// x = s + 1, the Lentz continued fraction for Q above it.
double UpperGammaQ(double s, double x) {
  if (x <= 0.0) return 1.0;
  const double log_prefix = s * std::log(x) - x - std::lgamma(s);
  if (x < s + 1.0) {
    double term = 1.0 / s;
    double sum = term;
    for (int n = 1; n < 10000 && term > sum * 1e-16; ++n) {
      term *= x / (s + n);
      sum += term;
    }
    return 1.0 - sum * std::exp(log_prefix);
  }
  constexpr double kFloor = 1e-300;
  double b = x + 1.0 - s;
  double c = 1.0 / kFloor;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 10000; ++i) {
    const double an = -i * (i - s);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFloor) d = kFloor;
    c = b + an / c;
    if (std::fabs(c) < kFloor) c = kFloor;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-16) break;
  }
  return std::exp(log_prefix) * h;
}

// Two-sided p-value of the difference of two sample means.
double MeanPValue(const std::vector<double>& a, const std::vector<double>& b) {
  const auto moments = [](const std::vector<double>& x, double* mean,
                          double* var) {
    double sum = 0.0;
    for (double v : x) sum += v;
    *mean = sum / x.size();
    double ss = 0.0;
    for (double v : x) ss += (v - *mean) * (v - *mean);
    *var = ss / (x.size() - 1);
  };
  double mean_a, var_a, mean_b, var_b;
  moments(a, &mean_a, &var_a);
  moments(b, &mean_b, &var_b);
  const double se = std::sqrt(var_a / a.size() + var_b / b.size());
  if (se == 0.0) return mean_a == mean_b ? 1.0 : 0.0;
  return std::erfc(std::fabs(mean_a - mean_b) / se / std::sqrt(2.0));
}

// p-value of the chi-square test that two count vectors share one
// distribution (empty cells dropped from the degrees of freedom).
double HomogeneityPValue(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double total_a = 0.0, total_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    total_a += a[i];
    total_b += b[i];
  }
  const double ka = std::sqrt(total_b / total_a);
  const double kb = std::sqrt(total_a / total_b);
  double chi2 = 0.0;
  int cells = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] + b[i] == 0.0) continue;
    const double diff = ka * a[i] - kb * b[i];
    chi2 += diff * diff / (a[i] + b[i]);
    ++cells;
  }
  if (cells < 2) return 1.0;
  return UpperGammaQ((cells - 1) / 2.0, chi2 / 2.0);
}

struct Sample {
  std::vector<double> accepted;      // edges per shard
  std::vector<double> config_pairs;  // edges per edge configuration
  std::vector<double> degrees;       // edge endpoints per node
};

template <typename Draw>
Sample Collect(const std::vector<graph::AttrConfig>& configs,
               const Draw& draw) {
  Sample out;
  out.config_pairs.assign(graph::NumEdgeConfigs(1), 0.0);
  out.degrees.assign(kNodes, 0.0);
  for (int s = 0; s < kShards; ++s) {
    const std::vector<graph::Edge> edges = draw(s);
    out.accepted.push_back(static_cast<double>(edges.size()));
    for (const graph::Edge& e : edges) {
      out.config_pairs[graph::EncodeEdgeConfig(configs[e.u], configs[e.v],
                                               1)] += 1.0;
      out.degrees[e.u] += 1.0;
      out.degrees[e.v] += 1.0;
    }
  }
  return out;
}

// The heavy-tailed pi of ShardedFclGoldenTest: a hub every 40th node.
std::vector<double> SkewedWeights() {
  util::Rng rng(29);
  std::vector<double> weights(kNodes);
  for (graph::NodeId i = 0; i < kNodes; ++i) {
    weights[i] = i % 40 == 0 ? 40.0 + rng.UniformIndex(41)
                             : 1.0 + rng.UniformIndex(6);
  }
  return weights;
}

std::vector<graph::AttrConfig> Configs(int every, int ones) {
  std::vector<graph::AttrConfig> configs(kNodes);
  for (graph::NodeId i = 0; i < kNodes; ++i) {
    configs[i] = static_cast<int>(i % every) < ones ? 1 : 0;
  }
  return configs;
}

Sample OracleSample(const std::vector<graph::AttrConfig>& configs,
                    const std::vector<double>& acceptance) {
  const EdgeFilter filter =
      EdgeFilter::FromAcceptanceTable(configs, acceptance, /*w=*/1);
  const util::AliasSampler pi =
      util::AliasSampler::Build(SkewedWeights()).value();
  return Collect(configs, [&](int s) {
    return oracle::RejectionDrawShard(pi, kQuota, kBudget, filter,
                                      util::Rng::Substream(101, s));
  });
}

Sample KernelSample(const std::vector<graph::AttrConfig>& configs,
                    const std::vector<double>& acceptance) {
  const EdgeFilter filter =
      EdgeFilter::FromAcceptanceTable(configs, acceptance, /*w=*/1);
  const PiTables pi = PiTables::Build(SkewedWeights(), filter).value();
  const CandidateKernel kernel(pi, filter);
  return Collect(configs, [&](int s) {
    return oracle::DrawShardEdges(kernel, kQuota, kBudget,
                                  util::Rng::Substream(202, s));
  });
}

struct PValues {
  double accepted, config_pairs, degrees;
};

PValues Compare(const Sample& kernel, const Sample& oracle) {
  return {MeanPValue(kernel.accepted, oracle.accepted),
          HomogeneityPValue(kernel.config_pairs, oracle.config_pairs),
          HomogeneityPValue(kernel.degrees, oracle.degrees)};
}

TEST(CandidateKernelStatsTest, TableArmMatchesTheRejectionLoop) {
  // The filter-starved case of ShardedFclGoldenTest: ΘX {0.97, 0.03} (10
  // of 300 nodes carry attribute 1) and ΘF asking almost only for 1-1
  // edges, against the configuration mix an unfiltered pass produces, so
  // two of three acceptance entries floor at min_acceptance.
  const std::vector<double> starved = agm::ComputeAcceptanceProbabilities(
      {1e-4, 1e-4, 0.9998}, {0.97 * 0.97, 2 * 0.97 * 0.03, 0.03 * 0.03}, {},
      /*min_acceptance=*/1e-3);
  struct Case {
    const char* name;
    std::vector<graph::AttrConfig> configs;
    std::vector<double> acceptance;
  };
  const Case kCases[] = {
      {"moderate", Configs(5, 2), {1.0, 0.35, 0.8}},
      {"budget-bound uniform", Configs(5, 2), {2e-3, 2e-3, 2e-3}},
      {"budget-bound skewed", Configs(5, 2), {1e-3, 4e-3, 2e-3}},
      {"filter-starved", Configs(33, 1), starved},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    const Sample kernel = KernelSample(c.configs, c.acceptance);
    const Sample oracle = OracleSample(c.configs, c.acceptance);
    const PValues p = Compare(kernel, oracle);
    EXPECT_GT(p.accepted, kAlpha);
    EXPECT_GT(p.config_pairs, kAlpha);
    EXPECT_GT(p.degrees, kAlpha);
  }
}

TEST(CandidateKernelStatsTest, SwappedAcceptanceEntriesFailEveryCheck) {
  // The kernel reads a table with A(0, 0) and A(1, 1) swapped; the oracle
  // reads the budget-bound skewed table itself.
  const std::vector<graph::AttrConfig> configs = Configs(5, 2);
  const PValues p = Compare(KernelSample(configs, {2e-3, 4e-3, 1e-3}),
                            OracleSample(configs, {1e-3, 4e-3, 2e-3}));
  EXPECT_LT(p.accepted, kAlpha);
  EXPECT_LT(p.config_pairs, kAlpha);
  EXPECT_LT(p.degrees, kAlpha);
}

TEST(CandidateKernelStatsTest, UpperGammaMatchesClosedForms) {
  // Q(1, x) = exp(-x); Q(1/2, x) = erfc(sqrt(x)).
  for (double x : {0.1, 1.0, 2.0, 10.0, 40.0}) {
    EXPECT_NEAR(UpperGammaQ(1.0, x) / std::exp(-x), 1.0, 1e-10) << x;
    EXPECT_NEAR(UpperGammaQ(0.5, x) / std::erfc(std::sqrt(x)), 1.0, 1e-10)
        << x;
  }
}

}  // namespace
}  // namespace agmdp::models
