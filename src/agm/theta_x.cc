#include "src/agm/theta_x.h"

#include "src/dp/laplace_mechanism.h"
#include "src/util/alias_sampler.h"

namespace agmdp::agm {

std::vector<double> ComputeAttributeCounts(
    const graph::AttributedCsrGraph& g) {
  std::vector<double> counts(graph::NumNodeConfigs(g.num_attributes), 0.0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    counts[g.attribute(v)] += 1.0;
  }
  return counts;
}

std::vector<double> ComputeThetaX(const graph::AttributedCsrGraph& g) {
  std::vector<double> counts = ComputeAttributeCounts(g);
  return dp::ClampAndNormalize(std::move(counts), 0.0,
                               static_cast<double>(g.num_nodes()));
}

std::vector<double> LearnAttributesDp(const graph::AttributedCsrGraph& g,
                                      double epsilon, util::Rng& rng) {
  std::vector<double> counts = ComputeAttributeCounts(g);
  std::vector<double> noisy =
      dp::NoisyCounts(counts, /*sensitivity=*/2.0, epsilon, rng);
  return dp::ClampAndNormalize(std::move(noisy), 0.0,
                               static_cast<double>(g.num_nodes()));
}

util::Result<std::vector<graph::AttrConfig>> SampleAttributes(
    const std::vector<double>& theta_x, graph::NodeId n, util::Rng& rng) {
  auto sampler = util::AliasSampler::Build(theta_x);
  if (!sampler.ok()) return sampler.status();
  std::vector<graph::AttrConfig> attrs(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    attrs[v] = static_cast<graph::AttrConfig>(sampler.value().Sample(rng));
  }
  return attrs;
}

}  // namespace agmdp::agm
