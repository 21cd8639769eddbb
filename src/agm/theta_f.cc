#include "src/agm/theta_f.h"

#include "src/dp/edge_truncation.h"
#include "src/dp/laplace_mechanism.h"
#include "src/dp/sample_aggregate.h"
#include "src/dp/smooth_sensitivity.h"
#include "src/util/check.h"
#include "src/util/parallel.h"

namespace agmdp::agm {

std::vector<double> ComputeConnectionCounts(const graph::AttributedCsrGraph& g,
                                            int threads) {
  const int w = g.num_attributes;
  std::vector<uint64_t> tally(graph::NumEdgeConfigs(w), 0);
  util::ParallelTally(
      g.num_nodes(), threads,
      [&] { return std::vector<uint64_t>(tally.size(), 0); },
      [&](std::vector<uint64_t>& local, uint64_t begin, uint64_t end) {
        for (uint64_t ui = begin; ui < end; ++ui) {
          const auto u = static_cast<graph::NodeId>(ui);
          for (graph::NodeId v : g.structure.Neighbors(u)) {
            if (v <= u) continue;
            ++local[graph::EncodeEdgeConfig(g.attribute(u), g.attribute(v),
                                            w)];
          }
        }
      },
      [&](const std::vector<uint64_t>& local) {
        for (size_t i = 0; i < tally.size(); ++i) tally[i] += local[i];
      });
  // Integer tallies cast exactly, like a +1.0-per-edge accumulation.
  std::vector<double> counts(tally.size());
  for (size_t i = 0; i < tally.size(); ++i) {
    counts[i] = static_cast<double>(tally[i]);
  }
  return counts;
}

std::vector<double> ComputeTruncatedConnectionCounts(
    const graph::AttributedCsrGraph& g, uint32_t k) {
  const int w = g.num_attributes;
  std::vector<double> counts(graph::NumEdgeConfigs(w), 0.0);
  dp::ForEachTruncatedEdge(
      g.structure, k, [&](graph::NodeId u, graph::NodeId v) {
        counts[graph::EncodeEdgeConfig(g.attribute(u), g.attribute(v), w)] +=
            1.0;
      });
  return counts;
}

std::vector<double> ComputeThetaF(const graph::AttributedCsrGraph& g,
                                  int threads) {
  std::vector<double> counts = ComputeConnectionCounts(g, threads);
  return dp::ClampAndNormalize(std::move(counts), 0.0,
                               static_cast<double>(g.num_edges() + 1));
}

std::vector<double> ThetaFFromConnectionCounts(
    const std::vector<uint64_t>& counts, uint64_t num_edges) {
  std::vector<double> as_doubles(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    as_doubles[i] = static_cast<double>(counts[i]);
  }
  return dp::ClampAndNormalize(std::move(as_doubles), 0.0,
                               static_cast<double>(num_edges + 1));
}

std::vector<double> LearnCorrelationsDp(const graph::AttributedCsrGraph& g,
                                        double epsilon, uint32_t k,
                                        util::Rng& rng) {
  AGMDP_CHECK(epsilon > 0.0);
  if (k == 0) k = dp::HeuristicTruncationK(g.num_nodes());
  std::vector<double> counts = ComputeTruncatedConnectionCounts(g, k);
  std::vector<double> noisy =
      dp::NoisyCounts(counts, /*sensitivity=*/2.0 * k, epsilon, rng);
  return dp::ClampAndNormalize(std::move(noisy), 0.0,
                               static_cast<double>(g.num_nodes()));
}

std::vector<double> LearnCorrelationsSmooth(const graph::AttributedCsrGraph& g,
                                            double epsilon, double delta,
                                            util::Rng& rng) {
  AGMDP_CHECK(epsilon > 0.0);
  std::vector<double> counts = ComputeConnectionCounts(g);
  // Lap(2 S / eps) == Laplace mechanism with sensitivity 2 S.
  const double scale = dp::SmoothLaplaceScaleQF(
      g.structure.MaxDegree(), g.num_nodes(), epsilon, delta);
  std::vector<double> noisy(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    noisy[i] = counts[i] + rng.Laplace(scale);
  }
  return dp::ClampAndNormalize(std::move(noisy), 0.0,
                               static_cast<double>(g.num_nodes()));
}

std::vector<double> LearnCorrelationsSampleAggregate(
    const graph::AttributedCsrGraph& g, double epsilon, uint32_t group_size,
    util::Rng& rng) {
  AGMDP_CHECK(epsilon > 0.0);
  const graph::NodeId n = g.num_nodes();
  auto partition = dp::RandomNodePartition(n, group_size, rng);
  AGMDP_CHECK_MSG(partition.ok(), "invalid sample-and-aggregate group size");
  const std::vector<std::vector<graph::NodeId>>& groups = partition.value();

  // One pass over the edges tallies every group's induced subgraph: an edge
  // belongs to a group's subgraph iff both endpoints are in that group.
  std::vector<uint32_t> group_of(n);
  for (uint32_t i = 0; i < groups.size(); ++i) {
    for (graph::NodeId v : groups[i]) group_of[v] = i;
  }
  const int w = g.num_attributes;
  std::vector<std::vector<uint64_t>> tally(
      groups.size(), std::vector<uint64_t>(graph::NumEdgeConfigs(w), 0));
  std::vector<uint64_t> group_edges(groups.size(), 0);
  g.structure.ForEachEdge([&](graph::NodeId u, graph::NodeId v) {
    const uint32_t group = group_of[u];
    if (group != group_of[v]) return;
    ++tally[group][graph::EncodeEdgeConfig(g.attribute(u), g.attribute(v), w)];
    ++group_edges[group];
  });

  std::vector<std::vector<double>> per_group;
  per_group.reserve(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    // Uniform if the group's subgraph is edgeless.
    per_group.push_back(ThetaFFromConnectionCounts(tally[i], group_edges[i]));
  }
  auto mean = dp::AverageVectors(per_group);
  AGMDP_CHECK(mean.ok());

  const double t = static_cast<double>(per_group.size());
  std::vector<double> noisy =
      dp::NoisyCounts(mean.value(), /*sensitivity=*/2.0 / t, epsilon, rng);
  return dp::ClampAndNormalize(std::move(noisy), 0.0, 1.0);
}

std::vector<double> LearnCorrelationsNaive(const graph::AttributedCsrGraph& g,
                                           double epsilon, util::Rng& rng) {
  AGMDP_CHECK(epsilon > 0.0);
  std::vector<double> counts = ComputeConnectionCounts(g);
  const double sensitivity = 2.0 * static_cast<double>(g.num_nodes()) - 2.0;
  std::vector<double> noisy = dp::NoisyCounts(counts, sensitivity, epsilon,
                                              rng);
  return dp::ClampAndNormalize(std::move(noisy), 0.0,
                               static_cast<double>(g.num_nodes()));
}

std::vector<double> LearnCorrelationsNodeDp(const graph::AttributedCsrGraph& g,
                                            double epsilon, double delta,
                                            uint32_t k, util::Rng& rng) {
  AGMDP_CHECK(epsilon > 0.0);
  if (k == 0) k = dp::HeuristicTruncationK(g.num_nodes());
  std::vector<double> counts = ComputeTruncatedConnectionCounts(g, k);
  const double scale = dp::NodeDpSmoothLaplaceScaleQF(
      g.structure.MaxDegree(), k, g.num_nodes(), epsilon, delta);
  std::vector<double> noisy(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    noisy[i] = counts[i] + rng.Laplace(scale);
  }
  return dp::ClampAndNormalize(std::move(noisy), 0.0,
                               static_cast<double>(g.num_nodes()));
}

}  // namespace agmdp::agm
