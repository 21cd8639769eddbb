#include "src/models/chung_lu.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/math_util.h"

namespace agmdp::models {

namespace {

util::Result<graph::Graph> GenerateOnce(
    const std::vector<uint32_t>& degrees, const std::vector<double>& weights,
    uint64_t target_edges, uint64_t max_proposals, const EdgeFilter& filter,
    std::vector<graph::Edge>* insertion_order, util::Rng& rng) {
  auto sampler = util::AliasSampler::Build(weights);
  if (!sampler.ok()) return sampler.status();

  if (insertion_order != nullptr) {
    insertion_order->clear();
    insertion_order->reserve(static_cast<size_t>(std::min(
        target_edges,
        graph::MaxPossibleEdges(static_cast<graph::NodeId>(weights.size())))));
  }
  graph::Graph g(static_cast<graph::NodeId>(weights.size()));
  g.ReserveEdges(target_edges);  // no rehash churn inside the proposal loop
  g.ReserveNeighbors(degrees);
  uint64_t proposals = 0;
  while (g.num_edges() < target_edges && proposals < max_proposals) {
    ++proposals;
    auto u = static_cast<graph::NodeId>(sampler.value().Sample(rng));
    auto v = static_cast<graph::NodeId>(sampler.value().Sample(rng));
    if (u == v || g.HasEdge(u, v)) continue;
    if (!AcceptEdge(filter, u, v, rng)) continue;
    g.AddEdge(u, v);
    if (insertion_order != nullptr) insertion_order->emplace_back(u, v);
  }
  return g;
}

}  // namespace

util::Result<util::AliasSampler> BuildPiSampler(
    const std::vector<uint32_t>& degrees, bool exclude_degree_one) {
  std::vector<double> weights(degrees.size());
  for (size_t i = 0; i < degrees.size(); ++i) {
    uint32_t d = degrees[i];
    weights[i] = (exclude_degree_one && d <= 1) ? 0.0 : static_cast<double>(d);
  }
  return util::AliasSampler::Build(weights);
}

util::Result<graph::Graph> FastChungLu(const std::vector<uint32_t>& degrees,
                                       util::Rng& rng,
                                       const ChungLuOptions& options) {
  if (degrees.empty()) {
    return util::Status::InvalidArgument("FastChungLu: empty degree sequence");
  }
  uint64_t total_degree = 0;
  for (uint32_t d : degrees) total_degree += d;
  uint64_t target =
      options.target_edges > 0 ? options.target_edges : total_degree / 2;
  if (target == 0) return graph::Graph(static_cast<graph::NodeId>(degrees.size()));

  // Saturate: the per-edge knob is caller-supplied and a wrapped product
  // can silently collapse the proposal budget to ~0.
  const uint64_t max_proposals =
      util::SaturatingMul(options.max_proposals_per_edge, target);
  std::vector<double> weights(degrees.begin(), degrees.end());

  auto first = GenerateOnce(degrees, weights, target, max_proposals,
                            options.filter, options.insertion_order, rng);
  if (!first.ok() || !options.bias_correction) return first;

  // cFCL calibration: proposal collisions (duplicate edges) reject
  // high-degree nodes disproportionately, so their realized degrees fall
  // short of the targets. Boost the pi weight of nodes whose desired degree
  // is large enough for the shortfall to be signal rather than sampling
  // noise (low-degree realized counts fluctuate by +-O(sqrt(d)) per pilot,
  // and reweighting on that noise makes things worse).
  const graph::Graph& pilot = first.value();
  const double avg_degree =
      static_cast<double>(total_degree) / static_cast<double>(degrees.size());
  const double hub_threshold = std::max(10.0, 3.0 * avg_degree);
  bool any_adjusted = false;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double desired = degrees[i];
    if (weights[i] <= 0.0 || desired <= hub_threshold) continue;
    const double realized = std::max(
        1.0, static_cast<double>(pilot.Degree(static_cast<graph::NodeId>(i))));
    const double ratio = std::clamp(desired / realized, 1.0, 4.0);
    if (ratio > 1.0 + 1e-9) any_adjusted = true;
    weights[i] *= ratio;
  }
  if (!any_adjusted) return first;
  return GenerateOnce(degrees, weights, target, max_proposals,
                      options.filter, options.insertion_order, rng);
}

}  // namespace agmdp::models
