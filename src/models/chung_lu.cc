#include "src/models/chung_lu.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/math_util.h"

namespace agmdp::models {

util::Result<util::AliasSampler> BuildPiSampler(
    const std::vector<uint32_t>& degrees, bool exclude_degree_one) {
  std::vector<double> weights(degrees.size());
  for (size_t i = 0; i < degrees.size(); ++i) {
    uint32_t d = degrees[i];
    weights[i] = (exclude_degree_one && d <= 1) ? 0.0 : static_cast<double>(d);
  }
  return util::AliasSampler::Build(weights);
}

std::vector<graph::NodeId> FclHubs(const std::vector<uint32_t>& degrees) {
  // Proposal collisions (duplicate edges) reject high-degree nodes
  // disproportionately, so their realized degrees fall short of the
  // targets. Only nodes whose desired degree is large enough for the
  // shortfall to be signal rather than sampling noise are boosted
  // (low-degree realized counts fluctuate by +-O(sqrt(d)) per pilot, and
  // reweighting on that noise makes things worse).
  uint64_t total_degree = 0;
  for (uint32_t d : degrees) total_degree += d;
  const double avg_degree =
      static_cast<double>(total_degree) / static_cast<double>(degrees.size());
  const double hub_threshold = std::max(10.0, 3.0 * avg_degree);
  std::vector<graph::NodeId> hubs;
  for (size_t i = 0; i < degrees.size(); ++i) {
    if (degrees[i] > hub_threshold) {
      hubs.push_back(static_cast<graph::NodeId>(i));
    }
  }
  return hubs;
}

bool ReweightHubs(const std::vector<uint32_t>& degrees,
                  const std::vector<graph::NodeId>& hubs,
                  const FclPilot& pilot, std::vector<double>* weights) {
  std::vector<uint32_t> realized(degrees.size(), 0);
  for (const graph::Edge& e : pilot.edges) {
    ++realized[e.u];
    ++realized[e.v];
  }
  bool any_adjusted = false;
  for (graph::NodeId i : hubs) {
    const double ratio = std::clamp(
        degrees[i] / std::max(1.0, static_cast<double>(realized[i])), 1.0,
        4.0);
    if (ratio > 1.0 + 1e-9) any_adjusted = true;
    (*weights)[i] *= ratio;
  }
  return any_adjusted;
}

util::Result<graph::Graph> FastChungLu(const std::vector<uint32_t>& degrees,
                                       util::Rng& rng,
                                       const ChungLuOptions& options) {
  if (degrees.empty()) {
    return util::Status::InvalidArgument("FastChungLu: empty degree sequence");
  }
  const auto n = static_cast<graph::NodeId>(degrees.size());
  uint64_t total_degree = 0;
  for (uint32_t d : degrees) total_degree += d;
  // A simple graph cannot hold more edges than MaxPossibleEdges(n); an
  // unclamped target would keep proposing duplicates for its whole budget.
  const uint64_t target = std::min(
      options.target_edges > 0 ? options.target_edges : total_degree / 2,
      graph::MaxPossibleEdges(n));
  if (target == 0) return graph::Graph(n);

  // Saturate: the per-edge knob is caller-supplied and a wrapped product
  // can silently collapse the proposal budget to ~0.
  const uint64_t max_proposals =
      util::SaturatingMul(options.max_proposals_per_edge, target);
  const std::vector<double> weights(degrees.begin(), degrees.end());
  FclScratch scratch;
  auto pi = PiTables::Build(weights, options.filter, &scratch.worklist);
  if (!pi.ok()) return pi.status();
  // One proposal pass into `out`, the graph or the cFCL pilot.
  const auto pass = [&](const CandidateKernel& kernel, auto& out,
                        std::vector<graph::Edge>* insertion_order, bool) {
    ProposeInto(kernel, rng, max_proposals, target, out, insertion_order);
  };
  return RunFcl(degrees, target, weights, pi.value(), options, scratch, pass);
}

}  // namespace agmdp::models
