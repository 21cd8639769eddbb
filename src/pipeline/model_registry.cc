#include "src/pipeline/model_registry.h"

#include <algorithm>
#include <cmath>

#include "src/graph/degree.h"
#include "src/models/bter.h"
#include "src/models/chung_lu.h"
#include "src/models/erdos_renyi.h"
#include "src/models/holme_kim.h"
#include "src/models/proposal_kernel.h"
#include "src/models/tricycle.h"

namespace agmdp::pipeline {

namespace {

uint64_t TargetEdgeCount(const agm::AgmParams& params) {
  uint64_t total_degree = 0;
  for (uint32_t d : params.degree_sequence) total_degree += d;
  return total_degree / 2;
}

// Wedge count implied by the private degree sequence (the denominator of
// the global clustering coefficient 3 n∆ / W).
double WedgeCount(const agm::AgmParams& params) {
  double wedges = 0.0;
  for (uint32_t d : params.degree_sequence) {
    wedges += 0.5 * static_cast<double>(d) * (d > 0 ? d - 1.0 : 0.0);
  }
  return wedges;
}

double ImpliedClustering(const agm::AgmParams& params) {
  const double wedges = WedgeCount(params);
  if (wedges <= 0.0) return 0.0;
  const double c =
      3.0 * static_cast<double>(params.target_triangles) / wedges;
  return std::clamp(c, 0.0, 1.0);
}

// Models without a native filter hook get the AGM acceptance filter applied
// as a thinning pass over their edges, then the lost mass is topped back up
// with degree-proportional filtered proposals, preserving the edge count
// (DESIGN.md, pipeline deviations).
graph::Graph ApplyFilterWithTopUp(graph::Graph base,
                                  const models::EdgeFilter& filter,
                                  util::Rng& rng) {
  if (!filter) return base;
  const uint64_t target = base.num_edges();
  graph::Graph g(base.num_nodes());
  base.ForEachEdge([&](graph::NodeId u, graph::NodeId v) {
    if (models::AcceptEdge(filter, u, v, rng)) g.AddEdge(u, v);
  });
  if (g.num_edges() >= target) return g;

  const std::vector<uint32_t> degrees = graph::DegreeSequence(base);
  auto pi = models::PiTables::Build(
      std::vector<double>(degrees.begin(), degrees.end()), filter);
  if (!pi.ok()) return g;
  models::ProposeInto(models::CandidateKernel(pi.value(), filter), rng,
                      200 * (target - g.num_edges()), target, g,
                      /*order=*/nullptr);
  return g;
}

util::Result<graph::Graph> GenerateErdosRenyi(const agm::AgmParams& params,
                                              const models::EdgeFilter& filter,
                                              util::Rng& rng) {
  const auto n = static_cast<graph::NodeId>(params.degree_sequence.size());
  graph::Graph base = models::ErdosRenyiGnm(n, TargetEdgeCount(params), rng);
  return ApplyFilterWithTopUp(std::move(base), filter, rng);
}

util::Result<graph::Graph> GenerateHolmeKim(const agm::AgmParams& params,
                                            const models::EdgeFilter& filter,
                                            util::Rng& rng) {
  const auto n = static_cast<graph::NodeId>(params.degree_sequence.size());
  models::HolmeKimOptions options;
  options.edges_per_node =
      std::max(1.0, static_cast<double>(TargetEdgeCount(params)) /
                        std::max<graph::NodeId>(n, 1));
  options.triad_probability = std::clamp(ImpliedClustering(params), 0.01, 0.99);
  auto base = models::HolmeKim(n, options, rng);
  if (!base.ok()) return base.status();
  return ApplyFilterWithTopUp(std::move(base).value(), filter, rng);
}

util::Result<graph::Graph> GenerateBterFromParams(
    const agm::AgmParams& params, const models::EdgeFilter& filter,
    util::Rng& rng) {
  models::BterParams bter;
  bter.degrees = params.degree_sequence;
  const uint32_t max_degree =
      params.degree_sequence.empty()
          ? 0
          : *std::max_element(params.degree_sequence.begin(),
                              params.degree_sequence.end());
  // Degree-independent clustering profile matching the private triangle
  // target; BTER's native degree-wise profile has too high a sensitivity to
  // learn under DP (Section 3.3), so the pipeline drives BTER from the two
  // quantities that *are* learned privately.
  bter.clustering_by_degree.assign(max_degree + 1, ImpliedClustering(params));
  auto base = models::GenerateBter(bter, rng);
  if (!base.ok()) return base.status();
  return ApplyFilterWithTopUp(std::move(base).value(), filter, rng);
}

util::Result<graph::Graph> GenerateTriCycLe(const agm::AgmParams& params,
                                            const models::EdgeFilter& filter,
                                            util::Rng& rng) {
  // TriCycLe's oldest-edge rewiring chain is inherently sequential (every
  // swap depends on the full edge-age state); it stays on the master stream.
  models::TriCycLeOptions options;
  options.filter = filter;
  return models::GenerateTriCycLeGraph(params.degree_sequence,
                                       params.target_triangles, rng, options);
}

using Generator = util::Result<graph::Graph> (*)(const agm::AgmParams&,
                                                 const models::EdgeFilter&,
                                                 util::Rng&);

// A model with no per-sample state that runs on the master stream alone.
agm::StructuralModel OnMasterStream(Generator generate) {
  return [generate](const agm::AgmParams& params,
                    util::WorkerPool&) -> agm::StructuralDraw {
    return [generate, &params](const models::EdgeFilter& filter,
                               util::Rng& rng) {
      return generate(params, filter, rng);
    };
  };
}

std::vector<StructuralModelSpec> BuildRegistry() {
  return {
      {"tricycle",
       "TriCycLe rewiring model (paper's pick; triangle-preserving)", true,
       OnMasterStream(GenerateTriCycLe)},
      {"fcl", "bias-corrected Fast Chung-Lu (degree sequence only)", false,
       agm::ShardedFclModel()},
      {"bter", "BTER driven by the private degree sequence and triangle target",
       true, OnMasterStream(GenerateBterFromParams)},
      {"holme_kim",
       "Holme-Kim powerlaw-cluster growth calibrated to the private targets",
       true, OnMasterStream(GenerateHolmeKim)},
      {"erdos_renyi",
       "Erdos-Renyi G(n, m) baseline (structure-free null model)", false,
       OnMasterStream(GenerateErdosRenyi)},
  };
}

const std::vector<StructuralModelSpec>& Registry() {
  static const std::vector<StructuralModelSpec>* registry =
      new std::vector<StructuralModelSpec>(BuildRegistry());
  return *registry;
}

}  // namespace

const StructuralModelSpec* FindStructuralModel(const std::string& name) {
  for (const StructuralModelSpec& spec : Registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> StructuralModelNames() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const StructuralModelSpec& spec : Registry()) {
    names.push_back(spec.name);
  }
  return names;
}

std::string StructuralModelNameList() {
  std::string joined;
  for (const StructuralModelSpec& spec : Registry()) {
    if (!joined.empty()) joined += ", ";
    joined += spec.name;
  }
  return joined;
}

}  // namespace agmdp::pipeline
