// Chung-Lu random graphs via the Fast Chung-Lu (FCL) sampler, with optional
// bias correction (the cFCL variant the paper uses; Section 3.3).
//
// FCL samples both endpoints of each edge from the degree-proportional pi
// distribution and rejects self-loops and duplicates (the proposal loop is
// models::CandidateKernel, proposal_kernel.h). Rejection hits
// high-degree nodes hardest (their proposals collide more often), biasing
// realized degrees low; cFCL compensates with one calibration pass that
// reweights pi by the observed shortfall (DESIGN.md substitution #5).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/models/edge_filter.h"
#include "src/models/proposal_kernel.h"
#include "src/util/alias_sampler.h"
#include "src/util/flat_edge_set.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::models {

/// Builds the pi distribution (probability proportional to degree). Nodes of
/// degree one get weight zero when `exclude_degree_one` (TriCycLe's orphan
/// extension: degree-one nodes cannot be in triangles and are wired up in
/// post-processing instead). Fails if all weights are zero.
util::Result<util::AliasSampler> BuildPiSampler(
    const std::vector<uint32_t>& degrees, bool exclude_degree_one);

struct ChungLuOptions {
  /// cFCL bias-correction pass.
  bool bias_correction = true;
  /// Target edge count; 0 means sum(degrees) / 2. Clamped to the edge
  /// capacity of a simple graph over degrees.size() nodes.
  uint64_t target_edges = 0;
  /// Give up after this many proposals per requested edge (guards against
  /// stalls when an acceptance filter suppresses nearly every pair).
  uint64_t max_proposals_per_edge = 200;
  /// Optional acceptance filter (AGM attribute correlations).
  EdgeFilter filter;
  /// If non-null, receives the edges of the returned graph in insertion
  /// order (TriCycLe/TCL seed their edge-age queues from this).
  std::vector<graph::Edge>* insertion_order = nullptr;
};

/// Generates an FCL graph matching the expected degree sequence. The result
/// may have fewer edges than requested if the proposal budget runs out;
/// that is not an error (matching the accept/reject design of AGM) and
/// shows as num_edges() below the target.
util::Result<graph::Graph> FastChungLu(const std::vector<uint32_t>& degrees,
                                       util::Rng& rng,
                                       const ChungLuOptions& options = {});

/// \brief The cFCL pilot pass's output. cFCL reads only its realized
/// degrees, so it dedups into a flat edge set instead of building a Graph
/// (the same edge calls as graph::Graph, FindEdgeSlot/AddEdgeAt included,
/// so one proposal loop fills either).
struct FclPilot {
  explicit FclPilot(uint64_t target_edges) : seen(target_edges) {
    edges.reserve(target_edges);
  }
  bool AddEdge(graph::NodeId u, graph::NodeId v) {
    if (!seen.Insert(graph::PackEdge(u, v))) return false;
    edges.emplace_back(u, v);
    return true;
  }
  util::FlatEdgeSet::Slot FindEdgeSlot(graph::NodeId u,
                                       graph::NodeId v) const {
    return seen.Find(graph::PackEdge(u, v));
  }
  void AddEdgeAt(const util::FlatEdgeSet::Slot& slot, graph::NodeId u,
                 graph::NodeId v) {
    seen.InsertAt(slot);
    edges.emplace_back(u, v);
  }
  // ProposeInto's reservation; a pilot built for its target has the room.
  void ReserveEdges(uint64_t expected) { seen.Reserve(expected); }
  size_t edge_slot_count() const { return seen.capacity(); }
  uint64_t num_edges() const { return edges.size(); }

  util::FlatEdgeSet seen;
  std::vector<graph::Edge> edges;  // insertion order
};

/// cFCL's hubs: the nodes whose desired degree exceeds max(10, 3 * average),
/// the only ones the calibration may reweight.
std::vector<graph::NodeId> FclHubs(const std::vector<uint32_t>& degrees);

/// cFCL's calibration: scales the pi weight of each hub by desired /
/// realized degree in `pilot`, clamped to [1, 4]. False if no weight
/// changed: keep the pilot.
bool ReweightHubs(const std::vector<uint32_t>& degrees,
                  const std::vector<graph::NodeId>& hubs,
                  const FclPilot& pilot, std::vector<double>* weights);

/// Storage RunFcl reuses from call to call: the calibrated weights and pi
/// tables and the alias builder's worklist. The AGM sampler keeps one per
/// sample (its FclPlan), so a warm acceptance iteration allocates none of
/// them. The pilot is not kept: it is freed before the calibrated pass
/// builds its graph, which may reuse that memory.
struct FclScratch {
  std::vector<double> weights;
  PiTables calibrated;
  std::vector<uint32_t> worklist;
};

/// The (c)FCL routine of the sequential FastChungLu and the AGM sampler's
/// sharded FCL. `pass(kernel, out, insertion_order, calibrated)` runs one
/// proposal pass of `kernel` (pi through options.filter) into `out` (a
/// graph::Graph, or an FclPilot with a null order), stopping at
/// `target_edges` (> 0, at most C(n, 2)). `pi` holds the tables of
/// `weights` built for options.filter. With bias correction and at least
/// one hub a pilot pass is measured first; if ReweightHubs changes nothing
/// the pilot is the result, rebuilt by adding its edges in order (same
/// adjacency and insertion order as a graph pass), otherwise it is freed
/// and the graph is drawn from the new weights (`calibrated` set), built in
/// `scratch`. Without a hub the first pass is the result.
template <typename Pass>
util::Result<graph::Graph> RunFcl(const std::vector<uint32_t>& degrees,
                                  uint64_t target_edges,
                                  const std::vector<double>& weights,
                                  const PiTables& pi,
                                  const ChungLuOptions& options,
                                  FclScratch& scratch, const Pass& pass) {
  std::vector<graph::Edge>* order = options.insertion_order;
  const auto reserved_graph = [&] {
    graph::Graph g(static_cast<graph::NodeId>(degrees.size()));
    g.ReserveEdges(target_edges);  // no rehash churn inside the passes
    g.ReserveNeighbors(degrees);
    if (order != nullptr) {
      order->clear();
      order->reserve(static_cast<size_t>(target_edges));
    }
    return g;
  };
  const auto graph_pass = [&](const CandidateKernel& kernel,
                              bool calibrated) {
    graph::Graph g = reserved_graph();
    pass(kernel, g, order, calibrated);
    return g;
  };
  const CandidateKernel kernel(pi, options.filter);
  const std::vector<graph::NodeId> hubs =
      options.bias_correction ? FclHubs(degrees) : std::vector<graph::NodeId>{};
  if (hubs.empty()) return graph_pass(kernel, false);
  {
    FclPilot pilot(target_edges);
    pass(kernel, pilot, nullptr, false);
    scratch.weights.assign(weights.begin(), weights.end());
    if (!ReweightHubs(degrees, hubs, pilot, &scratch.weights)) {
      graph::Graph g = reserved_graph();
      for (const graph::Edge& e : pilot.edges) g.AddEdge(e.u, e.v);
      if (order != nullptr) *order = std::move(pilot.edges);
      return g;
    }
  }
  const util::Status reweighted =
      pi.ReweightInto(scratch.weights, scratch.worklist, scratch.calibrated);
  if (!reweighted.ok()) return reweighted;
  return graph_pass(CandidateKernel(scratch.calibrated, options.filter), true);
}

}  // namespace agmdp::models
