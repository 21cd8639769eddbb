// Transitive Chung-Lu (TCL) — Pfeiffer et al., the baseline model TriCycLe
// is compared against in Figures 2-3 of the paper.
//
// TCL refines an FCL seed graph: with probability rho a new edge connects a
// pi-sampled node to a uniform two-hop neighbor (creating a triangle), with
// probability 1 - rho it connects two pi-sampled nodes; each successful
// addition evicts the oldest edge. The process runs until every seed edge
// has been replaced. rho is learned from the input graph by EM over the
// per-edge mixture "transitive walk vs pi draw".
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/models/chung_lu.h"
#include "src/models/edge_filter.h"
#include "src/models/post_process.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::models {

struct TclOptions {
  /// Optional AGM acceptance filter.
  EdgeFilter filter;
};

/// Generates a TCL graph with expected degrees `degrees` and transitive
/// closure probability `rho` in [0, 1]: a bias-corrected cFCL seed, the
/// replacement loop, then Algorithm 2 orphan rewiring on the final graph.
/// The loop gives up after 200 * m proposals, m = min(sum(d) / 2, C(n, 2))
/// (it is not guaranteed to terminate when an acceptance filter is active
/// or the graph is complete).
util::Result<graph::Graph> GenerateTcl(const std::vector<uint32_t>& degrees,
                                       double rho, util::Rng& rng,
                                       const TclOptions& options = {});

/// EM estimate of rho on an input graph: 20 passes from rho = 0.5 over a
/// sample of 5000 edges (all edges if the graph is smaller). For a sampled
/// edge {i, j} the transitive likelihood
/// P_TC(j | i) = (1/d_i) sum_{k in Γ(i) ∩ Γ(j)} 1/d_k is computed exactly;
/// the CL likelihood is pi(j) = d_j / 2m. Returns rho in [0, 1].
double FitTclRho(const graph::Graph& g, util::Rng& rng);

}  // namespace agmdp::models
