// Orphan-node post-processing — Algorithm 2 of the paper.
//
// CL-family models leave nodes disconnected from the main component
// ("orphaned"), especially the abundant degree-one nodes. Post-processing
// deletes each orphan's edges and rewires it into the main component against
// nodes whose desired degree is not yet met, keeping the total edge count at
// the target by deleting a (pseudo-)random edge whenever the budget is
// exceeded.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/alias_sampler.h"
#include "src/util/rng.h"

namespace agmdp::models {

/// Rewires orphaned nodes into the main connected component. `desired` is
/// the degree sequence of the original input graph (per synthetic node id);
/// `pi` samples attachment targets with probability proportional to desired
/// degree. Mutates `g` in place. If `added` is non-null it receives the
/// edges inserted by post-processing (in insertion order), so callers that
/// track edge age can register them. After 50 outer rounds it gives up on
/// the "delete a random edge" dance and attaches the remaining orphans
/// without deletions (guaranteeing connectivity at the cost of a few extra
/// edges; documented deviation).
void PostProcessGraph(graph::Graph* g, const std::vector<uint32_t>& desired,
                      const util::AliasSampler& pi, util::Rng& rng,
                      std::vector<graph::Edge>* added = nullptr);

}  // namespace agmdp::models
