// Erdős–Rényi random graphs (substrate / sanity baseline).
#pragma once

#include <cstdint>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace agmdp::models {

/// G(n, m): exactly m distinct edges sampled uniformly (m is capped at
/// C(n, 2)).
graph::Graph ErdosRenyiGnm(graph::NodeId n, uint64_t m, util::Rng& rng);

}  // namespace agmdp::models
