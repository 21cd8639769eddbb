// Connected components, labelled for TriCycLe's orphan post-processing
// (models/post_process.h).
#pragma once

#include <vector>

#include "src/graph/graph.h"

namespace agmdp::graph {

/// Component label per node (labels are 0-based, contiguous). Sets
/// *num_components if non-null.
std::vector<uint32_t> ConnectedComponents(const Graph& g,
                                          uint32_t* num_components);

}  // namespace agmdp::graph
