// Connected components and largest-component extraction.
//
// Used for dataset preprocessing (the paper keeps only the main connected
// component) and for TriCycLe's orphan post-processing.
#pragma once

#include <vector>

#include "src/graph/graph.h"

namespace agmdp::graph {

/// Component label per node (labels are 0-based, contiguous). Sets
/// *num_components if non-null.
std::vector<uint32_t> ConnectedComponents(const Graph& g,
                                          uint32_t* num_components);

/// True iff the graph has exactly one connected component (vacuously true
/// for the empty graph).
bool IsConnected(const Graph& g);

/// Node ids of the largest connected component, ascending.
std::vector<NodeId> LargestComponent(const Graph& g);

}  // namespace agmdp::graph
