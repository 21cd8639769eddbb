// Degree sequences, histograms and summary statistics.
//
// The snapshot caches its degree array (CsrGraph::degrees()), so the
// CsrGraph functions are plain reads; DegreeSequence reads the generators'
// mutable Graph.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/csr.h"
#include "src/graph/graph.h"

namespace agmdp::graph {

/// Degree of every node, indexed by node id.
std::vector<uint32_t> DegreeSequence(const Graph& g);

/// Degree sequence sorted ascending (the paper's S, sorted for constrained
/// inference).
std::vector<uint32_t> SortedDegreeSequence(const CsrGraph& g);

/// Histogram over degree values: hist[d] = number of nodes with degree d,
/// length MaxDegree + 1 (length 1 for edgeless graphs).
std::vector<uint64_t> DegreeHistogram(const CsrGraph& g);

/// Average degree 2m/n (0 for empty graphs).
double AverageDegree(const CsrGraph& g);

}  // namespace agmdp::graph
