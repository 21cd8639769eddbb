// Plain-text persistence for (attributed) graphs.
//
// Edge-list format:
//   # comment lines are ignored
//   n <num_nodes>
//   <u> <v>          one line per edge
//
// Attribute format (one file per graph):
//   n <num_nodes> w <num_attributes>
//   <node_id> <config>   config is the bit-packed attribute vector
//
// ReadTextGraph is the one decoder of this format. It streams the edge
// file twice and never builds an adjacency-list Graph: the caller places
// the CSR arrays, and both callers do so differently.
//   * graph::GraphSource::Open (src/graph/graph_source.h) places them in
//     owned vectors and wraps them as the snapshot every consumer reads;
//   * graph::ConvertTextToBinary (src/graph/graph_container.h) places them
//     in the read-write mapping of the output container, so a conversion
//     keeps O(num_nodes) heap.
// Graphs are written through graph::WriteGraph.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "src/graph/attributed_graph.h"
#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/util/status.h"

namespace agmdp::graph {

util::Status WriteEdgeList(const Graph& g, const std::string& path);

/// Writes <path>.edges and <path>.attrs.
util::Status WriteAttributedGraph(const AttributedGraph& g,
                                  const std::string& path_prefix);

/// Exports to GraphML (one <data> key per binary attribute) for external
/// tools — Gephi, NetworkX, igraph all ingest this directly. Edges are
/// written in canonical order.
util::Status WriteGraphMl(const AttributedCsrGraph& g,
                          const std::string& path);

/// Resolved locations of a text graph on disk.
struct TextGraphPaths {
  std::string edges;
  std::string attrs;
  bool has_attrs = false;
};

/// Resolves a user-supplied text-graph path: a `<prefix>` (with
/// `<prefix>.edges` next to it), the `.edges` file itself, or a bare
/// edge-list file; `<prefix>.attrs` rides along when present (a missing
/// attribute file means w = 0). NotFound when no edge file exists.
util::Result<TextGraphPaths> ResolveTextGraphPaths(const std::string& path);

/// Shape of a text graph, known once the reader's first pass is done.
struct TextGraphShape {
  NodeId num_nodes = 0;
  uint64_t num_edges = 0;
  int num_attributes = 0;
};

/// Storage for one text graph: num_nodes + 1 offsets, 2 * num_edges
/// neighbors and num_nodes attribute configs. The configs must arrive
/// zero-filled (nodes without an attribute line keep config 0).
struct TextGraphArrays {
  uint64_t* offsets = nullptr;
  NodeId* neighbors = nullptr;
  AttrConfig* attributes = nullptr;
};

/// Called once per read, with the final shape; its error ends the read.
using TextGraphPlacement =
    std::function<util::Result<TextGraphArrays>(const TextGraphShape&)>;

/// Decodes a text graph into the arrays `place` returns: CSR offsets,
/// ascending neighbor ranges and configs, the same arrays
/// AttributedCsrGraph::FromGraph builds. Without an attribute file the
/// graph has w = 0. Every error is IoError, and each parse error names
/// its `path:line`. Errors come in this order, whatever lines they sit on:
///   1. the edge file (header, parse, range, self-loop, degree overflow);
///   2. the attribute header;
///   3. a duplicate edge (the line of its second occurrence);
///   4. the attribute lines.
/// The edge file is read twice; one that changes between the reads fails
/// rather than yield a graph no single version of the file describes.
util::Status ReadTextGraph(const TextGraphPaths& paths,
                           const TextGraphPlacement& place);

}  // namespace agmdp::graph
