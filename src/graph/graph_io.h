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
// The reader here is the *text backend* behind the unified ingestion entry
// point graph::GraphSource::Open (src/graph/graph_source.h), which
// auto-detects text vs the binary container (src/graph/graph_container.h)
// by magic bytes. Call sites open graphs through GraphSource (or, with
// already-resolved paths, ReadAttributedGraphFiles) and write them through
// graph::WriteGraph.
#pragma once

#include <cstdint>
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

/// Reads a text graph from already-resolved file paths. When
/// `paths.has_attrs` is false the result has zero attributes (all
/// configs 0). Every parse error names its `path:line`.
util::Result<AttributedGraph> ReadAttributedGraphFiles(
    const TextGraphPaths& paths);

/// Allocation-free line parsing shared by the text readers above and the
/// streaming text→binary converter (graph_container.cc). All parsers skip
/// leading blanks, accept only non-negative decimals (a leading '-' is a
/// parse failure, not a wrapped huge value) and tolerate trailing content
/// after the parsed fields, matching the historical istream behavior.
namespace textio {

/// True for lines the text formats ignore: blank (possibly just "\r") or
/// starting with '#'.
bool IsSkippableLine(const std::string& line);

/// Parses "<u> <v>" from an edge or attribute body line.
bool ParseTwoUints(const std::string& line, uint64_t* a, uint64_t* b);

/// Parses the edge-list header "n <count>".
bool ParseEdgeHeader(const std::string& line, uint64_t* n);

/// Parses the attribute header "n <count> w <width>".
bool ParseAttrHeader(const std::string& line, uint64_t* n, uint64_t* w);

}  // namespace textio

}  // namespace agmdp::graph
