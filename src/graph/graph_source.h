// GraphSource — the one entry point for graph ingestion.
//
// Every consumer (CLI, sweep engine, server, bench, examples) used to
// call the text readers directly; adding the binary container would have
// forked every call site into a format switch. GraphSource centralizes
// that: Open(path) sniffs the first bytes and loads either
//
//   * a binary container (.agmbin) — zero-copy: the snapshot's CSR
//     arrays alias the checksum-verified mmap, or
//   * a text graph — `<prefix>`, `<prefix>.edges` or a bare edge-list
//     file, with `<prefix>.attrs` optional (missing means w = 0) —
//     streamed twice into an owned snapshot by graph::ReadTextGraph
//     (src/graph/graph_io.h), the decoder `agmdp convert` shares.
//
// Consumers read snapshot(), which works identically for both formats:
// analytics, the private fit and the GraphML export all take it as is.
// Materialize() builds a mutable AttributedGraph copy; only the tests and
// perfbench, which feeds the fit through its AttributedGraph shims, still
// call it.
//
// The write-side counterpart WriteGraph(g, path) routes on the file
// extension: `.agmbin` writes the container, anything else writes the
// text pair — so "produce binary output" is a file-name choice, not an
// API choice, for generate/sample/synthesize.
#pragma once

#include <string>

#include "src/graph/attributed_graph.h"
#include "src/graph/csr.h"
#include "src/util/status.h"

namespace agmdp::graph {

class GraphSource {
 public:
  enum class Format { kText, kBinary };

  /// Opens a graph from disk, auto-detecting the format by magic bytes.
  /// Binary containers are checksum-verified and validated; text inputs
  /// are decoded by ReadTextGraph, with its line-numbered errors in its
  /// order. NotFound when nothing usable exists at `path`.
  static util::Result<GraphSource> Open(const std::string& path);

  Format format() const { return format_; }
  const std::string& path() const { return path_; }

  /// The immutable snapshot every analytics kernel consumes. For binary
  /// sources this aliases the mapping (no copy); for text sources it owns
  /// the parsed arrays.
  const AttributedCsrGraph& snapshot() const { return snapshot_; }

  /// A mutable adjacency-list copy (adjacency rebuilt in ascending
  /// neighbor order for binary sources). O(n + m) time and heap.
  AttributedGraph Materialize() const;

 private:
  GraphSource() = default;

  Format format_ = Format::kText;
  std::string path_;
  AttributedCsrGraph snapshot_;
};

/// Unified graph writer: `path` ending in ".agmbin" writes the binary
/// container, anything else writes the `<path>.edges` / `<path>.attrs`
/// text pair.
util::Status WriteGraph(const AttributedGraph& g, const std::string& path);

/// Derives the i-th output path of a multi-sample batch, keeping the
/// format routing intact: "syn" -> "syn_3", but "syn.agmbin" ->
/// "syn_3.agmbin" (the index lands *before* the extension so every
/// sample stays a binary container).
std::string NumberedGraphPath(const std::string& path, uint64_t index);

}  // namespace agmdp::graph
