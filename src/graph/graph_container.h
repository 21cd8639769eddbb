// Single-file, paged, checksummed binary graph container (".agmbin").
//
// Motivation: opening a text graph parses and sorts the whole edge list
// again, twice over the file, on every open. The container stores the CSR
// arrays the analytics kernels actually read, so opening a graph is one
// mmap plus a checksum sweep, and the resulting AttributedCsrGraph points
// straight into the mapping (no parse, no copy, bitwise-identical
// analytics to the in-RAM FromGraph path). The two writers are
// WriteBinaryGraph (from an AttributedGraph) and ConvertTextToBinary,
// which runs the one text decoder (graph::ReadTextGraph) with the mapping
// as its array storage.
//
// File layout (little-endian, all sections page-aligned):
//
//   page 0      BinaryGraphHeader (128 bytes) + zero padding
//   offsets     uint64[num_nodes + 1]   CSR range bounds
//   neighbors   uint32[2 * num_edges]   sorted endpoints per node
//   attributes  uint32[num_nodes]       bit-packed configs (present even
//                                       when num_attributes == 0, so the
//                                       mmap view matches FromGraph's
//                                       zero-filled vector bitwise)
//   page table  uint32[num_data_pages]  CRC32C per data page
//
// The "data region" is every page from the end of page 0 through the
// (page-padded) end of the attributes section; each data page carries a
// CRC32C in the trailing table, the table carries its own CRC, and the
// header carries a CRC over its first 124 bytes. Verification at open is
// ordered so each failure mode maps to a distinct typed Status:
//   bad magic / truncation / bogus bounds  -> Corruption
//   unknown version or byte order          -> VersionMismatch
//   any CRC failure                        -> ChecksumMismatch
//
// Version policy: kBinaryGraphVersion bumps on any layout change; readers
// accept exactly the current version (re-convert with `agmdp convert`).
// The version check deliberately precedes the header CRC so a file from a
// newer tool reports VersionMismatch, not ChecksumMismatch.
#pragma once

#include <cstdint>
#include <string>

#include "src/graph/attributed_graph.h"
#include "src/graph/csr.h"
#include "src/util/status.h"

namespace agmdp::graph {

/// First 8 bytes of every container file.
inline constexpr char kBinaryGraphMagic[8] = {'A', 'G', 'M', 'D',
                                              'P', 'B', 'I', 'N'};
/// Current (and only accepted) format version.
inline constexpr uint32_t kBinaryGraphVersion = 1;
/// Endianness tag stored in the header; a byte-swapped file reads back
/// the reversed constant and is rejected as VersionMismatch.
inline constexpr uint32_t kBinaryGraphEndianTag = 0x01020304u;
/// Canonical file extension; graph::WriteGraph routes on it.
inline constexpr char kBinaryGraphExtension[] = ".agmbin";

struct BinaryGraphOptions {
  /// Power of two, >= 4096. 64 KiB keeps the per-page table tiny (~64 KiB
  /// of table per 1 GiB of data) while bounding the blast radius of a
  /// checksum failure report.
  uint32_t page_size = 64 * 1024;
};

/// Header/summary facts about a container file (`agmdp info`).
struct BinaryGraphInfo {
  uint32_t format_version = 0;
  uint32_t page_size = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint32_t num_attributes = 0;
  uint64_t num_data_pages = 0;
  uint64_t file_bytes = 0;
  /// Result of the full checksum sweep (ReadBinaryGraphInfo always runs
  /// it; a failure is reported here rather than as an error Status so
  /// `agmdp info` can still print the header of a damaged file).
  bool checksums_ok = false;
  std::string checksum_error;
};

/// True when `path` starts with the container magic (cheap sniff; false
/// for unreadable or short files).
bool IsBinaryGraphFile(const std::string& path);

/// Serializes an in-RAM attributed graph into a container file.
/// Byte-for-byte identical to converting the equivalent text pair.
util::Status WriteBinaryGraph(const AttributedGraph& g,
                              const std::string& path,
                              const BinaryGraphOptions& options = {});

/// Streaming text -> binary conversion. `text_path` names either a
/// `<prefix>` (with `<prefix>.edges` / optional `<prefix>.attrs`) or the
/// `.edges` file itself; a missing attribute file converts as w = 0. The
/// text is decoded by graph::ReadTextGraph (src/graph/graph_io.h), the
/// reader GraphSource::Open uses, so both report the same errors in the
/// same order; it places the arrays straight into the read-write mapping
/// of the output file and sorts the neighbor ranges in place there. Peak
/// heap is O(num_nodes) (degree counts, then a write cursor), never
/// O(num_edges).
util::Result<BinaryGraphInfo> ConvertTextToBinary(
    const std::string& text_path, const std::string& bin_path,
    const BinaryGraphOptions& options = {});

/// Maps a container file and wraps it as an AttributedCsrGraph whose
/// arrays alias the mapping (the returned snapshot and all copies keep
/// the mapping alive). Before trusting the mapping it verifies the
/// per-page CRC table, then re-checks the CSR invariants (monotone
/// offsets, sorted simple-graph ranges, attribute configs in range),
/// which catches a semantically bogus file whose checksums are
/// internally consistent. Analytics over the result are
/// bitwise-identical to AttributedCsrGraph::FromGraph on the same graph.
util::Result<AttributedCsrGraph> OpenBinarySnapshot(const std::string& path);

/// Reads header facts and runs the checksum sweep without building a
/// snapshot. Errors only when the header itself is unusable (bad magic,
/// version, header CRC, truncated); data-page damage is reported via
/// `checksums_ok` / `checksum_error`.
util::Result<BinaryGraphInfo> ReadBinaryGraphInfo(const std::string& path);

/// Recomputes and rewrites every checksum (pages, table, header) in
/// place. Repair tool for a deliberately patched file; also how tests
/// prove the semantic validation pass fires independently of the CRCs.
util::Status RecomputeBinaryGraphChecksums(const std::string& path);

/// Rebuilds a mutable AttributedGraph from any snapshot (adjacency
/// inserted in ascending neighbor order) — the materialization path for
/// consumers that need to mutate or re-serialize as text.
AttributedGraph MaterializeSnapshot(const AttributedCsrGraph& snapshot);

}  // namespace agmdp::graph
