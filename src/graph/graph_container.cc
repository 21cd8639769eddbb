#include "src/graph/graph_container.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/graph/graph_io.h"
#include "src/util/checksum.h"
#include "src/util/fault_injector.h"
#include "src/util/mmap_file.h"

namespace agmdp::graph {

namespace {

struct SectionDesc {
  uint64_t offset = 0;
  uint64_t bytes = 0;

  bool operator==(const SectionDesc& o) const {
    return offset == o.offset && bytes == o.bytes;
  }
};
static_assert(sizeof(SectionDesc) == 16);

// On-disk header, page 0. Field order is the file format — every member
// is naturally aligned so the struct has no padding and can be memcpy'd
// to/from the mapping. header_crc covers the preceding 124 bytes.
struct BinaryGraphHeader {
  char magic[8];
  uint32_t version;
  uint32_t endian_tag;
  uint32_t page_size;
  uint32_t num_attributes;
  uint64_t num_nodes;
  uint64_t num_edges;
  uint64_t file_bytes;
  SectionDesc offsets;
  SectionDesc neighbors;
  SectionDesc attributes;
  SectionDesc page_table;
  uint64_t num_data_pages;
  uint32_t table_crc;
  uint32_t header_crc;
};
static_assert(sizeof(BinaryGraphHeader) == 128);
constexpr size_t kHeaderBytes = sizeof(BinaryGraphHeader);
constexpr size_t kHeaderCrcOffset = offsetof(BinaryGraphHeader, header_crc);
static_assert(kHeaderCrcOffset == 124);

bool ValidPageSize(uint32_t page_size) {
  return page_size >= 4096 && (page_size & (page_size - 1)) == 0;
}

uint64_t AlignUp(uint64_t x, uint64_t align) {
  return (x + align - 1) / align * align;
}

// Derives the full section table from the graph shape. Both the writers
// and the open-time structural check use this single function, so a
// header whose sections disagree with its own (n, m, w, page_size) is
// detected as corruption.
BinaryGraphHeader MakeHeader(uint64_t num_nodes, uint64_t num_edges,
                             uint32_t num_attributes, uint32_t page_size) {
  BinaryGraphHeader h{};
  std::memcpy(h.magic, kBinaryGraphMagic, sizeof(h.magic));
  h.version = kBinaryGraphVersion;
  h.endian_tag = kBinaryGraphEndianTag;
  h.page_size = page_size;
  h.num_attributes = num_attributes;
  h.num_nodes = num_nodes;
  h.num_edges = num_edges;
  h.offsets = {page_size, (num_nodes + 1) * sizeof(uint64_t)};
  h.neighbors = {AlignUp(h.offsets.offset + h.offsets.bytes, page_size),
                 2 * num_edges * sizeof(NodeId)};
  h.attributes = {AlignUp(h.neighbors.offset + h.neighbors.bytes, page_size),
                  num_nodes * sizeof(AttrConfig)};
  const uint64_t data_end =
      AlignUp(h.attributes.offset + h.attributes.bytes, page_size);
  h.num_data_pages = (data_end - page_size) / page_size;
  h.page_table = {data_end, h.num_data_pages * sizeof(uint32_t)};
  h.file_bytes = data_end + h.page_table.bytes;
  return h;
}

// Fills the page-checksum table, its CRC and the header (with its CRC)
// into a writable mapping. Last step of both writers and of
// RecomputeBinaryGraphChecksums.
void FinalizeChecksums(uint8_t* data, BinaryGraphHeader* h) {
  uint32_t* table = reinterpret_cast<uint32_t*>(data + h->page_table.offset);
  for (uint64_t p = 0; p < h->num_data_pages; ++p) {
    const uint8_t* page = data + h->page_size + p * h->page_size;
    table[p] = util::Crc32c(page, h->page_size);
  }
  h->table_crc = util::Crc32c(table, h->page_table.bytes);
  h->header_crc = 0;
  std::memcpy(data, h, kHeaderBytes);
  h->header_crc = util::Crc32c(data, kHeaderCrcOffset);
  std::memcpy(data, h, kHeaderBytes);
}

// Parses and verifies the header. Ordered so each failure mode yields
// its distinct typed code; `check_crc` is false only for the repair path.
util::Status VerifyAndParseHeader(const uint8_t* data, uint64_t size,
                                  const std::string& path,
                                  BinaryGraphHeader* h, bool check_crc) {
  if (size < kHeaderBytes) {
    return util::Status::Corruption(
        "truncated container (only " + std::to_string(size) +
        " bytes, header needs " + std::to_string(kHeaderBytes) + "): " + path);
  }
  std::memcpy(h, data, kHeaderBytes);
  if (std::memcmp(h->magic, kBinaryGraphMagic, sizeof(h->magic)) != 0) {
    return util::Status::Corruption(
        "not a binary graph container (bad magic): " + path);
  }
  if (h->version != kBinaryGraphVersion) {
    return util::Status::VersionMismatch(
        "unsupported container version " + std::to_string(h->version) +
        " (this build reads version " + std::to_string(kBinaryGraphVersion) +
        "; re-convert with `agmdp convert`): " + path);
  }
  if (h->endian_tag != kBinaryGraphEndianTag) {
    return util::Status::VersionMismatch(
        "container byte order does not match this machine: " + path);
  }
  if (check_crc && util::Crc32c(data, kHeaderCrcOffset) != h->header_crc) {
    return util::Status::ChecksumMismatch("header checksum mismatch: " + path);
  }
  if (!ValidPageSize(h->page_size)) {
    return util::Status::Corruption(
        "invalid page size " + std::to_string(h->page_size) + ": " + path);
  }
  if (h->num_nodes > std::numeric_limits<NodeId>::max()) {
    return util::Status::Corruption("node count overflows NodeId: " + path);
  }
  if (h->num_attributes > 20) {
    return util::Status::Corruption(
        "attribute count out of range [0, 20]: " + path);
  }
  // The section table must be exactly what the shape dictates.
  const BinaryGraphHeader expect = MakeHeader(
      h->num_nodes, h->num_edges, h->num_attributes, h->page_size);
  if (!(h->offsets == expect.offsets) || !(h->neighbors == expect.neighbors) ||
      !(h->attributes == expect.attributes) ||
      !(h->page_table == expect.page_table) ||
      h->num_data_pages != expect.num_data_pages ||
      h->file_bytes != expect.file_bytes) {
    return util::Status::Corruption(
        "section table inconsistent with graph shape: " + path);
  }
  if (size < h->file_bytes) {
    return util::Status::Corruption(
        "truncated container (header expects " +
        std::to_string(h->file_bytes) + " bytes, file has " +
        std::to_string(size) + "): " + path);
  }
  if (size > h->file_bytes) {
    return util::Status::Corruption(
        "trailing bytes after container end: " + path);
  }
  return util::Status::OK();
}

util::Status VerifyPageChecksums(const uint8_t* data,
                                 const BinaryGraphHeader& h,
                                 const std::string& path) {
  const uint32_t* table =
      reinterpret_cast<const uint32_t*>(data + h.page_table.offset);
  if (util::Crc32c(table, h.page_table.bytes) != h.table_crc) {
    return util::Status::ChecksumMismatch(
        "page-checksum table mismatch: " + path);
  }
  for (uint64_t p = 0; p < h.num_data_pages; ++p) {
    const uint64_t offset = h.page_size + p * h.page_size;
    if (util::Crc32c(data + offset, h.page_size) != table[p]) {
      return util::Status::ChecksumMismatch(
          "checksum mismatch in data page " + std::to_string(p) +
          " (file offset " + std::to_string(offset) + "): " + path);
    }
  }
  return util::Status::OK();
}

// CSR invariant sweep over the mapped arrays — defends against a file
// whose checksums are self-consistent but whose content is not a valid
// simple graph (e.g. written by a buggy tool, or re-checksummed after
// tampering).
util::Status ValidateSemantics(const BinaryGraphHeader& h,
                               const uint64_t* offsets,
                               const NodeId* neighbors,
                               const AttrConfig* attrs,
                               const std::string& path) {
  const NodeId n = static_cast<NodeId>(h.num_nodes);
  if (offsets[0] != 0) {
    return util::Status::Corruption("offsets[0] != 0: " + path);
  }
  if (offsets[n] != 2 * h.num_edges) {
    return util::Status::Corruption(
        "offsets[n] disagrees with edge count: " + path);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (offsets[v + 1] < offsets[v]) {
      return util::Status::Corruption("non-monotone offsets at node " +
                                      std::to_string(v) + ": " + path);
    }
    if (offsets[v + 1] - offsets[v] >
        std::numeric_limits<uint32_t>::max()) {
      return util::Status::Corruption("degree overflow at node " +
                                      std::to_string(v) + ": " + path);
    }
    NodeId prev = 0;
    bool first = true;
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const NodeId u = neighbors[i];
      if (u >= n) {
        return util::Status::Corruption("neighbor out of range at node " +
                                        std::to_string(v) + ": " + path);
      }
      if (u == v) {
        return util::Status::Corruption(
            "self-loop at node " + std::to_string(v) + ": " + path);
      }
      if (!first && u <= prev) {
        return util::Status::Corruption(
            "unsorted or duplicate neighbor range at node " +
            std::to_string(v) + ": " + path);
      }
      prev = u;
      first = false;
    }
  }
  const AttrConfig limit = NumNodeConfigs(static_cast<int>(h.num_attributes));
  for (NodeId v = 0; v < n; ++v) {
    if (attrs[v] >= limit) {
      return util::Status::Corruption("attribute config out of range at node " +
                                      std::to_string(v) + ": " + path);
    }
  }
  return util::Status::OK();
}

// Sizes `path` for header `h` and maps it read-write (zero-filled, so
// sections a writer leaves alone read back as zeros). Both writers start
// here.
util::Result<util::MappedFile> CreateContainer(const std::string& path,
                                               const BinaryGraphHeader& h) {
  if (auto st = util::CheckFault("container.create"); !st.ok()) return st;
  return util::MappedFile::CreateReadWrite(path, h.file_bytes);
}

// Writes the checksums and flushes the mapping. Both writers end here.
util::Status FinishContainer(util::MappedFile* file, BinaryGraphHeader* h) {
  FinalizeChecksums(file->mutable_data(), h);
  if (auto st = util::CheckFault("container.sync"); !st.ok()) return st;
  return file->Sync();
}

BinaryGraphInfo InfoFromHeader(const BinaryGraphHeader& h) {
  BinaryGraphInfo info;
  info.format_version = h.version;
  info.page_size = h.page_size;
  info.num_nodes = h.num_nodes;
  info.num_edges = h.num_edges;
  info.num_attributes = h.num_attributes;
  info.num_data_pages = h.num_data_pages;
  info.file_bytes = h.file_bytes;
  return info;
}

util::Status CheckPageSize(const BinaryGraphOptions& options) {
  if (ValidPageSize(options.page_size)) return util::Status::OK();
  return util::Status::InvalidArgument(
      "page size must be a power of two >= 4096, got " +
      std::to_string(options.page_size));
}

}  // namespace

bool IsBinaryGraphFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof(kBinaryGraphMagic)];
  if (!in.read(magic, sizeof(magic))) return false;
  return std::memcmp(magic, kBinaryGraphMagic, sizeof(magic)) == 0;
}

util::Status WriteBinaryGraph(const AttributedGraph& g,
                              const std::string& path,
                              const BinaryGraphOptions& options) {
  if (auto st = CheckPageSize(options); !st.ok()) return st;
  const NodeId n = g.num_nodes();
  BinaryGraphHeader h =
      MakeHeader(n, g.num_edges(),
                 static_cast<uint32_t>(g.num_attributes()), options.page_size);
  auto mapped = CreateContainer(path, h);
  if (!mapped.ok()) return mapped.status();
  util::MappedFile file = std::move(mapped).value();
  uint8_t* data = file.mutable_data();

  uint64_t* offsets = reinterpret_cast<uint64_t*>(data + h.offsets.offset);
  NodeId* neighbors = reinterpret_cast<NodeId*>(data + h.neighbors.offset);
  AttrConfig* attrs = reinterpret_cast<AttrConfig*>(data + h.attributes.offset);

  offsets[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + g.structure().Degree(v);
  }
  // Neighbor ranges are copied and sorted *inside the mapping*: the file
  // itself is the scratch space, so writing never costs O(m) heap.
  for (NodeId v = 0; v < n; ++v) {
    const std::vector<NodeId>& adj = g.structure().Neighbors(v);
    NodeId* out = neighbors + offsets[v];
    std::copy(adj.begin(), adj.end(), out);
    std::sort(out, out + adj.size());
  }
  if (n > 0) {
    std::memcpy(attrs, g.attributes().data(), h.attributes.bytes);
  }
  return FinishContainer(&file, &h);
}

util::Result<BinaryGraphInfo> ConvertTextToBinary(
    const std::string& text_path, const std::string& bin_path,
    const BinaryGraphOptions& options) {
  if (auto st = CheckPageSize(options); !st.ok()) return st;
  auto resolved = ResolveTextGraphPaths(text_path);
  if (!resolved.ok()) return resolved.status();

  // The text reader places its arrays straight into the output mapping;
  // the zero-filled attribute section is the w = 0 default.
  BinaryGraphHeader h{};
  util::MappedFile file;
  auto st = ReadTextGraph(
      resolved.value(),
      [&](const TextGraphShape& shape) -> util::Result<TextGraphArrays> {
        h = MakeHeader(shape.num_nodes, shape.num_edges,
                       static_cast<uint32_t>(shape.num_attributes),
                       options.page_size);
        auto mapped = CreateContainer(bin_path, h);
        if (!mapped.ok()) return mapped.status();
        file = std::move(mapped).value();
        uint8_t* data = file.mutable_data();
        return TextGraphArrays{
            reinterpret_cast<uint64_t*>(data + h.offsets.offset),
            reinterpret_cast<NodeId*>(data + h.neighbors.offset),
            reinterpret_cast<AttrConfig*>(data + h.attributes.offset)};
      });
  if (!st.ok()) return st;
  st = FinishContainer(&file, &h);
  if (!st.ok()) return st;
  BinaryGraphInfo info = InfoFromHeader(h);
  info.checksums_ok = true;
  return info;
}

util::Result<AttributedCsrGraph> OpenBinarySnapshot(const std::string& path) {
  auto mapped = util::MappedFile::OpenReadOnly(path);
  if (!mapped.ok()) return mapped.status();
  auto file =
      std::make_shared<util::MappedFile>(std::move(mapped).value());
  const uint8_t* data = file->data();
  BinaryGraphHeader h;
  if (auto st = VerifyAndParseHeader(data, file->size(), path, &h,
                                     /*check_crc=*/true);
      !st.ok()) {
    return st;
  }
  if (auto st = VerifyPageChecksums(data, h, path); !st.ok()) return st;
  const uint64_t* offsets =
      reinterpret_cast<const uint64_t*>(data + h.offsets.offset);
  const NodeId* neighbors =
      reinterpret_cast<const NodeId*>(data + h.neighbors.offset);
  const AttrConfig* attrs =
      reinterpret_cast<const AttrConfig*>(data + h.attributes.offset);
  if (auto st = ValidateSemantics(h, offsets, neighbors, attrs, path);
      !st.ok()) {
    return st;
  }
  CsrGraph structure =
      CsrGraph::FromExternal(offsets, neighbors, static_cast<NodeId>(h.num_nodes),
                             h.num_edges, file);
  return AttributedCsrGraph::FromExternal(
      std::move(structure), attrs, static_cast<int>(h.num_attributes), file);
}

util::Result<BinaryGraphInfo> ReadBinaryGraphInfo(const std::string& path) {
  auto mapped = util::MappedFile::OpenReadOnly(path);
  if (!mapped.ok()) return mapped.status();
  const util::MappedFile file = std::move(mapped).value();
  BinaryGraphHeader h;
  if (auto st = VerifyAndParseHeader(file.data(), file.size(), path, &h,
                                     /*check_crc=*/true);
      !st.ok()) {
    return st;
  }
  BinaryGraphInfo info = InfoFromHeader(h);
  const util::Status sweep = VerifyPageChecksums(file.data(), h, path);
  info.checksums_ok = sweep.ok();
  if (!sweep.ok()) info.checksum_error = sweep.ToString();
  return info;
}

util::Status RecomputeBinaryGraphChecksums(const std::string& path) {
  auto mapped = util::MappedFile::OpenReadWrite(path);
  if (!mapped.ok()) return mapped.status();
  util::MappedFile file = std::move(mapped).value();
  BinaryGraphHeader h;
  // Structural checks still apply (the layout must be trustworthy before
  // we write through it), but stale CRCs are exactly what we're fixing.
  if (auto st = VerifyAndParseHeader(file.data(), file.size(), path, &h,
                                     /*check_crc=*/false);
      !st.ok()) {
    return st;
  }
  FinalizeChecksums(file.mutable_data(), &h);
  return file.Sync();
}

AttributedGraph MaterializeSnapshot(const AttributedCsrGraph& snapshot) {
  Graph g(snapshot.num_nodes());
  snapshot.structure.ForEachEdge([&](NodeId u, NodeId v) { g.AddEdge(u, v); });
  AttributedGraph out(std::move(g), snapshot.num_attributes);
  for (NodeId v = 0; v < snapshot.num_nodes(); ++v) {
    out.set_attribute(v, snapshot.attribute(v));
  }
  return out;
}

}  // namespace agmdp::graph
