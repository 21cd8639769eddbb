// Binary graph container: round-trip fidelity, byte-identical writer
// paths, typed corruption errors (never a crash), and bitwise equality of
// the full fused evaluation suite between the mmap-backed and in-RAM
// snapshots at several thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/datasets/datasets.h"
#include "src/eval/utility_report.h"
#include "src/graph/csr.h"
#include "src/graph/graph_container.h"
#include "src/graph/graph_io.h"
#include "src/graph/graph_source.h"
#include "src/util/rng.h"
#include "tests/test_support.h"
#include "tests/text_graph_doors.h"

namespace agmdp::graph {
namespace {

AttributedGraph TestGraph() {
  auto g = datasets::GenerateDataset(datasets::DatasetId::kLastFm,
                                     /*scale=*/0.05, /*seed=*/7);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

// Small page size keeps test files tiny while still exercising multiple
// pages and the alignment logic.
BinaryGraphOptions SmallPages() {
  BinaryGraphOptions options;
  options.page_size = 4096;
  return options;
}

class GraphContainerTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    const std::string path =
        ::testing::TempDir() + "graph_container_test_" + name;
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  // Flips one bit at `offset` in an existing file.
  void FlipByte(const std::string& path, uint64_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  }

  std::vector<uint8_t> ReadAll(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << path;
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(f), {});
  }

  std::vector<std::string> paths_;
};

using test_support::ExpectSnapshotsEqual;

// Rewrites a text file the way hand-edited input looks: comment and blank
// lines between the data lines, and CRLF endings on some of them.
void Decorate(const std::string& path, util::Rng& rng) {
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) {
    switch (rng.UniformIndex(6)) {
      case 0: out << "# comment " << line << "\n"; break;
      case 1: out << "\n"; break;
      case 2: out << " \t\r\n"; break;
      default: break;
    }
    out << line << (rng.UniformIndex(2) == 0 ? "\r\n" : "\n");
  }
}

TEST_F(GraphContainerTest, RoundTripMatchesInRamSnapshot) {
  const AttributedGraph g = TestGraph();
  const std::string path = TempPath("roundtrip.agmbin");
  ASSERT_TRUE(WriteBinaryGraph(g, path, SmallPages()).ok());

  auto opened = OpenBinarySnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened.value().structure.is_external());
  ExpectSnapshotsEqual(AttributedCsrGraph::FromGraph(g), opened.value());
}

TEST_F(GraphContainerTest, SnapshotCopiesShareTheMapping) {
  const AttributedGraph g = TestGraph();
  const std::string path = TempPath("copies.agmbin");
  ASSERT_TRUE(WriteBinaryGraph(g, path, SmallPages()).ok());
  AttributedCsrGraph copy;
  {
    auto opened = OpenBinarySnapshot(path);
    ASSERT_TRUE(opened.ok());
    copy = opened.value();  // copy of an external snapshot
  }
  // The original Result (and its snapshot) is gone; the copy must keep
  // the mapping alive on its own.
  ExpectSnapshotsEqual(AttributedCsrGraph::FromGraph(g), copy);
}

TEST_F(GraphContainerTest, ConverterProducesSameBytesAsMemoryWriter) {
  const AttributedGraph g = TestGraph();
  const std::string prefix = TempPath("textpair");
  paths_.push_back(prefix + ".edges");
  paths_.push_back(prefix + ".attrs");
  ASSERT_TRUE(WriteAttributedGraph(g, prefix).ok());

  const std::string from_ram = TempPath("from_ram.agmbin");
  const std::string from_text = TempPath("from_text.agmbin");
  ASSERT_TRUE(WriteBinaryGraph(g, from_ram, SmallPages()).ok());
  auto info = ConvertTextToBinary(prefix, from_text, SmallPages());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().num_nodes, g.num_nodes());
  EXPECT_EQ(info.value().num_edges, g.num_edges());
  EXPECT_TRUE(info.value().checksums_ok);

  EXPECT_EQ(ReadAll(from_ram), ReadAll(from_text))
      << "streaming converter and in-RAM writer must emit identical files";

  // One reader, two front doors: on random graphs (isolated nodes, w = 0
  // with and without an attribute file, comments, blank lines, CRLF), the
  // text snapshot is array-equal to FromGraph and the conversion is
  // byte-equal to the in-RAM writer.
  struct Case {
    NodeId n;
    double p;
    int w;
    bool attrs_file;
  };
  util::Rng rng(20260);
  for (const Case& c : {Case{0, 0.0, 0, true}, Case{1, 0.0, 0, false},
                        Case{40, 0.04, 3, true}, Case{300, 0.02, 20, true},
                        Case{60, 0.1, 0, false}, Case{60, 0.1, 0, true}}) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " w=" + std::to_string(c.w) +
                 (c.attrs_file ? " with" : " without") + " .attrs");
    AttributedGraph random(test_support::ErdosRenyiGnp(c.n, c.p, rng), c.w);
    for (NodeId v = 0; v < c.n; ++v) {
      random.set_attribute(v, static_cast<AttrConfig>(rng.UniformIndex(
                                  NumNodeConfigs(c.w))));
    }
    ASSERT_TRUE(WriteAttributedGraph(random, prefix).ok());
    Decorate(prefix + ".edges", rng);
    Decorate(prefix + ".attrs", rng);
    if (!c.attrs_file) std::remove((prefix + ".attrs").c_str());

    auto source = GraphSource::Open(prefix);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    EXPECT_FALSE(source.value().snapshot().structure.is_external());
    ExpectSnapshotsEqual(AttributedCsrGraph::FromGraph(random),
                         source.value().snapshot());

    ASSERT_TRUE(WriteBinaryGraph(random, from_ram, SmallPages()).ok());
    auto converted = ConvertTextToBinary(prefix, from_text, SmallPages());
    ASSERT_TRUE(converted.ok()) << converted.status().ToString();
    EXPECT_EQ(ReadAll(from_ram), ReadAll(from_text));
  }
}

TEST_F(GraphContainerTest, MmapEvalBitwiseIdenticalToInRamAcrossThreads) {
  const AttributedGraph original = TestGraph();
  auto released_r = datasets::GenerateDataset(datasets::DatasetId::kLastFm,
                                              /*scale=*/0.05, /*seed=*/11);
  ASSERT_TRUE(released_r.ok());
  const AttributedGraph released = std::move(released_r).value();

  const std::string orig_path = TempPath("orig.agmbin");
  const std::string rel_path = TempPath("rel.agmbin");
  ASSERT_TRUE(WriteBinaryGraph(original, orig_path, SmallPages()).ok());
  ASSERT_TRUE(WriteBinaryGraph(released, rel_path, SmallPages()).ok());
  auto orig_mmap = OpenBinarySnapshot(orig_path);
  auto rel_mmap = OpenBinarySnapshot(rel_path);
  ASSERT_TRUE(orig_mmap.ok() && rel_mmap.ok());

  const AttributedCsrGraph orig_ram = AttributedCsrGraph::FromGraph(original);
  const AttributedCsrGraph rel_ram = AttributedCsrGraph::FromGraph(released);

  for (int threads : {1, 2, 4}) {
    const auto ram = eval::EvaluateRelease(
        eval::ProfileReference(orig_ram, threads), rel_ram, threads);
    const auto mmap = eval::EvaluateRelease(
        eval::ProfileReference(orig_mmap.value(), threads), rel_mmap.value(),
        threads);
    const auto ram_flat = ram.Flatten();
    const auto mmap_flat = mmap.Flatten();
    ASSERT_EQ(ram_flat.size(), mmap_flat.size());
    for (size_t i = 0; i < ram_flat.size(); ++i) {
      EXPECT_EQ(ram_flat[i].first, mmap_flat[i].first);
      // Exact (bitwise) equality, not approximate: the mmap snapshot
      // feeds the very same kernels the in-RAM arrays do.
      EXPECT_EQ(ram_flat[i].second, mmap_flat[i].second)
          << ram_flat[i].first << " at " << threads << " threads";
    }
  }
}

// ------------------------------------------------ corruption handling --

TEST_F(GraphContainerTest, TruncatedFileIsCorruption) {
  const AttributedGraph g = TestGraph();
  const std::string path = TempPath("trunc.agmbin");
  ASSERT_TRUE(WriteBinaryGraph(g, path, SmallPages()).ok());
  const uint64_t full = ReadAll(path).size();
  for (const uint64_t keep : {full - 1, full / 2, uint64_t{100}, uint64_t{0}}) {
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(keep)), 0);
    auto r = OpenBinarySnapshot(path);
    ASSERT_FALSE(r.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(r.status().code(), util::StatusCode::kCorruption)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find("truncated"), std::string::npos);
  }
}

TEST_F(GraphContainerTest, FlippedDataByteIsChecksumMismatch) {
  const AttributedGraph g = TestGraph();
  const std::string path = TempPath("flip.agmbin");
  ASSERT_TRUE(WriteBinaryGraph(g, path, SmallPages()).ok());
  // Offset 4096 + 16: inside the first data page (the offsets array).
  FlipByte(path, 4096 + 16);
  auto r = OpenBinarySnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kChecksumMismatch)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("page"), std::string::npos);

  // `info` still reads the header but reports the failed sweep.
  auto info = ReadBinaryGraphInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info.value().checksums_ok);
  EXPECT_FALSE(info.value().checksum_error.empty());
  EXPECT_EQ(info.value().num_nodes, g.num_nodes());
}

TEST_F(GraphContainerTest, WrongVersionIsVersionMismatch) {
  const AttributedGraph g = TestGraph();
  const std::string path = TempPath("version.agmbin");
  ASSERT_TRUE(WriteBinaryGraph(g, path, SmallPages()).ok());
  // Version field lives at byte 8. The header checksum is now stale too,
  // but the version check must win (deliberate ordering).
  FlipByte(path, 8);
  auto r = OpenBinarySnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kVersionMismatch)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

TEST_F(GraphContainerTest, WrongMagicIsCorruption) {
  const AttributedGraph g = TestGraph();
  const std::string path = TempPath("magic.agmbin");
  ASSERT_TRUE(WriteBinaryGraph(g, path, SmallPages()).ok());
  FlipByte(path, 0);
  auto r = OpenBinarySnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kCorruption)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
  EXPECT_FALSE(IsBinaryGraphFile(path));
}

TEST_F(GraphContainerTest, TamperedHeaderIsChecksumMismatch) {
  const AttributedGraph g = TestGraph();
  const std::string path = TempPath("header.agmbin");
  ASSERT_TRUE(WriteBinaryGraph(g, path, SmallPages()).ok());
  FlipByte(path, 24);  // num_nodes field
  auto r = OpenBinarySnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kChecksumMismatch)
      << r.status().ToString();
}

TEST_F(GraphContainerTest, SemanticTamperSurvivingRechecksumIsCorruption) {
  const AttributedGraph g = TestGraph();
  ASSERT_GT(g.num_edges(), 0u);
  const std::string path = TempPath("tamper.agmbin");
  ASSERT_TRUE(WriteBinaryGraph(g, path, SmallPages()).ok());

  // Plant a self-loop: the first node with nonzero degree gets itself as
  // its first neighbor. The neighbors section starts at the first page
  // boundary after the offsets array.
  const CsrGraph csr = CsrGraph::FromGraph(g.structure());
  NodeId victim = 0;
  while (csr.Degree(victim) == 0) ++victim;
  const uint64_t offsets_bytes = (uint64_t{csr.num_nodes()} + 1) * 8;
  const uint64_t neighbors_off = (4096 + offsets_bytes + 4095) / 4096 * 4096;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    // First neighbor slot of `victim` (its range starts at offsets[v]).
    const uint64_t slot = neighbors_off;  // victim is the first nonzero range
    const uint32_t self = victim;
    f.seekp(static_cast<std::streamoff>(slot));
    f.write(reinterpret_cast<const char*>(&self), sizeof(self));
  }
  // With stale checksums this reads as bit rot...
  auto stale = OpenBinarySnapshot(path);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), util::StatusCode::kChecksumMismatch);
  // ...after repair the CRCs are consistent, so only the semantic
  // validation pass stands between the kernels and a bogus graph.
  ASSERT_TRUE(RecomputeBinaryGraphChecksums(path).ok());
  auto validated = OpenBinarySnapshot(path);
  ASSERT_FALSE(validated.ok());
  EXPECT_EQ(validated.status().code(), util::StatusCode::kCorruption)
      << validated.status().ToString();
}

// -------------------------------------------------- converter errors --

TEST_F(GraphContainerTest, ConverterReportsDuplicateEdgeWithLineNumber) {
  const std::string prefix = TempPath("dup");
  paths_.push_back(prefix + ".edges");
  {
    std::ofstream out(prefix + ".edges");
    out << "n 4\n0 1\n2 3\n1 0\n";  // line 4 repeats {0,1}
  }
  auto r = ConvertTextToBinary(prefix, TempPath("dup.agmbin"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("duplicate edge"), std::string::npos);
  EXPECT_NE(r.status().message().find(":4"), std::string::npos)
      << r.status().ToString();
}

TEST_F(GraphContainerTest, ConverterReportsSelfLoopWithLineNumber) {
  const std::string prefix = TempPath("loop");
  paths_.push_back(prefix + ".edges");
  {
    std::ofstream out(prefix + ".edges");
    out << "n 3\n0 1\n2 2\n";
  }
  auto r = ConvertTextToBinary(prefix, TempPath("loop.agmbin"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("self-loop"), std::string::npos);
  EXPECT_NE(r.status().message().find(":3"), std::string::npos)
      << r.status().ToString();
}

TEST_F(GraphContainerTest, ConverterMissingInputIsNotFound) {
  auto r = ConvertTextToBinary(::testing::TempDir() + "nonexistent_prefix",
                               TempPath("missing.agmbin"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kNotFound);
}

TEST_F(GraphContainerTest, ConverterWithoutAttrsFileYieldsZeroWidth) {
  const std::string prefix = TempPath("noattrs");
  paths_.push_back(prefix + ".edges");
  {
    std::ofstream out(prefix + ".edges");
    out << "n 3\n0 1\n1 2\n";
  }
  const std::string bin = TempPath("noattrs.agmbin");
  auto info = ConvertTextToBinary(prefix, bin);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().num_attributes, 0u);
  auto opened = OpenBinarySnapshot(bin);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().num_attributes, 0);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(opened.value().attribute(v), 0u);
}

TEST_F(GraphContainerTest, EmptyGraphRoundTrips) {
  const AttributedGraph g(NodeId{0}, 0);
  const std::string path = TempPath("empty.agmbin");
  ASSERT_TRUE(WriteBinaryGraph(g, path, SmallPages()).ok());
  auto opened = OpenBinarySnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().num_nodes(), 0u);
  EXPECT_EQ(opened.value().num_edges(), 0u);
}

TEST_F(GraphContainerTest, MaterializeSnapshotInvertsWrite) {
  const AttributedGraph g = TestGraph();
  const std::string path = TempPath("materialize.agmbin");
  ASSERT_TRUE(WriteBinaryGraph(g, path, SmallPages()).ok());
  auto opened = OpenBinarySnapshot(path);
  ASSERT_TRUE(opened.ok());
  const AttributedGraph back = MaterializeSnapshot(opened.value());
  EXPECT_EQ(back.attributes(), g.attributes());
  EXPECT_EQ(back.structure().CanonicalEdges(), g.structure().CanonicalEdges());
}

}  // namespace
}  // namespace agmdp::graph
