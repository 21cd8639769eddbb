// Edge-case tests for the text-graph decoder: malformed input files must
// come back as Status errors (never crash the process or silently
// mis-parse). Every input goes through both front doors of the one reader,
// GraphSource::Open and ConvertTextToBinary, which must report the same
// code and message, position included.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/graph/graph_io.h"
#include "tests/text_graph_doors.h"

namespace agmdp::graph {
namespace {

util::Result<AttributedCsrGraph> Read(const std::string& path) {
  return test_support::ReadThroughBothDoors(path);
}

class GraphIoTest : public ::testing::Test {
 protected:
  // Writes `body` to a fresh file under the test temp dir, returns its path.
  std::string WriteFile(const std::string& name, const std::string& body) {
    const std::string path =
        ::testing::TempDir() + "graph_io_test_" + name;
    std::ofstream out(path, std::ios::trunc);
    out << body;
    out.close();
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  std::vector<std::string> paths_;
};

TEST_F(GraphIoTest, MissingFileIsIoError) {
  // An edge file that is gone by the time the reader opens it.
  TextGraphPaths paths;
  paths.edges = "/nonexistent/never/graph.edges";
  auto st = ReadTextGraph(paths, [](const TextGraphShape&)
                                     -> util::Result<TextGraphArrays> {
    return util::Status::Internal("the reader must fail before placing");
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kIoError);
  EXPECT_EQ(st.message(), "cannot open for reading: " + paths.edges);
  // Both front doors resolve the path first and find nothing there.
  auto r = Read(paths.edges);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kNotFound);
}

TEST_F(GraphIoTest, EmptyFileIsError) {
  auto r = Read(WriteFile("empty.edges", ""));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("header"), std::string::npos);
}

TEST_F(GraphIoTest, CommentOnlyFileIsError) {
  auto r = Read(WriteFile("comments.edges", "# nothing\n# here\n"));
  ASSERT_FALSE(r.ok());
}

TEST_F(GraphIoTest, BadHeaderIsError) {
  EXPECT_FALSE(Read(WriteFile("hdr1.edges", "m 5\n0 1\n")).ok());
  EXPECT_FALSE(Read(WriteFile("hdr2.edges", "n five\n")).ok());
}

TEST_F(GraphIoTest, NodeCountOverflowIsError) {
  auto r = Read(WriteFile("huge.edges", "n 99999999999\n"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("overflow"), std::string::npos);
}

TEST_F(GraphIoTest, SelfLoopIsError) {
  auto r = Read(WriteFile("loop.edges", "n 3\n0 1\n2 2\n"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("self-loop"), std::string::npos);
}

TEST_F(GraphIoTest, DuplicateEdgeIsError) {
  for (const char* body : {"n 3\n0 1\n0 1\n", "n 3\n0 1\n1 0\n"}) {
    auto r = Read(WriteFile("dup.edges", body));
    ASSERT_FALSE(r.ok()) << body;
    EXPECT_NE(r.status().message().find("duplicate"), std::string::npos);
  }
}

TEST_F(GraphIoTest, OutOfRangeNodeIdIsError) {
  auto r = Read(WriteFile("range.edges", "n 3\n0 3\n"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos);
}

TEST_F(GraphIoTest, MalformedEdgeLineIsError) {
  EXPECT_FALSE(Read(WriteFile("bad1.edges", "n 3\n0\n")).ok());
  EXPECT_FALSE(Read(WriteFile("bad2.edges", "n 3\nzero one\n")).ok());
}

TEST_F(GraphIoTest, ValidEdgeListRoundTrips) {
  auto r = Read(WriteFile("ok.edges", "# ok\nn 4\n0 1\n1 2\n2 3\n"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_nodes(), 4u);
  EXPECT_EQ(r.value().num_edges(), 3u);
  EXPECT_TRUE(r.value().structure.HasEdge(1, 2));
}

TEST_F(GraphIoTest, EveryParseErrorCarriesTheLineNumber) {
  // Body line errors.
  auto bad_edge = Read(WriteFile("ln1.edges", "n 3\n0 1\nbogus\n"));
  ASSERT_FALSE(bad_edge.ok());
  EXPECT_NE(bad_edge.status().message().find(":3"), std::string::npos)
      << bad_edge.status().ToString();
  // Header errors name their line too (comments still count lines).
  auto bad_header = Read(WriteFile("ln2.edges", "# c\nm 5\n"));
  ASSERT_FALSE(bad_header.ok());
  EXPECT_NE(bad_header.status().message().find(":2"), std::string::npos)
      << bad_header.status().ToString();
  auto overflow = Read(WriteFile("ln3.edges", "n 99999999999\n"));
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find(":1"), std::string::npos)
      << overflow.status().ToString();
}

TEST_F(GraphIoTest, NegativeNumbersAreParseErrorsNotWrapped) {
  // A leading '-' must be a parse failure; stream extraction used to wrap
  // it to a huge unsigned value and report a misleading range error.
  auto r = Read(WriteFile("neg.edges", "n 3\n-1 2\n"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bad edge"), std::string::npos)
      << r.status().ToString();
}

// ------------------------------------------------- attributed graphs --

TEST_F(GraphIoTest, AttributedGraphRejectsMalformedAttributeFiles) {
  const std::string prefix = ::testing::TempDir() + "graph_io_test_attr";
  {
    std::ofstream out(prefix + ".edges", std::ios::trunc);
    out << "n 2\n0 1\n";
  }
  paths_.push_back(prefix + ".edges");
  paths_.push_back(prefix + ".attrs");

  auto write_attrs = [&](const std::string& body) {
    std::ofstream out(prefix + ".attrs", std::ios::trunc);
    out << body;
  };

  write_attrs("");  // empty attribute file
  EXPECT_FALSE(Read(prefix).ok());

  write_attrs("x 2 w 1\n");  // bad header tags
  EXPECT_FALSE(Read(prefix).ok());

  write_attrs("n 3 w 1\n");  // node count mismatch vs .edges
  EXPECT_FALSE(Read(prefix).ok());

  // Out-of-range attribute dimension used to abort the process inside the
  // AttributedGraph constructor; it must be a Status error.
  write_attrs("n 2 w 50\n0 0\n1 0\n");
  {
    auto r = Read(prefix);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("attribute count"),
              std::string::npos);
  }
  write_attrs("n 2 w -1\n");
  EXPECT_FALSE(Read(prefix).ok());

  write_attrs("n 2 w 1\n0 2\n");  // config out of range for w=1
  EXPECT_FALSE(Read(prefix).ok());

  write_attrs("n 2 w 1\n5 0\n");  // node id out of range
  EXPECT_FALSE(Read(prefix).ok());

  write_attrs("n 2 w 1\nzero 0\n");  // malformed attribute line
  EXPECT_FALSE(Read(prefix).ok());

  // Attribute-side errors carry path:line positions as well.
  write_attrs("n 2 w 1\n# comment\n0 2\n");
  {
    auto r = Read(prefix);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find(":3"), std::string::npos)
        << r.status().ToString();
  }
  write_attrs("x 2 w 1\n");
  {
    auto r = Read(prefix);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find(":1"), std::string::npos)
        << r.status().ToString();
  }

  write_attrs("n 2 w 1\n0 1\n1 0\n");  // valid
  auto ok = Read(prefix);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().attribute(0), 1u);
  EXPECT_EQ(ok.value().attribute(1), 0u);
}

TEST_F(GraphIoTest, SeveralFaultsReportInTheReadersOrder) {
  // Edge-file faults, then the attribute header, then a duplicate edge,
  // then the attribute lines, whatever lines they sit on.
  const std::string prefix = ::testing::TempDir() + "graph_io_test_order";
  paths_.push_back(prefix + ".edges");
  paths_.push_back(prefix + ".attrs");
  auto write = [&](const std::string& edges, const std::string& attrs) {
    std::ofstream(prefix + ".edges", std::ios::trunc) << edges;
    std::ofstream(prefix + ".attrs", std::ios::trunc) << attrs;
  };
  auto message = [&] {
    auto r = Read(prefix);
    EXPECT_FALSE(r.ok());
    return r.ok() ? std::string() : r.status().message();
  };
  const std::string edges = prefix + ".edges:";
  const std::string attrs = prefix + ".attrs:";
  write("n 4\n0 1\n1 0\n2 3\n3 3\n", "n 4 w 1\n");
  EXPECT_EQ(message(), "self-loop at " + edges + "5");
  write("n 4\n0 1\n1 0\n", "x 4 w 1\n0 5\n");
  EXPECT_EQ(message(), "bad attribute header at " + attrs + "1");
  write("n 4\n0 1\n2 3\n1 0\n", "n 4 w 1\n0 5\n");
  EXPECT_EQ(message(), "duplicate edge at " + edges + "4");
  write("n 4\n0 1\n2 3\n", "n 4 w 1\n0 5\n");
  EXPECT_EQ(message(), "attribute config out of range at " + attrs + "2");
}

TEST_F(GraphIoTest, WriteReadRoundTripStaysCanonical) {
  AttributedGraph g(4, 2);
  g.structure().AddEdge(2, 0);
  g.structure().AddEdge(1, 3);
  g.set_attribute(0, 3);
  g.set_attribute(2, 1);
  const std::string prefix = ::testing::TempDir() + "graph_io_test_rt";
  paths_.push_back(prefix + ".edges");
  paths_.push_back(prefix + ".attrs");
  ASSERT_TRUE(WriteAttributedGraph(g, prefix).ok());
  auto back = Read(prefix);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  test_support::ExpectSnapshotsEqual(AttributedCsrGraph::FromGraph(g),
                                     back.value());
}

}  // namespace
}  // namespace agmdp::graph
