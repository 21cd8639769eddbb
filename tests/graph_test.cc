#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <set>
#include <string>

#include "src/graph/attribute_encoding.h"
#include "src/graph/attributed_graph.h"
#include "src/graph/graph.h"
#include "src/graph/graph_io.h"
#include "src/graph/graph_source.h"
#include "tests/text_graph_doors.h"

namespace agmdp::graph {
namespace {

// ------------------------------------------------------------------ Graph --

TEST(GraphTest, StartsEmpty) {
  Graph g(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.Degree(v), 0u);
}

TEST(GraphTest, AddEdgeIsUndirected) {
  Graph g(4);
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.Degree(2), 1u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphTest, RejectsSelfLoopsDuplicatesAndOutOfRange) {
  Graph g(3);
  EXPECT_FALSE(g.AddEdge(1, 1));
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(1, 0));  // duplicate, reversed
  EXPECT_FALSE(g.AddEdge(0, 3));  // out of range
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphTest, RemoveEdge) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.RemoveEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.RemoveEdge(0, 1));  // already gone
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(GraphTest, CommonNeighborCountsTrianglesAtEdge) {
  // 0-1 share neighbors 2 and 3; node 4 dangles.
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(0, 3);
  g.AddEdge(1, 3);
  g.AddEdge(0, 4);
  EXPECT_EQ(g.CommonNeighborCount(0, 1), 2u);
  EXPECT_EQ(g.CommonNeighborCount(2, 3), 2u);  // non-adjacent pair
  EXPECT_EQ(g.CommonNeighborCount(4, 1), 1u);  // via node 0
}

TEST(GraphTest, CanonicalEdgesSortedAndComplete) {
  Graph g(5);
  g.AddEdge(3, 1);
  g.AddEdge(4, 0);
  g.AddEdge(2, 1);
  std::vector<Edge> edges = g.CanonicalEdges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_TRUE(edges[0] == Edge(0, 4));
  EXPECT_TRUE(edges[1] == Edge(1, 2));
  EXPECT_TRUE(edges[2] == Edge(1, 3));
}

TEST(GraphTest, CanonicalEdgesMatchGlobalSortAfterChurn) {
  // Swap-pop removal leaves adjacency lists unordered; the per-node sort in
  // CanonicalEdges must still reproduce a global lexicographic sort.
  std::mt19937 gen(12345);
  std::uniform_int_distribution<NodeId> node(0, 39);
  Graph g(40);
  for (int step = 0; step < 4000; ++step) {
    const NodeId u = node(gen);
    const NodeId v = node(gen);
    if (step % 3 == 2) {
      g.RemoveEdge(u, v);
    } else {
      g.AddEdge(u, v);
    }
    if (step % 500 != 499) continue;
    std::vector<Edge> expected;
    g.ForEachEdge([&expected](NodeId a, NodeId b) {
      expected.emplace_back(a, b);
    });
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(g.CanonicalEdges(), expected) << "after step " << step;
  }
  EXPECT_GT(g.num_edges(), 0u);
}

TEST(GraphTest, MaxDegree) {
  Graph g(5);
  EXPECT_EQ(g.MaxDegree(), 0u);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  EXPECT_EQ(g.MaxDegree(), 3u);
}

TEST(GraphTest, ClearEdgesKeepsNodes) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  g.ClearEdges();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.AddEdge(0, 1));  // usable after clear
}

TEST(GraphTest, ForEachEdgeVisitsEachOnce) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(4, 5);
  std::set<std::pair<NodeId, NodeId>> seen;
  g.ForEachEdge([&](NodeId u, NodeId v) {
    EXPECT_LT(u, v);
    EXPECT_TRUE(seen.emplace(u, v).second) << "duplicate visit";
  });
  EXPECT_EQ(seen.size(), 3u);
}

TEST(GraphTest, PackEdgeSymmetric) {
  EXPECT_EQ(PackEdge(3, 9), PackEdge(9, 3));
  EXPECT_NE(PackEdge(3, 9), PackEdge(3, 8));
}

// ------------------------------------------------------ AttributeEncoding --

TEST(AttributeEncodingTest, ConfigCounts) {
  EXPECT_EQ(NumNodeConfigs(0), 1u);
  EXPECT_EQ(NumNodeConfigs(1), 2u);
  EXPECT_EQ(NumNodeConfigs(2), 4u);
  EXPECT_EQ(NumEdgeConfigs(1), 3u);   // C(3,2)
  EXPECT_EQ(NumEdgeConfigs(2), 10u);  // C(5,2) — the paper's w=2 case
  EXPECT_EQ(NumEdgeConfigs(3), 36u);
}

TEST(AttributeEncodingTest, EncodeIsSymmetric) {
  for (int w = 1; w <= 3; ++w) {
    const uint32_t k = NumNodeConfigs(w);
    for (AttrConfig a = 0; a < k; ++a) {
      for (AttrConfig b = 0; b < k; ++b) {
        EXPECT_EQ(EncodeEdgeConfig(a, b, w), EncodeEdgeConfig(b, a, w));
      }
    }
  }
}

TEST(AttributeEncodingTest, EncodeIsBijectiveOnUnorderedPairs) {
  for (int w = 1; w <= 4; ++w) {
    const uint32_t k = NumNodeConfigs(w);
    std::set<uint32_t> indices;
    for (AttrConfig a = 0; a < k; ++a) {
      for (AttrConfig b = a; b < k; ++b) {
        uint32_t y = EncodeEdgeConfig(a, b, w);
        EXPECT_LT(y, NumEdgeConfigs(w));
        EXPECT_TRUE(indices.insert(y).second) << "collision at w=" << w;
      }
    }
    EXPECT_EQ(indices.size(), NumEdgeConfigs(w));
  }
}

TEST(AttributeEncodingTest, DecodeInvertsEncode) {
  for (int w = 1; w <= 3; ++w) {
    const uint32_t k = NumNodeConfigs(w);
    for (AttrConfig a = 0; a < k; ++a) {
      for (AttrConfig b = a; b < k; ++b) {
        auto [da, db] = DecodeEdgeConfig(EncodeEdgeConfig(a, b, w), w);
        EXPECT_EQ(da, a);
        EXPECT_EQ(db, b);
      }
    }
  }
}

// ------------------------------------------------------- AttributedGraph --

TEST(AttributedGraphTest, AttributesDefaultZero) {
  AttributedGraph g(4, 2);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(g.attribute(v), 0u);
  EXPECT_EQ(g.num_attributes(), 2);
}

TEST(AttributedGraphTest, SetAttributeAndBulkSet) {
  AttributedGraph g(3, 2);
  g.set_attribute(1, 3);
  EXPECT_EQ(g.attribute(1), 3u);
  EXPECT_TRUE(g.SetAttributes({0, 1, 2}).ok());
  EXPECT_EQ(g.attribute(2), 2u);
}

TEST(AttributedGraphTest, SetAttributesValidates) {
  AttributedGraph g(3, 1);
  EXPECT_FALSE(g.SetAttributes({0, 1}).ok());        // wrong size
  EXPECT_FALSE(g.SetAttributes({0, 1, 2}).ok());     // 2 out of range for w=1
  EXPECT_TRUE(g.SetAttributes({0, 1, 1}).ok());
}

TEST(AttributedGraphTest, WrapsExistingStructure) {
  Graph structure(3);
  structure.AddEdge(0, 1);
  AttributedGraph g(std::move(structure), 2);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.structure().HasEdge(0, 1));
}

// ---------------------------------------------------------------- GraphIo --

class GraphIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  // A bare edge-list file through both front doors of the text reader
  // (zero attributes).
  static util::Result<AttributedCsrGraph> ReadEdges(const std::string& path) {
    return test_support::ReadThroughBothDoors(path);
  }
};

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(2, 5);
  g.AddEdge(3, 4);
  const std::string path = TempPath("roundtrip.edges");
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  auto back = ReadEdges(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().num_nodes(), 6u);
  EXPECT_EQ(back.value().num_edges(), 3u);
  EXPECT_EQ(back.value().num_attributes, 0);
  EXPECT_TRUE(back.value().structure.HasEdge(2, 5));
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, ReadRejectsMissingFile) {
  EXPECT_FALSE(ReadEdges("/nonexistent/path.edges").ok());
}

TEST_F(GraphIoTest, ReadRejectsMalformedEdges) {
  const std::string path = TempPath("bad.edges");
  FILE* f = fopen(path.c_str(), "w");
  fputs("n 3\n0 7\n", f);  // node 7 out of range
  fclose(f);
  EXPECT_FALSE(ReadEdges(path).ok());
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, AttributedRoundTrip) {
  AttributedGraph g(4, 2);
  g.structure().AddEdge(0, 1);
  g.structure().AddEdge(1, 2);
  ASSERT_TRUE(g.SetAttributes({3, 0, 1, 2}).ok());
  const std::string prefix = TempPath("attr_roundtrip");
  ASSERT_TRUE(WriteAttributedGraph(g, prefix).ok());
  auto source = GraphSource::Open(prefix);
  ASSERT_TRUE(source.ok());
  const AttributedGraph back = source.value().Materialize();
  EXPECT_EQ(back.num_attributes(), 2);
  EXPECT_EQ(back.attribute(0), 3u);
  EXPECT_EQ(back.attribute(3), 2u);
  EXPECT_TRUE(back.structure().HasEdge(1, 2));
  std::remove((prefix + ".edges").c_str());
  std::remove((prefix + ".attrs").c_str());
}

}  // namespace
}  // namespace agmdp::graph
