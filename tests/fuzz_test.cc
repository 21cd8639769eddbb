// Randomized differential tests: every fast graph algorithm is checked
// against a brute-force reference on random graphs across seeds and
// densities (the CSR analytics kernels on snapshots of those graphs), and
// the dynamic Graph structure is fuzzed against a simple edge-set model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/graph/attributed_graph.h"
#include "src/graph/clustering.h"
#include "src/graph/components.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/paths.h"
#include "src/graph/subgraph_counts.h"
#include "src/graph/triangle_count.h"
#include "src/models/erdos_renyi.h"
#include "src/stats/assortativity.h"
#include "src/util/rng.h"

namespace agmdp::graph {
namespace {

// -------------------------------------------------- Graph structure fuzz --

TEST(GraphFuzzTest, MatchesSetModelUnderRandomMutations) {
  util::Rng rng(1);
  const NodeId n = 25;
  Graph g(n);
  std::set<std::pair<NodeId, NodeId>> model;

  for (int step = 0; step < 20000; ++step) {
    auto u = static_cast<NodeId>(rng.UniformIndex(n));
    auto v = static_cast<NodeId>(rng.UniformIndex(n));
    auto key = std::minmax(u, v);
    if (rng.Bernoulli(0.6)) {
      const bool added = g.AddEdge(u, v);
      const bool model_added = u != v && model.insert(key).second;
      ASSERT_EQ(added, model_added) << "step " << step;
    } else {
      const bool removed = g.RemoveEdge(u, v);
      const bool model_removed = model.erase(key) > 0;
      ASSERT_EQ(removed, model_removed) << "step " << step;
    }
  }

  // Final state must agree exactly.
  ASSERT_EQ(g.num_edges(), model.size());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      ASSERT_EQ(g.HasEdge(u, v), model.count({u, v}) > 0);
    }
  }
  std::vector<Edge> edges = g.CanonicalEdges();
  ASSERT_EQ(edges.size(), model.size());
  auto it = model.begin();
  for (const Edge& e : edges) {
    ASSERT_EQ(e.u, it->first);
    ASSERT_EQ(e.v, it->second);
    ++it;
  }
}

TEST(GraphFuzzTest, DegreesConsistentWithAdjacency) {
  util::Rng rng(2);
  Graph g = models::ErdosRenyiGnp(60, 0.15, rng);
  for (int step = 0; step < 3000; ++step) {
    auto u = static_cast<NodeId>(rng.UniformIndex(60));
    auto v = static_cast<NodeId>(rng.UniformIndex(60));
    if (rng.Bernoulli(0.5)) {
      g.AddEdge(u, v);
    } else {
      g.RemoveEdge(u, v);
    }
  }
  uint64_t degree_sum = 0;
  for (NodeId v = 0; v < 60; ++v) {
    EXPECT_EQ(g.Degree(v), g.Neighbors(v).size());
    for (NodeId w : g.Neighbors(v)) EXPECT_TRUE(g.HasEdge(v, w));
    degree_sum += g.Degree(v);
  }
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

// ------------------------------------------- Differential algorithm tests --

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Graph RandomGraph(util::Rng& rng) {
    const NodeId n = 20 + rng.UniformIndex(25);
    const double p = 0.02 + rng.UniformDouble() * 0.4;
    return models::ErdosRenyiGnp(static_cast<NodeId>(n), p, rng);
  }

  AttributedGraph RandomAttributed(util::Rng& rng, int w) {
    AttributedGraph g(RandomGraph(rng), w);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      g.set_attribute(v, static_cast<AttrConfig>(rng.UniformIndex(1u << w)));
    }
    return g;
  }
};

TEST_P(DifferentialTest, TriangleCountMatchesBrute) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = RandomGraph(rng);
    EXPECT_EQ(CountTriangles(g), CountTrianglesBrute(g));
  }
}

TEST_P(DifferentialTest, CommonNeighborsMatchBrute) {
  util::Rng rng(GetParam() + 1000);
  Graph g = RandomGraph(rng);
  const NodeId n = g.num_nodes();
  for (int trial = 0; trial < 200; ++trial) {
    auto u = static_cast<NodeId>(rng.UniformIndex(n));
    auto v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u == v) continue;
    uint32_t brute = 0;
    for (NodeId w = 0; w < n; ++w) {
      brute += w != u && w != v && g.HasEdge(u, w) && g.HasEdge(v, w);
    }
    EXPECT_EQ(g.CommonNeighborCount(u, v), brute);
  }
}

TEST_P(DifferentialTest, LocalClusteringMatchesDefinition) {
  util::Rng rng(GetParam() + 2000);
  Graph g = RandomGraph(rng);
  std::vector<double> fast = LocalClusteringCoefficients(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& nbrs = g.Neighbors(v);
    const uint64_t d = nbrs.size();
    double expected = 0.0;
    if (d >= 2) {
      uint64_t links = 0;
      for (size_t i = 0; i < nbrs.size(); ++i) {
        for (size_t j = i + 1; j < nbrs.size(); ++j) {
          links += g.HasEdge(nbrs[i], nbrs[j]);
        }
      }
      expected = 2.0 * static_cast<double>(links) /
                 (static_cast<double>(d) * static_cast<double>(d - 1));
    }
    EXPECT_NEAR(fast[v], expected, 1e-12);
  }
}

TEST_P(DifferentialTest, MaxCommonNeighborMatchesBrute) {
  util::Rng rng(GetParam() + 3000);
  Graph g = RandomGraph(rng);
  uint32_t brute = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      brute = std::max(brute, g.CommonNeighborCount(u, v));
    }
  }
  auto fast = MaxCommonNeighborCount(g, 1u << 30);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast.value(), brute);
}

TEST_P(DifferentialTest, ComponentsMatchUnionFind) {
  util::Rng rng(GetParam() + 4000);
  Graph g = RandomGraph(rng);
  const NodeId n = g.num_nodes();
  // Reference: union-find.
  std::vector<NodeId> parent(n);
  for (NodeId v = 0; v < n; ++v) parent[v] = v;
  std::function<NodeId(NodeId)> find = [&](NodeId x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  g.ForEachEdge([&](NodeId u, NodeId v) { parent[find(u)] = find(v); });

  uint32_t count = 0;
  std::vector<uint32_t> label = ConnectedComponents(g, &count);
  std::set<NodeId> roots;
  for (NodeId v = 0; v < n; ++v) roots.insert(find(v));
  EXPECT_EQ(count, roots.size());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      EXPECT_EQ(label[u] == label[v], find(u) == find(v));
    }
  }
}

TEST_P(DifferentialTest, BfsMatchesFloydWarshallOnSmallGraphs) {
  util::Rng rng(GetParam() + 5000);
  const NodeId n = 18;
  Graph g = models::ErdosRenyiGnp(n, 0.15, rng);
  constexpr uint32_t kInf = 1u << 30;
  std::vector<std::vector<uint32_t>> dist(n, std::vector<uint32_t>(n, kInf));
  for (NodeId v = 0; v < n; ++v) dist[v][v] = 0;
  g.ForEachEdge([&](NodeId u, NodeId v) { dist[u][v] = dist[v][u] = 1; });
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }
  for (NodeId s = 0; s < n; ++s) {
    std::vector<uint32_t> bfs = BfsDistances(CsrGraph::FromGraph(g), s);
    for (NodeId t = 0; t < n; ++t) {
      if (dist[s][t] >= kInf) {
        EXPECT_EQ(bfs[t], std::numeric_limits<uint32_t>::max());
      } else {
        EXPECT_EQ(bfs[t], dist[s][t]);
      }
    }
  }
}

TEST_P(DifferentialTest, KStarsMatchDirectBinomialSum) {
  util::Rng rng(GetParam() + 6000);
  Graph g = RandomGraph(rng);
  for (uint32_t k = 1; k <= 4; ++k) {
    uint64_t direct = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      direct += BinomialOrSaturate(g.Degree(v), k);
    }
    EXPECT_EQ(CountKStars(g, k), direct);
  }
}

TEST_P(DifferentialTest, DegreeAssortativityMatchesPearsonDefinition) {
  util::Rng rng(GetParam() + 7000);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = RandomGraph(rng);
    // Two-pass Pearson correlation of the endpoint degrees over both
    // orientations of every edge (so both marginals share one mean).
    std::vector<std::pair<double, double>> pairs;
    g.ForEachEdge([&](NodeId u, NodeId v) {
      pairs.emplace_back(g.Degree(u), g.Degree(v));
      pairs.emplace_back(g.Degree(v), g.Degree(u));
    });
    double mean = 0.0;
    for (const auto& [x, y] : pairs) mean += x / pairs.size();
    double cov = 0.0, var = 0.0;
    for (const auto& [x, y] : pairs) {
      cov += (x - mean) * (y - mean);
      var += (x - mean) * (x - mean);
    }
    const double expected = var > 0.0 ? cov / var : 0.0;
    const CsrGraph csr = CsrGraph::FromGraph(g);
    for (int threads : {1, 4}) {
      EXPECT_NEAR(stats::DegreeAssortativity(csr, threads), expected, 1e-9);
    }
  }
}

TEST_P(DifferentialTest, AttributeAssortativityMatchesMixingDefinition) {
  util::Rng rng(GetParam() + 8000);
  for (int w : {1, 2, 3}) {
    const AttributedGraph g = RandomAttributed(rng, w);
    // The documented coefficient over the normalized mixing matrix e of
    // ordered edge endpoints: (tr(e) - sum of e_ab^2) / (1 - sum of e_ab^2).
    const uint32_t k = NumNodeConfigs(w);
    std::vector<double> e(static_cast<size_t>(k) * k, 0.0);
    const double total = 2.0 * static_cast<double>(g.num_edges());
    g.structure().ForEachEdge([&](NodeId u, NodeId v) {
      e[g.attribute(u) * k + g.attribute(v)] += 1.0 / total;
      e[g.attribute(v) * k + g.attribute(u)] += 1.0 / total;
    });
    double trace = 0.0, squared = 0.0;
    for (uint32_t a = 0; a < k; ++a) {
      trace += e[a * k + a];
      for (uint32_t b = 0; b < k; ++b) squared += e[a * k + b] * e[a * k + b];
    }
    const double expected = g.num_edges() == 0 || 1.0 - squared <= 1e-12
                                ? 0.0
                                : (trace - squared) / (1.0 - squared);
    const AttributedCsrGraph snapshot = AttributedCsrGraph::FromGraph(g);
    for (int threads : {1, 4}) {
      EXPECT_NEAR(stats::AttributeAssortativity(snapshot, threads), expected,
                  1e-9);
    }
  }
}

TEST_P(DifferentialTest, PerAttributeHomophilyMatchesEdgeFractions) {
  util::Rng rng(GetParam() + 9000);
  for (int w : {1, 3}) {
    const AttributedGraph g = RandomAttributed(rng, w);
    std::vector<double> expected(static_cast<size_t>(w), 0.0);
    for (const Edge& edge : g.structure().CanonicalEdges()) {
      for (int a = 0; a < w; ++a) {
        const bool same = ((g.attribute(edge.u) >> a) & 1u) ==
                          ((g.attribute(edge.v) >> a) & 1u);
        if (same) expected[a] += 1.0 / static_cast<double>(g.num_edges());
      }
    }
    const AttributedCsrGraph snapshot = AttributedCsrGraph::FromGraph(g);
    for (int threads : {1, 4}) {
      const std::vector<double> fast =
          stats::PerAttributeHomophily(snapshot, threads);
      ASSERT_EQ(fast.size(), expected.size());
      for (int a = 0; a < w; ++a) EXPECT_NEAR(fast[a], expected[a], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace agmdp::graph
