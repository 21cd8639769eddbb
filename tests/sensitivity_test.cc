// Empirical verification of the sensitivity claims the privacy proofs rest
// on. For randomly generated graphs and random neighboring perturbations
// (Definition 1: one edge, or one node's attribute vector), the L1 change of
// each query must stay within the bound used to calibrate its noise:
//
//   * Q_X under attribute change:              <= 2        (Theorem 8)
//   * Q_F ∘ µ(·, k) under edge change:         <= 3        (Proposition 1)
//   * Q_F ∘ µ(·, k) under attribute change:    <= 2k       (Proposition 1)
//   * triangle count under edge change:        <= ladder I_0 per graph
//   * sorted degree sequence under edge change: <= 2       (Theorem 9)
//
// These are necessary conditions, not proofs — but they catch any
// implementation drift (e.g. a wrong truncation order) that would silently
// void the guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/agm/theta_f.h"
#include "src/agm/theta_x.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/triangle_count.h"
#include "src/models/erdos_renyi.h"
#include "src/util/rng.h"

namespace agmdp {
namespace {

double L1Diff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

graph::AttributedGraph RandomInput(graph::NodeId n, double p, int w,
                                   util::Rng& rng) {
  graph::AttributedGraph g(models::ErdosRenyiGnp(n, p, rng), w);
  std::vector<graph::AttrConfig> attrs(n);
  for (auto& a : attrs) {
    a = static_cast<graph::AttrConfig>(
        rng.UniformIndex(graph::NumNodeConfigs(w)));
  }
  EXPECT_TRUE(g.SetAttributes(attrs).ok());
  return g;
}

// Flips one random node to a different random attribute configuration.
graph::AttributedGraph FlipOneAttribute(const graph::AttributedGraph& g,
                                        util::Rng& rng) {
  graph::AttributedGraph h = g;
  const auto v = static_cast<graph::NodeId>(rng.UniformIndex(g.num_nodes()));
  const uint32_t configs = graph::NumNodeConfigs(g.num_attributes());
  graph::AttrConfig next = g.attribute(v);
  while (next == g.attribute(v)) {
    next = static_cast<graph::AttrConfig>(rng.UniformIndex(configs));
  }
  h.set_attribute(v, next);
  return h;
}

// Toggles one random node pair (add if absent, remove if present).
graph::AttributedGraph ToggleOneEdge(const graph::AttributedGraph& g,
                                     util::Rng& rng) {
  graph::AttributedGraph h = g;
  for (;;) {
    const auto u = static_cast<graph::NodeId>(rng.UniformIndex(g.num_nodes()));
    const auto v = static_cast<graph::NodeId>(rng.UniformIndex(g.num_nodes()));
    if (u == v) continue;
    if (h.structure().HasEdge(u, v)) {
      h.structure().RemoveEdge(u, v);
    } else {
      h.structure().AddEdge(u, v);
    }
    return h;
  }
}

graph::AttributedCsrGraph Snap(const graph::AttributedGraph& g) {
  return graph::AttributedCsrGraph::FromGraph(g);
}

class SensitivityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SensitivityTest, QxAttributeChangeBoundedByTwo) {
  util::Rng rng(GetParam());
  graph::AttributedGraph g = RandomInput(60, 0.1, 2, rng);
  for (int trial = 0; trial < 30; ++trial) {
    graph::AttributedGraph h = FlipOneAttribute(g, rng);
    EXPECT_LE(L1Diff(agm::ComputeAttributeCounts(Snap(g)),
                     agm::ComputeAttributeCounts(Snap(h))),
              2.0 + 1e-9);
  }
}

TEST_P(SensitivityTest, QxEdgeChangeHasNoEffect) {
  util::Rng rng(GetParam() + 100);
  graph::AttributedGraph g = RandomInput(60, 0.1, 2, rng);
  graph::AttributedGraph h = ToggleOneEdge(g, rng);
  EXPECT_DOUBLE_EQ(L1Diff(agm::ComputeAttributeCounts(Snap(g)),
                          agm::ComputeAttributeCounts(Snap(h))),
                   0.0);
}

TEST_P(SensitivityTest, TruncatedQfEdgeChangeBoundedByThree) {
  util::Rng rng(GetParam() + 200);
  graph::AttributedGraph g = RandomInput(50, 0.15, 2, rng);
  for (uint32_t k : {3u, 5u, 9u}) {
    for (int trial = 0; trial < 15; ++trial) {
      graph::AttributedGraph h = ToggleOneEdge(g, rng);
      const double diff =
          L1Diff(agm::ComputeTruncatedConnectionCounts(Snap(g), k),
                 agm::ComputeTruncatedConnectionCounts(Snap(h), k));
      EXPECT_LE(diff, 3.0 + 1e-9) << "k=" << k;
    }
  }
}

TEST_P(SensitivityTest, TruncatedQfAttributeChangeBoundedByTwoK) {
  util::Rng rng(GetParam() + 300);
  graph::AttributedGraph g = RandomInput(50, 0.15, 2, rng);
  for (uint32_t k : {2u, 4u, 8u}) {
    const std::vector<double> truncated_g =
        agm::ComputeTruncatedConnectionCounts(Snap(g), k);
    for (int trial = 0; trial < 15; ++trial) {
      graph::AttributedGraph h = FlipOneAttribute(g, rng);
      // Attribute changes do not move edges, so truncation commutes and the
      // count shift is bounded by the changed node's (truncated) degree,
      // twice.
      const double diff = L1Diff(
          truncated_g, agm::ComputeTruncatedConnectionCounts(Snap(h), k));
      EXPECT_LE(diff, 2.0 * k + 1e-9) << "k=" << k;
    }
  }
}

TEST_P(SensitivityTest, UntruncatedQfAttributeChangeCanExceedTwoK) {
  // Sanity check that truncation is actually load-bearing: without it, a
  // high-degree node's attribute flip moves the counts by ~2 * degree.
  util::Rng rng(GetParam() + 400);
  graph::AttributedGraph g(graph::Graph(30), 1);
  for (graph::NodeId v = 1; v < 30; ++v) g.structure().AddEdge(0, v);
  ASSERT_TRUE(g.SetAttributes(std::vector<graph::AttrConfig>(30, 0)).ok());
  graph::AttributedGraph h = g;
  h.set_attribute(0, 1);  // flip the hub
  const double diff = L1Diff(agm::ComputeConnectionCounts(Snap(g)),
                             agm::ComputeConnectionCounts(Snap(h)));
  EXPECT_DOUBLE_EQ(diff, 2.0 * 29);  // full hub degree, both directions
}

TEST_P(SensitivityTest, TriangleCountEdgeChangeWithinLadderBase) {
  util::Rng rng(GetParam() + 500);
  graph::AttributedGraph g = RandomInput(40, 0.2, 1, rng);
  auto base = graph::MaxCommonNeighborCount(Snap(g).structure, 1u << 30);
  ASSERT_TRUE(base.ok());
  const auto before =
      static_cast<int64_t>(graph::CountTriangles(g.structure()));
  for (int trial = 0; trial < 30; ++trial) {
    graph::AttributedGraph h = ToggleOneEdge(g, rng);
    const auto after =
        static_cast<int64_t>(graph::CountTriangles(h.structure()));
    EXPECT_LE(std::llabs(after - before),
              static_cast<int64_t>(base.value()));
  }
}

TEST_P(SensitivityTest, SortedDegreeSequenceEdgeChangeBoundedByTwo) {
  util::Rng rng(GetParam() + 600);
  graph::AttributedGraph g = RandomInput(60, 0.1, 1, rng);
  std::vector<uint32_t> s1 = graph::SortedDegreeSequence(graph::CsrGraph::FromGraph(g.structure()));
  for (int trial = 0; trial < 30; ++trial) {
    graph::AttributedGraph h = ToggleOneEdge(g, rng);
    std::vector<uint32_t> s2 = graph::SortedDegreeSequence(graph::CsrGraph::FromGraph(h.structure()));
    double diff = 0.0;
    for (size_t i = 0; i < s1.size(); ++i) {
      diff += std::fabs(static_cast<double>(s1[i]) -
                        static_cast<double>(s2[i]));
    }
    EXPECT_LE(diff, 2.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SensitivityTest,
                         ::testing::Values(7u, 77u, 777u, 7777u));

}  // namespace
}  // namespace agmdp
