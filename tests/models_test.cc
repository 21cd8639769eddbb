#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>

#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/triangle_count.h"
#include "src/models/chung_lu.h"
#include "src/models/edge_age_queue.h"
#include "src/models/erdos_renyi.h"
#include "src/models/holme_kim.h"
#include "src/models/post_process.h"
#include "src/models/proposal_kernel.h"
#include "src/models/tcl.h"
#include "src/models/tricycle.h"
#include "src/util/rng.h"
#include "tests/analytics_oracle.h"
#include "tests/golden_hash.h"
#include "tests/proposal_oracle.h"
#include "tests/test_support.h"

namespace agmdp::models {
namespace {

// ------------------------------------------------------------ ErdosRenyi --

TEST(ErdosRenyiTest, GnpEdgeCountNearExpectation) {
  util::Rng rng(1);
  const graph::NodeId n = 200;
  const double p = 0.1;
  double total = 0.0;
  for (int i = 0; i < 10; ++i) {
    total += static_cast<double>(
        test_support::ErdosRenyiGnp(n, p, rng).num_edges());
  }
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(total / 10.0, expected, expected * 0.05);
}

TEST(ErdosRenyiTest, GnpExtremes) {
  util::Rng rng(2);
  EXPECT_EQ(test_support::ErdosRenyiGnp(50, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(test_support::ErdosRenyiGnp(10, 1.0, rng).num_edges(), 45u);
}

TEST(ErdosRenyiTest, GnmExactEdgeCount) {
  util::Rng rng(3);
  graph::Graph g = ErdosRenyiGnm(50, 100, rng);
  EXPECT_EQ(g.num_edges(), 100u);
  // capped at C(n,2)
  EXPECT_EQ(ErdosRenyiGnm(5, 1000, rng).num_edges(), 10u);
}

// ----------------------------------------------------------- EdgeAgeQueue --

TEST(EdgeAgeQueueTest, FifoOrder) {
  EdgeAgeQueue q;
  q.Push(graph::Edge(0, 1));
  q.Push(graph::Edge(1, 2));
  graph::Edge e;
  ASSERT_TRUE(q.PopOldest(&e));
  EXPECT_TRUE(e == graph::Edge(0, 1));
  ASSERT_TRUE(q.PopOldest(&e));
  EXPECT_TRUE(e == graph::Edge(1, 2));
  EXPECT_FALSE(q.PopOldest(&e));
}

TEST(EdgeAgeQueueTest, RePushMakesYoungest) {
  // The paper's undo step: a re-inserted edge must become the youngest.
  EdgeAgeQueue q;
  q.Push(graph::Edge(0, 1));
  q.Push(graph::Edge(1, 2));
  graph::Edge e;
  ASSERT_TRUE(q.PopOldest(&e));          // 0-1 out
  q.Push(e);                             // undo: 0-1 back as youngest
  ASSERT_TRUE(q.PopOldest(&e));
  EXPECT_TRUE(e == graph::Edge(1, 2));   // 1-2 now oldest
  ASSERT_TRUE(q.PopOldest(&e));
  EXPECT_TRUE(e == graph::Edge(0, 1));
}

// FromHistory compacts a build history into one entry per live edge, so
// the rewiring loops never pop a dead edge.
TEST(EdgeAgeQueueTest, HistoryDropsEdgesDeletedAfterInsertion) {
  graph::Graph g(5);
  const std::vector<graph::Edge> seed = {{0, 1}, {1, 2}, {2, 3}};
  for (const graph::Edge& e : seed) g.AddEdge(e.u, e.v);
  g.RemoveEdge(1, 2);  // post-processing deleted a seed edge
  g.AddEdge(3, 4);
  EdgeAgeQueue q = EdgeAgeQueue::FromHistory(g, seed, {{3, 4}});
  EXPECT_EQ(q.size(), g.num_edges());
  graph::Edge e;
  ASSERT_TRUE(q.PopOldest(&e));
  EXPECT_TRUE(e == graph::Edge(0, 1));
  ASSERT_TRUE(q.PopOldest(&e));
  EXPECT_TRUE(e == graph::Edge(2, 3));
  ASSERT_TRUE(q.PopOldest(&e));
  EXPECT_TRUE(e == graph::Edge(3, 4));
  EXPECT_FALSE(q.PopOldest(&e));
}

TEST(EdgeAgeQueueTest, HistoryKeepsOnlyTheNewestReinsertion) {
  graph::Graph g(6);
  const std::vector<graph::Edge> seed = {{0, 1}, {1, 2}, {2, 3}};
  for (const graph::Edge& e : seed) g.AddEdge(e.u, e.v);
  // Seed edge 0-1 deleted and re-added; 4-5 added, deleted, added again;
  // 3-4 added and then deleted for good.
  g.RemoveEdge(0, 1);
  g.AddEdge(4, 5);
  g.AddEdge(0, 1);
  g.RemoveEdge(4, 5);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.RemoveEdge(3, 4);
  const std::vector<graph::Edge> added = {{4, 5}, {0, 1}, {3, 4}, {4, 5}};
  EdgeAgeQueue q = EdgeAgeQueue::FromHistory(g, seed, added);
  EXPECT_EQ(q.size(), g.num_edges());
  const std::vector<graph::Edge> want = {{1, 2}, {2, 3}, {0, 1}, {4, 5}};
  for (const graph::Edge& expected : want) {
    graph::Edge e;
    ASSERT_TRUE(q.PopOldest(&e));
    EXPECT_TRUE(e == expected) << e.u << "-" << e.v;
  }
  graph::Edge e;
  EXPECT_FALSE(q.PopOldest(&e));
}

TEST(EdgeAgeQueueTest, UndoneEdgeIsYoungestAfterCompaction) {
  graph::Graph g(4);
  const std::vector<graph::Edge> seed = {{0, 1}, {1, 2}};
  for (const graph::Edge& e : seed) g.AddEdge(e.u, e.v);
  g.AddEdge(2, 3);
  EdgeAgeQueue q = EdgeAgeQueue::FromHistory(g, seed, {{2, 3}});
  graph::Edge e;
  ASSERT_TRUE(q.PopOldest(&e));  // TriCycLe's swap: oldest out ...
  EXPECT_TRUE(e == graph::Edge(0, 1));
  q.Push(e);                     // ... rejected, so undone as the youngest
  const std::vector<graph::Edge> want = {{1, 2}, {2, 3}, {0, 1}};
  for (const graph::Edge& expected : want) {
    ASSERT_TRUE(q.PopOldest(&e));
    EXPECT_TRUE(e == expected) << e.u << "-" << e.v;
  }
  EXPECT_FALSE(q.PopOldest(&e));
}

// --------------------------------------------------------------- ChungLu --

TEST(ChungLuTest, PiSamplerProportionalToDegree) {
  auto pi = BuildPiSampler({1, 2, 3, 0}, false);
  ASSERT_TRUE(pi.ok());
  util::Rng rng(4);
  std::vector<int> counts(4, 0);
  const int trials = 60000;
  for (int i = 0; i < trials; ++i) ++counts[pi.value().Sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 1.0 / 6, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(trials), 3.0 / 6, 0.01);
  EXPECT_EQ(counts[3], 0);
}

TEST(ChungLuTest, PiSamplerExcludesDegreeOne) {
  auto pi = BuildPiSampler({1, 2, 1, 3}, true);
  ASSERT_TRUE(pi.ok());
  util::Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    size_t s = pi.value().Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(ChungLuTest, PiSamplerFailsOnAllZero) {
  EXPECT_FALSE(BuildPiSampler({1, 1, 1}, true).ok());
  EXPECT_FALSE(BuildPiSampler({0, 0}, false).ok());
}

TEST(ChungLuTest, MatchesEdgeCount) {
  util::Rng rng(6);
  std::vector<uint32_t> degrees(100, 4);
  auto g = FastChungLu(degrees, rng);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_edges(), 200u);  // sum/2
}

TEST(ChungLuTest, ExpectedDegreesTrackTargets) {
  util::Rng rng(7);
  // Heterogeneous targets; average realized degree over repeats should land
  // near the target. Hubs stay a little short even with cFCL (duplicate
  // collisions are inherent to the proposal scheme), hence the asymmetric
  // tolerances.
  std::vector<uint32_t> degrees(60, 2);
  degrees[0] = 30;
  degrees[1] = 15;
  double d0 = 0.0, d1 = 0.0, drest = 0.0;
  const int reps = 60;
  for (int r = 0; r < reps; ++r) {
    auto g = FastChungLu(degrees, rng);
    ASSERT_TRUE(g.ok());
    d0 += g.value().Degree(0);
    d1 += g.value().Degree(1);
    drest += g.value().Degree(30);
  }
  EXPECT_NEAR(d0 / reps, 30.0, 6.0);
  EXPECT_NEAR(d1 / reps, 15.0, 3.0);
  EXPECT_NEAR(drest / reps, 2.0, 0.6);
}

TEST(ChungLuTest, BiasCorrectionHelpsHighDegreeNodes) {
  util::Rng rng(8);
  // A very heavy hub suffers many proposal collisions; cFCL should realize
  // more of its target degree than plain FCL.
  std::vector<uint32_t> degrees(120, 2);
  degrees[0] = 80;
  ChungLuOptions plain;
  plain.bias_correction = false;
  ChungLuOptions corrected;
  corrected.bias_correction = true;
  double hub_plain = 0.0, hub_corrected = 0.0;
  const int reps = 40;
  for (int r = 0; r < reps; ++r) {
    hub_plain += FastChungLu(degrees, rng, plain).value().Degree(0);
    hub_corrected += FastChungLu(degrees, rng, corrected).value().Degree(0);
  }
  EXPECT_GT(hub_corrected, hub_plain);
}

TEST(ChungLuTest, FilterSuppressesEdges) {
  util::Rng rng(9);
  std::vector<uint32_t> degrees(50, 4);
  ChungLuOptions options;
  options.max_proposals_per_edge = 20;
  options.filter = [](graph::NodeId, graph::NodeId, util::Rng&) {
    return false;  // reject everything
  };
  auto g = FastChungLu(degrees, rng, options);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_edges(), 0u);  // budget exhausted, no stall
}

TEST(ChungLuTest, ExtremeProposalBudgetSaturatesInsteadOfWrapping) {
  util::Rng rng(91);
  std::vector<uint32_t> degrees(50, 4);  // target = 100 edges (even)
  ChungLuOptions options;
  // 2^63 per edge: an even target wraps the product to exactly 0, which
  // used to exhaust the "budget" before the first proposal.
  options.max_proposals_per_edge = 1ULL << 63;
  auto g = FastChungLu(degrees, rng, options);
  ASSERT_TRUE(g.ok());
  EXPECT_GT(g.value().num_edges(), 0u);
}

TEST(ChungLuTest, InsertionOrderRecorded) {
  util::Rng rng(10);
  std::vector<uint32_t> degrees(30, 3);
  std::vector<graph::Edge> order;
  ChungLuOptions options;
  options.insertion_order = &order;
  auto g = FastChungLu(degrees, rng, options);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(order.size(), g.value().num_edges());
  for (const graph::Edge& e : order) {
    EXPECT_TRUE(g.value().HasEdge(e.u, e.v));
  }
}

// On a complete graph every further proposal is a duplicate: the target
// is clamped to C(n, 2) so the call returns the triangle at once instead of
// proposing for 200 x sum(degrees) / 2 rounds, and TriCycLe's default
// rewiring budget and TCL's replacement budget are bounded the same way
// (unclamped, the d = 4e9 TCL call would propose for hours).
TEST(ChungLuTest, TargetClampedToCompleteGraph) {
  for (uint32_t d : {100000u, 4000000000u}) {
    util::Rng rng(12);
    std::vector<graph::Edge> order;
    ChungLuOptions options;
    options.insertion_order = &order;
    auto g = FastChungLu({d, d, d}, rng, options);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().num_edges(), 3u);
    EXPECT_EQ(order.size(), 3u);

    auto tri = GenerateTriCycLe({d, d, d}, /*target_triangles=*/2, rng);
    ASSERT_TRUE(tri.ok());
    EXPECT_EQ(tri.value().achieved_triangles, 1u);
    EXPECT_EQ(tri.value().proposals, 200u * 3u);

    // Every TCL proposal on the complete graph is a duplicate, so only the
    // clamped budget of 200 * 3 proposals ends the replacement loop.
    auto tcl = GenerateTcl({d, d, d}, /*rho=*/0.5, rng);
    ASSERT_TRUE(tcl.ok());
    EXPECT_EQ(tcl.value().num_edges(), 3u);
  }
}

// -------------------------------------------------------- CandidateKernel --

TEST(CandidateKernelTest, AttributeClassesGroupNodesByConfiguration) {
  const std::vector<graph::AttrConfig> configs = {3, 0, 3, 1, 0, 3};
  const AttributeClasses classes =
      AttributeClasses::Build(configs.data(), configs.size(), /*k=*/4);
  EXPECT_EQ(classes.config, (std::vector<graph::AttrConfig>{0, 1, 3}));
  EXPECT_EQ(classes.begin, (std::vector<uint32_t>{0, 2, 3, 6}));
  EXPECT_EQ(classes.members,
            (std::vector<graph::NodeId>{1, 4, 3, 0, 2, 5}));
}

TEST(CandidateKernelTest, PiArmIsTheRejectionLoopDrawForDraw) {
  // Without an acceptance table the kernel's shards are the old loop's,
  // bit for bit: unfiltered, and with a predicate drawing from the stream.
  const std::vector<double> weights = {5, 1, 1, 2, 9, 1, 1, 3, 1, 1};
  const EdgeFilter predicate = [](graph::NodeId u, graph::NodeId v,
                                  util::Rng& rng) {
    return (u + v) % 3 != 0 || rng.Bernoulli(0.4);
  };
  for (const EdgeFilter& filter : {EdgeFilter(), predicate}) {
    const PiTables pi = PiTables::Build(weights, filter).value();
    const util::AliasSampler alias = util::AliasSampler::Build(weights).value();
    for (uint64_t seed = 0; seed < 20; ++seed) {
      EXPECT_EQ(oracle::DrawShardEdges(CandidateKernel(pi, filter), 12, 60,
                                        util::Rng::Substream(7, seed)),
                oracle::RejectionDrawShard(alias, 12, 60, filter,
                                           util::Rng::Substream(7, seed)));
    }
  }
}

TEST(CandidateKernelTest, TableArmEdgeCases) {
  std::vector<graph::AttrConfig> configs(40);
  for (graph::NodeId i = 0; i < 40; ++i) configs[i] = i % 2;
  const std::vector<double> weights(40, 1.0);
  // A table that rejects every pair: the budget is spent at once.
  const EdgeFilter none = EdgeFilter::FromAcceptanceTable(configs, {0, 0, 0}, 1);
  const PiTables pi = PiTables::Build(weights, none).value();
  EXPECT_TRUE(oracle::DrawShardEdges(CandidateKernel(pi, none), 10,
                                     ~uint64_t{0}, util::Rng(1))
                  .empty());
  // Only 0-1 pairs pass: every candidate crosses the classes, and the
  // gaps of a tiny rate overrun even a saturated budget without an
  // out-of-range cast.
  const EdgeFilter cross =
      EdgeFilter::FromAcceptanceTable(configs, {0, 1, 0}, 1);
  for (const graph::Edge& e :
       oracle::DrawShardEdges(CandidateKernel(pi, cross), 30, 1000,
                              util::Rng(2))) {
    EXPECT_NE(configs[e.u], configs[e.v]);
  }
  const EdgeFilter rare =
      EdgeFilter::FromAcceptanceTable(configs, {1e-300, 1e-300, 1e-300}, 1);
  EXPECT_TRUE(oracle::DrawShardEdges(CandidateKernel(pi, rare), 10,
                                     ~uint64_t{0}, util::Rng(3))
                  .empty());
  // A class of one member has no distinct pair: 0-0 draws never stall.
  configs.assign(40, 1);
  configs[0] = 0;
  const EdgeFilter lone = EdgeFilter::FromAcceptanceTable(configs, {1, 0, 0}, 1);
  const PiTables lone_pi = PiTables::Build(weights, lone).value();
  EXPECT_TRUE(oracle::DrawShardEdges(CandidateKernel(lone_pi, lone), 10, 1000,
                                     util::Rng(4))
                  .empty());
}

// The class-weight build meets a bad weight only after it has rebuilt the
// classes before it, so a failed ReweightInto leaves no table to draw from
// (in either form); the next good call rebuilds one.
TEST(CandidateKernelDeathTest, FailedReweightLeavesNoTable) {
  std::vector<graph::AttrConfig> configs(40);
  for (graph::NodeId i = 0; i < 40; ++i) configs[i] = i % 2;
  const EdgeFilter table =
      EdgeFilter::FromAcceptanceTable(configs, {1, 0.5, 1}, 1);
  const std::vector<double> weights(40, 1.0);
  std::vector<double> bad = weights;
  bad[39] = std::nan("");  // odd: the second class
  std::vector<uint32_t> worklist;
  for (const EdgeFilter& filter : {EdgeFilter(), table}) {
    const PiTables pi = PiTables::Build(weights, filter).value();
    PiTables out;
    ASSERT_TRUE(pi.ReweightInto(weights, worklist, out).ok());
    const util::Status failed = pi.ReweightInto(bad, worklist, out);
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.ToString(), util::CheckAliasWeights(bad).ToString());
    EXPECT_DEATH(CandidateKernel(out, filter), "AGMDP_CHECK failed");
    ASSERT_TRUE(pi.ReweightInto(weights, worklist, out).ok());
    EXPECT_EQ(oracle::DrawShardEdges(CandidateKernel(out, filter), 12, 600,
                                     util::Rng(5)),
              oracle::DrawShardEdges(CandidateKernel(pi, filter), 12, 600,
                                     util::Rng(5)));
  }
}

// Two streams are equal when their next outputs are; four outputs pin the
// 256-bit state.
bool SameStream(util::Rng a, util::Rng b) {
  for (int i = 0; i < 4; ++i) {
    if (a.Next() != b.Next()) return false;
  }
  return true;
}

TEST(CandidateKernelTest, CandidateGapBoundsEveryLogFreeGap) {
  for (const double q : {1.0, std::nextafter(1.0, 0.0), 0.975, 0.5, 0.1,
                         CandidateGap::kMinFastRate, 0.05, 0.02, 1e-300}) {
    const CandidateGap gap(q);
    if (q < CandidateGap::kMinFastRate) {
      EXPECT_EQ(gap.bound, 0u) << q;
      EXPECT_LT(gap.fast_below, 0.0) << q;
      continue;
    }
    // About 95% of candidates skip the log.
    EXPECT_GT(gap.fast_below, 0.95) << q;
    EXPECT_GE(gap.bound, 4u) << q;
    // The top 2^16 values UniformDouble can draw at or below the threshold,
    // and 2^16 uniform ones below it, all stay within the bound.
    const double top =
        std::min(std::floor(gap.fast_below * 0x1p53), 0x1p53 - 1);
    util::Rng rng(17);
    uint64_t over = 0;
    for (int i = 0; i < 65536; ++i) {
      const double near = std::max(top - i, 0.0) * 0x1p-53;
      const double below = rng.UniformDouble() * gap.fast_below;
      for (const double u : {near, below}) {
        if (!(gap.Exact(u) <= static_cast<double>(gap.bound))) ++over;
        if (q == 1.0 && gap.Exact(u) != 1.0) ++over;
      }
    }
    EXPECT_EQ(over, 0u) << q;
  }
}

// Two attribute classes over 40 nodes and one acceptance value `accept`
// for every class pair: with uniform weights the candidate rate is
// q = accept * (1 - 1/40).
struct UniformTable {
  explicit UniformTable(double accept, std::vector<double> w = {})
      : weights(w.empty() ? std::vector<double>(40, 1.0) : std::move(w)),
        filter(EdgeFilter::FromAcceptanceTable(Configs(), {accept, accept,
                                                           accept},
                                               1)),
        pi(PiTables::Build(weights, filter).value()),
        kernel(pi, filter) {}

  static std::vector<graph::AttrConfig> Configs() {
    std::vector<graph::AttrConfig> configs(40);
    for (graph::NodeId i = 0; i < 40; ++i) configs[i] = i % 2;
    return configs;
  }

  std::vector<double> weights;
  EdgeFilter filter;
  PiTables pi;
  CandidateKernel kernel;
};

TEST(CandidateKernelTest, LogFreeGapsMatchTheExactLoop) {
  std::vector<double> skewed(40);
  for (size_t i = 0; i < skewed.size(); ++i) skewed[i] = 1.0 + (i * 7) % 13;
  std::vector<std::unique_ptr<UniformTable>> tables;
  for (const double q : {1.0, 0.5, 0.05, 0.02, 1e-300}) {
    tables.push_back(std::make_unique<UniformTable>(q / 0.975));
  }
  tables.push_back(std::make_unique<UniformTable>(0.3, skewed));
  util::FlatEdgeSet seen;
  std::vector<graph::Edge> edges;
  for (const auto& table : tables) {
    const CandidateKernel::TableArm* arm = oracle::TableArmOf(table->kernel);
    ASSERT_NE(arm, nullptr);
    const double q = -std::expm1(arm->gap.log1m_q);
    for (const uint64_t quota : {1, 2, 7, 60, 300}) {
      // Budgets that bind before the first candidate, in mid-pass (most
      // of them after a settle) and never.
      for (const uint64_t budget : {uint64_t{0}, uint64_t{1}, uint64_t{40},
                                    uint64_t{400}, ~uint64_t{0}}) {
        for (uint64_t seed = 0; seed < 6; ++seed) {
          // The shard scratch is reused across every case, as a sampler's
          // plan reuses it across shards.
          DrawShard(table->kernel, quota, budget,
                    util::Rng::Substream(9, seed), seen, edges);
          util::Rng exact = util::Rng::Substream(9, seed);
          EXPECT_EQ(edges, oracle::ExactDrawShard(*arm, quota, budget, exact))
              << "q=" << q << " quota=" << quota << " budget=" << budget;

          // A top-up from a non-empty graph, as the registry's is.
          graph::Graph fast(40);
          graph::Graph slow(40);
          for (graph::NodeId i = 0; i + 3 < 40; i += 3) {
            fast.AddEdge(i, i + 3);
            slow.AddEdge(i, i + 3);
          }
          const uint64_t target = fast.num_edges() + quota;
          std::vector<graph::Edge> fast_order;
          std::vector<graph::Edge> slow_order;
          util::Rng fast_rng = util::Rng::Substream(10, seed);
          util::Rng slow_rng = util::Rng::Substream(10, seed);
          ProposeInto(table->kernel, fast_rng, budget, target, fast,
                      &fast_order);
          oracle::ExactProposeInto(*arm, slow_rng, budget, target, slow,
                                   &slow_order);
          EXPECT_EQ(fast.CanonicalEdges(), slow.CanonicalEdges());
          EXPECT_EQ(fast_order, slow_order);
          EXPECT_TRUE(SameStream(fast_rng, slow_rng))
              << "q=" << q << " quota=" << quota << " budget=" << budget;
        }
      }
    }
  }
}

TEST(CandidateKernelTest, SettleMidPassKeepsTheExactStream) {
  // At q = 0.5 a log-free candidate is charged 12 proposals against a mean
  // gap of 2, so a budget of 100 runs out of charge after eight of them
  // while most of it is left: the arm settles and goes on drawing.
  const UniformTable table(0.5 / 0.975);
  const CandidateKernel::TableArm* arm = oracle::TableArmOf(table.kernel);
  ASSERT_NE(arm, nullptr);
  ASSERT_EQ(arm->gap.bound, 12u);
  int settles_mid_pass = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    util::Rng fast_rng = util::Rng::Substream(11, seed);
    util::Rng slow_rng = util::Rng::Substream(11, seed);
    PassBudget budget(100);
    uint64_t left = 100;
    for (;;) {
      graph::NodeId u = 0;
      graph::NodeId v = 0;
      graph::NodeId x = 0;
      graph::NodeId y = 0;
      const uint64_t pending = budget.pending;
      const bool fast = arm->Propose(fast_rng, budget, u, v);
      const bool slow = oracle::ExactPropose(*arm, slow_rng, left, x, y);
      ASSERT_EQ(fast, slow) << "seed=" << seed;
      ASSERT_TRUE(SameStream(fast_rng, slow_rng)) << "seed=" << seed;
      if (!fast) break;
      ASSERT_EQ(u, x);
      ASSERT_EQ(v, y);
      // Settled: the pending candidates' exact gaps were counted.
      if (pending > 0 && budget.pending == 0) {
        ++settles_mid_pass;
        EXPECT_EQ(budget.left, left);
      }
      EXPECT_LE(budget.left - budget.charged, left);
    }
  }
  EXPECT_GT(settles_mid_pass, 0);
}

// ------------------------------------------------------------ PostProcess --

TEST(PostProcessTest, ConnectsOrphans) {
  util::Rng rng(11);
  // Main component of 20 nodes + 5 isolated nodes.
  graph::Graph g(25);
  for (graph::NodeId v = 1; v < 20; ++v) g.AddEdge(0, v);
  std::vector<uint32_t> desired(25, 2);
  desired[0] = 19;
  auto pi = BuildPiSampler(desired, false);
  ASSERT_TRUE(pi.ok());
  PostProcessGraph(&g, desired, pi.value(), rng);
  EXPECT_TRUE(test_support::IsConnected(g));
}

TEST(PostProcessTest, ReportsAddedEdges) {
  util::Rng rng(12);
  graph::Graph g(10);
  for (graph::NodeId v = 1; v < 8; ++v) g.AddEdge(0, v);
  std::vector<uint32_t> desired(10, 2);
  desired[0] = 7;
  auto pi = BuildPiSampler(desired, false);
  ASSERT_TRUE(pi.ok());
  std::vector<graph::Edge> added;
  PostProcessGraph(&g, desired, pi.value(), rng, &added);
  EXPECT_FALSE(added.empty());
  for (const graph::Edge& e : added) {
    // Post-processing may later delete an added edge while balancing the
    // edge budget; the ones still present must be real edges.
    if (g.HasEdge(e.u, e.v)) {
      EXPECT_NE(e.u, e.v);
    }
  }
  EXPECT_TRUE(test_support::IsConnected(g));
}

TEST(PostProcessTest, KeepsEdgeCountNearTarget) {
  util::Rng rng(13);
  graph::Graph g(40);
  for (graph::NodeId v = 1; v < 30; ++v) g.AddEdge(0, v);
  std::vector<uint32_t> desired(40, 2);
  desired[0] = 29;
  const uint64_t target = (29 + 39 * 2) / 2;
  auto pi = BuildPiSampler(desired, false);
  ASSERT_TRUE(pi.ok());
  PostProcessGraph(&g, desired, pi.value(), rng);
  EXPECT_TRUE(test_support::IsConnected(g));
  EXPECT_NEAR(static_cast<double>(g.num_edges()), static_cast<double>(target),
              static_cast<double>(target) * 0.35);
}

TEST(PostProcessTest, NoopOnConnectedGraph) {
  util::Rng rng(14);
  graph::Graph g = ErdosRenyiGnm(30, 100, rng);
  // Densify until connected for a stable premise.
  while (!test_support::IsConnected(g)) g = ErdosRenyiGnm(30, 150, rng);
  graph::Graph before = g;
  std::vector<uint32_t> desired = graph::DegreeSequence(g);
  auto pi = BuildPiSampler(desired, false);
  ASSERT_TRUE(pi.ok());
  PostProcessGraph(&g, desired, pi.value(), rng);
  EXPECT_EQ(g.CanonicalEdges(), before.CanonicalEdges());
}

// --------------------------------------------------------------- TriCycLe --

TEST(TriCycLeTest, RejectsEmptyInput) {
  util::Rng rng(15);
  EXPECT_FALSE(GenerateTriCycLe({}, 10, rng).ok());
}

TEST(TriCycLeTest, ReachesTriangleTarget) {
  util::Rng rng(16);
  std::vector<uint32_t> degrees(150, 6);
  const uint64_t target = 120;
  auto result = GenerateTriCycLe(degrees, target, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().reached_target);
  // Post-processing may destroy a few triangles; allow modest slack.
  EXPECT_GE(result.value().achieved_triangles, target * 8 / 10);
}

TEST(TriCycLeTest, TriangleCountGrowsWithTarget) {
  util::Rng rng(17);
  std::vector<uint32_t> degrees(200, 6);
  auto lo = GenerateTriCycLe(degrees, 20, rng);
  auto hi = GenerateTriCycLe(degrees, 250, rng);
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(hi.ok());
  EXPECT_GT(hi.value().achieved_triangles, lo.value().achieved_triangles);
}

TEST(TriCycLeTest, PreservesEdgeCountApproximately) {
  util::Rng rng(18);
  std::vector<uint32_t> degrees(200, 6);
  auto result = GenerateTriCycLe(degrees, 150, rng);
  ASSERT_TRUE(result.ok());
  const uint64_t m_target = 200 * 6 / 2;
  EXPECT_NEAR(static_cast<double>(result.value().graph.num_edges()),
              static_cast<double>(m_target), m_target * 0.1);
}

TEST(TriCycLeTest, OutputConnectedWithPostProcessing) {
  util::Rng rng(19);
  // Plenty of degree-one nodes, the orphan-prone case.
  std::vector<uint32_t> degrees(150, 1);
  for (size_t i = 0; i < 50; ++i) degrees[i] = 5;
  auto result = GenerateTriCycLe(degrees, 50, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(test_support::IsConnected(result.value().graph));
}

TEST(TriCycLeTest, StallGuardTerminates) {
  util::Rng rng(20);
  std::vector<uint32_t> degrees(30, 2);  // a 2-regular target: few triangles
  TriCycLeOptions options;
  options.max_proposals = 500;
  // Unreachable target; must stop at the proposal budget.
  auto result = GenerateTriCycLe(degrees, 1'000'000, rng, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().reached_target);
  EXPECT_LE(result.value().proposals, 500u);
}

TEST(TriCycLeTest, FilterIsRespected) {
  util::Rng rng(21);
  std::vector<uint32_t> degrees(100, 4);
  // Forbid any edge touching node 0.
  TriCycLeOptions options;
  options.post_process = false;  // post-processing ignores the filter
  options.filter = [](graph::NodeId u, graph::NodeId v, util::Rng&) {
    return u != 0 && v != 0;
  };
  auto result = GenerateTriCycLe(degrees, 60, rng, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().graph.Degree(0), 0u);
}

// -------------------------------------------------------------------- TCL --

TEST(TclTest, ValidatesRho) {
  util::Rng rng(22);
  std::vector<uint32_t> degrees(10, 2);
  EXPECT_FALSE(GenerateTcl(degrees, -0.1, rng).ok());
  EXPECT_FALSE(GenerateTcl(degrees, 1.1, rng).ok());
}

TEST(TclTest, KeepsEdgeCount) {
  util::Rng rng(23);
  std::vector<uint32_t> degrees(150, 6);
  auto g = GenerateTcl(degrees, 0.4, rng);
  ASSERT_TRUE(g.ok());
  EXPECT_NEAR(static_cast<double>(g.value().num_edges()), 450.0, 45.0);
}

TEST(TclTest, HigherRhoMoreTriangles) {
  util::Rng rng(24);
  std::vector<uint32_t> degrees(300, 8);
  double tri_lo = 0.0, tri_hi = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    tri_lo += static_cast<double>(
        graph::CountTriangles(GenerateTcl(degrees, 0.05, rng).value()));
    tri_hi += static_cast<double>(
        graph::CountTriangles(GenerateTcl(degrees, 0.9, rng).value()));
  }
  EXPECT_GT(tri_hi, tri_lo * 1.5);
}

TEST(TclTest, FitRhoRecoversOrdering) {
  // Graphs generated with high rho must fit a larger rho than low-rho
  // graphs (exact recovery is not expected from EM on samples).
  util::Rng rng(25);
  std::vector<uint32_t> degrees(400, 8);
  auto g_low = GenerateTcl(degrees, 0.1, rng);
  auto g_high = GenerateTcl(degrees, 0.9, rng);
  ASSERT_TRUE(g_low.ok());
  ASSERT_TRUE(g_high.ok());
  const double rho_low = FitTclRho(g_low.value(), rng);
  const double rho_high = FitTclRho(g_high.value(), rng);
  EXPECT_GT(rho_high, rho_low);
}

TEST(TclTest, FitRhoInUnitInterval) {
  util::Rng rng(26);
  graph::Graph g = test_support::ErdosRenyiGnp(100, 0.08, rng);
  const double rho = FitTclRho(g, rng);
  EXPECT_GE(rho, 0.0);
  EXPECT_LE(rho, 1.0);
}

// --------------------------------------------------------------- HolmeKim --

TEST(HolmeKimTest, ValidatesOptions) {
  util::Rng rng(27);
  HolmeKimOptions options;
  options.edges_per_node = 0.5;
  EXPECT_FALSE(HolmeKim(100, options, rng).ok());
  options.edges_per_node = 3;
  options.triad_probability = 1.5;
  EXPECT_FALSE(HolmeKim(100, options, rng).ok());
  EXPECT_FALSE(HolmeKim(3, HolmeKimOptions{}, rng).ok());
}

TEST(HolmeKimTest, ConnectedByConstruction) {
  util::Rng rng(28);
  HolmeKimOptions options;
  options.edges_per_node = 2.5;
  options.triad_probability = 0.6;
  auto g = HolmeKim(500, options, rng);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(test_support::IsConnected(g.value()));
}

TEST(HolmeKimTest, AverageDegreeTracksTwiceEdgesPerNode) {
  util::Rng rng(29);
  HolmeKimOptions options;
  options.edges_per_node = 3.45;
  auto g = HolmeKim(2000, options, rng);
  ASSERT_TRUE(g.ok());
  EXPECT_NEAR(graph::AverageDegree(graph::CsrGraph::FromGraph(g.value())), 2.0 * 3.45, 0.5);
}

TEST(HolmeKimTest, HeavyTailedDegrees) {
  util::Rng rng(30);
  HolmeKimOptions options;
  options.edges_per_node = 3;
  auto g = HolmeKim(3000, options, rng);
  ASSERT_TRUE(g.ok());
  // Preferential attachment: the max degree should far exceed the mean.
  EXPECT_GT(g.value().MaxDegree(), 8 * graph::AverageDegree(graph::CsrGraph::FromGraph(g.value())));
}

TEST(HolmeKimTest, TriadProbabilityRaisesClustering) {
  util::Rng rng(31);
  HolmeKimOptions flat;
  flat.edges_per_node = 3;
  flat.triad_probability = 0.0;
  HolmeKimOptions clustered = flat;
  clustered.triad_probability = 0.9;
  const double c_flat =
      oracle::AverageLocalClustering(HolmeKim(1500, flat, rng).value());
  const double c_clustered =
      oracle::AverageLocalClustering(HolmeKim(1500, clustered, rng).value());
  EXPECT_GT(c_clustered, c_flat * 2.0);
}

TEST(HolmeKimTest, CalibrationApproachesTarget) {
  util::Rng rng(32);
  const double target = 0.15;
  HolmeKimOptions options;
  options.edges_per_node = 3.0;
  options.triad_probability =
      CalibrateTriadProbability(options, target, 1500, rng);
  const double achieved =
      oracle::AverageLocalClustering(HolmeKim(1500, options, rng).value());
  EXPECT_NEAR(achieved, target, 0.06);
}

TEST(HolmeKimTest, MaxDegreeCapHolds) {
  util::Rng rng(33);
  HolmeKimOptions options;
  options.edges_per_node = 4;
  options.max_degree = 25;
  auto g = HolmeKim(2000, options, rng);
  ASSERT_TRUE(g.ok());
  EXPECT_LE(g.value().MaxDegree(), 25u);
  EXPECT_TRUE(test_support::IsConnected(g.value()));
}

// ---------------------------------------------------------------- golden --

// Literal outputs of the sequential generators the AGM goldens do not
// reach, pinned so that a rewrite of their internals (pilot pass, edge-age
// queue, dedup structures) must keep every draw, every decision and the
// final stream position. Each case records the insertion order (FCL only),
// the neighbor lists in stored order, the sorted edge list and the next
// draw of the caller's stream.
struct GeneratorGolden {
  uint64_t insertion_hash;  // 0 where the generator exposes no order
  uint64_t adjacency_hash;
  uint64_t canonical_hash;
  uint64_t next_draw;
};

GeneratorGolden Digest(const graph::Graph& g,
                       const std::vector<graph::Edge>* order,
                       util::Rng& rng) {
  return {order != nullptr ? golden::HashEdges(*order) : 0,
          golden::HashAdjacency(g), golden::HashEdges(g.CanonicalEdges()),
          rng.Next()};
}

void ExpectGolden(const GeneratorGolden& got, const GeneratorGolden& want) {
  EXPECT_EQ(got.insertion_hash, want.insertion_hash);
  EXPECT_EQ(got.adjacency_hash, want.adjacency_hash);
  EXPECT_EQ(got.canonical_hash, want.canonical_hash);
  EXPECT_EQ(got.next_draw, want.next_draw);
}

// Heavy-tailed sequence: ~30% degree-one nodes, a body of degree 2-6 and a
// hub every 40th node, so cFCL reweights hubs and TriCycLe's
// post-processing has orphans to rewire.
std::vector<uint32_t> SkewedDegrees(graph::NodeId n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<uint32_t> degrees(n);
  for (graph::NodeId i = 0; i < n; ++i) {
    if (i % 40 == 0) {
      degrees[i] = static_cast<uint32_t>(40 + rng.UniformIndex(41));
    } else if (rng.Bernoulli(0.3)) {
      degrees[i] = 1;
    } else {
      degrees[i] = static_cast<uint32_t>(2 + rng.UniformIndex(5));
    }
  }
  return degrees;
}

// AGM-style acceptance filter over two alternating attribute values.
EdgeFilter AlternatingFilter(graph::NodeId n) {
  std::vector<graph::AttrConfig> configs(n);
  for (graph::NodeId i = 0; i < n; ++i) configs[i] = i % 2;
  return EdgeFilter::FromAcceptanceTable(std::move(configs), {1.0, 0.35, 0.8},
                                         /*w=*/1);
}

TEST(GeneratorGoldenTest, FastChungLuMatchesPinnedLiterals) {
  // cFCL's three branches: hubs reweighted (skewed); no hub candidate at
  // all (flat, every degree 4); and one candidate (degree 14 among 4s)
  // whose pilot degree already reaches its target, so the pilot is kept.
  // The filter is absent, AGM's acceptance table, or a predicate that
  // draws from the caller's stream (the predicate row pins the draw order
  // of a filter the table path does not cover).
  enum Sequence { kSkewed, kFlat, kReachedHub };
  enum Filter { kNone, kTable, kPredicate };
  struct Case {
    Sequence sequence;
    Filter filter;
    uint64_t seed;
    bool pilot_kept;
    GeneratorGolden want;
  };
  static const Case kCases[] = {
      {kSkewed, kNone, 17, false,
       {0x5277081228f40718ULL, 0x518f0cf1f2ec8136ULL, 0xb6e467ae758a789cULL,
        0xbb503b5b41e8739dULL}},
      {kSkewed, kTable, 17, false,
       {0x25f5b1b76688a6c2ULL, 0x067bd54ffacaf6e0ULL, 0x0cf921665d83aa9eULL,
        0x37adb0e995f9ea05ULL}},
      {kFlat, kNone, 18, true,
       {0x087f974bd4905a3dULL, 0x7a4f3dfd95b1680dULL, 0x8bf5572d266cd625ULL,
        0xd0cb9c46de350cfbULL}},
      {kFlat, kTable, 18, true,
       {0x6dba1838460c291aULL, 0xbef51b095c7e23feULL, 0x1e7a3a06576f545aULL,
        0xf55d0d54a976368eULL}},
      {kReachedHub, kNone, 18, true,
       {0x9a3e6671cca410d6ULL, 0xb86dd36a46f7189aULL, 0x6e1efc9db6ca78b6ULL,
        0x1bc81871ce0b3479ULL}},
      {kSkewed, kPredicate, 17, false,
       {0xa5da4939eaec8cc5ULL, 0x80bf43c2fda55e6dULL, 0x811cd33c47c3d0f5ULL,
        0xf2df57748004c826ULL}},
  };
  constexpr graph::NodeId kNodes = 600;
  for (const Case& c : kCases) {
    SCOPED_TRACE("sequence " + std::to_string(c.sequence) + " filter " +
                 std::to_string(c.filter));
    std::vector<uint32_t> degrees(kNodes, 4);
    if (c.sequence == kSkewed) degrees = SkewedDegrees(kNodes, 41);
    if (c.sequence == kReachedHub) degrees[0] = 14;
    ChungLuOptions options;
    if (c.filter == kTable) options.filter = AlternatingFilter(kNodes);
    if (c.filter == kPredicate) {
      options.filter = [](graph::NodeId u, graph::NodeId v, util::Rng& rng) {
        return (u + v) % 3 != 0 || rng.Bernoulli(0.4);
      };
    }
    std::vector<graph::Edge> order;
    options.insertion_order = &order;
    util::Rng rng(c.seed);
    auto g = FastChungLu(degrees, rng, options);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(order.size(), g.value().num_edges());
    ExpectGolden(Digest(g.value(), &order, rng), c.want);

    // Which branch ran: a kept pilot is exactly the uncorrected run from
    // the same seed.
    options.bias_correction = false;
    std::vector<graph::Edge> uncorrected_order;
    options.insertion_order = &uncorrected_order;
    util::Rng uncorrected_rng(c.seed);
    auto uncorrected = FastChungLu(degrees, uncorrected_rng, options);
    ASSERT_TRUE(uncorrected.ok());
    EXPECT_EQ(uncorrected_order == order, c.pilot_kept);
  }
}

TEST(GeneratorGoldenTest, TriCycLeMatchesPinnedLiterals) {
  struct Case {
    bool filtered;
    GeneratorGolden want;
    uint64_t achieved_triangles;
    uint64_t proposals;
  };
  static const Case kCases[] = {
      {false,
       {0, 0x528ba8f3c11acc4fULL, 0x730f459ba309f879ULL,
        0xbd272f6347fd6307ULL},
       1464, 3241},
      {true,
       {0, 0x65ede3b80b3d5c0dULL, 0xff18af3ab315b413ULL,
        0xc1433b2617b675c3ULL},
       1557, 3015},
  };
  constexpr graph::NodeId kNodes = 600;
  const std::vector<uint32_t> degrees = SkewedDegrees(kNodes, 43);
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.filtered ? "filtered" : "unfiltered");
    TriCycLeOptions options;  // post-processing on: deletes and re-adds
    if (c.filtered) options.filter = AlternatingFilter(kNodes);
    util::Rng rng(19);
    auto result = GenerateTriCycLe(degrees, /*target_triangles=*/2500, rng,
                                   options);
    ASSERT_TRUE(result.ok());
    ExpectGolden(Digest(result.value().graph, nullptr, rng), c.want);
    EXPECT_EQ(result.value().achieved_triangles, c.achieved_triangles);
    EXPECT_EQ(result.value().proposals, c.proposals);
  }
}

TEST(GeneratorGoldenTest, TclMatchesPinnedLiterals) {
  struct Case {
    bool filtered;
    GeneratorGolden want;
  };
  static const Case kCases[] = {
      {false,
       {0, 0xdb15a7a25ac42c6eULL, 0x52ff7ef37ef685beULL,
        0xb7199d37dd597bc4ULL}},
      {true,
       {0, 0xfb2b00f5d3b2e99fULL, 0x289d39b5efa91207ULL,
        0xa3fc0ee8b48611baULL}},
  };
  constexpr graph::NodeId kNodes = 600;
  const std::vector<uint32_t> degrees = SkewedDegrees(kNodes, 47);
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.filtered ? "filtered" : "unfiltered");
    TclOptions options;
    if (c.filtered) options.filter = AlternatingFilter(kNodes);
    util::Rng rng(23);
    auto g = GenerateTcl(degrees, /*rho=*/0.6, rng, options);
    ASSERT_TRUE(g.ok());
    ExpectGolden(Digest(g.value(), nullptr, rng), c.want);
  }
}

}  // namespace
}  // namespace agmdp::models
