// util::FlatEdgeSet contract tests: randomized oracle checks against the
// std container it replaced, collision/growth edge cases,
// Graph behavioral equivalence under mixed mutation, and the 1/2/4-thread
// bitwise-determinism contract of the rewritten sampler hot path (FCL and
// TriCycLe, with and without acceptance filtering).
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/agm/agm_sampler.h"
#include "src/agm/theta_f.h"
#include "src/agm/theta_x.h"
#include "src/graph/graph.h"
#include "src/pipeline/model_registry.h"
#include "src/util/flat_edge_set.h"
#include "src/util/math_util.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace agmdp {
namespace {

// ---------------------------------------------------------- FlatEdgeSet --

TEST(FlatEdgeSetTest, BasicInsertContainsErase) {
  util::FlatEdgeSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(42));
  EXPECT_TRUE(set.Insert(42));
  EXPECT_FALSE(set.Insert(42));  // duplicate
  EXPECT_TRUE(set.Contains(42));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.Erase(42));
  EXPECT_FALSE(set.Erase(42));  // already gone
  EXPECT_FALSE(set.Contains(42));
  EXPECT_TRUE(set.empty());
}

TEST(FlatEdgeSetTest, RandomizedOracleAgainstUnorderedSet) {
  // Small key space so inserts collide with prior inserts, erases hit, and
  // probe chains shift repeatedly through the same table region.
  util::Rng rng(101);
  util::FlatEdgeSet set;
  std::unordered_set<uint64_t> oracle;
  for (int op = 0; op < 200000; ++op) {
    const uint64_t key = 1 + rng.UniformIndex(4096);
    switch (rng.UniformIndex(3)) {
      case 0:
        EXPECT_EQ(set.Insert(key), oracle.insert(key).second);
        break;
      case 1:
        EXPECT_EQ(set.Erase(key), oracle.erase(key) > 0);
        break;
      default:
        EXPECT_EQ(set.Contains(key), oracle.count(key) > 0);
        break;
    }
    ASSERT_EQ(set.size(), oracle.size());
  }
  // Full-membership sweep at the end.
  for (uint64_t key = 1; key <= 4096; ++key) {
    EXPECT_EQ(set.Contains(key), oracle.count(key) > 0) << key;
  }
  size_t seen = 0;
  set.ForEach([&](uint64_t key) {
    ++seen;
    EXPECT_TRUE(oracle.count(key) > 0) << key;
  });
  EXPECT_EQ(seen, oracle.size());
}

TEST(FlatEdgeSetTest, GrowthPreservesMembership) {
  util::FlatEdgeSet set;
  // Push far past the initial capacity so the table rehashes many times.
  for (uint64_t key = 1; key <= 100000; ++key) {
    ASSERT_TRUE(set.Insert(key * 2654435761ULL));
  }
  EXPECT_EQ(set.size(), 100000u);
  for (uint64_t key = 1; key <= 100000; ++key) {
    ASSERT_TRUE(set.Contains(key * 2654435761ULL));
    ASSERT_FALSE(set.Contains(key * 2654435761ULL + 1));
  }
}

TEST(FlatEdgeSetTest, BackwardShiftEraseKeepsChainsReachable) {
  // Insert a batch, erase every other key, and verify the survivors stay
  // findable — the case tombstone-free deletion gets wrong if the shift
  // condition is off by one.
  for (uint64_t trial = 0; trial < 32; ++trial) {
    util::FlatEdgeSet set;
    std::set<uint64_t> survivors;
    for (uint64_t i = 1; i <= 200; ++i) {
      const uint64_t key = trial * 1000003ULL + i;
      set.Insert(key);
      if (i % 2 == 0) {
        survivors.insert(key);
      }
    }
    for (uint64_t i = 1; i <= 200; i += 2) {
      ASSERT_TRUE(set.Erase(trial * 1000003ULL + i));
    }
    for (uint64_t key : survivors) {
      ASSERT_TRUE(set.Contains(key)) << "trial " << trial << " key " << key;
    }
    ASSERT_EQ(set.size(), survivors.size());
  }
}

TEST(FlatEdgeSetTest, AbsurdReserveHintTerminatesViaGraphClamp) {
  // Regression: an unclamped Reserve hint used to overflow the sizing loop
  // (`expected * 8` wraps; `want *= 2` wraps to 0) and hang forever.
  // Graph::ReserveEdges clamps the hint by the maximum possible edge count
  // of its node set, so absurd caller knobs stay cheap.
  graph::Graph g(100);
  g.ReserveEdges(UINT64_MAX);  // clamped to C(100, 2) = 4950
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(FlatEdgeSetTest, ReserveAvoidsGrowthAndClearKeepsCapacity) {
  util::FlatEdgeSet set(1000);
  const size_t reserved = set.capacity();
  for (uint64_t key = 1; key <= 1000; ++key) set.Insert(key);
  EXPECT_EQ(set.capacity(), reserved);  // no rehash under the reserved load
  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.capacity(), reserved);
  EXPECT_FALSE(set.Contains(1));
}

// ------------------------------------------------------- Find/InsertAt --

// Table order of the keys, as ForEach visits them.
std::vector<uint64_t> TableOrder(const util::FlatEdgeSet& set) {
  std::vector<uint64_t> keys;
  set.ForEach([&](uint64_t key) { keys.push_back(key); });
  return keys;
}

// The home slot of `key` in a table of `capacity` slots: FlatEdgeSet's
// private SplitMix64 finalizer, mirrored so a test can place keys on
// purpose. FindWrapsAroundTheTableEnd checks the mirror through ForEach.
size_t HomeSlot(uint64_t key, size_t capacity) {
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<size_t>(key ^ (key >> 31)) & (capacity - 1);
}

// The first `count` keys from 1 up whose home is the table's last slot.
std::vector<uint64_t> KeysHomedAtLastSlot(size_t capacity, size_t count) {
  std::vector<uint64_t> keys;
  for (uint64_t key = 1; keys.size() < count; ++key) {
    if (HomeSlot(key, capacity) == capacity - 1) keys.push_back(key);
  }
  return keys;
}

TEST(FlatEdgeSetTest, FindThenInsertAtMatchesInsert) {
  // A miss's slot is where Insert lands: a twin built with Insert ends in
  // the same table order. Small key space, so lookups hit often.
  util::Rng rng(131);
  util::FlatEdgeSet probed(3000);
  util::FlatEdgeSet inserted(3000);
  for (int op = 0; op < 6000; ++op) {
    const uint64_t key = 1 + rng.UniformIndex(4000);
    const util::FlatEdgeSet::Slot slot = probed.Find(key);
    ASSERT_EQ(slot.found, inserted.Contains(key)) << key;
    ASSERT_EQ(slot.key, key);
    if (!slot.found && probed.size() < 3000) {
      probed.InsertAt(slot);
      ASSERT_TRUE(inserted.Insert(key));
    }
  }
  EXPECT_EQ(probed.size(), inserted.size());
  EXPECT_EQ(probed.capacity(), inserted.capacity());
  EXPECT_EQ(TableOrder(probed), TableOrder(inserted));
}

TEST(FlatEdgeSetTest, FindWrapsAroundTheTableEnd) {
  util::FlatEdgeSet set(4);
  ASSERT_EQ(set.capacity(), 16u);
  // All four keys hash to slot 15: the first takes it, the next wrap to
  // slots 0 and 1, so table order starts with them and ends with the first.
  const std::vector<uint64_t> k = KeysHomedAtLastSlot(16, 4);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(set.Insert(k[i]));
  ASSERT_EQ(TableOrder(set), (std::vector<uint64_t>{k[1], k[2], k[0]}));

  const util::FlatEdgeSet::Slot hit = set.Find(k[2]);
  EXPECT_TRUE(hit.found);
  EXPECT_EQ(hit.index, 1u);
  const util::FlatEdgeSet::Slot miss = set.Find(k[3]);
  EXPECT_FALSE(miss.found);
  EXPECT_EQ(miss.index, 2u);  // past the end and two occupied slots
  set.InsertAt(miss);
  EXPECT_TRUE(set.Contains(k[3]));
  EXPECT_EQ(TableOrder(set), (std::vector<uint64_t>{k[1], k[2], k[3], k[0]}));
}

TEST(FlatEdgeSetTest, FindAfterEraseBackwardShift) {
  // Erasing the chain head at slot 15 shifts the wrapped keys back one slot
  // each (k1 to 15, k2 to 0); Find must see the shifted chain, and its miss
  // slot must be the hole the shift left at slot 1.
  const std::vector<uint64_t> k = KeysHomedAtLastSlot(16, 4);
  util::FlatEdgeSet set(4);
  util::FlatEdgeSet twin(4);
  for (int i = 0; i < 3; ++i) {
    set.Insert(k[i]);
    twin.Insert(k[i]);
  }
  ASSERT_TRUE(set.Erase(k[0]));
  ASSERT_TRUE(twin.Erase(k[0]));
  EXPECT_FALSE(set.Find(k[0]).found);
  EXPECT_EQ(set.Find(k[1]).index, 15u);
  EXPECT_EQ(set.Find(k[2]).index, 0u);
  const util::FlatEdgeSet::Slot miss = set.Find(k[3]);
  EXPECT_FALSE(miss.found);
  EXPECT_EQ(miss.index, 1u);
  set.InsertAt(miss);
  twin.Insert(k[3]);
  EXPECT_EQ(TableOrder(set), TableOrder(twin));
}

TEST(FlatEdgeSetDeathTest, InsertAtRejectsAStaleOrFullSlot) {
  util::FlatEdgeSet set(4);
  const util::FlatEdgeSet::Slot slot = set.Find(7);
  set.Insert(9);  // the set changed between Find and InsertAt
  EXPECT_DEATH(set.InsertAt(slot), "AGMDP_CHECK failed");

  // Ten keys fill 16 slots to the 5/8 limit: the eleventh needs a rehash.
  util::FlatEdgeSet full(4);
  for (uint64_t key = 1; key <= 10; ++key) full.Insert(key);
  ASSERT_EQ(full.capacity(), 16u);
  EXPECT_DEATH(full.InsertAt(full.Find(11)), "AGMDP_CHECK failed");
}

// ------------------------------------------------- Graph equivalence ----

// The Graph facade over FlatEdgeSet must behave exactly like a reference
// implementation over std::set under arbitrary add/remove/query mixes.
TEST(FlatEdgeSetTest, GraphMutationEquivalence) {
  constexpr graph::NodeId kNodes = 64;
  util::Rng rng(303);
  graph::Graph g(kNodes);
  std::set<std::pair<graph::NodeId, graph::NodeId>> oracle;
  for (int op = 0; op < 50000; ++op) {
    const auto u = static_cast<graph::NodeId>(rng.UniformIndex(kNodes));
    const auto v = static_cast<graph::NodeId>(rng.UniformIndex(kNodes));
    const auto key = std::make_pair(std::min(u, v), std::max(u, v));
    switch (rng.UniformIndex(3)) {
      case 0: {
        const bool inserted = u != v && oracle.insert(key).second;
        EXPECT_EQ(g.AddEdge(u, v), inserted);
        break;
      }
      case 1: {
        const bool erased = u != v && oracle.erase(key) > 0;
        EXPECT_EQ(g.RemoveEdge(u, v), erased);
        break;
      }
      default:
        EXPECT_EQ(g.HasEdge(u, v), oracle.count(key) > 0);
        break;
    }
    ASSERT_EQ(g.num_edges(), oracle.size());
  }
  // Canonical edge lists agree exactly.
  std::vector<graph::Edge> expected;
  for (const auto& [u, v] : oracle) expected.emplace_back(u, v);
  EXPECT_EQ(g.CanonicalEdges(), expected);
  // Degrees agree with the oracle's incidence counts.
  for (graph::NodeId v = 0; v < kNodes; ++v) {
    uint32_t degree = 0;
    for (const auto& [a, b] : oracle) degree += (a == v || b == v) ? 1 : 0;
    EXPECT_EQ(g.Degree(v), degree) << v;
  }
}

// ------------------------------------------------------- SaturatingMul --

TEST(MathUtilTest, SaturatingArithmetic) {
  EXPECT_EQ(util::SaturatingMul(3, 7), 21u);
  EXPECT_EQ(util::SaturatingMul(0, UINT64_MAX), 0u);
  EXPECT_EQ(util::SaturatingMul(UINT64_MAX, 2), UINT64_MAX);
  EXPECT_EQ(util::SaturatingMul(1ULL << 63, 2), UINT64_MAX);
  EXPECT_EQ(util::SaturatingMul(1ULL << 32, 1ULL << 32), UINT64_MAX);
  EXPECT_EQ(util::SaturatingAdd(1, 2), 3u);
  EXPECT_EQ(util::SaturatingAdd(UINT64_MAX, 1), UINT64_MAX);
}

// ---------------------------------------------------------- WorkerPool --

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnce) {
  util::WorkerPool pool(4);
  for (int batch = 0; batch < 50; ++batch) {
    std::vector<int> hits(97, 0);
    pool.Run(97, [&](int i) { ++hits[i]; });
    for (int i = 0; i < 97; ++i) ASSERT_EQ(hits[i], 1) << "batch " << batch;
  }
}

TEST(WorkerPoolTest, SingleWorkerRunsInline) {
  util::WorkerPool pool(1);
  EXPECT_EQ(pool.num_workers(), 1);
  std::vector<int> order;
  pool.Run(8, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// --------------------------------------- sampler determinism contract --

agm::AgmParams SmallParams(int w, util::Rng& rng) {
  // A synthetic parameter set with enough structure for filtering to bite:
  // skewed degrees and a non-uniform attribute mix.
  agm::AgmParams params;
  params.w = w;
  const uint32_t node_dim = graph::NumNodeConfigs(w);
  const uint32_t edge_dim = graph::NumEdgeConfigs(w);
  params.theta_x.assign(node_dim, 0.0);
  for (uint32_t y = 0; y < node_dim; ++y) {
    params.theta_x[y] = 1.0 + static_cast<double>(y % 3);
  }
  double sum_x = 0.0;
  for (double p : params.theta_x) sum_x += p;
  for (double& p : params.theta_x) p /= sum_x;
  params.theta_f.assign(edge_dim, 0.0);
  for (uint32_t y = 0; y < edge_dim; ++y) {
    params.theta_f[y] = (y % 2 == 0) ? 2.0 : 0.5;
  }
  double sum_f = 0.0;
  for (double p : params.theta_f) sum_f += p;
  for (double& p : params.theta_f) p /= sum_f;
  params.degree_sequence.resize(400);
  uint64_t triangles_proxy = 0;
  for (size_t i = 0; i < params.degree_sequence.size(); ++i) {
    params.degree_sequence[i] =
        static_cast<uint32_t>(1 + rng.UniformIndex(8) + (i % 50 == 0 ? 20 : 0));
    triangles_proxy += params.degree_sequence[i];
  }
  params.target_triangles = triangles_proxy / 10;
  return params;
}

// The rewritten hot path must stay bitwise-identical at 1/2/4 threads for
// both paper models, both with acceptance filtering (iterations > 0) and
// without (iterations == 0 leaves the initial unfiltered structure).
TEST(SamplerHotPathDeterminismTest, BitwiseIdenticalAcrossThreads) {
  util::Rng setup_rng(7);
  for (int w : {1, 2}) {
    const agm::AgmParams params = SmallParams(w, setup_rng);
    for (const char* name : {"fcl", "tricycle"}) {
      const agm::StructuralModel& model =
          pipeline::FindStructuralModel(name)->model;
      for (int iterations : {0, 2}) {
        graph::AttributedGraph reference;
        for (int threads : {1, 2, 4}) {
          agm::AgmSampleOptions options;
          options.acceptance_iterations = iterations;
          util::WorkerPool pool(threads);
          util::Rng rng(99);
          auto sampled =
              agm::SampleAgmGraph(params, model, options, pool, rng);
          ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
          if (threads == 1) {
            reference = std::move(sampled).value();
          } else {
            EXPECT_EQ(reference.attributes(), sampled.value().attributes())
                << "w=" << w << " iterations=" << iterations
                << " threads=" << threads;
            EXPECT_EQ(reference.structure().CanonicalEdges(),
                      sampled.value().structure().CanonicalEdges())
                << "w=" << w << " iterations=" << iterations
                << " threads=" << threads;
          }
        }
        EXPECT_GT(reference.num_edges(), 0u);
      }
    }
  }
}

// Extreme per-edge proposal budgets must saturate, not wrap: a wrapped
// product used to shrink the budget to ~0 proposals and silently return a
// graph with no (or far too few) edges.
TEST(SamplerHotPathDeterminismTest, ExtremeProposalBudgetSaturates) {
  util::Rng setup_rng(11);
  const agm::AgmParams params = SmallParams(1, setup_rng);

  agm::AgmSampleOptions options;
  options.acceptance_iterations = 1;
  util::WorkerPool pool(1);
  util::Rng rng(5);
  // 2^63 per edge: any even quota wraps the product to exactly 0.
  auto sampled = agm::SampleAgmGraph(
      params, agm::ShardedFclModel(1ULL << 63), options, pool, rng);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  EXPECT_GT(sampled.value().num_edges(), 100u);
}

}  // namespace
}  // namespace agmdp
