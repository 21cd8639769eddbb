// The candidate kernel of the pi x pi proposal loops: the sequential and
// the sharded Fast Chung-Lu passes (which also seed TriCycLe and TCL and
// run the cFCL pilot) and the registry's filtered top-up. Section 4 pushes
// AGM's acceptance filter into these loops.
//
// A proposal draws u and v i.i.d. from pi and succeeds when u != v, {u, v}
// is not already accepted, and the filter accepts it. With AGM's acceptance
// table the filter is a Bernoulli(A(x_u, x_v)) coin, independent of the
// dedup test, so the order of the three tests does not change the law:
// whether a proposal is a *candidate* (u != v and the coin lands) is an
// i.i.d. Bernoulli(q) event, q = sum over u != v of pi_u pi_v A(x_u, x_v),
// and a candidate's pair has law proportional to pi_u pi_v A(x_u, x_v) on
// u != v. The table arm samples that process directly: a geometric gap
// counts the proposals up to and including the next candidate, an alias
// table over attribute-class pairs (a, b) weighted by
//     M(a, b) = A(a, b) (Pi_a Pi_b - [a = b] S_a)
// (Pi_a the class's pi mass, S_a its sum of pi_u^2) picks the classes, and
// per-class alias tables pick u and v, redrawn together while u == v. A
// duplicate candidate still spends its proposals, so quotas, budgets and
// shortfalls keep their distribution while the work falls from O(proposed)
// to O(candidates).
//
// Without a table (no filter, or a predicate) the pi arm draws u, then v,
// from the alias table over all nodes, one proposal each, and the loop asks
// the filter after its dedup test: the per-proposal stream of a plain
// rejection loop, draw for draw.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/graph/attribute_encoding.h"
#include "src/graph/graph.h"
#include "src/models/edge_filter.h"
#include "src/util/alias_sampler.h"
#include "src/util/flat_edge_set.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::models {

/// Nodes grouped by attribute configuration: one permutation plus offsets.
/// Only configurations some node carries form a class; classes ascend by
/// configuration, and members by node id. A function of the attribute
/// vector alone, so a sampler builds it once per sample.
struct AttributeClasses {
  /// Groups nodes [0, n) by configs[u] < k.
  static AttributeClasses Build(const graph::AttrConfig* configs, size_t n,
                                size_t k);

  size_t size() const { return config.size(); }

  std::vector<graph::NodeId> members;     // grouped by class
  std::vector<uint32_t> begin;            // class c: [begin[c], begin[c+1])
  std::vector<graph::AttrConfig> config;  // class c's configuration
};

/// pi within each class of an AttributeClasses, for one weight vector: the
/// class mass Pi_c, the self-pair mass S_c = sum of pi_u^2 over the class,
/// and an alias table over the class's members, all classes in one flat
/// bucket array laid out like `members`. A class of zero mass has no table
/// and is never drawn.
struct ClassWeights {
  /// An alias bucket holding node ids, so a draw reads no other array.
  struct Bucket {
    double prob = 0.0;        // keep `node` with this probability
    graph::NodeId node = 0;   // the member at this position
    graph::NodeId alias = 0;  // otherwise this member
  };

  /// Draws a member of class c (Pi_c > 0) with probability pi_u / Pi_c:
  /// the draws and the branch-free select of AliasSampler::Sample.
  graph::NodeId Sample(size_t c, util::Rng& rng) const {
    const uint32_t first = classes->begin[c];
    const Bucket& b =
        buckets[first + rng.UniformIndex(classes->begin[c + 1] - first)];
    const graph::NodeId keep =
        graph::NodeId{0} - graph::NodeId{rng.UniformDouble() < b.prob};
    return b.alias ^ ((b.node ^ b.alias) & keep);
  }

  std::shared_ptr<const AttributeClasses> classes;
  std::vector<double> mass;       // Pi_c
  std::vector<double> self_mass;  // S_c
  std::vector<Bucket> buckets;
};

class CandidateKernel;

/// pi of one weight vector in the form a pass draws from: the alias table
/// over all nodes, or, when the pass's filter is an acceptance table, the
/// per-class tables of the table's attribute classes.
class PiTables {
 public:
  /// Weights must be finite and non-negative with a positive sum (the
  /// AliasSampler contract); a table filter must cover every node.
  static util::Result<PiTables> Build(const std::vector<double>& weights,
                                      const EdgeFilter& filter);

  /// The same form over new weights; a table form keeps its classes (cFCL's
  /// calibrated pass).
  util::Result<PiTables> Reweighted(const std::vector<double>& weights) const;

 private:
  friend class CandidateKernel;

  std::optional<util::AliasSampler> nodes_;
  std::optional<ClassWeights> classes_;
};

/// \brief The proposal stream of one pass: pi drawn through its filter.
///
/// Run(loop) calls loop(arm) with the pass's arm, whose two calls make a
/// proposal loop:
///   - Propose(rng, left, u, v) draws the next candidate pair within the
///     `left` proposals still in the budget and subtracts the proposals it
///     consumed; false when the budget runs out first.
///   - Admit(u, v, rng) is the filter's test after the caller's dedup test
///     (always true in the table arm, whose candidates have passed it).
class CandidateKernel {
 public:
  /// The kernel of a pass filtered by `filter` over `pi`, which must be
  /// built for the same filter mode (PiTables::Build(weights, filter)).
  /// Both must outlive the kernel.
  CandidateKernel(const PiTables& pi, const EdgeFilter& filter);

  template <typename Loop>
  void Run(Loop&& loop) const {
    if (table_.classes != nullptr) {
      loop(table_);
    } else {
      loop(pi_);
    }
  }

  /// Draws u, then v, from pi over all nodes: one proposal each, a
  /// self-loop spends its proposal and draws again.
  struct PiArm {
    bool Propose(util::Rng& rng, uint64_t& left, graph::NodeId& u,
                 graph::NodeId& v) const {
      while (left > 0) {
        --left;
        u = static_cast<graph::NodeId>(pi->Sample(rng));
        v = static_cast<graph::NodeId>(pi->Sample(rng));
        if (u != v) return true;
      }
      return false;
    }
    bool Admit(graph::NodeId u, graph::NodeId v, util::Rng& rng) const {
      return filter->Accept(u, v, rng);
    }

    const util::AliasSampler* pi = nullptr;
    const EdgeFilter* filter = nullptr;
  };

  /// Skips straight to the proposals the acceptance table lets through.
  struct TableArm {
    bool Propose(util::Rng& rng, uint64_t& left, graph::NodeId& u,
                 graph::NodeId& v) const {
      if (!pairs) return false;  // no pair passes the filter
      // Proposals up to and including the next candidate: 1 + Geometric(q).
      // Checked against 2^64 as a double before the cast, so a huge gap
      // (tiny q) never overflows it.
      const double gap =
          1.0 + std::floor(std::log(1.0 - rng.UniformDouble()) / log1m_q);
      if (!(gap < 0x1p64) || static_cast<uint64_t>(gap) > left) return false;
      left -= static_cast<uint64_t>(gap);
      const uint32_t pair = class_pairs[pairs->Sample(rng)];
      do {
        u = classes->Sample(pair >> 16, rng);
        v = classes->Sample(pair & 0xffff, rng);
      } while (u == v);
      return true;
    }
    bool Admit(graph::NodeId, graph::NodeId, util::Rng&) const {
      return true;
    }

    const ClassWeights* classes = nullptr;
    std::optional<util::AliasSampler> pairs;  // over p = a * k + b
    std::vector<uint32_t> class_pairs;        // p -> a << 16 | b
    double log1m_q = 0.0;  // log1p(-q); -inf when q rounds to 1
  };

 private:
  PiArm pi_;
  TableArm table_;
};

/// One proposal pass into `out` (a graph::Graph or an FclPilot): candidates
/// until `out` holds `target` edges or `budget` proposals are spent; a
/// candidate already in `out` is dropped. `order`, when non-null, receives
/// the added edges in insertion order.
template <typename Out>
void ProposeInto(const CandidateKernel& kernel, util::Rng& rng,
                 uint64_t budget, uint64_t target, Out& out,
                 std::vector<graph::Edge>* order) {
  kernel.Run([&](const auto& arm) {
    graph::NodeId u = 0;
    graph::NodeId v = 0;
    uint64_t left = budget;
    while (out.num_edges() < target && arm.Propose(rng, left, u, v)) {
      if (out.HasEdge(u, v) || !arm.Admit(u, v, rng)) continue;
      out.AddEdge(u, v);
      if (order != nullptr) order->emplace_back(u, v);
    }
  });
}

/// One shard of the sharded FCL pass: draws from `rng` until `quota`
/// distinct edges are accepted or `budget` proposals are spent. Each
/// candidate is looked up once in the shard's dedup set and, when new (and
/// admitted), stored in the slot that lookup found (the set is reserved
/// for `quota` keys, so no insert rehashes).
inline std::vector<graph::Edge> DrawShard(const CandidateKernel& kernel,
                                          uint64_t quota, uint64_t budget,
                                          util::Rng rng) {
  util::FlatEdgeSet seen(quota);
  std::vector<graph::Edge> edges(quota);
  uint64_t count = 0;
  kernel.Run([&](const auto& arm) {
    graph::NodeId u = 0;
    graph::NodeId v = 0;
    uint64_t left = budget;
    while (count < quota && arm.Propose(rng, left, u, v)) {
      const util::FlatEdgeSet::Slot slot = seen.Find(graph::PackEdge(u, v));
      if (slot.found || !arm.Admit(u, v, rng)) continue;
      seen.InsertAt(slot);
      edges[count++] = graph::Edge(u, v);
    }
  });
  edges.resize(count);
  return edges;
}

}  // namespace agmdp::models
