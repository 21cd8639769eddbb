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
// to O(candidates). The gap's log is taken only when the budget could bind
// (CandidateGap, TableArm); a pass still stops at the same candidate, with
// the same stream, as with one log per candidate.
//
// Without a table (no filter, or a predicate) the pi arm draws u, then v,
// from the alias table over all nodes, one proposal each, and the loop asks
// the filter after its dedup test: the per-proposal stream of a plain
// rejection loop, draw for draw.
//
// DrawShard fills a dedup set and an edge buffer its caller owns; the AGM
// sampler keeps them in its per-sample plan, so a warm shard allocates
// nothing.
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

/// \brief The table arm's gap: the proposals up to and including the next
/// candidate, 1 + Geometric(q), read from one UniformDouble U as
///     Exact(U) = 1 + floor(log(1 - U) / log1p(-q))
/// (the skip of Batagelj and Brandes, Phys. Rev. E 71, 2005).
///
/// The gap only feeds the pass's budget test, so most candidates need not
/// evaluate the log: with h = max(2, ceil(3 / q)), every U <= fast_below =
/// -expm1(h log1p(-q)) gives Exact(U) <= 1 + h, and such a candidate may be
/// charged `bound` = 2h proposals instead; the factor of two absorbs the
/// rounding of expm1, log and the division. A share (1 - q)^h <= e^-3 of
/// the candidates lies above the threshold. Below kMinFastRate the bound,
/// near 6 / q, would reach the budget's usual 200 proposals per edge
/// within a pass's candidates and force settles (CandidateKernel::TableArm),
/// so there `bound` is 0 and every gap is exact.
struct CandidateGap {
  static constexpr double kMinFastRate = 1.0 / 16;

  CandidateGap() = default;
  /// The gap of candidate rate q in (0, 1].
  explicit CandidateGap(double q);

  /// The gap U draws, as a double: huge (tiny q) gaps are compared with
  /// 2^64 before any cast.
  double Exact(double uniform) const {
    return 1.0 + std::floor(std::log(1.0 - uniform) / log1m_q);
  }

  double log1m_q = 0.0;      // log1p(-q); -inf when q rounds to 1
  uint64_t bound = 0;        // charged per log-free candidate; 0: none is
  double fast_below = -1.0;  // U <= this gives Exact(U) <= bound
};

/// The proposal budget of one pass as the arms spend it. The pi arm counts
/// `left` down proposal by proposal; the table arm charges its log-free
/// candidates an upper bound and counts exactly only when the budget could
/// bind (CandidateKernel::TableArm).
struct PassBudget {
  explicit PassBudget(uint64_t budget) : left(budget) {}

  uint64_t left;         // proposals left, exact as of the last settle
  uint64_t charged = 0;  // charged since then; at least the proposals spent
  uint64_t pending = 0;  // candidates charged since then
  util::Rng replay;      // the stream just before the first of them
};

class CandidateKernel;

/// pi of one weight vector in the form a pass draws from: the alias table
/// over all nodes, or, when the pass's filter is an acceptance table, the
/// per-class tables of the table's attribute classes.
class PiTables {
 public:
  /// Weights must be finite and non-negative with a positive sum (the
  /// AliasSampler contract); a table filter must cover every node.
  /// `worklist`, when given, is the alias builder's scratch (a caller that
  /// builds again keeps it; see util::BuildAliasBuckets).
  static util::Result<PiTables> Build(const std::vector<double>& weights,
                                      const EdgeFilter& filter,
                                      std::vector<uint32_t>* worklist =
                                          nullptr);

  /// Rebuilds `out` in this form over new weights, reusing out's storage;
  /// a table form keeps its classes (cFCL's calibrated pass). A failed
  /// call leaves `out` holding no table, so a kernel over it aborts until
  /// a call succeeds.
  util::Status ReweightInto(const std::vector<double>& weights,
                            std::vector<uint32_t>& worklist,
                            PiTables& out) const;

 private:
  friend class CandidateKernel;

  std::optional<util::AliasSampler> nodes_;
  std::optional<ClassWeights> classes_;
};

/// \brief The proposal stream of one pass: pi drawn through its filter.
///
/// Run(loop) calls loop(arm) with the pass's arm, whose two calls make a
/// proposal loop:
///   - Propose(rng, budget, u, v) draws the next candidate pair within the
///     proposals still in the PassBudget and charges the proposals it
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
    bool Propose(util::Rng& rng, PassBudget& budget, graph::NodeId& u,
                 graph::NodeId& v) const {
      while (budget.left > 0) {
        --budget.left;
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
  ///
  /// A candidate's draws are its gap's U, the class-pair alias draw and the
  /// two member draws, redrawn while u == v; none of them depends on the
  /// gap or on what the loop does with the pair. A log-free candidate
  /// (CandidateGap) is charged `gap.bound` while the charged total stays
  /// within the budget; any other is charged its exact gap while that fits.
  /// When neither fits the arm settles: it replays the draws of the
  /// candidates charged since the last settle from the saved stream,
  /// counts their exact gaps, and tests the current one against the exact
  /// remainder. A candidate passes exactly when the per-candidate loop
  /// (the exact gap of every candidate, tests/proposal_oracle.h) would
  /// pass it, so a pass stops at the same candidate with the same stream.
  struct TableArm {
    bool Propose(util::Rng& rng, PassBudget& budget, graph::NodeId& u,
                 graph::NodeId& v) const {
      if (!pairs) return false;  // no pair passes the filter
      if (budget.pending == 0) budget.replay = rng;
      const double uniform = rng.UniformDouble();
      if (uniform <= gap.fast_below &&
          budget.left - budget.charged >= gap.bound) {
        budget.charged += gap.bound;
        ++budget.pending;
      } else if (!ChargeExact(uniform, budget)) {
        return false;
      }
      DrawPair(rng, u, v);
      return true;
    }
    bool Admit(graph::NodeId, graph::NodeId, util::Rng&) const {
      return true;
    }

    /// A candidate's pair: the class pair, then u and v within it.
    void DrawPair(util::Rng& rng, graph::NodeId& u, graph::NodeId& v) const {
      const uint32_t pair = class_pairs[pairs->Sample(rng)];
      do {
        u = classes->Sample(pair >> 16, rng);
        v = classes->Sample(pair & 0xffff, rng);
      } while (u == v);
    }

    /// Charges the exact gap of `uniform`, settling first when the bound
    /// leaves too little; false when the exact remainder is too small.
    bool ChargeExact(double uniform, PassBudget& budget) const;

    const ClassWeights* classes = nullptr;
    std::optional<util::AliasSampler> pairs;  // over p = a * k + b
    std::vector<uint32_t> class_pairs;        // p -> a << 16 | b
    CandidateGap gap;
  };

 private:
  PiArm pi_;
  TableArm table_;
};

/// One proposal pass into `out` (a graph::Graph or an FclPilot): candidates
/// until `out` holds `target` edges or `budget` proposals are spent; a
/// candidate already in `out` is dropped. `order`, when non-null, receives
/// the added edges in insertion order. `out` is reserved for `target`
/// edges, so each candidate is looked up once (FindEdgeSlot) and, when new
/// (and admitted), stored in the slot that lookup found.
template <typename Out>
void ProposeInto(const CandidateKernel& kernel, util::Rng& rng,
                 uint64_t budget, uint64_t target, Out& out,
                 std::vector<graph::Edge>* order) {
  out.ReserveEdges(target);
  kernel.Run([&](const auto& arm) {
    graph::NodeId u = 0;
    graph::NodeId v = 0;
    PassBudget remaining(budget);
    while (out.num_edges() < target && arm.Propose(rng, remaining, u, v)) {
      const util::FlatEdgeSet::Slot slot = out.FindEdgeSlot(u, v);
      if (slot.found || !arm.Admit(u, v, rng)) continue;
      out.AddEdgeAt(slot, u, v);
      if (order != nullptr) order->emplace_back(u, v);
    }
  });
}

/// One shard of the sharded FCL pass: draws from `rng` until `quota`
/// distinct edges are accepted or `budget` proposals are spent, leaving the
/// accepted edges in `edges` in acceptance order. Each candidate is looked
/// up once in the dedup set `seen` and, when new (and admitted), stored in
/// the slot that lookup found. The set is cleared and reserved for twice
/// `quota` keys, so no insert rehashes and a lookup rarely probes past its
/// first slot. Both buffers are the caller's scratch: a sampler keeps them
/// across shards and passes, so a warm shard allocates nothing.
inline void DrawShard(const CandidateKernel& kernel, uint64_t quota,
                      uint64_t budget, util::Rng rng, util::FlatEdgeSet& seen,
                      std::vector<graph::Edge>& edges) {
  seen.Clear();
  seen.Reserve(2 * quota);
  edges.clear();
  edges.reserve(quota);
  kernel.Run([&](const auto& arm) {
    graph::NodeId u = 0;
    graph::NodeId v = 0;
    PassBudget remaining(budget);
    while (edges.size() < quota && arm.Propose(rng, remaining, u, v)) {
      const util::FlatEdgeSet::Slot slot = seen.Find(graph::PackEdge(u, v));
      if (slot.found || !arm.Admit(u, v, rng)) continue;
      seen.InsertAt(slot);
      edges.emplace_back(u, v);
    }
  });
}

}  // namespace agmdp::models
