#include "src/models/tricycle.h"

#include <algorithm>

#include "src/graph/triangle_count.h"
#include "src/models/edge_age_queue.h"
#include "src/util/check.h"
#include "src/util/math_util.h"

namespace agmdp::models {

namespace {

// Common-neighbor counting scratch for the sequential rewiring loop.
//
// Graph::CommonNeighborCount probes the global edge-set hash once per
// neighbor of the lower-degree endpoint; on the degree-biased pairs the
// rewiring loop evaluates (both endpoints drawn ~proportional to degree),
// those probes are scattered reads over a table far larger than cache. The
// stamp strategy instead marks Γ(a) in a dense per-node epoch array (n
// uint32s — L2-resident at our scales) and scans Γ(b) against it: two
// sequential passes, deg(a) + deg(b) work, no hashing. For strongly
// asymmetric pairs (leaf × hub) the probe strategy's min-degree factor
// still wins, so Count picks per query.
class NeighborStamp {
 public:
  explicit NeighborStamp(graph::NodeId n) : stamp_(n, 0) {}

  uint32_t Count(const graph::Graph& g, graph::NodeId a, graph::NodeId b) {
    const auto& na = g.Neighbors(a);
    const auto& nb = g.Neighbors(b);
    const size_t total = na.size() + nb.size();
    const size_t smaller = std::min(na.size(), nb.size());
    // ~16 stamp-array touches cost about one scattered hash probe.
    if (total > 16 * smaller) return g.CommonNeighborCount(a, b);
    if (++epoch_ == 0) {  // epoch wrapped: all stamps are stale-but-valid
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
    for (graph::NodeId w : na) stamp_[w] = epoch_;
    uint32_t count = 0;
    // w == a cannot be stamped (a is never its own neighbor) and w == b
    // never appears in Γ(b), so no endpoint exclusion is needed.
    for (graph::NodeId w : nb) count += stamp_[w] == epoch_ ? 1 : 0;
    return count;
  }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

// Everything GenerateTriCycLe returns except the final triangle recount:
// achieved_triangles stays 0 and reached_target reflects the loop's own
// running count alone.
util::Result<TriCycLeResult> Rewire(const std::vector<uint32_t>& degrees,
                                    uint64_t target_triangles, util::Rng& rng,
                                    const TriCycLeOptions& options) {
  if (degrees.empty()) {
    return util::Status::InvalidArgument("TriCycLe: empty degree sequence");
  }
  const auto n = static_cast<graph::NodeId>(degrees.size());

  uint64_t total_degree = 0;
  uint64_t degree_one = 0;
  for (uint32_t d : degrees) {
    total_degree += d;
    if (d == 1) ++degree_one;
  }
  // A simple graph holds at most C(n, 2) edges; the clamp also bounds the
  // default rewiring budget.
  const uint64_t m_target =
      std::min(total_degree / 2, graph::MaxPossibleEdges(n));
  if (m_target == 0) {
    TriCycLeResult empty{graph::Graph(n), target_triangles, 0, 0,
                         target_triangles == 0};
    return empty;
  }

  // pi with degree-one nodes excluded (falling back to inclusion when the
  // sequence has no higher-degree mass at all).
  bool exclude = true;
  auto pi = BuildPiSampler(degrees, /*exclude_degree_one=*/true);
  if (!pi.ok()) {
    exclude = false;
    pi = BuildPiSampler(degrees, /*exclude_degree_one=*/false);
  }
  if (!pi.ok()) return pi.status();

  // Seed graph: m - |N1| edges over the pi-eligible nodes (line 2 + the
  // extension), with edge insertion order recorded for the age queue.
  std::vector<uint32_t> seed_degrees = degrees;
  if (exclude) {
    for (auto& d : seed_degrees) {
      if (d == 1) d = 0;
    }
  }
  ChungLuOptions seed_options;
  seed_options.target_edges =
      exclude ? (m_target > degree_one ? m_target - degree_one : 1) : m_target;
  seed_options.filter = options.filter;
  std::vector<graph::Edge> insertion_order;
  seed_options.insertion_order = &insertion_order;
  auto seed = FastChungLu(seed_degrees, rng, seed_options);
  if (!seed.ok()) return seed.status();
  graph::Graph g = std::move(seed).value();

  // Post-processing deletes and re-adds edges, so the age queue is built
  // afterwards from the whole history, holding each live edge once.
  std::vector<graph::Edge> added;
  if (options.post_process) {
    PostProcessGraph(&g, degrees, pi.value(), rng, &added);
  }
  EdgeAgeQueue age = EdgeAgeQueue::FromHistory(g, insertion_order, added);
  std::vector<graph::Edge>().swap(insertion_order);  // the queue holds it now

  uint64_t tau = graph::CountTriangles(g);
  const uint64_t max_proposals =
      options.max_proposals > 0 ? options.max_proposals
                                : util::SaturatingMul(200, m_target);

  TriCycLeResult result;
  result.target_triangles = target_triangles;

  NeighborStamp common_neighbors(n);
  uint64_t proposals = 0;
  while (tau < target_triangles && proposals < max_proposals) {
    ++proposals;
    // Lines 5-9: friend-of-a-friend proposal.
    auto vi = static_cast<graph::NodeId>(pi.value().Sample(rng));
    if (g.Degree(vi) == 0) continue;
    const auto& gamma_i = g.Neighbors(vi);
    graph::NodeId vk = gamma_i[rng.UniformIndex(gamma_i.size())];
    const auto& gamma_k = g.Neighbors(vk);
    graph::NodeId vj = gamma_k[rng.UniformIndex(gamma_k.size())];
    if (vj == vi || g.HasEdge(vi, vj)) continue;
    // AGM-DP's modified line-10 condition: the acceptance filter gates the
    // proposed edge (Section 4, footnote 4).
    if (!AcceptEdge(options.filter, vi, vj, rng)) continue;

    // Line 11: the oldest edge. The queue holds exactly the live edges (a
    // swap pops one and pushes one), so the popped edge is live.
    graph::Edge oldest;
    if (!age.PopOldest(&oldest)) break;  // edgeless: nothing to replace

    // Lines 12-19: keep the swap only if the net triangle count would not
    // decrease. The old edge is removed before evaluating the proposal
    // (its presence could inflate CN_ij).
    const uint32_t cn_old = common_neighbors.Count(g, oldest.u, oldest.v);
    g.RemoveEdge(oldest.u, oldest.v);
    const uint32_t cn_new = common_neighbors.Count(g, vi, vj);
    if (cn_new >= cn_old) {
      g.AddEdge(vi, vj);
      age.Push(graph::Edge(vi, vj));
      tau += cn_new - cn_old;
    } else {
      g.AddEdge(oldest.u, oldest.v);
      age.Push(oldest);  // undo: re-inserted as the youngest edge
    }
  }

  if (options.post_process) {
    PostProcessGraph(&g, degrees, pi.value(), rng);
  }

  result.proposals = proposals;
  result.reached_target = tau >= target_triangles;
  result.graph = std::move(g);
  return result;
}

}  // namespace

util::Result<graph::Graph> GenerateTriCycLeGraph(
    const std::vector<uint32_t>& degrees, uint64_t target_triangles,
    util::Rng& rng, const TriCycLeOptions& options) {
  auto result = Rewire(degrees, target_triangles, rng, options);
  if (!result.ok()) return result.status();
  return std::move(result).value().graph;
}

util::Result<TriCycLeResult> GenerateTriCycLe(
    const std::vector<uint32_t>& degrees, uint64_t target_triangles,
    util::Rng& rng, const TriCycLeOptions& options) {
  auto result = Rewire(degrees, target_triangles, rng, options);
  if (!result.ok()) return result;
  TriCycLeResult& r = result.value();
  r.achieved_triangles = graph::CountTriangles(r.graph);
  r.reached_target =
      r.reached_target || r.achieved_triangles >= target_triangles;
  return result;
}

}  // namespace agmdp::models
