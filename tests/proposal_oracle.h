// Reference loops for models::CandidateKernel, kept in tests/ as the
// oracles its tests compare against.
//
// RejectionDrawShard is the per-proposal rejection loop the kernel
// replaced in the pi x pi proposal loops, the reference the kernel's
// statistical test samples against. Each proposal draws u, then v, from
// pi, rejects u == v, looks {u, v} up in the shard's dedup set and only
// then asks the filter, whose table mode flips one Bernoulli(A(x_u, x_v))
// coin; an accepted pair joins the set. It stops at `quota` accepted edges
// or after `budget` proposals, like models::DrawShard.
//
// ExactDrawShard and ExactProposeInto are the table arm's loops as they
// were before log-free gaps: every candidate evaluates its exact gap and
// is tested against the exact remainder of the budget. The kernel's
// charged gaps and settles must reproduce them draw for draw.
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/graph/graph.h"
#include "src/models/edge_filter.h"
#include "src/models/proposal_kernel.h"
#include "src/util/alias_sampler.h"
#include "src/util/flat_edge_set.h"
#include "src/util/rng.h"

namespace agmdp::oracle {

inline std::vector<graph::Edge> RejectionDrawShard(
    const util::AliasSampler& pi, uint64_t quota, uint64_t budget,
    const models::EdgeFilter& filter, util::Rng rng) {
  util::FlatEdgeSet seen(quota);
  std::vector<graph::Edge> edges;
  for (uint64_t proposals = 0; edges.size() < quota && proposals < budget;
       ++proposals) {
    const auto u = static_cast<graph::NodeId>(pi.Sample(rng));
    const auto v = static_cast<graph::NodeId>(pi.Sample(rng));
    if (u == v) continue;
    const uint64_t key = graph::PackEdge(u, v);
    if (seen.Contains(key) || !filter.Accept(u, v, rng)) continue;
    seen.Insert(key);
    edges.emplace_back(u, v);
  }
  return edges;
}

/// models::DrawShard into fresh scratch: the shard's accepted edges.
inline std::vector<graph::Edge> DrawShardEdges(
    const models::CandidateKernel& kernel, uint64_t quota, uint64_t budget,
    util::Rng rng) {
  util::FlatEdgeSet seen;
  std::vector<graph::Edge> edges;
  models::DrawShard(kernel, quota, budget, rng, seen, edges);
  return edges;
}

/// The table arm of `kernel`; null when the kernel draws from the pi arm.
inline const models::CandidateKernel::TableArm* TableArmOf(
    const models::CandidateKernel& kernel) {
  const models::CandidateKernel::TableArm* table = nullptr;
  kernel.Run([&](const auto& arm) {
    if constexpr (std::is_same_v<std::decay_t<decltype(arm)>,
                                 models::CandidateKernel::TableArm>) {
      table = &arm;
    }
  });
  return table;
}

/// One candidate of the exact table arm: 1 + floor(log(1 - U) /
/// log1p(-q)) proposals, checked against 2^64 and the remainder `left`,
/// then the class pair and its members, redrawn while u == v.
inline bool ExactPropose(const models::CandidateKernel::TableArm& arm,
                         util::Rng& rng, uint64_t& left, graph::NodeId& u,
                         graph::NodeId& v) {
  if (!arm.pairs) return false;
  const double gap =
      1.0 + std::floor(std::log(1.0 - rng.UniformDouble()) / arm.gap.log1m_q);
  if (!(gap < 0x1p64) || static_cast<uint64_t>(gap) > left) return false;
  left -= static_cast<uint64_t>(gap);
  const uint32_t pair = arm.class_pairs[arm.pairs->Sample(rng)];
  do {
    u = arm.classes->Sample(pair >> 16, rng);
    v = arm.classes->Sample(pair & 0xffff, rng);
  } while (u == v);
  return true;
}

/// models::DrawShard's loop over the exact table arm; `rng` is left where
/// the pass ends.
inline std::vector<graph::Edge> ExactDrawShard(
    const models::CandidateKernel::TableArm& arm, uint64_t quota,
    uint64_t budget, util::Rng& rng) {
  util::FlatEdgeSet seen(quota);
  std::vector<graph::Edge> edges;
  graph::NodeId u = 0;
  graph::NodeId v = 0;
  uint64_t left = budget;
  while (edges.size() < quota && ExactPropose(arm, rng, left, u, v)) {
    if (seen.Insert(graph::PackEdge(u, v))) edges.emplace_back(u, v);
  }
  return edges;
}

/// models::ProposeInto's loop over the exact table arm.
template <typename Out>
void ExactProposeInto(const models::CandidateKernel::TableArm& arm,
                      util::Rng& rng, uint64_t budget, uint64_t target,
                      Out& out, std::vector<graph::Edge>* order) {
  graph::NodeId u = 0;
  graph::NodeId v = 0;
  uint64_t left = budget;
  while (out.num_edges() < target && ExactPropose(arm, rng, left, u, v)) {
    if (out.HasEdge(u, v)) continue;
    out.AddEdge(u, v);
    if (order != nullptr) order->emplace_back(u, v);
  }
}

}  // namespace agmdp::oracle
