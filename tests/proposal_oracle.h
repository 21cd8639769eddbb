// The per-proposal rejection loop that models::CandidateKernel replaced in
// the pi x pi proposal loops, kept as the reference the kernel's
// statistical test samples against. Each proposal draws u, then v, from pi,
// rejects u == v, looks {u, v} up in the shard's dedup set and only then
// asks the filter, whose table mode flips one Bernoulli(A(x_u, x_v)) coin;
// an accepted pair joins the set. It stops at `quota` accepted edges or
// after `budget` proposals, like models::DrawShard.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/models/edge_filter.h"
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

}  // namespace agmdp::oracle
