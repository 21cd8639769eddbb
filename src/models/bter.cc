#include "src/models/bter.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/graph/clustering.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/fused_eval.h"
#include "src/util/alias_sampler.h"
#include "src/util/check.h"

namespace agmdp::models {

BterParams FitBter(const graph::Graph& g) {
  BterParams params;
  params.degrees = graph::DegreeSequence(g);
  const graph::CsrGraph snapshot = graph::CsrGraph::FromGraph(g);
  params.clustering_by_degree = graph::DegreeWiseClusteringFromCoefficients(
      snapshot, graph::FusedEvaluate(snapshot).clustering.local_coefficients);
  return params;
}

util::Result<graph::Graph> GenerateBter(const BterParams& params,
                                        util::Rng& rng) {
  const size_t n = params.degrees.size();
  if (n == 0) {
    return util::Status::InvalidArgument("BTER: empty degree sequence");
  }

  // Nodes sorted by desired degree ascending; degree-1 nodes skip phase 1
  // (a block of size 2 cannot contribute clustering).
  std::vector<graph::NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](graph::NodeId a, graph::NodeId b) {
                     return params.degrees[a] < params.degrees[b];
                   });

  graph::Graph g(static_cast<graph::NodeId>(n));
  std::vector<double> residual(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    residual[i] = params.degrees[i];
  }

  auto clustering_at = [&](uint32_t d) {
    if (d < params.clustering_by_degree.size()) {
      return std::clamp(params.clustering_by_degree[d], 0.0, 1.0);
    }
    return 0.0;
  };

  // Phase 1: affinity blocks. Each block takes the next (d + 1) unassigned
  // nodes where d is the smallest remaining desired degree >= 2, and is
  // wired as ER(rho) with rho = c_d^(1/3) (a triangle in a block needs
  // three independent edges, so edge density cbrt(c) yields clustering ~c).
  size_t cursor = 0;
  while (cursor < n && params.degrees[order[cursor]] < 2) ++cursor;
  while (cursor < n) {
    const uint32_t d = params.degrees[order[cursor]];
    const size_t block_size =
        std::min<size_t>(static_cast<size_t>(d) + 1, n - cursor);
    if (block_size < 3) break;  // no clustering possible; leave to phase 2
    const double rho = std::cbrt(clustering_at(d));
    for (size_t i = 0; i < block_size; ++i) {
      for (size_t j = i + 1; j < block_size; ++j) {
        if (!rng.Bernoulli(rho)) continue;
        const graph::NodeId u = order[cursor + i];
        const graph::NodeId v = order[cursor + j];
        if (g.AddEdge(u, v)) {
          residual[u] -= 1.0;
          residual[v] -= 1.0;
        }
      }
    }
    cursor += block_size;
  }

  // Phase 2: Chung-Lu over the residual expected degrees.
  double residual_total = 0.0;
  for (double& r : residual) {
    r = std::max(0.0, r);
    residual_total += r;
  }
  const auto phase2_edges = static_cast<uint64_t>(residual_total / 2.0);
  if (phase2_edges > 0) {
    auto sampler = util::AliasSampler::Build(residual);
    if (sampler.ok()) {
      const uint64_t max_proposals = 200 * phase2_edges;
      uint64_t proposals = 0;
      uint64_t added = 0;
      while (added < phase2_edges && proposals < max_proposals) {
        ++proposals;
        const auto u =
            static_cast<graph::NodeId>(sampler.value().Sample(rng));
        const auto v =
            static_cast<graph::NodeId>(sampler.value().Sample(rng));
        if (u == v || !g.AddEdge(u, v)) continue;
        ++added;
      }
    }
  }
  return g;
}

}  // namespace agmdp::models
