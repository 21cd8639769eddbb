#include "src/models/holme_kim.h"

#include <algorithm>
#include <cmath>

#include "src/graph/csr.h"
#include "src/graph/fused_eval.h"
#include "src/graph/triangle_count.h"
#include "src/util/check.h"

namespace agmdp::models {

util::Result<graph::Graph> HolmeKim(graph::NodeId n,
                                    const HolmeKimOptions& options,
                                    util::Rng& rng) {
  const double m_frac = options.edges_per_node;
  if (m_frac < 1.0) {
    return util::Status::InvalidArgument(
        "HolmeKim: edges_per_node must be >= 1");
  }
  const auto m_ceil = static_cast<uint32_t>(std::ceil(m_frac));
  if (n < m_ceil + 2) {
    return util::Status::InvalidArgument("HolmeKim: n too small");
  }
  if (options.triad_probability < 0.0 || options.triad_probability > 1.0) {
    return util::Status::InvalidArgument(
        "HolmeKim: triad_probability must be in [0, 1]");
  }

  graph::Graph g(n);
  // Degree-proportional sampling via the repeated-endpoints trick: every
  // edge appends both endpoints, so a uniform draw from the vector is a
  // preferential-attachment draw.
  std::vector<graph::NodeId> endpoints;
  endpoints.reserve(static_cast<size_t>(2.0 * m_frac * n) + 16);

  // Seed: a path over the first m_ceil + 1 nodes (connected, minimal bias).
  const graph::NodeId seed_nodes = m_ceil + 1;
  for (graph::NodeId v = 0; v + 1 < seed_nodes; ++v) {
    g.AddEdge(v, v + 1);
    endpoints.push_back(v);
    endpoints.push_back(v + 1);
  }

  const auto m_floor = static_cast<uint32_t>(std::floor(m_frac));
  const double extra_edge_prob = m_frac - m_floor;
  // Dispersed mode: m_v = 1 + Geometric(p) with E[m_v] = 1/p = m_frac,
  // capped to keep single-node bursts bounded.
  const double geometric_p = 1.0 / std::max(1.0, m_frac);
  const auto m_cap = static_cast<uint32_t>(std::ceil(8.0 * m_frac));
  for (graph::NodeId v = seed_nodes; v < n; ++v) {
    uint32_t m_v;
    if (options.disperse_edge_counts) {
      m_v = std::min<uint32_t>(
          m_cap, 1 + static_cast<uint32_t>(rng.Geometric(geometric_p)));
    } else {
      m_v = std::max<uint32_t>(
          1, m_floor + (rng.Bernoulli(extra_edge_prob) ? 1 : 0));
    }
    // The degree cap must bound the new node's own burst too, not just its
    // targets' degrees (a dispersed m_v can exceed max_degree).
    if (options.max_degree > 0) m_v = std::min(m_v, options.max_degree);
    graph::NodeId last_target = 0;
    bool have_target = false;
    uint32_t added = 0;
    uint32_t guard = 0;
    while (added < m_v && guard < 200 * m_v) {
      ++guard;
      graph::NodeId target;
      const bool triad =
          have_target && rng.Bernoulli(options.triad_probability);
      if (triad) {
        // Triad step: neighbor of the previous preferential target.
        const auto& nbrs = g.Neighbors(last_target);
        target = nbrs[rng.UniformIndex(nbrs.size())];
      } else {
        target = endpoints[rng.UniformIndex(endpoints.size())];
      }
      if (options.max_degree > 0 && g.Degree(target) >= options.max_degree) {
        continue;
      }
      if (target == v || !g.AddEdge(v, target)) continue;
      endpoints.push_back(v);
      endpoints.push_back(target);
      ++added;
      if (!triad) {
        last_target = target;
        have_target = true;
      }
    }
  }
  return g;
}

double CalibrateTriadProbability(const HolmeKimOptions& base, double target,
                                 graph::NodeId pilot_nodes, util::Rng& rng,
                                 TriadTarget metric) {
  auto measure = [&](double p) {
    HolmeKimOptions options = base;
    options.triad_probability = p;
    auto g = HolmeKim(pilot_nodes, options, rng);
    AGMDP_CHECK(g.ok());
    if (metric == TriadTarget::kAvgClustering) {
      return graph::FusedEvaluate(graph::CsrGraph::FromGraph(g.value()))
          .clustering.avg_local_clustering;
    }
    return static_cast<double>(graph::CountTriangles(g.value())) /
           static_cast<double>(pilot_nodes);
  };

  // Both statistics increase with p. If even p = 1 undershoots, saturate
  // (the caller's target is outside the model's reachable range).
  if (measure(1.0) < target) return 1.0;
  double lo = 0.0, hi = 1.0;
  // 7 bisection steps pin p to ~1%.
  for (int iter = 0; iter < 7; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (measure(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

}  // namespace agmdp::models
