#include "src/stats/assortativity.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/util/parallel.h"

namespace agmdp::stats {

double DegreeAssortativityFromSums(double sum_xy, double sum_x,
                                   double sum_x2, uint64_t num_edges) {
  if (num_edges == 0) return 0.0;
  // Pearson correlation over the 2m ordered endpoint pairs.
  const double count = 2.0 * static_cast<double>(num_edges);
  const double mean = sum_x / count;
  const double var = sum_x2 / count - mean * mean;
  if (var <= 0.0) return 0.0;
  const double cov = sum_xy / count - mean * mean;
  return cov / var;
}

double AttributeAssortativityFromMixingCounts(
    const std::vector<uint64_t>& counts, uint32_t k, uint64_t num_edges) {
  if (num_edges == 0) return 0.0;
  // Normalized mixing matrix e over ordered endpoints; the integer tallies
  // make it exact.
  const double total = 2.0 * static_cast<double>(num_edges);
  std::vector<double> mixing(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    mixing[i] = static_cast<double>(counts[i]) / total;
  }
  double trace = 0.0, squared = 0.0;
  for (uint32_t a = 0; a < k; ++a) {
    trace += mixing[static_cast<size_t>(a) * k + a];
    // (e^2)_aa summed over a = sum over a,b of e_ab * e_ba; e is symmetric.
    for (uint32_t b = 0; b < k; ++b) {
      const double e_ab = mixing[static_cast<size_t>(a) * k + b];
      squared += e_ab * e_ab;
    }
  }
  if (1.0 - squared <= 1e-12) return 0.0;  // single category: undefined -> 0
  return (trace - squared) / (1.0 - squared);
}

std::vector<double> PerAttributeHomophilyFromCounts(
    const std::vector<uint64_t>& counts, uint64_t num_edges) {
  std::vector<double> same(counts.size(), 0.0);
  if (num_edges == 0) return same;
  const double m = static_cast<double>(num_edges);
  for (size_t a = 0; a < counts.size(); ++a) {
    same[a] = static_cast<double>(counts[a]) / m;
  }
  return same;
}

double DegreeAssortativity(const graph::CsrGraph& g, int threads) {
  if (g.num_edges() == 0) return 0.0;
  const graph::NodeId n = g.num_nodes();
  // Per-node partials are written by exactly one worker and reduce in node
  // order, so every thread count yields the same chain of additions.
  std::vector<double> pxy(n), px(n), px2(n);
  util::ParallelNodeRanges(n, threads, [&](uint64_t begin, uint64_t end) {
    for (uint64_t ui = begin; ui < end; ++ui) {
      const auto u = static_cast<graph::NodeId>(ui);
      const double du = g.Degree(u);
      const graph::NeighborRange range = g.Neighbors(u);
      double a = 0.0, b = 0.0, c = 0.0;
      for (const graph::NodeId* v =
               std::upper_bound(range.begin(), range.end(), u);
           v != range.end(); ++v) {
        const double dv = g.Degree(*v);
        a += 2.0 * du * dv;
        b += du + dv;
        c += du * du + dv * dv;
      }
      pxy[ui] = a;
      px[ui] = b;
      px2[ui] = c;
    }
  });
  double sum_xy = 0.0, sum_x = 0.0, sum_x2 = 0.0;
  for (graph::NodeId u = 0; u < n; ++u) {
    sum_xy += pxy[u];
    sum_x += px[u];
    sum_x2 += px2[u];
  }
  return DegreeAssortativityFromSums(sum_xy, sum_x, sum_x2, g.num_edges());
}

double AttributeAssortativity(const graph::AttributedCsrGraph& g,
                              int threads) {
  if (g.num_edges() == 0) return 0.0;
  const uint32_t k = graph::NumNodeConfigs(g.num_attributes);
  const graph::NodeId n = g.num_nodes();
  // Integer tallies merge order-free, so per-worker buffers reduce to the
  // same counts at any thread count.
  std::vector<uint64_t> counts(static_cast<size_t>(k) * k, 0);
  util::ParallelTally(
      n, threads, [&] { return std::vector<uint64_t>(counts.size(), 0); },
      [&](std::vector<uint64_t>& local, uint64_t begin, uint64_t end) {
        for (uint64_t ui = begin; ui < end; ++ui) {
          const auto u = static_cast<graph::NodeId>(ui);
          for (graph::NodeId v : g.structure.Neighbors(u)) {
            if (v <= u) continue;
            const graph::AttrConfig a = g.attribute(u), b = g.attribute(v);
            ++local[static_cast<size_t>(a) * k + b];
            ++local[static_cast<size_t>(b) * k + a];
          }
        }
      },
      [&](const std::vector<uint64_t>& local) {
        for (size_t i = 0; i < counts.size(); ++i) counts[i] += local[i];
      });
  return AttributeAssortativityFromMixingCounts(counts, k, g.num_edges());
}

std::vector<double> PerAttributeHomophily(const graph::AttributedCsrGraph& g,
                                          int threads) {
  const auto w = static_cast<size_t>(g.num_attributes);
  std::vector<double> same(w, 0.0);
  if (g.num_edges() == 0 || w == 0) return same;
  const graph::NodeId n = g.num_nodes();
  std::vector<uint64_t> counts(w, 0);
  util::ParallelTally(
      n, threads, [&] { return std::vector<uint64_t>(w, 0); },
      [&](std::vector<uint64_t>& local, uint64_t begin, uint64_t end) {
        for (uint64_t ui = begin; ui < end; ++ui) {
          const auto u = static_cast<graph::NodeId>(ui);
          for (graph::NodeId v : g.structure.Neighbors(u)) {
            if (v <= u) continue;
            const graph::AttrConfig agree =
                ~(g.attribute(u) ^ g.attribute(v));
            for (size_t a = 0; a < w; ++a) {
              if ((agree >> a) & 1u) ++local[a];
            }
          }
        }
      },
      [&](const std::vector<uint64_t>& local) {
        for (size_t a = 0; a < w; ++a) counts[a] += local[a];
      });
  return PerAttributeHomophilyFromCounts(counts, g.num_edges());
}

}  // namespace agmdp::stats
