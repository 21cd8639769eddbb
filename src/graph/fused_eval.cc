#include "src/graph/fused_eval.h"

#include <algorithm>
#include <utility>

#include "src/graph/attribute_encoding.h"
#include "src/graph/fused_eval_impl.h"
#include "src/util/parallel.h"

namespace agmdp::graph {

namespace internal {

namespace {

// Forward orientation by the (degree, id) total order — the same order
// CountTriangles ranks by, built here by direct comparison so no
// O(n log n) rank sort is needed. Counting and filling both touch only
// slots their node range owns.
ForwardAdjacency BuildDegreeOrderedForward(const CsrGraph& g, int threads) {
  const NodeId n = g.num_nodes();
  ForwardAdjacency fwd;
  fwd.offsets.assign(static_cast<size_t>(n) + 1, 0);
  const auto forward_of = [&g](NodeId u, NodeId v) {
    const uint32_t du = g.Degree(u), dv = g.Degree(v);
    return du != dv ? du < dv : u < v;
  };
  util::ParallelNodeRanges(n, threads, [&](uint64_t begin, uint64_t end) {
    for (uint64_t ui = begin; ui < end; ++ui) {
      const auto u = static_cast<NodeId>(ui);
      uint64_t count = 0;
      for (NodeId v : g.Neighbors(u)) {
        if (forward_of(u, v)) ++count;
      }
      fwd.offsets[ui + 1] = count;
    }
  });
  for (NodeId u = 0; u < n; ++u) fwd.offsets[u + 1] += fwd.offsets[u];
  fwd.neighbors.resize(fwd.offsets[n]);
  util::ParallelNodeRanges(n, threads, [&](uint64_t begin, uint64_t end) {
    for (uint64_t ui = begin; ui < end; ++ui) {
      const auto u = static_cast<NodeId>(ui);
      NodeId* out = fwd.neighbors.data() + fwd.offsets[ui];
      for (NodeId v : g.Neighbors(u)) {
        if (forward_of(u, v)) *out++ = v;
      }
    }
  });
  return fwd;
}

// Sweep B: per-node triangle counts, dispatched between the scalar and
// AVX2 instantiations of the one shared body. Per-worker count arrays
// merge by integer addition, so any partition yields the same counts.
std::vector<uint64_t> FusedPerNodeTriangles(const CsrGraph& g, int threads,
                                            util::SimdIsa isa) {
  const NodeId n = g.num_nodes();
  std::vector<uint64_t> counts(n, 0);
  if (n == 0) return counts;
  const ForwardAdjacency fwd = BuildDegreeOrderedForward(g, threads);
  const auto kernel = util::ResolveSimdIsa(isa) == util::SimdIsa::kAvx2
                          ? &TriangleCreditRangeAvx2
                          : &TriangleCreditRange<ScalarArch>;
  struct Local {
    std::vector<uint32_t> marks;
    std::vector<uint64_t> counts;
  };
  util::ParallelTally(
      n, threads,
      [n] {
        Local local;
        local.marks.assign((static_cast<size_t>(n) + 31) / 32, 0);
        local.counts.assign(n, 0);
        return local;
      },
      [&](Local& local, uint64_t begin, uint64_t end) {
        kernel(fwd, begin, end, local.marks.data(), local.counts.data());
      },
      [&](const Local& local) {
        for (NodeId v = 0; v < n; ++v) counts[v] += local.counts[v];
      });
  return counts;
}

// Sweep A: one pass over the canonical (u < v) edges collecting every
// edge-level tally and the degree-assortativity partials. Integer tallies
// merge order-free; the double partials land in slots owned by their
// source node and reduce in node order afterwards.
struct SweepAResult {
  std::vector<uint64_t> degree_histogram;
  std::vector<uint64_t> mixing_counts;
  double sum_xy = 0.0;
  double sum_x = 0.0;
  double sum_x2 = 0.0;
};

SweepAResult SweepA(const CsrGraph& g, const AttrConfig* attrs, uint32_t k,
                    int threads) {
  const NodeId n = g.num_nodes();
  SweepAResult result;
  result.degree_histogram.assign(static_cast<size_t>(g.MaxDegree()) + 1, 0);
  // k == 0 means the structure-only overload: no mixing tallies at all.
  result.mixing_counts.assign(static_cast<size_t>(k) * k, 0);
  std::vector<double> pxy(n), px(n), px2(n);

  struct Local {
    std::vector<uint64_t> hist;
    std::vector<uint64_t> mixing;
  };
  util::ParallelTally(
      n, threads,
      [&] {
        Local local;
        local.hist.assign(result.degree_histogram.size(), 0);
        local.mixing.assign(result.mixing_counts.size(), 0);
        return local;
      },
      [&](Local& local, uint64_t begin, uint64_t end) {
        for (uint64_t ui = begin; ui < end; ++ui) {
          const auto u = static_cast<NodeId>(ui);
          ++local.hist[g.Degree(u)];
          const double du = g.Degree(u);
          double a = 0.0, b = 0.0, c = 0.0;
          const NeighborRange range = g.Neighbors(u);
          for (const NodeId* v =
                   std::upper_bound(range.begin(), range.end(), u);
               v != range.end(); ++v) {
            const double dv = g.Degree(*v);
            a += 2.0 * du * dv;
            b += du + dv;
            c += du * du + dv * dv;
            if (k != 0) {
              const AttrConfig x = attrs[u], y = attrs[*v];
              ++local.mixing[static_cast<size_t>(x) * k + y];
              ++local.mixing[static_cast<size_t>(y) * k + x];
            }
          }
          pxy[ui] = a;
          px[ui] = b;
          px2[ui] = c;
        }
      },
      [&](const Local& local) {
        for (size_t i = 0; i < local.hist.size(); ++i) {
          result.degree_histogram[i] += local.hist[i];
        }
        for (size_t i = 0; i < local.mixing.size(); ++i) {
          result.mixing_counts[i] += local.mixing[i];
        }
      });
  for (NodeId u = 0; u < n; ++u) {
    result.sum_xy += pxy[u];
    result.sum_x += px[u];
    result.sum_x2 += px2[u];
  }
  return result;
}

// The attribute families are pure functions of the ordered-endpoint mixing
// tallies: every ordered count is doubled relative to the per-edge count
// (off-diagonal pairs appear once per direction, diagonal cells get two
// increments per edge), so halving recovers the exact edge tallies.

std::vector<uint64_t> HomophilyCountsFromMixing(
    const std::vector<uint64_t>& mixing, uint32_t k, int num_attributes) {
  std::vector<uint64_t> counts(static_cast<size_t>(num_attributes), 0);
  for (int a = 0; a < num_attributes; ++a) {
    uint64_t ordered = 0;
    for (uint32_t x = 0; x < k; ++x) {
      for (uint32_t y = 0; y < k; ++y) {
        if ((~(x ^ y) >> a) & 1u) {
          ordered += mixing[static_cast<size_t>(x) * k + y];
        }
      }
    }
    counts[static_cast<size_t>(a)] = ordered / 2;
  }
  return counts;
}

std::vector<uint64_t> ConnectionCountsFromMixing(
    const std::vector<uint64_t>& mixing, uint32_t k, int num_attributes) {
  std::vector<uint64_t> counts(NumEdgeConfigs(num_attributes), 0);
  for (uint32_t a = 0; a < k; ++a) {
    counts[EncodeEdgeConfig(a, a, num_attributes)] =
        mixing[static_cast<size_t>(a) * k + a] / 2;
    for (uint32_t b = a + 1; b < k; ++b) {
      counts[EncodeEdgeConfig(a, b, num_attributes)] =
          mixing[static_cast<size_t>(a) * k + b];
    }
  }
  return counts;
}

// num_attributes < 0 selects the structure-only variant; an attributed
// graph always produces its mixing-derived families, even when empty (the
// attribute data pointer may legitimately be null for n == 0, so it is NOT
// the discriminator).
FusedStats FusedEvaluateImpl(const CsrGraph& g, const AttrConfig* attrs,
                             int num_attributes, const FusedOptions& opts) {
  FusedStats stats;
  stats.num_nodes = g.num_nodes();
  stats.num_edges = g.num_edges();
  const uint32_t k = num_attributes >= 0 ? NumNodeConfigs(num_attributes) : 0;

  SweepAResult sweep_a = SweepA(g, attrs, k, opts.threads);
  stats.degree_histogram = std::move(sweep_a.degree_histogram);
  stats.assort_sum_xy = sweep_a.sum_xy;
  stats.assort_sum_x = sweep_a.sum_x;
  stats.assort_sum_x2 = sweep_a.sum_x2;

  if (num_attributes >= 0) {
    stats.num_configs = k;
    stats.homophily_counts =
        HomophilyCountsFromMixing(sweep_a.mixing_counts, k, num_attributes);
    stats.connection_counts =
        ConnectionCountsFromMixing(sweep_a.mixing_counts, k, num_attributes);
    stats.mixing_counts = std::move(sweep_a.mixing_counts);
  }

  if (opts.triangles) {
    stats.clustering = ClusteringStatsFromTriangles(
        g, FusedPerNodeTriangles(g, opts.threads, opts.isa));
  }
  return stats;
}

}  // namespace

}  // namespace internal

FusedStats FusedEvaluate(const CsrGraph& g, const FusedOptions& opts) {
  return internal::FusedEvaluateImpl(g, nullptr, -1, opts);
}

FusedStats FusedEvaluate(const AttributedCsrGraph& g,
                         const FusedOptions& opts) {
  return internal::FusedEvaluateImpl(g.structure, g.attributes_data(),
                                     g.num_attributes, opts);
}

}  // namespace agmdp::graph
