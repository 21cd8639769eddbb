// Ladder mechanism for differentially private triangle counts
// (Zhang et al., SIGMOD 2015; used by Algorithm 6, line 9 of the paper).
//
// The local sensitivity of the triangle count at an edge {u, v} is
// |Γ(u) ∩ Γ(v)|, so the graph's local sensitivity is
// a_max = max over node pairs of the common-neighbor count, and a valid
// "ladder" (an upper bound on the local sensitivity at edit distance t that
// is monotone in t and compatible across neighboring graphs) is
//     I_t(G) = min(base(G) + t, n - 2),
// where base(G) is either the exact a_max (each edge edit changes any a_uv by
// at most one) or, when exact wedge enumeration exceeds a work budget, the
// second-largest degree (a_uv <= min(d_u, d_v), and one edit moves the
// second-largest degree by at most one).
//
// The mechanism centers a "ladder" of rungs on the true count M: rung 0 is
// {M}; rung t >= 1 holds the 2 * I_{t-1} integers at distance
// (sum_{s<t-1} I_s, sum_{s<t} I_s] from M on either side. A rung is sampled
// with probability proportional to size * exp(-eps * t / 2) (exponential
// mechanism with quality -t, sensitivity 1 — pure eps-DP), then a value
// uniform within the rung. The geometric tail after the ladder saturates at
// n - 2 is sampled in closed form.
#pragma once

#include <cstdint>

#include "src/graph/csr.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::dp {

struct LadderOptions {
  /// Wedge-work budget for the exact a_max scan; beyond it the degree bound
  /// is used instead (see DESIGN.md substitution #6).
  uint64_t max_exact_work = 200'000'000;
  /// Forces the degree-based ladder base (for ablation benchmarks).
  bool force_degree_bound = false;
};

struct LadderDiagnostics {
  uint32_t ladder_base = 0;   // I_0
  bool used_exact_base = false;
};

/// eps-DP estimate of the triangle count. The result is clamped to
/// [0, C(n,3)]. `diagnostics`, if non-null, reports which ladder base was
/// used. Fails on non-positive epsilon.
util::Result<int64_t> DpTriangleCount(const graph::CsrGraph& g, double epsilon,
                                      util::Rng& rng,
                                      const LadderOptions& options = {},
                                      LadderDiagnostics* diagnostics = nullptr);

/// eps-DP estimate of the k-star count (k >= 2), also via the Ladder
/// framework. One edge edit changes the count by C(d_u, k-1) + C(d_v, k-1),
/// so the ladder is I_t = C(min(d1+t, n-1), k-1) + C(min(d2+t, n-1), k-1)
/// with d1, d2 the two largest degrees. Returns a double: k-star counts
/// overflow 64-bit integers on large graphs, and at that magnitude the
/// rung offsets are sampled continuously (documented approximation).
util::Result<double> DpKStarCount(const graph::CsrGraph& g, uint32_t k,
                                  double epsilon, util::Rng& rng);

}  // namespace agmdp::dp
