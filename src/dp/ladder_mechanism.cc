#include "src/dp/ladder_mechanism.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/graph/subgraph_counts.h"
#include "src/graph/triangle_count.h"
#include "src/util/check.h"

namespace agmdp::dp {

namespace {

// Top two degrees (0 if absent).
std::pair<uint32_t, uint32_t> TopTwoDegrees(const graph::CsrGraph& g) {
  uint32_t first = 0, second = 0;
  for (uint32_t d : g.degrees()) {
    if (d >= first) {
      second = first;
      first = d;
    } else if (d > second) {
      second = d;
    }
  }
  return {first, second};
}

// Second-largest degree. A valid upper bound on the max common-neighbor
// count: |Γ(u) ∩ Γ(v)| <= min(d_u, d_v), and the min over any pair is at
// most the second-largest degree.
uint32_t SecondLargestDegree(const graph::CsrGraph& g) {
  return TopTwoDegrees(g).second;
}

// C(n, k) in floating point via lgamma (k-star ladders overflow integers).
double BinomialDouble(double n, double k) {
  if (k < 0.0 || k > n) return 0.0;
  if (k == 0.0 || k == n) return 1.0;
  return std::exp(std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
                  std::lgamma(n - k + 1.0));
}

}  // namespace

util::Result<int64_t> DpTriangleCount(const graph::CsrGraph& g, double epsilon,
                                      util::Rng& rng,
                                      const LadderOptions& options,
                                      LadderDiagnostics* diagnostics) {
  if (epsilon <= 0.0) {
    return util::Status::InvalidArgument("DpTriangleCount: epsilon <= 0");
  }
  const graph::NodeId n = g.num_nodes();
  if (n < 3) return int64_t{0};  // no triangles possible; data-independent

  const int64_t true_count = static_cast<int64_t>(graph::CountTriangles(g));
  const uint32_t cap = n - 2;  // a pair has at most n - 2 common neighbors

  uint32_t base = 0;
  bool exact = false;
  if (!options.force_degree_bound) {
    auto exact_base = graph::MaxCommonNeighborCount(g, options.max_exact_work);
    if (exact_base.ok()) {
      base = exact_base.value();
      exact = true;
    }
  }
  if (!exact) base = std::min(SecondLargestDegree(g), cap);
  base = std::min(base, cap);
  if (diagnostics != nullptr) {
    diagnostics->ladder_base = base;
    diagnostics->used_exact_base = exact;
  }

  // Ladder: I_t = min(base + t, cap). Rung t >= 1 has 2 * I_{t-1} values and
  // weight 2 * I_{t-1} * q^t with q = e^{-eps/2}; rung 0 has weight 1.
  const double q = std::exp(-epsilon / 2.0);
  const uint64_t t_sat = cap > base ? cap - base : 0;  // I_t = cap for t>=t_sat

  // Finite rungs t = 1 .. t_sat (whose width I_{t-1} is still below cap),
  // then a closed-form geometric tail of width-cap rungs.
  std::vector<double> rung_weight;  // rung_weight[t] for t = 0..t_sat
  rung_weight.reserve(t_sat + 1);
  rung_weight.push_back(1.0);  // rung 0
  double q_pow = 1.0;
  double finite_total = 1.0;
  for (uint64_t t = 1; t <= t_sat; ++t) {
    q_pow *= q;
    const double width = 2.0 * static_cast<double>(base + (t - 1));
    const double w = width * q_pow;
    rung_weight.push_back(w);
    finite_total += w;
    if (w < 1e-300 && t > 1) {
      // Deeper rungs (and the tail) carry no representable mass.
      break;
    }
  }
  const uint64_t computed = rung_weight.size() - 1;  // deepest finite rung
  double tail_total = 0.0;
  if (computed == t_sat) {
    // q^(t_sat + 1) * 2 * cap / (1 - q), the mass of all width-cap rungs.
    tail_total = q_pow * q * 2.0 * static_cast<double>(cap) / (1.0 - q);
  }

  // Sample a rung.
  double u = rng.UniformDouble() * (finite_total + tail_total);
  uint64_t rung = 0;
  bool in_tail = true;
  for (uint64_t t = 0; t < rung_weight.size(); ++t) {
    if (u < rung_weight[t]) {
      rung = t;
      in_tail = false;
      break;
    }
    u -= rung_weight[t];
  }
  if (in_tail) {
    // Geometric over width-cap rungs beyond t_sat.
    rung = t_sat + 1 + rng.Geometric(1.0 - q);
  }

  int64_t result = true_count;
  if (rung > 0) {
    // Cumulative ladder height below this rung: sum_{s < rung-1} I_s.
    const uint64_t steps_below = rung - 1;
    const uint64_t linear_steps = std::min(steps_below, t_sat);
    // sum_{s=0}^{linear_steps-1} (base + s), plus cap for saturated steps.
    double cum = static_cast<double>(base) * linear_steps +
                 static_cast<double>(linear_steps) * (linear_steps - 1) / 2.0 +
                 static_cast<double>(steps_below - linear_steps) *
                     static_cast<double>(cap);
    const uint64_t width =
        std::min<uint64_t>(base + (rung - 1), cap);  // I_{rung-1}
    AGMDP_CHECK(width > 0);
    const uint64_t offset = rng.UniformIndex(2 * width);
    const int64_t magnitude =
        static_cast<int64_t>(cum) + static_cast<int64_t>(offset / 2) + 1;
    result = offset % 2 == 0 ? true_count + magnitude : true_count - magnitude;
  }

  // Post-processing: clamp into the feasible range [0, C(n, 3)].
  const long double max_triangles = static_cast<long double>(n) * (n - 1) *
                                    (n - 2) / 6.0L;
  if (result < 0) result = 0;
  if (static_cast<long double>(result) > max_triangles) {
    result = static_cast<int64_t>(max_triangles);
  }
  return result;
}

util::Result<double> DpKStarCount(const graph::CsrGraph& g, uint32_t k,
                                  double epsilon, util::Rng& rng) {
  if (epsilon <= 0.0) {
    return util::Status::InvalidArgument("DpKStarCount: epsilon <= 0");
  }
  if (k < 2) {
    return util::Status::InvalidArgument("DpKStarCount: k must be >= 2");
  }
  const graph::NodeId n = g.num_nodes();
  if (n <= k) return 0.0;  // no k-stars possible; data-independent

  const double true_count =
      static_cast<double>(graph::CountKStars(g, k));
  const auto [d1, d2] = TopTwoDegrees(g);

  // Ladder width at step t: one edit at distance t can touch two nodes whose
  // degrees have each grown by at most t (capped at n - 1).
  const double dmax_cap = static_cast<double>(n - 1);
  auto width = [&](uint64_t t) {
    const double a = std::min(static_cast<double>(d1) + t, dmax_cap);
    const double b = std::min(static_cast<double>(d2) + t, dmax_cap);
    return BinomialDouble(a, k - 1) + BinomialDouble(b, k - 1);
  };
  const uint64_t t_sat = d2 < n - 1 ? (n - 1) - d2 : 0;

  const double q = std::exp(-epsilon / 2.0);
  std::vector<double> rung_weight = {1.0};
  std::vector<double> cum_width = {0.0};  // sum of widths below rung t
  double q_pow = 1.0;
  double finite_total = 1.0;
  for (uint64_t t = 1; t <= t_sat; ++t) {
    q_pow *= q;
    const double w_width = width(t - 1);
    const double w = 2.0 * w_width * q_pow;
    cum_width.push_back(cum_width.back() + w_width);
    rung_weight.push_back(w);
    finite_total += w;
    if (w < 1e-280 && t > 1 && q_pow < 1e-280) break;
  }
  const uint64_t computed = rung_weight.size() - 1;
  double tail_total = 0.0;
  if (computed == t_sat) {
    tail_total = q_pow * q * 2.0 * width(t_sat) / (1.0 - q);
  }

  double u = rng.UniformDouble() * (finite_total + tail_total);
  uint64_t rung = 0;
  bool in_tail = true;
  for (uint64_t t = 0; t < rung_weight.size(); ++t) {
    if (u < rung_weight[t]) {
      rung = t;
      in_tail = false;
      break;
    }
    u -= rung_weight[t];
  }
  if (in_tail) rung = t_sat + 1 + rng.Geometric(1.0 - q);

  double result = true_count;
  if (rung > 0) {
    const uint64_t steps_below = rung - 1;
    double cum;
    if (steps_below < cum_width.size()) {
      cum = cum_width[steps_below];
    } else {
      cum = cum_width.back() +
            static_cast<double>(steps_below - (cum_width.size() - 1)) *
                width(t_sat);
    }
    const double w_width = width(rung - 1);
    // Continuous offset within the rung (documented approximation: at the
    // magnitudes k-star ladders reach, integer granularity is immaterial).
    const double offset = cum + rng.UniformDouble() * w_width;
    result = rng.Bernoulli(0.5) ? true_count + offset : true_count - offset;
  }

  const double max_stars =
      static_cast<double>(n) * BinomialDouble(dmax_cap, k);
  return std::clamp(result, 0.0, max_stars);
}

}  // namespace agmdp::dp
