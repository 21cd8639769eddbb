#include "src/dp/smooth_sensitivity.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace agmdp::dp {

namespace {

// max over integer t >= 0 of e^{-t beta} * min(base + slope * t, cap).
// The unconstrained maximizer of e^{-t beta} (base + slope t) is
// t* = 1/beta - base/slope; past the cap the expression decays, so the
// optimum is at one of: t = 0, floor(t*), ceil(t*), or the saturation point.
double SmoothMaxLinearCapped(double base, double slope, double cap,
                             double beta) {
  AGMDP_CHECK(beta > 0.0);
  AGMDP_CHECK(slope > 0.0);
  auto value = [&](double t) {
    return std::exp(-t * beta) * std::min(base + slope * t, cap);
  };
  double best = value(0.0);
  const double t_star = 1.0 / beta - base / slope;
  if (t_star > 0.0) {
    best = std::max(best, value(std::floor(t_star)));
    best = std::max(best, value(std::ceil(t_star)));
  }
  const double t_sat = (cap - base) / slope;
  if (t_sat > 0.0) {
    best = std::max(best, value(std::ceil(t_sat)));
  }
  return best;
}

}  // namespace

double SmoothSensitivityBeta(double epsilon, double delta) {
  AGMDP_CHECK(epsilon > 0.0);
  AGMDP_CHECK(delta > 0.0 && delta < 1.0);
  return epsilon / (2.0 * std::log(1.0 / delta));
}

double SmoothSensitivityQF(uint32_t dmax, graph::NodeId n, double beta) {
  AGMDP_CHECK(n >= 2);
  const double cap = 2.0 * static_cast<double>(n) - 2.0;
  return SmoothMaxLinearCapped(2.0 * static_cast<double>(dmax), 2.0, cap,
                               beta);
}

double SmoothLaplaceScaleQF(uint32_t dmax, graph::NodeId n, double epsilon,
                            double delta) {
  const double beta = SmoothSensitivityBeta(epsilon, delta);
  const double smooth = SmoothSensitivityQF(dmax, n, beta);
  return 2.0 * smooth / epsilon;
}

double NodeDpSmoothLaplaceScaleQF(uint32_t dmax, uint32_t k, graph::NodeId n,
                                  double epsilon, double delta) {
  const double beta = SmoothSensitivityBeta(epsilon, delta);
  const double cap = 2.0 * static_cast<double>(n) - 2.0;
  const double base = 2.0 * (static_cast<double>(dmax) + 2.0 * k);
  const double slope = 2.0 * static_cast<double>(k);
  const double smooth = SmoothMaxLinearCapped(base, slope, cap, beta);
  return 2.0 * smooth / epsilon;
}

}  // namespace agmdp::dp
