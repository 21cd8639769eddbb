#include "src/dp/geometric_mechanism.h"

#include <cmath>
#include <limits>

#include "src/util/check.h"

namespace agmdp::dp {

int64_t TwoSidedGeometricNoise(double epsilon, double sensitivity,
                               util::Rng& rng) {
  AGMDP_CHECK(epsilon > 0.0);
  AGMDP_CHECK(sensitivity > 0.0);
  const double alpha = std::exp(-epsilon / sensitivity);
  // |noise| ~ mixture: 0 w.p. (1-alpha)/(1+alpha); otherwise
  // 1 + Geometric(1 - alpha), with a uniform sign.
  const double p_zero = (1.0 - alpha) / (1.0 + alpha);
  if (rng.Bernoulli(p_zero)) return 0;
  // 1 + Geometric, saturated: a saturated draw must not wrap to 0.
  const uint64_t failures = rng.Geometric(1.0 - alpha);
  const int64_t magnitude =
      failures < static_cast<uint64_t>(std::numeric_limits<int64_t>::max())
          ? static_cast<int64_t>(1 + failures)
          : std::numeric_limits<int64_t>::max();
  return rng.Bernoulli(0.5) ? magnitude : -magnitude;
}

int64_t GeometricMechanism(int64_t value, double sensitivity, double epsilon,
                           util::Rng& rng) {
  return value + TwoSidedGeometricNoise(epsilon, sensitivity, rng);
}

}  // namespace agmdp::dp
