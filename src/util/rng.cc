#include "src/util/rng.h"

#include <cmath>

#include "src/util/check.h"

namespace agmdp::util {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
  // Guard against an all-zero state (cannot happen with SplitMix64, but the
  // invariant is cheap to enforce).
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  AGMDP_CHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return lo + static_cast<int64_t>(UniformIndex(span));
}

double Rng::Laplace(double scale) {
  AGMDP_CHECK(scale > 0.0);
  // Inverse CDF on u in (-1/2, 1/2).
  double u = UniformDouble() - 0.5;
  // Avoid log(0) when u == -0.5 exactly.
  double a = 1.0 - 2.0 * std::fabs(u);
  if (a <= 0.0) a = 0x1.0p-53;
  double sign = (u >= 0.0) ? 1.0 : -1.0;
  return -sign * scale * std::log(a);
}

double Rng::Exponential(double rate) {
  AGMDP_CHECK(rate > 0.0);
  double u = UniformDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / rate;
}

double Rng::Gaussian() {
  // Box-Muller; one value per call (the twin is discarded for simplicity).
  double u1 = UniformDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

uint64_t Rng::Geometric(double p) {
  AGMDP_CHECK(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  double u = UniformDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return static_cast<uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

Rng Rng::Fork() { return Rng(Next()); }

Rng Rng::Substream(uint64_t base_seed, uint64_t stream_index) {
  // Jump the SplitMix64 walk `stream_index` steps past `base_seed` (the
  // walk advances by the golden-ratio gamma, so the jump is closed-form),
  // then push the landing point through one full SplitMix64 mix before
  // seeding. Without the mix, adjacent stream indices would hand the
  // xoshiro constructor overlapping 4-word seeding windows (75% shared
  // state); the avalanche step decorrelates neighboring shards.
  uint64_t jumped = base_seed + stream_index * 0x9e3779b97f4a7c15ULL;
  return Rng(SplitMix64(&jumped));
}

}  // namespace agmdp::util
