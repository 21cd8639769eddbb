// Deterministic random number generation for the whole library.
//
// Every stochastic routine in agmdp takes an explicit Rng&; given the same
// seed the entire pipeline (graph generation, DP noise, model sampling) is
// reproducible. The generator is xoshiro256++ seeded via SplitMix64 — fast,
// high quality, and trivially copyable for sub-streams.
//
// The draws the generators make per proposal (Next, UniformDouble,
// UniformIndex, Bernoulli) are defined inline here, so an alias draw or a
// filter decision compiles to straight-line code instead of two or three
// out-of-line calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace agmdp::util {

/// \brief xoshiro256++ pseudo-random generator with distribution helpers.
class Rng {
 public:
  /// Seeds the state deterministically from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Returns the next raw 64-bit output.
  uint64_t Next() {
    const uint64_t result = RotL(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = RotL(state_[3], 45);
    return result;
  }

  /// Returns a uniform double in [0, 1).
  double UniformDouble() {
    // 53 random bits into [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Returns a uniform integer in [0, n). Requires n > 0.
  uint64_t UniformIndex(uint64_t n) {
    AGMDP_CHECK(n > 0);
    // Lemire's nearly-divisionless method: map the 64-bit draw to [0, n)
    // via the high half of a 128-bit product, rejecting the (rare) low-half
    // values that would bias the result. The common path costs one
    // multiply; the two integer divisions of the classic modulo-rejection
    // scheme only run when a rejection check is actually needed.
    unsigned __int128 m = static_cast<unsigned __int128>(Next()) *
                          static_cast<unsigned __int128>(n);
    auto low = static_cast<uint64_t>(m);
    if (low < n) {
      const uint64_t threshold = (0ULL - n) % n;
      while (low < threshold) {
        m = static_cast<unsigned __int128>(Next()) *
            static_cast<unsigned __int128>(n);
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Returns a uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Returns true with probability p (p clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// Samples Laplace(0, scale): density (1/2b) exp(-|x|/b). Requires
  /// scale > 0.
  double Laplace(double scale);

  /// Samples Exponential(rate): density rate * exp(-rate x). Requires
  /// rate > 0.
  double Exponential(double rate);

  /// Samples Geometric over {0,1,2,...} with success probability p in (0,1]:
  /// P[X = k] = (1-p)^k p, saturating at the largest uint64 (reachable for
  /// p below about 2e-18).
  uint64_t Geometric(double p);

  /// Returns an independent child generator (seeded from this stream), for
  /// handing to parallel or repeated trials.
  Rng Fork();

  /// Returns the generator for sub-stream `stream_index` of the family
  /// rooted at `base_seed`: the xoshiro256++ state is seeded from the
  /// SplitMix64 state reached by jumping `stream_index` steps past
  /// `base_seed`. A pure function of its arguments, so parallel workers can
  /// derive their streams without synchronization, and a fixed
  /// (base, index) -> stream mapping makes sharded computations
  /// bitwise-reproducible regardless of how shards are scheduled onto
  /// threads.
  static Rng Substream(uint64_t base_seed, uint64_t stream_index);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j = UniformIndex(i);
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

 private:
  static uint64_t RotL(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace agmdp::util
