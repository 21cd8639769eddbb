// Walker/Vose alias method for O(1) sampling from a discrete distribution.
//
// Used for the Chung-Lu pi distribution (sample a node with probability
// proportional to its degree) and for general weighted choices. Construction
// is O(n); each sample costs one table lookup and one coin flip. The
// threshold and alias target live in one packed bucket, so a draw touches a
// single cache line of the table — the FCL proposal loop draws twice per
// proposed edge, making this the hottest load in structural sampling.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::util {

/// One alias-table bucket.
struct AliasBucket {
  double prob = 0.0;   // threshold: keep i with this probability
  uint32_t alias = 0;  // otherwise redirect to this index
};

/// The weight contract of an alias table: non-empty, finite and
/// non-negative with a positive sum; InvalidArgument otherwise.
Status CheckAliasWeights(const std::vector<double>& weights);

/// Fills buckets[0, n) with Vose's alias table over weight(0), ...,
/// weight(n - 1), which must be finite and non-negative with the positive
/// sum `sum`, added in index order (the caller checks and sums). A Bucket
/// has a double `prob` and an integer `alias` field; alias targets index
/// the same range. weight(i) is read once, in index order, just before
/// bucket i is reset, so a caller may stage the weights in the buckets'
/// `prob` fields. The scaled masses are kept in those fields, and the
/// small and large worklists share `worklist` (grown to n entries) from
/// its two ends, so a caller that keeps the worklist builds tables without
/// allocating.
template <typename Weight, typename Bucket>
void BuildAliasBuckets(const Weight& weight, size_t n, double sum,
                       Bucket* buckets, std::vector<uint32_t>& worklist) {
  if (worklist.size() < n) worklist.resize(n);

  // Vose's algorithm: split scaled masses into "small" (< 1) and "large"
  // (>= 1) stacks and pair each small bucket with a large donor. An index
  // is on at most one stack, so small grows up from the worklist's front
  // and large down from its back.
  uint32_t* const front = worklist.data();
  uint32_t* const back = front + n;
  uint32_t* small_end = front;
  uint32_t* large_begin = back;
  for (size_t i = 0; i < n; ++i) {
    const double scaled = weight(i) / sum * static_cast<double>(n);
    buckets[i] = Bucket{};
    buckets[i].prob = scaled;
    if (buckets[i].prob < 1.0) {
      *small_end++ = static_cast<uint32_t>(i);
    } else {
      *--large_begin = static_cast<uint32_t>(i);
    }
  }
  while (small_end != front && large_begin != back) {
    const uint32_t s = *--small_end;
    const uint32_t l = *large_begin++;
    buckets[s].alias = l;
    buckets[l].prob = (buckets[l].prob + buckets[s].prob) - 1.0;
    if (buckets[l].prob < 1.0) {
      *small_end++ = l;
    } else {
      *--large_begin = l;
    }
  }
  // Numerical leftovers: everything remaining gets probability 1 of itself.
  for (const uint32_t* i = front; i != small_end; ++i) buckets[*i].prob = 1.0;
  for (const uint32_t* i = large_begin; i != back; ++i) buckets[*i].prob = 1.0;
}

/// \brief Samples indices i in [0, n) with probability weights[i] / sum(w).
class AliasSampler {
 public:
  /// Builds the alias table; InvalidArgument unless CheckAliasWeights
  /// passes.
  static Result<AliasSampler> Build(const std::vector<double>& weights);

  /// Draws one index: UniformIndex(n) picks bucket i, then one
  /// UniformDouble() < prob keeps i or redirects to its alias. The choice
  /// is made with a mask instead of a branch: the comparison is a coin
  /// flip the branch predictor misses about half the time.
  size_t Sample(Rng& rng) const {
    AGMDP_CHECK(!buckets_.empty());
    const size_t i = rng.UniformIndex(buckets_.size());
    const AliasBucket& b = buckets_[i];
    const size_t keep = size_t{0} - size_t{rng.UniformDouble() < b.prob};
    return b.alias ^ ((i ^ b.alias) & keep);
  }

  /// Number of categories.
  size_t size() const { return buckets_.size(); }

 private:
  AliasSampler() = default;

  std::vector<AliasBucket> buckets_;
};

}  // namespace agmdp::util
