// Walker/Vose alias method for O(1) sampling from a discrete distribution.
//
// Used for the Chung-Lu pi distribution (sample a node with probability
// proportional to its degree) and for general weighted choices. Construction
// is O(n); each sample costs one table lookup and one coin flip. The
// threshold and alias target live in one packed bucket, so a draw touches a
// single cache line of the table — the FCL proposal loop draws twice per
// proposed edge, making this the hottest load in structural sampling.
#pragma once

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

/// Fills buckets[0, n) with Vose's alias table over weights[0, n), which
/// must be finite and non-negative with a positive sum (the caller checks).
/// Alias targets index the same range.
void BuildAliasBuckets(const double* weights, size_t n, AliasBucket* buckets);

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
