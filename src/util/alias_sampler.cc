#include "src/util/alias_sampler.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace agmdp::util {

void BuildAliasBuckets(const double* weights, size_t n,
                       AliasBucket* buckets) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += weights[i];
  std::fill(buckets, buckets + n, AliasBucket{});

  // Vose's algorithm: split scaled masses into "small" (< 1) and "large"
  // (>= 1) worklists and pair each small bucket with a large donor.
  std::vector<double> scaled(n);
  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] / sum * static_cast<double>(n);
    if (scaled[i] < 1.0) {
      small.push_back(static_cast<uint32_t>(i));
    } else {
      large.push_back(static_cast<uint32_t>(i));
    }
  }

  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    large.pop_back();
    buckets[s].prob = scaled[s];
    buckets[s].alias = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      small.push_back(l);
    } else {
      large.push_back(l);
    }
  }
  // Numerical leftovers: everything remaining gets probability 1 of itself.
  for (uint32_t l : large) buckets[l].prob = 1.0;
  for (uint32_t s : small) buckets[s].prob = 1.0;
}

Status CheckAliasWeights(const std::vector<double>& weights) {
  if (weights.empty()) {
    return Status::InvalidArgument("AliasSampler: empty weight vector");
  }
  double sum = 0.0;
  for (double w : weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      return Status::InvalidArgument(
          "AliasSampler: weights must be finite and non-negative");
    }
    sum += w;
  }
  if (sum <= 0.0) {
    return Status::InvalidArgument("AliasSampler: weights sum to zero");
  }
  return Status::OK();
}

Result<AliasSampler> AliasSampler::Build(const std::vector<double>& weights) {
  if (auto st = CheckAliasWeights(weights); !st.ok()) return st;
  AliasSampler sampler;
  sampler.buckets_.resize(weights.size());
  BuildAliasBuckets(weights.data(), weights.size(), sampler.buckets_.data());
  return sampler;
}

}  // namespace agmdp::util
