#include "src/util/alias_sampler.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace agmdp::util {

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
  double sum = 0.0;
  for (double w : weights) sum += w;
  AliasSampler sampler;
  sampler.buckets_.resize(weights.size());
  std::vector<uint32_t> worklist;
  BuildAliasBuckets([&](size_t i) { return weights[i]; }, weights.size(), sum,
                    sampler.buckets_.data(), worklist);
  return sampler;
}

}  // namespace agmdp::util
