#include "src/pipeline/pipeline_config.h"

#include <cmath>
#include <cstring>

#include "src/mechanisms/release_mechanism.h"
#include "src/pipeline/model_registry.h"

namespace agmdp::pipeline {

namespace {

util::Status Invalid(const std::string& what) {
  return util::Status::InvalidArgument("pipeline config: " + what);
}

// FNV-1a over a stream of 64-bit words; doubles contribute their exact bit
// pattern, so the fingerprint is stable across platforms that share IEEE
// doubles (everything we build on).
class Fnv1a {
 public:
  void Mix(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (x >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ULL;
    }
  }
  void Mix(double value) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value), "double is not 64-bit");
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }
  void Mix(const std::string& s) {
    for (char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ULL;
    }
    Mix(static_cast<uint64_t>(s.size()));
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

}  // namespace

util::Status ValidateAcceptanceKnobs(int acceptance_iterations,
                                     double acceptance_tolerance,
                                     double min_acceptance) {
  // The upper bound keeps a tampered artifact from hanging
  // ReleaseEngine::Create in a ~1e9-iteration calibration loop.
  if (acceptance_iterations < 0 ||
      acceptance_iterations > agm::kMaxAcceptanceIterations) {
    return Invalid("acceptance_iterations must be in [0, " +
                   std::to_string(agm::kMaxAcceptanceIterations) + "]");
  }
  if (!std::isfinite(acceptance_tolerance) || acceptance_tolerance < 0.0) {
    return Invalid("acceptance_tolerance must be >= 0");
  }
  if (!std::isfinite(min_acceptance) || min_acceptance < 0.0 ||
      min_acceptance > 1.0) {
    return Invalid("min_acceptance must be in [0, 1]");
  }
  return util::Status::OK();
}

util::Status PipelineConfig::Validate() const {
  if (mechanisms::FindMechanism(mechanism) == nullptr) {
    return Invalid("unknown mechanism '" + mechanism + "' (registered: " +
                   mechanisms::MechanismNameList() + ")");
  }
  if (!std::isfinite(t_closeness) || t_closeness < 0.0 || t_closeness > 1.0) {
    return Invalid("t_closeness must be in [0, 1]");
  }
  if (k_anonymity == 1) {
    return Invalid("k_anonymity must be 0 (auto) or >= 2");
  }
  const StructuralModelSpec* spec = FindStructuralModel(model);
  if (spec == nullptr) {
    return Invalid("unknown structural model '" + model +
                   "' (registered: " + StructuralModelNameList() + ")");
  }
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Invalid("epsilon must be a positive finite number");
  }
  const double shares[] = {split.theta_x, split.theta_f, split.degree_seq,
                           split.triangles};
  for (double share : shares) {
    if (!std::isfinite(share) || share < 0.0) {
      return Invalid("budget-split shares must be finite and non-negative");
    }
  }
  const double split_total = split.total();
  if (split_total > 0.0) {
    if (split_total > epsilon + 1e-9) {
      return Invalid("budget split totals " + std::to_string(split_total) +
                     " which exceeds epsilon " + std::to_string(epsilon));
    }
    // A custom split must fund every stage this model actually spends —
    // otherwise the fit would abort at the zero-share stage after the
    // earlier stages already consumed their budget, violating the
    // fail-before-any-spend contract.
    if (split.theta_x <= 0.0 || split.theta_f <= 0.0 ||
        split.degree_seq <= 0.0) {
      return Invalid("custom budget split leaves a learned stage with a "
                     "zero share");
    }
    if (spec->needs_triangles && split.triangles <= 0.0) {
      return Invalid("model '" + model +
                     "' learns a triangle target but the custom split "
                     "gives triangles a zero share");
    }
  }
  if (!(smooth_delta > 0.0 && smooth_delta < 1.0)) {
    return Invalid("smooth_delta must lie in (0, 1)");
  }
  return ValidateAcceptanceKnobs(acceptance_iterations,
                                 acceptance_tolerance,
                                 min_acceptance);
}

uint64_t PipelineConfig::Fingerprint() const {
  Fnv1a fnv;
  fnv.Mix(model);
  fnv.Mix(epsilon);
  fnv.Mix(split.theta_x);
  fnv.Mix(split.theta_f);
  fnv.Mix(split.degree_seq);
  fnv.Mix(split.triangles);
  fnv.Mix(static_cast<uint64_t>(theta_f_method));
  fnv.Mix(static_cast<uint64_t>(truncation_k));
  fnv.Mix(smooth_delta);
  fnv.Mix(static_cast<uint64_t>(sa_group_size));
  fnv.Mix(ladder.max_exact_work);
  fnv.Mix(static_cast<uint64_t>(ladder.force_degree_bound));
  fnv.Mix(static_cast<uint64_t>(acceptance_iterations));
  fnv.Mix(acceptance_tolerance);
  fnv.Mix(min_acceptance);
  // Guarded so every pre-mechanism AGM fingerprint is unchanged: the
  // calibration substream is keyed on the fingerprint, and re-keying it
  // would silently shift the serving bits of every stored AGM release.
  if (mechanism != "agm") {
    fnv.Mix(std::string("mechanism"));
    fnv.Mix(mechanism);
    fnv.Mix(static_cast<uint64_t>(k_anonymity));
    fnv.Mix(t_closeness);
    fnv.Mix(static_cast<uint64_t>(community_blocks));
  }
  return fnv.hash();
}

}  // namespace agmdp::pipeline
