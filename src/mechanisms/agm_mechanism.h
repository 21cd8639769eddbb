// agm: the paper's pipeline as a registered release mechanism.
//
// Fit: the DP theta_x / theta_f / degree-sequence (and, for triangle
// models, triangle-count) learners under one accountant
// (pipeline::FitPrivateParams), packaged with the config fingerprint.
//
// Sampling: the artifact's structural model, resolved through the
// structural-model registry, behind the acceptance loop of Algorithm 1 at
// the artifact's acceptance settings. Every model is served the same way.
// The sampler amortizes what does not depend on the individual sample:
// when EngineOptions::calibrate is set it runs the acceptance loop once at
// construction (agm::CalibrateAcceptance, on the engine pool, from a
// substream keyed by the artifact fingerprint) and warm-starts every
// request with the converged acceptance vector, so steady-state serving
// generates the structure once through the calibrated filter instead of
// iterating the full cold loop per sample.
#pragma once

#include <memory>
#include <vector>

#include "src/agm/agm_sampler.h"
#include "src/mechanisms/release_mechanism.h"

namespace agmdp::mechanisms {

/// \brief Serving handle of an "agm" artifact. Keeps a reference to the
/// artifact's parameters, which must outlive it.
class AgmSampler final : public ArtifactSampler {
 public:
  /// Resolves the artifact's structural model and calibrates on `pool`
  /// when `options.calibrate` is set and the artifact's loop is not empty.
  static util::Result<std::unique_ptr<const ArtifactSampler>> Build(
      const pipeline::ReleaseArtifact& artifact,
      const pipeline::EngineOptions& options, util::WorkerPool& pool);

  /// Runs on `pool` when one is handed in, inline on a one-worker pool
  /// (which starts no thread) otherwise.
  util::Result<graph::AttributedGraph> Sample(
      util::Rng& rng, int refine_iterations,
      util::WorkerPool* pool) const override;

  uint64_t ApproxBytes() const override;

  /// Whether requests are served from a calibrated acceptance vector.
  bool calibrated() const { return !calibrated_acceptance_.empty(); }
  const std::vector<double>& calibrated_acceptance() const {
    return calibrated_acceptance_;
  }

 private:
  AgmSampler(const agm::AgmParams& params, agm::StructuralModel model,
             agm::AgmSampleOptions base, int default_refine_iterations);

  const agm::AgmParams& params_;
  /// The registry's binding of the artifact's model.
  agm::StructuralModel model_;
  /// The artifact's acceptance settings.
  agm::AgmSampleOptions base_options_;
  /// Acceptance refinements per calibrated request that does not set its
  /// own count.
  int default_refine_iterations_;
  /// Converged acceptance vector of the calibration; empty when the
  /// sampler is not calibrated.
  std::vector<double> calibrated_acceptance_;
};

MechanismSpec AgmMechanism();

}  // namespace agmdp::mechanisms
