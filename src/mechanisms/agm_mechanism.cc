#include "src/mechanisms/agm_mechanism.h"

#include <utility>

#include "src/pipeline/model_registry.h"
#include "src/pipeline/release_pipeline.h"
#include "src/util/parallel.h"

namespace agmdp::mechanisms {

namespace {

/// Base seed of the calibration substream family. The calibration draw is
/// a pure function of (this constant, the artifact fingerprint), so two
/// engines built from the same artifact calibrate identically — at any
/// pool size, on any machine.
constexpr uint64_t kCalibrationSeed = 0xa6dca11b7a7e5eedULL;

}  // namespace

AgmSampler::AgmSampler(const agm::AgmParams& params,
                       agm::StructuralModel model, agm::AgmSampleOptions base,
                       int default_refine_iterations)
    : params_(params),
      model_(std::move(model)),
      base_options_(base),
      default_refine_iterations_(default_refine_iterations) {}

util::Result<std::unique_ptr<const ArtifactSampler>> AgmSampler::Build(
    const pipeline::ReleaseArtifact& artifact,
    const pipeline::EngineOptions& options, util::WorkerPool& pool) {
  const pipeline::StructuralModelSpec* spec =
      pipeline::FindStructuralModel(artifact.model);
  if (spec == nullptr) {
    return util::Status::InvalidArgument(
        "release engine: artifact model '" + artifact.model +
        "' is not registered (registered: " +
        pipeline::StructuralModelNameList() + ")");
  }

  agm::AgmSampleOptions base;
  base.acceptance_iterations = artifact.acceptance_iterations;
  base.acceptance_tolerance = artifact.acceptance_tolerance;
  base.min_acceptance = artifact.min_acceptance;
  std::unique_ptr<AgmSampler> sampler(new AgmSampler(
      artifact.params, spec->model, base, options.default_refine_iterations));

  if (options.calibrate && base.acceptance_iterations > 0) {
    util::Rng rng =
        util::Rng::Substream(kCalibrationSeed, artifact.config_fingerprint);
    auto acceptance = agm::CalibrateAcceptance(artifact.params, spec->model,
                                               base, pool, rng);
    if (!acceptance.ok()) return acceptance.status();
    sampler->calibrated_acceptance_ = std::move(acceptance).value();
  }
  return std::unique_ptr<const ArtifactSampler>(std::move(sampler));
}

util::Result<graph::AttributedGraph> AgmSampler::Sample(
    util::Rng& rng, int refine_iterations, util::WorkerPool* pool) const {
  agm::AgmSampleOptions resolved = base_options_;
  if (calibrated()) {
    resolved.initial_acceptance = &calibrated_acceptance_;
    resolved.acceptance_iterations = refine_iterations >= 0
                                         ? refine_iterations
                                         : default_refine_iterations_;
  }
  if (pool != nullptr) {
    return agm::SampleAgmGraph(params_, model_, resolved, *pool, rng);
  }
  util::WorkerPool inline_pool(1);
  return agm::SampleAgmGraph(params_, model_, resolved, inline_pool, rng);
}

uint64_t AgmSampler::ApproxBytes() const {
  return calibrated_acceptance_.size() * sizeof(double) + sizeof(AgmSampler);
}

MechanismSpec AgmMechanism() {
  MechanismSpec spec;
  spec.name = "agm";
  spec.description =
      "the paper's AGM pipeline: DP theta_x/theta_f/degree-sequence fit, "
      "structural-model sampling (edge-DP; node-DP theta_f variants via "
      "theta_f_method)";
  spec.privacy_model = PrivacyModel::kEdgeDp;
  spec.fit = [](const graph::AttributedCsrGraph& input,
                const pipeline::PipelineConfig& config, util::Rng& rng)
      -> util::Result<pipeline::ReleaseArtifact> {
    auto fit = pipeline::FitPrivateParams(input, config, rng);
    if (!fit.ok()) return fit.status();
    return pipeline::MakeReleaseArtifact(fit.value(), config);
  };
  // The release lives entirely in `params`.
  spec.validate = [](const pipeline::ReleaseArtifact& artifact) {
    if (!artifact.payload.Empty()) {
      return pipeline::InvalidArtifact(
          "agm artifacts must not carry a mechanism payload");
    }
    return agm::ValidateAgmParams(artifact.params);
  };
  spec.make_sampler = AgmSampler::Build;
  return spec;
}

}  // namespace agmdp::mechanisms
