#include "src/mechanisms/release_mechanism.h"

#include "src/mechanisms/community_dp.h"
#include "src/mechanisms/kanon_baseline.h"
#include "src/pipeline/release_pipeline.h"

namespace agmdp::mechanisms {

namespace {

std::vector<MechanismSpec> BuildRegistry() {
  std::vector<MechanismSpec> specs;

  {
    MechanismSpec spec;
    spec.name = "agm";
    spec.description =
        "the paper's AGM pipeline: DP theta_x/theta_f/degree-sequence fit, "
        "structural-model sampling (edge-DP; node-DP theta_f variants via "
        "theta_f_method)";
    spec.privacy_model = PrivacyModel::kEdgeDp;
    spec.builtin_agm = true;
    // Identical to the pre-registry FitReleaseArtifact path: fit under the
    // accountant, package with the config fingerprint. Serving stays on
    // ReleaseEngine's dedicated calibrated path (no make_sampler).
    spec.fit = [](const graph::AttributedCsrGraph& input,
                  const pipeline::PipelineConfig& config, util::Rng& rng) {
      auto fit = pipeline::FitPrivateParams(input, config, rng);
      if (!fit.ok()) return util::Result<pipeline::ReleaseArtifact>(
          fit.status());
      return util::Result<pipeline::ReleaseArtifact>(
          pipeline::MakeReleaseArtifact(fit.value(), config));
    };
    specs.push_back(std::move(spec));
  }

  {
    MechanismSpec spec;
    spec.name = "community_dp";
    spec.description =
        "community-preserving DP release: exponential-mechanism partition, "
        "geometric-noised per-block edge/attribute model (edge-DP)";
    spec.privacy_model = PrivacyModel::kEdgeDp;
    spec.fit = FitCommunityDp;
    spec.make_sampler = MakeCommunitySampler;
    specs.push_back(std::move(spec));
  }

  {
    MechanismSpec spec;
    spec.name = "kanon_baseline";
    spec.description =
        "degree k-anonymization with t-closeness on attributes: syntactic "
        "protection, zero epsilon spend";
    spec.privacy_model = PrivacyModel::kSyntactic;
    spec.fit = FitKanonBaseline;
    spec.make_sampler = MakeKanonSampler;
    specs.push_back(std::move(spec));
  }

  return specs;
}

const std::vector<MechanismSpec>& Registry() {
  static const std::vector<MechanismSpec>* registry =
      new std::vector<MechanismSpec>(BuildRegistry());
  return *registry;
}

}  // namespace

const MechanismSpec* FindMechanism(const std::string& name) {
  for (const MechanismSpec& spec : Registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> MechanismNames() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const MechanismSpec& spec : Registry()) names.push_back(spec.name);
  return names;
}

std::string MechanismNameList() {
  std::string out;
  for (const MechanismSpec& spec : Registry()) {
    if (!out.empty()) out += ", ";
    out += spec.name;
  }
  return out;
}

}  // namespace agmdp::mechanisms
