#include "src/pipeline/release_pipeline.h"

#include <chrono>
#include <memory>
#include <utility>

#include "src/mechanisms/release_mechanism.h"
#include "src/pipeline/release_engine.h"

namespace agmdp::pipeline {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Maps the pipeline config onto the AGM learner's options. Models that
// learn a triangle target follow TriCycLe's budget semantics (even four-way
// default split), the rest follow FCL's (S-heavy three-way).
agm::AgmDpOptions MakeLearnOptions(const PipelineConfig& config,
                                   const StructuralModelSpec& spec) {
  agm::AgmDpOptions options;
  options.epsilon = config.epsilon;
  options.model = spec.needs_triangles ? agm::StructuralModelKind::kTriCycLe
                                       : agm::StructuralModelKind::kFcl;
  options.theta_f_method = config.theta_f_method;
  options.truncation_k = config.truncation_k;
  options.smooth_delta = config.smooth_delta;
  options.sa_group_size = config.sa_group_size;
  options.split = config.split;
  options.ladder = config.ladder;
  return options;
}

// The fit half, with the config already validated (shared by
// FitPrivateParams and RunPrivateRelease so validation happens in exactly
// one place, before any budget is spent).
util::Result<FitResult> FitValidated(const graph::AttributedCsrGraph& input,
                                     const PipelineConfig& config,
                                     util::Rng& rng) {
  const StructuralModelSpec* spec = FindStructuralModel(config.model);

  dp::PrivacyAccountant accountant(config.epsilon);
  std::vector<agm::StageSeconds> timings;
  auto params = agm::LearnAgmParamsDp(input, MakeLearnOptions(config, *spec),
                                      accountant, rng, &timings);
  if (!params.ok()) return params.status();

  FitResult result;
  result.params = std::move(params).value();
  result.ledger = accountant.ledger();
  result.epsilon_budget = accountant.total();
  result.epsilon_spent = accountant.spent();
  result.stage_seconds = std::move(timings);
  return result;
}

}  // namespace

util::Result<FitResult> FitPrivateParams(
    const graph::AttributedCsrGraph& input, const PipelineConfig& config,
    util::Rng& rng) {
  if (auto st = config.Validate(); !st.ok()) return st;
  return FitValidated(input, config, rng);
}

util::Result<ReleaseArtifact> FitReleaseArtifact(
    const graph::AttributedCsrGraph& input, const PipelineConfig& config,
    util::Rng& rng) {
  // Every mechanism — "agm" included — fits through its registry entry,
  // each charging its own accountant.
  if (auto st = config.Validate(); !st.ok()) return st;
  const mechanisms::MechanismSpec* mech =
      mechanisms::FindMechanism(config.mechanism);
  if (mech == nullptr || !mech->fit) {
    return util::Status::InvalidArgument(
        "release pipeline: mechanism '" + config.mechanism +
        "' has no registered fit (registered: " +
        mechanisms::MechanismNameList() + ")");
  }
  return mech->fit(input, config, rng);
}

util::Result<FitResult> FitPrivateParams(const graph::AttributedGraph& input,
                                         const PipelineConfig& config,
                                         util::Rng& rng) {
  return FitPrivateParams(graph::AttributedCsrGraph::FromGraph(input), config,
                          rng);
}

util::Result<ReleaseArtifact> FitReleaseArtifact(
    const graph::AttributedGraph& input, const PipelineConfig& config,
    util::Rng& rng) {
  return FitReleaseArtifact(graph::AttributedCsrGraph::FromGraph(input),
                            config, rng);
}

util::Result<ReleaseResult> RunPrivateRelease(
    const graph::AttributedCsrGraph& input, const PipelineConfig& config,
    util::Rng& rng) {
  const Clock::time_point start = Clock::now();
  if (auto st = config.Validate(); !st.ok()) return st;

  // AGM reports its per-stage fit timings; every other mechanism fits
  // through the registry as one "fit" stage.
  ReleaseArtifact artifact;
  std::vector<agm::StageSeconds> stages;
  if (config.mechanism == "agm") {
    auto fit = FitValidated(input, config, rng);
    if (!fit.ok()) return fit.status();
    artifact = MakeReleaseArtifact(fit.value(), config);
    stages = std::move(fit.value().stage_seconds);
  } else {
    auto fitted = FitReleaseArtifact(input, config, rng);
    if (!fitted.ok()) return fitted.status();
    artifact = std::move(fitted).value();
    stages.push_back({"fit", SecondsSince(start)});
  }

  // One draw from the stream, through an uncalibrated single-use engine:
  // the paper's cold acceptance loop, the config's sampler knobs, and a
  // pool sized by config.sample.threads.
  const Clock::time_point sample_start = Clock::now();
  EngineOptions options;
  options.threads = config.sample.threads;
  options.calibrate = false;
  options.sample = config.sample;
  auto engine = ReleaseEngine::Create(std::move(artifact), options);
  if (!engine.ok()) return engine.status();
  auto synthetic = engine.value()->SampleFromStream(rng);
  if (!synthetic.ok()) return synthetic.status();

  const ReleaseArtifact& fitted = engine.value()->artifact();
  ReleaseResult result{std::move(synthetic).value(),
                       fitted.params,
                       fitted.ledger,
                       fitted.epsilon_budget,
                       fitted.epsilon_spent,
                       std::move(stages),
                       0.0,
                       fitted.model};
  result.stage_seconds.push_back({"sample", SecondsSince(sample_start)});
  result.total_seconds = SecondsSince(start);
  return result;
}

}  // namespace agmdp::pipeline
