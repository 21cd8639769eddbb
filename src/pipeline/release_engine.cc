#include "src/pipeline/release_engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/mechanisms/release_mechanism.h"
#include "src/pipeline/model_registry.h"

namespace agmdp::pipeline {

namespace {

/// Base seed of the calibration substream family. The calibration draw is
/// a pure function of (this constant, the artifact fingerprint), so two
/// engines built from the same artifact calibrate identically — at any
/// pool size, on any machine.
constexpr uint64_t kCalibrationSeed = 0xa6dca11b7a7e5eedULL;

/// More workers than sampler shards can never be scheduled at once.
constexpr int kMaxPoolWorkers = agm::kSamplerProposalShards;

/// A request's refinements run as acceptance loops, so they share its
/// bound (-1 and below select the engine default).
util::Status CheckRefineIterations(int refine_iterations) {
  if (refine_iterations > agm::kMaxAcceptanceIterations) {
    return util::Status::InvalidArgument(
        "release engine: refine iterations must be <= " +
        std::to_string(agm::kMaxAcceptanceIterations));
  }
  return util::Status::OK();
}

}  // namespace

util::Result<std::unique_ptr<ReleaseEngine>> ReleaseEngine::Create(
    ReleaseArtifact artifact, const EngineOptions& options) {
  if (auto st = ValidateReleaseArtifact(artifact); !st.ok()) return st;
  if (options.default_refine_iterations < 0 ||
      options.default_refine_iterations > agm::kMaxAcceptanceIterations) {
    return util::Status::InvalidArgument(
        "release engine: default_refine_iterations must be in [0, " +
        std::to_string(agm::kMaxAcceptanceIterations) + "]");
  }

  // Non-AGM mechanisms: resolve the sampling handle from the mechanism
  // registry and skip the structural-model / calibration machinery —
  // their artifacts fully describe the sampling distribution, and the
  // Substream request keying in Sample/SampleMany supplies determinism.
  if (artifact.mechanism != "agm") {
    const mechanisms::MechanismSpec* mech =
        mechanisms::FindMechanism(artifact.mechanism);
    if (mech == nullptr || !mech->make_sampler) {
      return util::Status::InvalidArgument(
          "release engine: mechanism '" + artifact.mechanism +
          "' has no registered sampler (registered: " +
          mechanisms::MechanismNameList() + ")");
    }
    auto sampler = mech->make_sampler(artifact);
    if (!sampler.ok()) return sampler.status();
    std::unique_ptr<ReleaseEngine> engine(
        new ReleaseEngine(std::move(artifact), options,
                          agm::AgmSampleOptions{}, /*pool_workers=*/1));
    engine->sampler_ = std::move(sampler).value();
    return engine;
  }

  const StructuralModelSpec* spec = FindStructuralModel(artifact.model);
  if (spec == nullptr) {
    return util::Status::InvalidArgument(
        "release engine: artifact model '" + artifact.model +
        "' is not registered (registered: " + StructuralModelNameList() +
        ")");
  }

  // Resolve the sampler options once: caller knobs, then the artifact's
  // baked acceptance settings, then the registry's model binding.
  agm::AgmSampleOptions base = options.sample;
  base.acceptance_iterations = artifact.acceptance_iterations;
  base.acceptance_tolerance = artifact.acceptance_tolerance;
  base.min_acceptance = artifact.min_acceptance;
  base.pool = nullptr;
  base.initial_acceptance = nullptr;
  if (spec->builtin) {
    base.model = spec->kind;
    base.generator = nullptr;
  } else {
    base.generator = spec->generator;
  }

  const int pool_workers =
      std::min(util::ResolveThreadCount(options.threads), kMaxPoolWorkers);
  std::unique_ptr<ReleaseEngine> engine(new ReleaseEngine(
      std::move(artifact), options, std::move(base), pool_workers));

  if (options.calibrate && engine->base_options_.acceptance_iterations > 0) {
    agm::AgmSampleOptions calibration = engine->base_options_;
    calibration.pool = &engine->pool_;
    util::Rng rng = util::Rng::Substream(
        kCalibrationSeed, engine->artifact_.config_fingerprint);
    auto acceptance =
        agm::CalibrateAcceptance(engine->artifact_.params, calibration, rng);
    if (!acceptance.ok()) return acceptance.status();
    engine->calibrated_acceptance_ = std::move(acceptance).value();
  }
  return engine;
}

ReleaseEngine::ReleaseEngine(ReleaseArtifact artifact,
                             const EngineOptions& options,
                             agm::AgmSampleOptions base_options,
                             int pool_workers)
    : artifact_(std::move(artifact)),
      options_(options),
      base_options_(std::move(base_options)),
      pool_(pool_workers) {}

uint64_t ReleaseEngine::ApproxBytes() const {
  // Per-worker overhead approximates a parked thread: kernel stack plus
  // pool bookkeeping. Deliberately round — the cache budget is a resource
  // guardrail, not an allocator audit.
  constexpr uint64_t kPerWorkerBytes = 64 * 1024;
  if (sampler_ != nullptr) {
    return EstimateArtifactBytes(artifact_) + sampler_->ApproxBytes() +
           sizeof(ReleaseEngine);
  }
  return EstimateArtifactBytes(artifact_) +
         calibrated_acceptance_.size() * sizeof(double) +
         static_cast<uint64_t>(pool_.num_workers()) * kPerWorkerBytes +
         sizeof(ReleaseEngine);
}

agm::AgmSampleOptions ReleaseEngine::RequestOptions(
    int refine_iterations) const {
  agm::AgmSampleOptions resolved = base_options_;
  if (calibrated()) {
    resolved.initial_acceptance = &calibrated_acceptance_;
    resolved.acceptance_iterations =
        refine_iterations >= 0 ? refine_iterations
                               : options_.default_refine_iterations;
  }
  return resolved;
}

util::Result<graph::AttributedGraph> ReleaseEngine::Sample(
    const SampleRequest& request) const {
  if (auto st = CheckRefineIterations(request.refine_iterations); !st.ok()) {
    return st;
  }
  // Same request keying on both paths; a mechanism sampler is immutable,
  // so concurrent requests need no coordination.
  util::Rng rng = util::Rng::Substream(request.seed, request.sequence);
  if (sampler_ != nullptr) return sampler_->Sample(rng);
  return SampleAgm(RequestOptions(request.refine_iterations), rng,
                   /*borrow_pool=*/request.threads > 1);
}

util::Result<graph::AttributedGraph> ReleaseEngine::SampleAgm(
    agm::AgmSampleOptions resolved, util::Rng& rng, bool borrow_pool) const {
  std::unique_lock<std::mutex> lock(pool_mutex_, std::defer_lock);
  if (borrow_pool && pool_.num_workers() > 1 && lock.try_lock()) {
    resolved.pool = &pool_;
  } else {
    resolved.threads = 1;
  }
  return agm::SampleAgmGraph(artifact_.params, resolved, rng);
}

util::Result<std::vector<graph::AttributedGraph>> ReleaseEngine::SampleMany(
    int n, const SampleRequest& base) const {
  if (n < 0) {
    return util::Status::InvalidArgument(
        "release engine: SampleMany needs n >= 0");
  }
  if (auto st = CheckRefineIterations(base.refine_iterations); !st.ok()) {
    return st;
  }
  if (sampler_ != nullptr) {
    // Each task is exactly Sample({seed, sequence + i}); per-sample cost
    // is one block-model draw, so a sequential loop already saturates the
    // request path and stays trivially bitwise-stable at any pool size.
    std::vector<graph::AttributedGraph> graphs;
    graphs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      util::Rng rng = util::Rng::Substream(
          base.seed, base.sequence + static_cast<uint64_t>(i));
      auto sample = sampler_->Sample(rng);
      if (!sample.ok()) return sample.status();
      graphs.push_back(std::move(sample).value());
    }
    return graphs;
  }
  if (n == 1) {
    // A single request gains nothing from cross-sample fan-out.
    util::Rng rng = util::Rng::Substream(base.seed, base.sequence);
    auto sample = SampleAgm(RequestOptions(base.refine_iterations), rng,
                            /*borrow_pool=*/true);
    if (!sample.ok()) return sample.status();
    std::vector<graph::AttributedGraph> graphs;
    graphs.push_back(std::move(sample).value());
    return graphs;
  }
  std::vector<graph::AttributedGraph> graphs(static_cast<size_t>(n));
  std::vector<util::Status> statuses(static_cast<size_t>(n));
  {
    // A single-worker pool runs the batch inline and shares no state.
    std::unique_lock<std::mutex> lock(pool_mutex_, std::defer_lock);
    if (pool_.num_workers() > 1) lock.lock();
    pool_.Run(n, [&](int i) {
      // Task i is exactly Sample({seed, sequence + i, refine, threads: 1})
      // — a pure function of the request, so scheduling cannot change it.
      util::Rng rng = util::Rng::Substream(
          base.seed, base.sequence + static_cast<uint64_t>(i));
      auto sample = SampleAgm(RequestOptions(base.refine_iterations), rng,
                              /*borrow_pool=*/false);
      if (sample.ok()) {
        graphs[static_cast<size_t>(i)] = std::move(sample).value();
      } else {
        statuses[static_cast<size_t>(i)] = sample.status();
      }
    });
  }
  for (const util::Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return graphs;
}

util::Result<graph::AttributedGraph> ReleaseEngine::SampleFromStream(
    util::Rng& rng) const {
  if (sampler_ != nullptr) return sampler_->Sample(rng);
  return SampleAgm(RequestOptions(/*refine_iterations=*/-1), rng,
                   /*borrow_pool=*/true);
}

}  // namespace agmdp::pipeline
