#include "src/pipeline/release_engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/mechanisms/release_mechanism.h"

namespace agmdp::pipeline {

namespace {

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
  // Validation rejects unregistered tags, so the lookup cannot miss.
  const mechanisms::MechanismSpec* mechanism =
      mechanisms::FindMechanism(artifact.mechanism);
  const int pool_workers =
      std::min(util::ResolveThreadCount(options.threads), kMaxPoolWorkers);
  std::unique_ptr<ReleaseEngine> engine(
      new ReleaseEngine(std::move(artifact), pool_workers));
  auto sampler =
      mechanism->make_sampler(engine->artifact_, options, engine->pool_);
  if (!sampler.ok()) return sampler.status();
  engine->sampler_ = std::move(sampler).value();
  return engine;
}

ReleaseEngine::ReleaseEngine(ReleaseArtifact artifact, int pool_workers)
    : artifact_(std::move(artifact)), pool_(pool_workers) {}

// Out of line: the sampler's type is incomplete in the header.
ReleaseEngine::~ReleaseEngine() = default;

uint64_t ReleaseEngine::ApproxBytes() const {
  // Per-worker overhead approximates a parked thread: kernel stack plus
  // pool bookkeeping. Deliberately round — the cache budget is a resource
  // guardrail, not an allocator audit.
  constexpr uint64_t kPerWorkerBytes = 64 * 1024;
  return EstimateArtifactBytes(artifact_) + sampler_->ApproxBytes() +
         static_cast<uint64_t>(pool_.num_workers()) * kPerWorkerBytes +
         sizeof(ReleaseEngine);
}

util::Result<graph::AttributedGraph> ReleaseEngine::Draw(
    util::Rng& rng, int refine_iterations) const {
  std::unique_lock<std::mutex> lock(pool_mutex_, std::defer_lock);
  const bool borrowed = pool_.num_workers() > 1 && lock.try_lock();
  return sampler_->Sample(rng, refine_iterations, borrowed ? &pool_ : nullptr);
}

util::Result<graph::AttributedGraph> ReleaseEngine::Sample(
    const SampleRequest& request) const {
  if (auto st = CheckRefineIterations(request.refine_iterations); !st.ok()) {
    return st;
  }
  util::Rng rng = util::Rng::Substream(request.seed, request.sequence);
  return Draw(rng, request.refine_iterations);
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
  if (n == 1) {
    // A single request gains nothing from cross-sample fan-out.
    util::Rng rng = util::Rng::Substream(base.seed, base.sequence);
    auto sample = Draw(rng, base.refine_iterations);
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
      // Task i is exactly Sample({seed, sequence + i, refine}) run inline
      // — a pure function of the request, so scheduling cannot change it.
      util::Rng rng = util::Rng::Substream(
          base.seed, base.sequence + static_cast<uint64_t>(i));
      auto sample = sampler_->Sample(rng, base.refine_iterations, nullptr);
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
  return Draw(rng, /*refine_iterations=*/-1);
}

}  // namespace agmdp::pipeline
