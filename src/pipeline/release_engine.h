// The serving half of the release pipeline: a handle built once from a
// ReleaseArtifact that samples synthetic graphs on demand.
//
// Fit once / sample many (Theorem 2): the artifact's parameters were
// learned under the accountant, so every sample the engine serves is pure
// post-processing at zero additional privacy cost. The engine amortizes
// everything that does not depend on the individual sample:
//
//   * one persistent util::WorkerPool for the sampler hot path (no thread
//     spawn per request);
//   * optionally, one calibration run at construction
//     (agm::CalibrateAcceptance) whose converged acceptance vector A
//     warm-starts every request — steady-state serving then generates the
//     structure once through the calibrated filter instead of iterating
//     the full cold acceptance loop per sample. The calibration stops
//     before the last iteration's structural generation, whose graph it
//     would only discard.
//
// Determinism / threading contract: Sample(request) is thread-safe and
// draws exclusively from util::Rng::Substream(request.seed,
// request.sequence) — a pure function of the request and the artifact — so
// any interleaving of concurrent requests is bitwise-identical to issuing
// them sequentially. SampleMany fans a contiguous block of sequence numbers
// out over the engine pool and returns the graphs in sequence order; its
// output is bitwise-identical at any pool size, and equal to a sequential
// Sample loop over the same requests. A single sample borrows the pool only
// when it has more than one worker and is free; otherwise it runs inline on
// the calling thread, with the same bits either way.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "src/graph/attributed_graph.h"
#include "src/pipeline/release_artifact.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::mechanisms {
class ArtifactSampler;
}  // namespace agmdp::mechanisms

namespace agmdp::pipeline {

struct EngineOptions {
  /// Serving pool workers (0 = hardware concurrency, capped at the sampler
  /// shard count). The pool size never affects sampled bits.
  int threads = 0;
  /// Run the acceptance loop once at construction (agm::CalibrateAcceptance
  /// from the fixed calibration substream) and warm-start every request
  /// with its converged acceptance vector. Disable to reproduce the
  /// paper's cold per-sample loop exactly (the legacy free functions do).
  bool calibrate = true;
  /// Acceptance refinements per request once calibrated (requests may
  /// override). 0 = trust the calibrated vector: the loop had converged,
  /// so steady-state serving is one filtered generation per sample. At
  /// most agm::kMaxAcceptanceIterations.
  int default_refine_iterations = 0;
  /// Model-specific sampler knobs (FCL/TriCycLe options etc.). The model /
  /// generator / acceptance settings inside are overridden by the registry
  /// resolution of the artifact's model and the artifact's baked defaults.
  agm::AgmSampleOptions sample;
};

/// \brief One deterministic serving request.
struct SampleRequest {
  /// Substream family; the request draws from Substream(seed, sequence).
  uint64_t seed = 1;
  uint64_t sequence = 0;
  /// Acceptance refinements for this request; -1 = engine default, at most
  /// agm::kMaxAcceptanceIterations (larger values are InvalidArgument).
  /// Ignored (full cold loop) when the engine is not calibrated.
  int refine_iterations = -1;
  /// Intra-sample sampler workers: 1 (default) runs inline on the calling
  /// thread; > 1 borrows the engine pool when it is free (inline
  /// otherwise), so requests never wait on each other. Never changes bits.
  int threads = 1;
};

/// \brief A fit-once / sample-many serving handle over a ReleaseArtifact.
///
/// The engine serves every registered release mechanism behind one
/// interface: "agm" artifacts take the dedicated calibrated path below,
/// any other tag resolves a mechanisms::ArtifactSampler from the mechanism
/// registry and delegates to it under the same Substream(seed, sequence)
/// request keying — so the cache, the daemon, and the CLI never branch on
/// the mechanism themselves.
class ReleaseEngine {
 public:
  /// Validates the artifact (schema version, mechanism tag, registry
  /// model, parameter sanity), spawns the persistent pool, and runs the
  /// calibration when requested (AGM only; other mechanisms have
  /// no acceptance loop to calibrate).
  static util::Result<std::unique_ptr<ReleaseEngine>> Create(
      ReleaseArtifact artifact, const EngineOptions& options = {});

  ReleaseEngine(const ReleaseEngine&) = delete;
  ReleaseEngine& operator=(const ReleaseEngine&) = delete;

  const ReleaseArtifact& artifact() const { return artifact_; }

  /// Approximate resident bytes of this serving handle: the artifact's
  /// parameter vectors plus the calibrated acceptance vector and a fixed
  /// per-pool-worker overhead (thread stack + bookkeeping). The sizing
  /// hook the server's byte-budgeted engine cache charges admissions by;
  /// an estimate, not an audit — stable for a given artifact and pool
  /// size, which is what budget arithmetic needs.
  uint64_t ApproxBytes() const;

  /// Whether requests are served from a calibrated acceptance vector.
  bool calibrated() const { return !calibrated_acceptance_.empty(); }
  const std::vector<double>& calibrated_acceptance() const {
    return calibrated_acceptance_;
  }

  /// Serves one request. Thread-safe; see the determinism contract above.
  util::Result<graph::AttributedGraph> Sample(
      const SampleRequest& request) const;

  /// Serves requests (seed, sequence), ..., (seed, sequence + n - 1) over
  /// the engine pool and returns the graphs in sequence order. Equal to a
  /// sequential Sample loop, at any pool size. A batch of one skips the
  /// fan-out and is served like Sample with threads > 1.
  util::Result<std::vector<graph::AttributedGraph>> SampleMany(
      int n, const SampleRequest& base = {}) const;

  /// Samples consuming the caller's master stream instead of a request
  /// substream — the contract of the legacy pipeline::SampleRelease, which
  /// wraps this. Thread-safe; borrows the pool like Sample with threads > 1.
  util::Result<graph::AttributedGraph> SampleFromStream(util::Rng& rng) const;

 private:
  ReleaseEngine(ReleaseArtifact artifact, const EngineOptions& options,
                agm::AgmSampleOptions base_options, int pool_workers);

  /// The resolved sampler options for one request (warm start + refinement
  /// count applied when calibrated).
  agm::AgmSampleOptions RequestOptions(int refine_iterations) const;

  /// One AGM sample from `rng`: on the pool when `borrow_pool`, the pool
  /// has more than one worker and is free; inline otherwise.
  util::Result<graph::AttributedGraph> SampleAgm(
      agm::AgmSampleOptions resolved, util::Rng& rng, bool borrow_pool) const;

  const ReleaseArtifact artifact_;
  const EngineOptions options_;
  /// Registry-resolved sampler options (model kind / generator bound,
  /// artifact acceptance defaults applied).
  agm::AgmSampleOptions base_options_;
  /// Converged acceptance vector of the calibration; empty when the engine
  /// is not calibrated.
  std::vector<double> calibrated_acceptance_;
  /// Mechanism-registry sampling handle; null for "agm" artifacts (which
  /// use the sampler path below). When set, every Sample* method
  /// delegates to it.
  std::shared_ptr<const mechanisms::ArtifactSampler> sampler_;
  /// The persistent serving pool. WorkerPool::Run is not reentrant, so
  /// every multi-worker use holds pool_mutex_; single samples only
  /// try-lock it, so they never wait for each other.
  mutable std::mutex pool_mutex_;
  mutable util::WorkerPool pool_;
};

}  // namespace agmdp::pipeline
