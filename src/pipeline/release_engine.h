// The serving half of the release pipeline: a handle built once from a
// ReleaseArtifact that samples synthetic graphs on demand.
//
// Fit once / sample many (Theorem 2): the artifact was learned under the
// accountant, so every sample the engine serves is pure post-processing at
// zero additional privacy cost. The engine serves every registered
// mechanism the same way: it validates the artifact, builds the scheme's
// mechanisms::ArtifactSampler through the registry, and owns what every
// request shares — one persistent util::WorkerPool (no thread spawn per
// request), the Substream(seed, sequence) request keying and the batch
// fan-out. What a scheme amortizes on top (agm's one calibration run,
// whose converged acceptance vector warm-starts every request) lives in
// its sampler.
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

/// Engine construction knobs. The engine sizes its pool from `threads`
/// and forwards all three to the scheme's make_sampler; the other two
/// steer agm's sampler, and schemes without an acceptance loop ignore them.
/// Everything else about a sample (its structural model and acceptance
/// settings) comes from the artifact.
struct EngineOptions {
  /// Serving pool workers (0 = hardware concurrency, capped at the sampler
  /// shard count). The pool size never affects sampled bits.
  int threads = 0;
  /// Run the acceptance loop once at construction (agm::CalibrateAcceptance
  /// from the fixed calibration substream) and warm-start every request
  /// with its converged acceptance vector. Disable to reproduce the
  /// paper's cold per-sample loop exactly (RunPrivateRelease does).
  bool calibrate = true;
  /// Acceptance refinements per request once calibrated (requests may
  /// override). 0 = trust the calibrated vector: the loop had converged,
  /// so steady-state serving is one filtered generation per sample. At
  /// most agm::kMaxAcceptanceIterations.
  int default_refine_iterations = 0;
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
/// The engine never branches on the mechanism: every tag resolves its
/// mechanisms::ArtifactSampler from the mechanism registry, so the cache,
/// the daemon, and the CLI serve every scheme through one path.
class ReleaseEngine {
 public:
  /// Validates the artifact (schema version, mechanism tag, the scheme's
  /// own checks), spawns the persistent pool, and builds the scheme's
  /// sampler with `options` (agm resolves its structural model and runs
  /// the calibration here when requested).
  static util::Result<std::unique_ptr<ReleaseEngine>> Create(
      ReleaseArtifact artifact, const EngineOptions& options = {});

  ~ReleaseEngine();
  ReleaseEngine(const ReleaseEngine&) = delete;
  ReleaseEngine& operator=(const ReleaseEngine&) = delete;

  const ReleaseArtifact& artifact() const { return artifact_; }
  const mechanisms::ArtifactSampler& sampler() const { return *sampler_; }

  /// Approximate resident bytes of this serving handle: the artifact's
  /// parameter vectors plus the sampler's state and a fixed
  /// per-pool-worker overhead (thread stack + bookkeeping). The sizing
  /// hook the server's byte-budgeted engine cache charges admissions by;
  /// an estimate, not an audit — stable for a given artifact and pool
  /// size, which is what budget arithmetic needs.
  uint64_t ApproxBytes() const;

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
  /// substream — the one-shot contract of pipeline::RunPrivateRelease.
  /// Thread-safe; borrows the pool like Sample with threads > 1.
  util::Result<graph::AttributedGraph> SampleFromStream(util::Rng& rng) const;

 private:
  ReleaseEngine(ReleaseArtifact artifact, int pool_workers);

  /// One sample from `rng`: on the pool when `borrow_pool`, the pool has
  /// more than one worker and is free; inline otherwise.
  util::Result<graph::AttributedGraph> Draw(util::Rng& rng,
                                            int refine_iterations,
                                            bool borrow_pool) const;

  /// Declared before the sampler, which may reference it.
  const ReleaseArtifact artifact_;
  std::unique_ptr<const mechanisms::ArtifactSampler> sampler_;
  /// The persistent serving pool. WorkerPool::Run is not reentrant, so
  /// every multi-worker use holds pool_mutex_; single samples only
  /// try-lock it, so they never wait for each other.
  mutable std::mutex pool_mutex_;
  mutable util::WorkerPool pool_;
};

}  // namespace agmdp::pipeline
