// The pluggable release-mechanism registry: competing private-graph
// publication schemes behind one artifact/accounting contract.
//
// A release is its fitted artifact, and every sample drawn from it is
// post-processing (Theorem 2). So a scheme is (name, privacy model, fit,
// validate, make_sampler), and "agm" is registered like any other:
//
//   * fit reads the sensitive input exactly once and returns a
//     mechanism-tagged pipeline::ReleaseArtifact. DP mechanisms charge
//     every stage through one dp::PrivacyAccountant, so the artifact's
//     ledger sums to the global epsilon; syntactic mechanisms
//     (kanon_baseline) carry a zero-spend ledger.
//   * validate checks the scheme's own fields of an artifact whose common
//     fields (schema, tag, ledger, acceptance knobs) already passed
//     pipeline::ValidateReleaseArtifact, which dispatches here.
//   * make_sampler turns a validated artifact into the ArtifactSampler
//     pipeline::ReleaseEngine serves from, repeatable at zero additional
//     privacy cost.
//
// Determinism contract: ArtifactSampler::Sample draws exclusively from the
// caller's Rng and shared immutable state, so ReleaseEngine's request
// keying (Substream(seed, sequence)) makes every mechanism's output
// bitwise-identical at any thread count.
//
// To add a scheme: write one file pair whose header exports
// `MechanismSpec XxxMechanism()`, with a fit that reads the input snapshot
// (in RAM or memory-mapped from .agmbin) and nothing else, a validate and
// a make_sampler; then list `XxxMechanism()` in the registry
// (release_mechanism.cc).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/attributed_graph.h"
#include "src/graph/csr.h"
#include "src/pipeline/pipeline_config.h"
#include "src/pipeline/release_artifact.h"
#include "src/pipeline/release_engine.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::mechanisms {

/// The declared privacy model of a release mechanism. Edge-DP and node-DP
/// mechanisms spend epsilon through the PrivacyAccountant; syntactic
/// mechanisms (k-anonymity / t-closeness) carry an epsilon-free ledger and
/// must assert zero spend at validation.
enum class PrivacyModel {
  kEdgeDp,
  kNodeDp,
  kSyntactic,
};

inline const char* PrivacyModelName(PrivacyModel model) {
  switch (model) {
    case PrivacyModel::kEdgeDp:
      return "edge_dp";
    case PrivacyModel::kNodeDp:
      return "node_dp";
    case PrivacyModel::kSyntactic:
      return "syntactic";
  }
  return "unknown";
}

/// \brief Serving handle of a fitted artifact: draws one synthetic graph
/// per call from the caller's stream. Implementations are immutable after
/// construction, so const Sample calls are thread-safe.
class ArtifactSampler {
 public:
  virtual ~ArtifactSampler() = default;

  /// Draws one synthetic graph. All randomness comes from `rng`; equal
  /// streams and refinement counts give bitwise-equal graphs.
  /// `refine_iterations` (-1 = the engine default) and `pool` (null, or a
  /// free multi-worker pool the caller holds for this call) steer agm's
  /// acceptance loop; the pool never changes bits. Schemes without an
  /// acceptance loop ignore both.
  virtual util::Result<graph::AttributedGraph> Sample(
      util::Rng& rng, int refine_iterations, util::WorkerPool* pool) const = 0;

  /// Resident-byte estimate for the engine cache (see
  /// ReleaseEngine::ApproxBytes).
  virtual uint64_t ApproxBytes() const = 0;
};

/// \brief One registered release mechanism.
struct MechanismSpec {
  std::string name;
  std::string description;
  PrivacyModel privacy_model = PrivacyModel::kEdgeDp;
  std::function<util::Result<pipeline::ReleaseArtifact>(
      const graph::AttributedCsrGraph& input,
      const pipeline::PipelineConfig& config, util::Rng& rng)>
      fit;
  /// The scheme's own checks; the common ones have already passed.
  std::function<util::Status(const pipeline::ReleaseArtifact& artifact)>
      validate;
  /// Builds the sampler of a validated artifact. The sampler may keep
  /// references into `artifact`, which must outlive it (the engine owns
  /// both). `pool` is the engine's pool, free during the call.
  std::function<util::Result<std::unique_ptr<const ArtifactSampler>>(
      const pipeline::ReleaseArtifact& artifact,
      const pipeline::EngineOptions& options, util::WorkerPool& pool)>
      make_sampler;
};

/// Looks a mechanism up by tag; nullptr when unregistered.
const MechanismSpec* FindMechanism(const std::string& name);

/// Registered tags, in registration order.
std::vector<std::string> MechanismNames();

/// "agm, community_dp, kanon_baseline" — for error messages.
std::string MechanismNameList();

/// The checks both block-model payloads (community_dp, kanon_baseline)
/// need: every node_blocks entry below num_blocks, 0 <= w <= 20, and one
/// alias-samplable block_attr row (finite, non-negative, positive mass) of
/// 2^w configurations per block. Messages name the artifact's mechanism.
util::Status ValidateBlockPayload(const pipeline::ReleaseArtifact& artifact);

}  // namespace agmdp::mechanisms
