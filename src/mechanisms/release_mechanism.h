// The pluggable release-mechanism registry: competing private-graph
// publication schemes behind one artifact/accounting contract.
//
// A ReleaseMechanism is (name, privacy model, Fit, MakeSampler):
//
//   * Fit reads the sensitive input exactly once and returns a
//     mechanism-tagged pipeline::ReleaseArtifact. DP mechanisms charge
//     every stage through one dp::PrivacyAccountant, so the artifact's
//     ledger sums to the global epsilon; syntactic mechanisms
//     (kanon_baseline) carry a zero-spend ledger.
//   * MakeSampler turns a validated artifact into an ArtifactSampler —
//     the serving handle pipeline::ReleaseEngine delegates to for non-AGM
//     mechanisms. Sampling is pure post-processing (Theorem 2): repeatable
//     at zero additional privacy cost.
//
// Determinism contract: ArtifactSampler::Sample draws exclusively from the
// caller's Rng and shared immutable state, so ReleaseEngine's request
// keying (Substream(seed, sequence)) makes every mechanism's output
// bitwise-identical at any thread count, exactly like the AGM path.
//
// The registry mirrors pipeline's structural-model registry: a static
// spec table, FindMechanism by tag, and name listings for error messages.
// To add a scheme: implement
//   Fit(const graph::AttributedCsrGraph& input,
//       const pipeline::PipelineConfig& config, util::Rng& rng)
//     -> util::Result<pipeline::ReleaseArtifact>
// reading the input snapshot (in RAM or memory-mapped from .agmbin) and
// nothing else, and MakeSampler; add the tag to mechanism_tags.h, append a
// spec in release_mechanism.cc, and extend the per-mechanism branch of
// pipeline::ValidateReleaseArtifact.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/attributed_graph.h"
#include "src/graph/csr.h"
#include "src/mechanisms/mechanism_tags.h"
#include "src/pipeline/pipeline_config.h"
#include "src/pipeline/release_artifact.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::mechanisms {

/// \brief Serving handle of a fitted non-AGM artifact: draws one synthetic
/// graph per call from the caller's stream. Implementations are immutable
/// after construction, so const Sample calls are thread-safe.
class ArtifactSampler {
 public:
  virtual ~ArtifactSampler() = default;

  /// Draws one synthetic graph. All randomness comes from `rng`; equal
  /// streams give bitwise-equal graphs.
  virtual util::Result<graph::AttributedGraph> Sample(util::Rng& rng) const = 0;

  /// Resident-byte estimate for the engine cache (see
  /// ReleaseEngine::ApproxBytes).
  virtual uint64_t ApproxBytes() const = 0;
};

/// \brief One registered release mechanism.
struct MechanismSpec {
  std::string name;
  std::string description;
  PrivacyModel privacy_model = PrivacyModel::kEdgeDp;
  /// The AGM pipeline keeps its dedicated serving path inside
  /// ReleaseEngine (calibration, structural-model registry); its spec has
  /// no make_sampler.
  bool builtin_agm = false;
  std::function<util::Result<pipeline::ReleaseArtifact>(
      const graph::AttributedCsrGraph& input,
      const pipeline::PipelineConfig& config, util::Rng& rng)>
      fit;
  std::function<util::Result<std::shared_ptr<const ArtifactSampler>>(
      const pipeline::ReleaseArtifact& artifact)>
      make_sampler;
};

/// Looks a mechanism up by tag; nullptr when unregistered.
const MechanismSpec* FindMechanism(const std::string& name);

/// Registered tags, in registration order.
std::vector<std::string> MechanismNames();

/// "agm, community_dp, kanon_baseline" — for error messages.
std::string MechanismNameList();

}  // namespace agmdp::mechanisms
