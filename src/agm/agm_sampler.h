// The AGM accept/reject sampling loop (Section 2.2 and Algorithm 3 lines
// 6-18), shared by the non-private and differentially private pipelines.
//
// Given parameters (ΘX, ΘF, structural parameters), the sampler draws
// attribute vectors i.i.d. from ΘX, generates a temporary edge set from the
// structural model, measures the attribute correlations Θ'F it produced,
// and derives per-configuration acceptance probabilities
//     A(y) = R(y) / sup R,   R(y) = ΘF(y) / Θ'F(y)  (optionally × A_old),
// which are then pushed *into* the structural model's own sampling loop as
// an edge filter (the paper's modification that makes rewiring models like
// TriCycLe compatible with AGM). The loop iterates until A converges. It
// sees every model M the same way, as a StructuralModel that binds the
// parameters to a per-sample draw taking the filter.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/graph/attributed_graph.h"
#include "src/graph/csr.h"
#include "src/models/edge_filter.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::util {
class WorkerPool;
}  // namespace agmdp::util

namespace agmdp::agm {

/// The fixed shard count of the sampler's parallel hot path (work is always
/// split into this many shards, never into one shard per worker — the
/// determinism contract). Exported so pool-owning callers
/// (pipeline::ReleaseEngine) can cap their worker counts at the number of
/// shards that can ever run at once.
inline constexpr int kSamplerProposalShards = 64;

/// Upper bound on any acceptance loop count — a fit's
/// acceptance_iterations and a serving request's refinements alike. Far
/// beyond any useful setting (the paper's loop converges in a few
/// iterations), but each iteration regenerates the full synthetic graph,
/// so an unbounded count would pin a worker indefinitely.
inline constexpr int kMaxAcceptanceIterations = 1000;

/// The three AGM parameter sets (plus w); ΘM is the degree sequence and —
/// for TriCycLe — the triangle count.
struct AgmParams {
  int w = 0;
  std::vector<double> theta_x;            // |Y_w|
  std::vector<double> theta_f;            // |Y^F_w|
  std::vector<uint32_t> degree_sequence;  // length n
  uint64_t target_triangles = 0;          // used by TriCycLe only
};

/// Structural validation of a parameter set: w in [0, 16] (beyond that the
/// triangular edge-config count overflows uint32), theta dimensions
/// consistent with w, every theta entry finite and non-negative, and a
/// degree sequence and triangle target some simple graph can realize.
/// Shared by the release-artifact codec and pipeline::ReleaseEngine, so
/// garbage parameters are rejected at every boundary instead of
/// propagating into the sampler.
util::Status ValidateAgmParams(const AgmParams& params);

/// Exact (non-private) parameter estimation — the AGM-FCL / AGM-TriCL
/// baselines of Tables 2-5.
AgmParams LearnAgmParams(const graph::AttributedCsrGraph& g);

/// One structural-model draw inside a sample: generates an edge set through
/// the current acceptance filter (empty on a cold start, unfiltered). The
/// model's per-sample state, reused across the sample's acceptance
/// iterations, lives inside the draw.
using StructuralDraw = std::function<util::Result<graph::Graph>(
    const models::EdgeFilter& filter, util::Rng& rng)>;

/// A structural model M (Section 4): binds the AGM parameters, which must
/// outlive the draw, and the sampler's worker pool to a per-sample draw.
/// Every model plugs into the acceptance loop through this one contract;
/// the pipeline's model registry lists them by name.
using StructuralModel = std::function<StructuralDraw(
    const AgmParams& params, util::WorkerPool& pool)>;

/// The paper's FCL as a structural model: the sharded parallel cFCL
/// sampler. Each draw takes one master draw as the base of its per-shard
/// sub-streams (util::Rng::Substream), splits the proposals into
/// kSamplerProposalShards shards run on the pool and merges them in shard
/// order, so its output is bitwise-identical at any pool size. The pi
/// tables are built once per sample and reused across its acceptance
/// iterations. A shard gives up after `max_proposals_per_edge` proposals
/// per edge of its quota.
StructuralModel ShardedFclModel(uint64_t max_proposals_per_edge = 200);

/// The acceptance-loop settings.
struct AgmSampleOptions {
  /// Acceptance-probability refinement iterations ("A tended to converge
  /// after just a few iterations", Section 4).
  int acceptance_iterations = 3;
  /// Early-exit when max |A - A_old| drops below this.
  double acceptance_tolerance = 0.01;
  /// Floor for acceptance probabilities of configurations with positive
  /// target mass (prevents live-locking the proposal loops; deviation
  /// documented in DESIGN.md).
  double min_acceptance = 1e-3;
  /// Warm-start acceptance vector A (size NumEdgeConfigs(w)). When set, the
  /// first structural generation is already filtered by it and the
  /// refinement loop starts from it as A_old — the serving layer passes the
  /// vector CalibrateAcceptance converged to, so steady-state samples skip
  /// the cold iterations. Null reproduces the paper's cold start
  /// (unfiltered first generation).
  const std::vector<double>* initial_acceptance = nullptr;
};

/// Runs the sampling loop with structural model `model` and returns the
/// synthetic attributed graph. The model's draws and the Θ'F measurements
/// run on `pool`, which never changes the output.
util::Result<graph::AttributedGraph> SampleAgmGraph(
    const AgmParams& params, const StructuralModel& model,
    const AgmSampleOptions& options, util::WorkerPool& pool, util::Rng& rng);

/// Runs the same loop for its final acceptance vector alone — what a warm
/// start should pass as `initial_acceptance` (the serving layer's
/// calibration). Bit-identical to the vector SampleAgmGraph converges to
/// from the same stream, but the loop stops before the structural
/// generation of its last iteration, whose graph only SampleAgmGraph
/// returns. With zero iterations this is the warm-start vector passed
/// straight through (empty on a cold start).
util::Result<std::vector<double>> CalibrateAcceptance(
    const AgmParams& params, const StructuralModel& model,
    const AgmSampleOptions& options, util::WorkerPool& pool, util::Rng& rng);

/// Builds the acceptance vector A from target ΘF, observed Θ'F and the
/// previous A (pass empty for none). Exposed for unit testing.
std::vector<double> ComputeAcceptanceProbabilities(
    const std::vector<double>& theta_f_target,
    const std::vector<double>& theta_f_observed,
    const std::vector<double>& a_old, double min_acceptance);

/// Θ'F of a generated graph, measured over the pool's workers (node-range
/// partition; exact integer counts, so the result is identical at any
/// pool size). Equals ComputeThetaF on the graph's snapshot; the
/// acceptance loop runs it once per iteration.
std::vector<double> MeasureThetaF(const graph::AttributedGraph& g,
                                  util::WorkerPool& pool);

}  // namespace agmdp::agm
