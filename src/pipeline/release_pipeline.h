// The unified private-release pipeline: fit → sample with one
// PrivacyAccountant threaded through every DP stage.
//
// This is the single entry point the CLI, the examples, and the benches
// route through. The contract:
//
//   * Budget accounting — every epsilon spend of the release is recorded in
//     one accountant; the returned ledger's spends sum to the configured
//     global epsilon under the model-default splits (sequential
//     composition, Theorem 2), so auditing the ledger audits the release.
//   * Post-processing — only FitPrivateParams / the fit half of
//     RunPrivateRelease reads the sensitive input; sampling is pure
//     post-processing and can be repeated at no additional privacy cost.
//   * Determinism — for a fixed config and Rng seed the synthetic graph is
//     bitwise-identical at any `threads` setting (see
//     agm_sampler.h and DESIGN.md).
//
// These free functions are thin wrappers over the handle-based serving
// layer (release_artifact.h / release_engine.h): FitReleaseArtifact
// packages a fit for storage, and RunPrivateRelease samples through an
// uncalibrated ReleaseEngine so one-shot and serving paths share one code
// path. Long-lived consumers should hold a ReleaseEngine instead of
// looping over these — see DESIGN.md "Serving layer".
#pragma once

#include "src/graph/csr.h"
#include "src/pipeline/model_registry.h"
#include "src/pipeline/pipeline_config.h"
#include "src/pipeline/release_artifact.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::pipeline {

/// Learns the private AGM parameters (the only step that touches the
/// sensitive input) and returns them with the accountant ledger and stage
/// timings. Fails on an invalid config (PipelineConfig::Validate) before
/// any budget is spent.
util::Result<FitResult> FitPrivateParams(
    const graph::AttributedCsrGraph& input, const PipelineConfig& config,
    util::Rng& rng);

/// Fit + packaging through the mechanism registry: the artifact a
/// ReleaseEngine (or `agmdp sample`) consumes, carrying the parameters, the
/// full ledger, and the config fingerprint.
util::Result<ReleaseArtifact> FitReleaseArtifact(
    const graph::AttributedCsrGraph& input, const PipelineConfig& config,
    util::Rng& rng);

/// Snapshot-and-delegate shims for perfbench, which materializes its input
/// and may not change outside a benchmark change. Nothing else calls them;
/// the benchmark change that points perfbench at snapshots deletes them.
util::Result<FitResult> FitPrivateParams(const graph::AttributedGraph& input,
                                         const PipelineConfig& config,
                                         util::Rng& rng);
util::Result<ReleaseArtifact> FitReleaseArtifact(
    const graph::AttributedGraph& input, const PipelineConfig& config,
    util::Rng& rng);

/// The end-to-end private release: fit + sample under one accountant, with
/// per-stage wall-clock metrics in the result.
util::Result<ReleaseResult> RunPrivateRelease(
    const graph::AttributedCsrGraph& input, const PipelineConfig& config,
    util::Rng& rng);

}  // namespace agmdp::pipeline
