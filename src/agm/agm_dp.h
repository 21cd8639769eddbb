// AGM-DP parameter learning — the private half of Algorithm 3 (Theorem 2).
//
// The global privacy budget is split among the parameter learners (Section
// 5: even four-way for TriCycLe; S gets half for FCL), each parameter is
// learned once under its share, and after that the raw input graph is never
// touched again — the synthetic graph is pure post-processing, so the whole
// pipeline satisfies eps-DP by sequential composition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/agm/agm_sampler.h"
#include "src/dp/ladder_mechanism.h"
#include "src/dp/privacy_budget.h"
#include "src/graph/csr.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::agm {

/// Which ΘF estimator AGM-DP uses (Figure 5 compares them; edge truncation
/// is the paper's pick).
enum class ThetaFMethod {
  kEdgeTruncation,
  kSmoothSensitivity,
  kSampleAggregate,
  kNaiveLaplace,
};

struct AgmDpOptions {
  double epsilon = 1.0;
  StructuralModelKind model = StructuralModelKind::kTriCycLe;
  ThetaFMethod theta_f_method = ThetaFMethod::kEdgeTruncation;
  /// Truncation parameter for ΘF; 0 selects the paper's n^(1/3) heuristic.
  uint32_t truncation_k = 0;
  /// delta for the smooth-sensitivity ΘF variant, in (0, 1).
  double smooth_delta = 1e-6;
  /// Group size for sample-and-aggregate, at most n; 0 selects sqrt(n).
  uint32_t sa_group_size = 0;
  /// Budget split; a zero-total split selects the model's default.
  dp::BudgetSplit split;
  dp::LadderOptions ladder;
};

/// Wall-clock seconds spent in one named stage of the workflow.
struct StageSeconds {
  std::string stage;
  double seconds = 0.0;
};

/// The parameter-learning half of Algorithm 3 (lines 3-5): learns
/// (Θ̃X, Θ̃F, Θ̃M) under the split budget, recording every spend against the
/// caller's accountant — this is the only function that touches the
/// sensitive input, so auditing `accountant.ledger()` audits the entire
/// release. Sampling the synthetic graph (lines 6-18) is pure
/// post-processing: pipeline::RunPrivateRelease composes the two halves.
/// Appends per-stage wall-clock timings to `timings` when non-null.
/// Fails on invalid options before any spend, or if a spend would
/// overdraw the accountant.
util::Result<AgmParams> LearnAgmParamsDp(
    const graph::AttributedCsrGraph& input, const AgmDpOptions& options,
    dp::PrivacyAccountant& accountant, util::Rng& rng,
    std::vector<StageSeconds>* timings = nullptr);

}  // namespace agmdp::agm
