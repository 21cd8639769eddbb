#include "src/agm/agm_dp.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/agm/theta_f.h"
#include "src/agm/theta_x.h"
#include "src/dp/constrained_inference.h"
#include "src/util/check.h"

namespace agmdp::agm {

namespace {

// Runs `stage_fn`, recording its wall-clock cost under `stage` when the
// caller asked for timings.
template <typename Fn>
auto TimedStage(const char* stage, std::vector<StageSeconds>* timings,
                Fn&& stage_fn) {
  if (timings == nullptr) return stage_fn();
  const auto start = std::chrono::steady_clock::now();
  auto result = stage_fn();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  timings->push_back({stage, elapsed.count()});
  return result;
}

}  // namespace

util::Result<AgmParams> LearnAgmParamsDp(
    const graph::AttributedCsrGraph& input, const AgmDpOptions& options,
    dp::PrivacyAccountant& accountant, util::Rng& rng,
    std::vector<StageSeconds>* timings) {
  if (options.epsilon <= 0.0) {
    return util::Status::InvalidArgument("AGM-DP: epsilon must be positive");
  }
  const graph::NodeId n = input.num_nodes();
  if (n < 2) {
    return util::Status::InvalidArgument("AGM-DP: graph too small");
  }
  // Estimator preconditions, checked before the first spend.
  if (options.theta_f_method == ThetaFMethod::kSmoothSensitivity &&
      !(options.smooth_delta > 0.0 && options.smooth_delta < 1.0)) {
    return util::Status::InvalidArgument(
        "AGM-DP: smooth_delta must lie in (0, 1)");
  }
  uint32_t sa_group = options.sa_group_size;
  if (options.theta_f_method == ThetaFMethod::kSampleAggregate) {
    if (sa_group == 0) {
      sa_group = std::max<uint32_t>(
          2, static_cast<uint32_t>(std::lround(std::sqrt(n))));
    }
    if (sa_group > n) {
      return util::Status::InvalidArgument(
          "AGM-DP: sa_group_size " + std::to_string(sa_group) +
          " exceeds the node count " + std::to_string(n));
    }
  }

  dp::BudgetSplit split = options.split;
  if (split.total() <= 0.0) {
    split = options.triangles ? dp::BudgetSplit::EvenFourWay(options.epsilon)
                              : dp::BudgetSplit::FclThreeWay(options.epsilon);
  }
  if (split.total() > options.epsilon + 1e-9) {
    return util::Status::InvalidArgument(
        "AGM-DP: budget split exceeds global epsilon");
  }

  AgmParams params;
  params.w = input.num_attributes;

  // Line 3: Θ̃X (Algorithm 5).
  if (auto st = accountant.Spend(split.theta_x, "theta_x"); !st.ok()) return st;
  params.theta_x = TimedStage("theta_x", timings, [&] {
    return LearnAttributesDp(input, split.theta_x, rng);
  });

  // Line 5: Θ̃F.
  if (auto st = accountant.Spend(split.theta_f, "theta_f"); !st.ok()) return st;
  params.theta_f = TimedStage("theta_f", timings, [&] {
    switch (options.theta_f_method) {
      case ThetaFMethod::kEdgeTruncation:
        return LearnCorrelationsDp(input, split.theta_f, options.truncation_k,
                                   rng);
      case ThetaFMethod::kSmoothSensitivity:
        return LearnCorrelationsSmooth(input, split.theta_f,
                                       options.smooth_delta, rng);
      case ThetaFMethod::kSampleAggregate:
        return LearnCorrelationsSampleAggregate(input, split.theta_f,
                                                sa_group, rng);
      case ThetaFMethod::kNaiveLaplace:
        return LearnCorrelationsNaive(input, split.theta_f, rng);
    }
    AGMDP_CHECK(false);
    return std::vector<double>();
  });

  // Line 4: Θ̃M = {S̄, ñ∆} (Algorithm 6). Constrained inference and the
  // rounding are post-processing on the noisy sequence.
  if (auto st = accountant.Spend(split.degree_seq, "degree_sequence");
      !st.ok()) {
    return st;
  }
  params.degree_sequence = TimedStage("degree_sequence", timings, [&] {
    return dp::DpDegreeSequence(input.structure.degrees(), split.degree_seq,
                                rng);
  });

  if (options.triangles) {
    if (auto st = accountant.Spend(split.triangles, "triangles"); !st.ok()) {
      return st;
    }
    auto triangles = TimedStage("triangles", timings, [&] {
      return dp::DpTriangleCount(input.structure, split.triangles, rng,
                                 options.ladder);
    });
    if (!triangles.ok()) return triangles.status();
    params.target_triangles =
        static_cast<uint64_t>(std::max<int64_t>(0, triangles.value()));
  }
  return params;
}

}  // namespace agmdp::agm
