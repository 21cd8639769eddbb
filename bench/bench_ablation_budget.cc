// Ablation (Section 5 "other strategies could also be used"): how the
// epsilon split among (ΘX, ΘF, S, n∆) affects AGMDP-TriCL utility.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/eval/aggregate.h"
#include "src/eval/utility_report.h"
#include "src/pipeline/release_pipeline.h"
#include "src/util/rng.h"

namespace {

using namespace agmdp;

struct SplitSpec {
  const char* name;
  double x, f, s, t;  // fractions of epsilon
};

}  // namespace

int main(int argc, char** argv) {
  using namespace agmdp;
  util::Flags flags = util::Flags::Parse(argc, argv);
  const int trials = static_cast<int>(flags.GetInt("trials", 5));
  const double eps = flags.GetDouble("epsilon", std::log(2.0));

  const SplitSpec splits[] = {
      {"even", 0.25, 0.25, 0.25, 0.25},
      {"structure-heavy", 0.15, 0.15, 0.35, 0.35},
      {"correlation-heavy", 0.15, 0.45, 0.20, 0.20},
      {"degree-heavy", 0.15, 0.15, 0.55, 0.15},
  };

  std::printf("# Ablation: budget split for AGMDP-TriCL at eps=%.3f\n", eps);
  std::printf("%-10s %-18s %8s %8s %8s %8s %8s\n", "dataset", "split",
              "H_ThetaF", "KS_S", "n_tri", "avgC", "m");
  bench::PrintRule();

  for (datasets::DatasetId id : bench::SelectedDatasets(flags)) {
    const graph::AttributedCsrGraph input = bench::LoadSnapshot(id, flags);
    const eval::ReferenceProfile reference = eval::ProfileReference(input);
    util::Rng rng(flags.GetInt("seed", 10) + static_cast<int>(id));
    for (const SplitSpec& split : splits) {
      pipeline::PipelineConfig options;
      options.epsilon = eps;
      options.model = "tricycle";
      options.split.theta_x = split.x * eps;
      options.split.theta_f = split.f * eps;
      options.split.degree_seq = split.s * eps;
      options.split.triangles = split.t * eps;
      options.sample.acceptance_iterations = 2;
      eval::ReportAccumulator accumulator;
      for (int t = 0; t < trials; ++t) {
        auto result = pipeline::RunPrivateRelease(input, options, rng);
        AGMDP_CHECK_MSG(result.ok(), result.status().ToString().c_str());
        accumulator.Add(
            eval::EvaluateRelease(reference, result.value().graph));
      }
      std::printf("%-10s %-18s %8.4f %8.4f %8.4f %8.4f %8.4f\n",
                  datasets::PaperSpec(id).name.c_str(), split.name,
                  accumulator.Mean("theta_f_hellinger"),
                  accumulator.Mean("degree_ks"),
                  accumulator.Mean("triangles_re"),
                  accumulator.Mean("avg_clustering_re"),
                  accumulator.Mean("edges_re"));
    }
  }
  return 0;
}
