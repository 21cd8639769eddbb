// Ablation (DESIGN.md substitution #6): Ladder triangle counts with the
// exact max-common-neighbor base vs the degree-bound fallback, across
// epsilon. Quantifies how much accuracy the cheap base costs.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/dp/ladder_mechanism.h"
#include "src/graph/triangle_count.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"

int main(int argc, char** argv) {
  using namespace agmdp;
  util::Flags flags = util::Flags::Parse(argc, argv);
  const int trials = static_cast<int>(flags.GetInt("trials", 30));
  std::vector<double> epsilons =
      flags.GetDoubleList("eps", {0.05, 0.1, 0.25, 0.5, 1.0});

  std::printf("# Ablation: ladder base exact vs degree bound (triangle MRE)\n");
  std::printf("%-10s %6s %10s %10s %12s %12s\n", "dataset", "eps",
              "base_exact", "base_deg", "mre_exact", "mre_deg");
  bench::PrintRule();

  for (datasets::DatasetId id : bench::SelectedDatasets(flags)) {
    const graph::CsrGraph g = bench::LoadSnapshot(id, flags).structure;
    const auto truth = static_cast<double>(graph::CountTriangles(g));
    util::Rng rng(flags.GetInt("seed", 9) + static_cast<int>(id));

    for (double eps : epsilons) {
      double mre_exact = 0.0, mre_deg = 0.0;
      uint32_t base_exact = 0, base_deg = 0;
      for (int t = 0; t < trials; ++t) {
        dp::LadderOptions exact;
        dp::LadderDiagnostics diag_exact;
        auto r1 = dp::DpTriangleCount(g, eps, rng, exact, &diag_exact);
        AGMDP_CHECK(r1.ok());
        base_exact = diag_exact.ladder_base;
        mre_exact +=
            stats::RelativeError(static_cast<double>(r1.value()), truth);

        dp::LadderOptions degree;
        degree.force_degree_bound = true;
        dp::LadderDiagnostics diag_deg;
        auto r2 = dp::DpTriangleCount(g, eps, rng, degree, &diag_deg);
        AGMDP_CHECK(r2.ok());
        base_deg = diag_deg.ladder_base;
        mre_deg +=
            stats::RelativeError(static_cast<double>(r2.value()), truth);
      }
      std::printf("%-10s %6.2f %10u %10u %12.5f %12.5f\n",
                  datasets::PaperSpec(id).name.c_str(), eps, base_exact,
                  base_deg, mre_exact / trials, mre_deg / trials);
    }
  }
  return 0;
}
