// Figure 1: MAE of the edge-truncation Θ̃F estimator with the best
// truncation parameter k (found by sweeping) vs the data-independent
// heuristic k = n^(1/3), across epsilon, per dataset.
//
// Paper shape to reproduce: the heuristic's curve hugs the best-k curve,
// with the gap shrinking as graphs grow (negligible for Pokec).
#include <cstdio>
#include <limits>
#include <vector>

#include "bench/bench_util.h"
#include "src/agm/theta_f.h"
#include "src/dp/edge_truncation.h"
#include "src/eval/utility_report.h"
#include "src/util/rng.h"

namespace {

using namespace agmdp;

double MaeAtK(const graph::AttributedCsrGraph& g,
              const std::vector<double>& exact, double eps, uint32_t k,
              int trials, util::Rng& rng) {
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    total +=
        eval::CompareThetaF(agm::LearnCorrelationsDp(g, eps, k, rng), exact)
            .mae;
  }
  return total / trials;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agmdp;
  util::Flags flags = util::Flags::Parse(argc, argv);
  const int trials = static_cast<int>(flags.GetInt("trials", 20));
  std::vector<double> epsilons =
      flags.GetDoubleList("eps", {0.1, 0.2, 0.3, 0.5, 1.0});

  std::printf("# Figure 1: MAE of truncation Theta_F, best k vs k=n^(1/3)\n");
  std::printf("%-10s %6s %8s %12s %12s %8s\n", "dataset", "eps", "k_heur",
              "mae_heur", "mae_best", "best_k");
  bench::PrintRule();

  for (datasets::DatasetId id : bench::SelectedDatasets(flags)) {
    const graph::AttributedCsrGraph g = bench::LoadSnapshot(id, flags);
    const std::vector<double> exact = agm::ComputeThetaF(g);
    const uint32_t k_heur = dp::HeuristicTruncationK(g.num_nodes());
    const uint32_t dmax = g.structure.MaxDegree();
    util::Rng rng(flags.GetInt("seed", 1) + static_cast<int>(id));

    // Candidate grid for the "best k" sweep: geometric between 2 and dmax.
    std::vector<uint32_t> candidates;
    for (uint32_t k = 2; k < dmax; k = k * 3 / 2 + 1) candidates.push_back(k);
    candidates.push_back(dmax);

    for (double eps : epsilons) {
      const double mae_heur = MaeAtK(g, exact, eps, k_heur, trials, rng);
      double mae_best = std::numeric_limits<double>::infinity();
      uint32_t best_k = 0;
      for (uint32_t k : candidates) {
        const double mae = MaeAtK(g, exact, eps, k, trials, rng);
        if (mae < mae_best) {
          mae_best = mae;
          best_k = k;
        }
      }
      std::printf("%-10s %6.2f %8u %12.5f %12.5f %8u\n",
                  datasets::PaperSpec(id).name.c_str(), eps, k_heur, mae_heur,
                  mae_best, best_k);
    }
  }
  return 0;
}
