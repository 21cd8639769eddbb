// Ablation for Section 5.3 / Section 7 ("Non-Binary Attributes"): the paper
// predicts that error rates increase with the number of attributes w, since
// the number of ΘX / ΘF counts grows exponentially while the noise per
// count is w-independent. Sweep w on a fixed structure and measure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/agm/theta_f.h"
#include "src/agm/theta_x.h"
#include "src/datasets/homophily.h"
#include "src/graph/attribute_encoding.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"

int main(int argc, char** argv) {
  using namespace agmdp;
  util::Flags flags = util::Flags::Parse(argc, argv);
  const int trials = static_cast<int>(flags.GetInt("trials", 20));
  const double eps = flags.GetDouble("epsilon", std::log(2.0) / 4.0);
  const auto dataset =
      datasets::DatasetByName(flags.GetString("dataset", "lastfm"));

  std::printf("# Ablation: attribute dimension w at eps=%.3f per parameter\n",
              eps);
  std::printf("%3s %8s %8s %14s %14s %14s\n", "w", "|Y_w|", "|YF_w|",
              "thetaX_MAE", "thetaF_MAE", "thetaF_Hell");
  bench::PrintRule();

  graph::AttributedGraph base = bench::LoadDataset(dataset, flags);
  util::Rng rng(flags.GetInt("seed", 12));

  for (int w = 1; w <= 5; ++w) {
    // Rebuild the same structure with w homophilous attributes; uniform
    // marginal keeps per-config mass comparable across w.
    graph::AttributedGraph g(base.structure(), w);
    const uint32_t configs = graph::NumNodeConfigs(w);
    std::vector<double> theta_x(configs, 1.0 / configs);
    datasets::HomophilyOptions homophily;
    homophily.target_same_fraction =
        std::min(0.9, 2.0 / configs + 0.3);  // achievable homophily per w
    AGMDP_CHECK_OK(
        datasets::AssignHomophilousAttributes(&g, theta_x, homophily, rng));
    const graph::AttributedCsrGraph snapshot =
        graph::AttributedCsrGraph::FromGraph(g);

    const std::vector<double> exact_x = agm::ComputeThetaX(snapshot);
    const std::vector<double> exact_f = agm::ComputeThetaF(snapshot);
    double mae_x = 0.0, mae_f = 0.0, hell_f = 0.0;
    for (int t = 0; t < trials; ++t) {
      mae_x += stats::MeanAbsoluteError(
          agm::LearnAttributesDp(snapshot, eps, rng), exact_x);
      std::vector<double> theta_f =
          agm::LearnCorrelationsDp(snapshot, eps, 0, rng);
      mae_f += stats::MeanAbsoluteError(theta_f, exact_f);
      hell_f += stats::HellingerDistance(theta_f, exact_f);
    }
    std::printf("%3d %8u %8u %14.5f %14.5f %14.5f\n", w, configs,
                graph::NumEdgeConfigs(w), mae_x / trials, mae_f / trials,
                hell_f / trials);
  }
  return 0;
}
