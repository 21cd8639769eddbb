// Section 7 preliminary node-DP experiment: Hellinger distance between the
// exact ΘF and the node-DP estimate (edge truncation + smooth-sensitivity
// noise in the node-adjacency model, delta = 0.01), compared to the uniform
// baseline, across epsilon — then the break-even table the section is
// about: the smallest epsilon at which the node-DP estimate beats the
// baseline, per dataset.
//
// Paper shape to reproduce: the node-DP estimate beats the baseline once
// epsilon is moderately large, with the break-even epsilon shrinking as the
// dataset grows (ln2 on Last.fm down to 0.05 on Pokec).
//
// All failures (unknown --dataset, dataset generation errors) are typed
// Status values printed to stderr with exit 1 — the bench never aborts.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/agm/theta_f.h"
#include "src/graph/attribute_encoding.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"

int main(int argc, char** argv) {
  using namespace agmdp;
  util::Flags flags = util::Flags::Parse(argc, argv);
  auto trials_flag = flags.GetCheckedInt("trials", 20);
  if (!trials_flag.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 trials_flag.status().ToString().c_str());
    return 1;
  }
  const int trials = static_cast<int>(trials_flag.value());
  if (trials < 1) {
    std::fprintf(stderr, "error: InvalidArgument: --trials must be >= 1\n");
    return 1;
  }
  auto delta_flag = flags.GetCheckedDouble("delta", 0.01);
  if (!delta_flag.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 delta_flag.status().ToString().c_str());
    return 1;
  }
  const double delta = delta_flag.value();
  std::vector<double> epsilons = flags.GetDoubleList(
      "eps", {0.05, 0.1, 0.2, 0.3, std::log(2.0), 1.0, std::log(3.0)});

  auto selected = bench::TrySelectedDatasets(flags);
  if (!selected.ok()) {
    std::fprintf(stderr, "error: %s\n", selected.status().ToString().c_str());
    return 1;
  }

  std::printf("# Section 7: node-DP Theta_F (Hellinger), delta=%.3g\n",
              delta);
  std::printf("%-10s %6s %12s %12s %8s\n", "dataset", "eps", "node_dp",
              "baseline", "beats");
  bench::PrintRule();

  struct BreakEven {
    std::string dataset;
    uint32_t nodes = 0;
    double epsilon = -1.0;  // < 0: never beat the baseline in the sweep
  };
  std::vector<BreakEven> break_evens;

  for (datasets::DatasetId id : selected.value()) {
    auto loaded = bench::TryLoadDataset(id, flags);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: dataset %s: %s\n",
                   datasets::PaperSpec(id).name.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    const graph::AttributedCsrGraph g =
        graph::AttributedCsrGraph::FromGraph(loaded.value());
    const std::vector<double> exact = agm::ComputeThetaF(g);
    const auto configs = graph::NumEdgeConfigs(g.num_attributes);
    std::vector<double> uniform(configs, 1.0 / configs);
    const double baseline = stats::HellingerDistance(uniform, exact);
    util::Rng rng(flags.GetInt("seed", 8) + static_cast<int>(id));

    BreakEven row;
    row.dataset = datasets::PaperSpec(id).name;
    row.nodes = g.num_nodes();
    for (double eps : epsilons) {
      double total = 0.0;
      for (int t = 0; t < trials; ++t) {
        total += stats::HellingerDistance(
            agm::LearnCorrelationsNodeDp(g, eps, delta, /*k=*/0, rng), exact);
      }
      const double mean = total / trials;
      const bool beats = mean < baseline;
      if (beats && row.epsilon < 0) row.epsilon = eps;
      std::printf("%-10s %6.2f %12.5f %12.5f %8s\n", row.dataset.c_str(),
                  eps, mean, baseline, beats ? "yes" : "no");
    }
    break_evens.push_back(std::move(row));
  }

  // The headline table: break-even epsilon per dataset. The paper's claim
  // is the monotone trend — larger datasets break even at smaller epsilon.
  std::printf("\n# break-even: smallest epsilon where node-DP beats the "
              "uniform baseline\n");
  std::printf("%-10s %10s %12s\n", "dataset", "nodes", "break_even");
  bench::PrintRule();
  for (const BreakEven& row : break_evens) {
    if (row.epsilon < 0) {
      std::printf("%-10s %10u %12s\n", row.dataset.c_str(), row.nodes,
                  "none");
    } else {
      std::printf("%-10s %10u %12.3f\n", row.dataset.c_str(), row.nodes,
                  row.epsilon);
    }
  }
  return 0;
}
