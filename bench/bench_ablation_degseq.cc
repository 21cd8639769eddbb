// Ablation for Appendix C.3.1: how much does constrained inference (the
// sort + isotonic-projection post-processing of Hay et al.) buy over raw
// Laplace noise on the degree sequence? Reported as the degree-sequence L1
// error per node and the KS/Hellinger of an FCL graph generated from each
// estimate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/dp/constrained_inference.h"
#include "src/graph/degree.h"
#include "src/models/chung_lu.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"

namespace {

using namespace agmdp;

// Raw-noise baseline: Laplace(2/eps) per degree, rounded and clamped, then
// sorted (no isotonic projection).
std::vector<uint32_t> RawNoisyDegrees(const std::vector<uint32_t>& degrees,
                                      double eps, util::Rng& rng) {
  std::vector<uint32_t> out(degrees.size());
  const double max_degree = static_cast<double>(degrees.size() - 1);
  for (size_t i = 0; i < degrees.size(); ++i) {
    double d = static_cast<double>(degrees[i]) + rng.Laplace(2.0 / eps);
    out[i] = static_cast<uint32_t>(
        std::clamp(std::round(d), 0.0, max_degree));
  }
  std::sort(out.begin(), out.end());
  return out;
}

double L1PerNode(const std::vector<uint32_t>& a,
                 const std::vector<uint32_t>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  return sum / static_cast<double>(a.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agmdp;
  util::Flags flags = util::Flags::Parse(argc, argv);
  const int trials = static_cast<int>(flags.GetInt("trials", 10));
  std::vector<double> epsilons =
      flags.GetDoubleList("eps", {0.05, 0.1, 0.25, 0.5});

  std::printf("# Ablation: degree sequence, constrained inference (CI) vs "
              "raw Laplace\n");
  std::printf("%-10s %6s %10s %10s %10s %10s\n", "dataset", "eps", "L1_CI",
              "L1_raw", "KS_CI", "KS_raw");
  bench::PrintRule();

  for (datasets::DatasetId id : bench::SelectedDatasets(flags)) {
    graph::AttributedGraph g = bench::LoadDataset(id, flags);
    const std::vector<uint32_t> degrees =
        graph::DegreeSequence(g.structure());
    std::vector<uint32_t> truth = degrees;
    std::sort(truth.begin(), truth.end());
    util::Rng rng(flags.GetInt("seed", 15) + static_cast<int>(id));

    for (double eps : epsilons) {
      double l1_ci = 0.0, l1_raw = 0.0, ks_ci = 0.0, ks_raw = 0.0;
      for (int t = 0; t < trials; ++t) {
        std::vector<uint32_t> ci = dp::DpDegreeSequence(degrees, eps, rng);
        std::vector<uint32_t> raw = RawNoisyDegrees(degrees, eps, rng);
        l1_ci += L1PerNode(ci, truth);
        l1_raw += L1PerNode(raw, truth);
        ks_ci += stats::KsStatistic(ci, truth);
        ks_raw += stats::KsStatistic(raw, truth);
      }
      std::printf("%-10s %6.2f %10.3f %10.3f %10.4f %10.4f\n",
                  datasets::PaperSpec(id).name.c_str(), eps, l1_ci / trials,
                  l1_raw / trials, ks_ci / trials, ks_raw / trials);
    }
  }
  return 0;
}
