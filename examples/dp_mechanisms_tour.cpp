// A guided tour of the differential-privacy building blocks the AGM-DP
// pipeline is assembled from, each demonstrated on a small graph:
//   1. Laplace mechanism + clamp/normalize      (Theta_X, Algorithm 5)
//   2. Edge truncation                          (Theta_F, Algorithm 4)
//   3. Smooth sensitivity                       (Appendix B.1)
//   4. Constrained inference / PAVA             (degree sequence, Alg. 6)
//   5. Ladder mechanism                         (triangle count, Alg. 6)
//
//   ./dp_mechanisms_tour [--epsilon=0.5] [--seed=9]
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/agm/theta_f.h"
#include "src/agm/theta_x.h"
#include "src/datasets/datasets.h"
#include "src/dp/constrained_inference.h"
#include "src/dp/edge_truncation.h"
#include "src/dp/ladder_mechanism.h"
#include "src/dp/smooth_sensitivity.h"
#include "src/graph/degree.h"
#include "src/graph/triangle_count.h"
#include "src/stats/metrics.h"
#include "src/util/flags.h"
#include "src/util/rng.h"

int main(int argc, char** argv) {
  using namespace agmdp;
  util::Flags flags = util::Flags::Parse(argc, argv);
  const double eps = flags.GetDouble("epsilon", 0.5);
  util::Rng rng(flags.GetInt("seed", 9));

  auto input = datasets::GenerateDataset(datasets::DatasetId::kPetster,
                                         /*scale=*/0.5, /*seed=*/5);
  if (!input.ok()) return 1;
  const graph::AttributedGraph& g = input.value();
  std::printf("demo graph: n=%u m=%llu dmax=%u\n\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()),
              g.structure().MaxDegree());

  // 1. Laplace mechanism on the attribute histogram (GS = 2).
  std::printf("[1] Laplace mechanism: Theta_X at eps=%.2f\n", eps);
  const auto exact_x = agm::ComputeThetaX(g);
  const auto noisy_x = agm::LearnAttributesDp(g, eps, rng);
  for (size_t y = 0; y < exact_x.size(); ++y) {
    std::printf("    config %zu: exact %.4f  private %.4f\n", y, exact_x[y],
                noisy_x[y]);
  }

  // 2. Edge truncation: k-bounded projection shrinks sensitivity 2n-2 -> 2k.
  const uint32_t k = dp::HeuristicTruncationK(g.num_nodes());
  const graph::AttributedGraph truncated = dp::TruncateEdges(g, k);
  std::printf("\n[2] edge truncation: k = n^(1/3) = %u\n", k);
  std::printf("    edges kept %llu / %llu, dmax %u -> %u\n",
              static_cast<unsigned long long>(truncated.num_edges()),
              static_cast<unsigned long long>(g.num_edges()),
              g.structure().MaxDegree(), truncated.structure().MaxDegree());
  std::printf("    naive GS = 2n-2 = %u, truncated GS = 2k = %u\n",
              2 * g.num_nodes() - 2, 2 * k);
  const auto exact_f = agm::ComputeThetaF(g);
  const auto trunc_f = agm::LearnCorrelationsDp(g, eps, k, rng);
  std::printf("    Theta_F MAE (truncation): %.5f\n",
              stats::MeanAbsoluteError(trunc_f, exact_f));

  // 3. Smooth sensitivity: data-dependent noise, (eps, delta)-DP.
  const double delta = 1e-6;
  const double beta = dp::SmoothSensitivityBeta(eps, delta);
  const double smooth =
      dp::SmoothSensitivityQF(g.structure().MaxDegree(), g.num_nodes(), beta);
  std::printf("\n[3] smooth sensitivity: beta=%.4f S*=%.1f (vs GS %u)\n",
              beta, smooth, 2 * g.num_nodes() - 2);
  const auto smooth_f = agm::LearnCorrelationsSmooth(g, eps, delta, rng);
  std::printf("    Theta_F MAE (smooth):     %.5f\n",
              stats::MeanAbsoluteError(smooth_f, exact_f));

  // 4. Constrained inference on the degree sequence.
  const auto degrees = graph::DegreeSequence(g.structure());
  const auto private_degrees = dp::DpDegreeSequence(degrees, eps, rng);
  std::vector<uint32_t> sorted = degrees;
  std::sort(sorted.begin(), sorted.end());
  double l1 = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    l1 += std::fabs(static_cast<double>(private_degrees[i]) -
                    static_cast<double>(sorted[i]));
  }
  std::printf("\n[4] constrained inference: mean |noisy - true| per degree ="
              " %.3f (raw Laplace would be %.3f)\n",
              l1 / sorted.size(), 2.0 / eps);

  // 5. Ladder mechanism for the triangle count.
  const uint64_t tri = graph::CountTriangles(g.structure());
  dp::LadderDiagnostics diag;
  auto private_tri =
      dp::DpTriangleCount(g.structure(), eps, rng, dp::LadderOptions{}, &diag);
  std::printf("\n[5] ladder mechanism: true n_tri=%llu private=%lld "
              "(ladder base %u, %s)\n",
              static_cast<unsigned long long>(tri),
              static_cast<long long>(private_tri.value()), diag.ladder_base,
              diag.used_exact_base ? "exact a_max" : "degree bound");
  std::printf("    naive Laplace noise at GS=n-2 would have scale %.0f\n",
              (static_cast<double>(g.num_nodes()) - 2.0) / eps);
  return 0;
}
