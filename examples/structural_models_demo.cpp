// Structural models side by side (the non-private comparison behind
// Figures 2 and 3): fit FCL, TCL and TriCycLe to one dataset and report how
// well each reproduces degrees, triangles and clustering.
//
//   ./structural_models_demo [--dataset=lastfm] [--scale=1.0]
#include <cstdio>

#include "src/datasets/datasets.h"
#include "src/graph/degree.h"
#include "src/graph/triangle_count.h"
#include "src/models/bter.h"
#include "src/models/chung_lu.h"
#include "src/models/tcl.h"
#include "src/models/tricycle.h"
#include "src/stats/metrics.h"
#include "src/stats/summary.h"
#include "src/util/flags.h"
#include "src/util/rng.h"

namespace {

using namespace agmdp;

void Report(const char* name, const graph::CsrGraph& original,
            const graph::Graph& synthetic) {
  const graph::CsrGraph snapshot = graph::CsrGraph::FromGraph(synthetic);
  std::printf("%s\n",
              stats::FormatSummary(name, stats::Summarize(snapshot)).c_str());
  std::printf("    degree KS=%.4f  degree Hellinger=%.4f\n",
              stats::KsStatistic(graph::SortedDegreeSequence(snapshot),
                                 graph::SortedDegreeSequence(original)),
              stats::HellingerDistance(stats::DegreeDistribution(snapshot),
                                       stats::DegreeDistribution(original)));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agmdp;
  util::Flags flags = util::Flags::Parse(argc, argv);
  const auto dataset =
      datasets::DatasetByName(flags.GetString("dataset", "lastfm"));
  const double scale = flags.GetDouble("scale", 1.0);
  util::Rng rng(flags.GetInt("seed", 3));

  auto input = datasets::GenerateDataset(dataset, scale, 7);
  if (!input.ok()) {
    std::fprintf(stderr, "%s\n", input.status().ToString().c_str());
    return 1;
  }
  const graph::Graph& g = input.value().structure();
  const graph::CsrGraph original = graph::CsrGraph::FromGraph(g);
  std::printf(
      "%s\n",
      stats::FormatSummary("original", stats::Summarize(original)).c_str());
  std::printf("\n");

  const std::vector<uint32_t> degrees = graph::DegreeSequence(g);
  const uint64_t triangles = graph::CountTriangles(g);

  // FCL: degrees only, no clustering mechanism.
  auto fcl = models::FastChungLu(degrees, rng);
  if (!fcl.ok()) return 1;
  Report("FCL", original, fcl.value());

  // TCL: degrees + EM-fitted transitive closure probability.
  const double rho = models::FitTclRho(g, rng);
  std::printf("\nTCL fitted rho = %.3f\n", rho);
  auto tcl = models::GenerateTcl(degrees, rho, rng);
  if (!tcl.ok()) return 1;
  Report("TCL", original, tcl.value());

  // TriCycLe: degrees + triangle-count target.
  auto tricycle = models::GenerateTriCycLe(degrees, triangles, rng);
  if (!tricycle.ok()) return 1;
  std::printf("\nTriCycLe: target=%llu achieved=%llu (%llu proposals)\n",
              static_cast<unsigned long long>(triangles),
              static_cast<unsigned long long>(
                  tricycle.value().achieved_triangles),
              static_cast<unsigned long long>(tricycle.value().proposals));
  Report("TriCycLe", original, tricycle.value().graph);

  // BTER: degrees + degree-wise clustering profile (non-private baseline;
  // the paper rejects it for DP because of the profile's sensitivity).
  auto bter = models::GenerateBter(models::FitBter(g), rng);
  if (!bter.ok()) return 1;
  std::printf("\n");
  Report("BTER", original, bter.value());
  return 0;
}
