// Extension experiment: held-out structural statistics. AGM-DP's models
// only target degrees, triangles and ΘF; this bench checks how well the
// synthetic graphs preserve statistics the pipeline never optimizes —
// average path length, effective diameter, degree assortativity and
// attribute assortativity (homophily). All measurement routes through
// eval::ProfileGraph.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/eval/utility_report.h"
#include "src/pipeline/release_pipeline.h"
#include "src/util/rng.h"

namespace {

using namespace agmdp;

constexpr uint32_t kPathSamples = 48;

void PrintRow(const char* dataset, const char* which,
              const eval::StructuralProfile& s) {
  std::printf("%-10s %-14s %10.3f %10.3f %+10.4f %+10.4f\n", dataset, which,
              s.avg_path_length, s.effective_diameter, s.degree_assortativity,
              s.attribute_assortativity);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agmdp;
  util::Flags flags = util::Flags::Parse(argc, argv);
  const double eps = flags.GetDouble("epsilon", std::log(3.0));
  const int trials = static_cast<int>(flags.GetInt("trials", 3));

  std::printf("# Extension: held-out statistics at eps=%.3f (averaged over "
              "%d syntheses)\n",
              eps, trials);
  std::printf("%-10s %-14s %10s %10s %10s %10s\n", "dataset", "graph",
              "avg_path", "eff_diam", "deg_assort", "attr_assort");
  bench::PrintRule();

  for (datasets::DatasetId id : bench::SelectedDatasets(flags)) {
    const graph::AttributedCsrGraph input = bench::LoadSnapshot(id, flags);
    const char* name = datasets::PaperSpec(id).name.c_str();
    util::Rng rng(flags.GetInt("seed", 14) + static_cast<int>(id));
    PrintRow(name, "input", eval::ProfileGraph(input, kPathSamples, rng));

    for (bool tricycle : {true, false}) {
      pipeline::PipelineConfig options;
      options.epsilon = eps;
      options.model = tricycle ? "tricycle" : "fcl";
      options.acceptance_iterations = 2;
      eval::StructuralProfile mean;
      for (int t = 0; t < trials; ++t) {
        auto result = pipeline::RunPrivateRelease(input, options, rng);
        AGMDP_CHECK_MSG(result.ok(), result.status().ToString().c_str());
        const eval::StructuralProfile s =
            eval::ProfileGraph(result.value().graph, kPathSamples, rng);
        mean.avg_path_length += s.avg_path_length / trials;
        mean.effective_diameter += s.effective_diameter / trials;
        mean.degree_assortativity += s.degree_assortativity / trials;
        mean.attribute_assortativity += s.attribute_assortativity / trials;
      }
      PrintRow(name, tricycle ? "AGMDP-TriCL" : "AGMDP-FCL", mean);
    }
  }
  return 0;
}
