// Quickstart: synthesize a differentially private version of an attributed
// social graph in ~20 lines of client code.
//
//   ./quickstart [--epsilon=1.0] [--seed=42]
#include <cmath>
#include <cstdio>

#include "src/datasets/datasets.h"
#include "src/eval/utility_report.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/stats/summary.h"
#include "src/util/flags.h"
#include "src/util/rng.h"

int main(int argc, char** argv) {
  using namespace agmdp;
  util::Flags flags = util::Flags::Parse(argc, argv);
  util::Rng rng(flags.GetInt("seed", 42));

  // 1. A sensitive input graph. Here: the Last.fm stand-in — in a real
  //    deployment this is your private attributed graph, e.g. opened with
  //    graph::GraphSource::Open(path) (text prefix or .agmbin container)
  //    and materialized via .Materialize().
  auto input = datasets::GenerateDataset(datasets::DatasetId::kLastFm,
                                         /*scale=*/0.5, /*seed=*/7);
  if (!input.ok()) {
    std::fprintf(stderr, "dataset: %s\n", input.status().ToString().c_str());
    return 1;
  }

  // 2. One call: the release pipeline learns all AGM parameters under
  //    epsilon-DP and samples a synthetic graph (TriCycLe by default).
  pipeline::PipelineConfig config;
  config.epsilon = flags.GetDouble("epsilon", std::log(2.0));
  auto result = pipeline::RunPrivateRelease(input.value(), config, rng);
  if (!result.ok()) {
    std::fprintf(stderr, "AGM-DP: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // 3. The synthetic graph is safe to publish; audit the ledger, compare
  //    utility.
  std::printf("privacy budget spends:\n");
  for (const auto& [label, eps] : result.value().ledger) {
    std::printf("  %-16s eps = %.4f\n", label.c_str(), eps);
  }
  // Analytics read immutable CSR snapshots of both graphs.
  const auto original = graph::AttributedCsrGraph::FromGraph(input.value());
  const auto synthetic =
      graph::AttributedCsrGraph::FromGraph(result.value().graph);
  std::printf("\n%s\n", stats::FormatSummary(
                             "input", stats::Summarize(original.structure))
                             .c_str());
  std::printf("%s\n", stats::FormatSummary(
                         "synthetic", stats::Summarize(synthetic.structure))
                         .c_str());

  const stats::UtilityErrors errors =
      eval::EvaluateRelease(eval::ProfileReference(original), synthetic)
          .errors;
  std::printf("\nutility (lower is better):\n");
  std::printf("  Theta_F MAE        %.4f\n", errors.theta_f_mae);
  std::printf("  Theta_F Hellinger  %.4f\n", errors.theta_f_hellinger);
  std::printf("  degree KS          %.4f\n", errors.degree_ks);
  std::printf("  degree Hellinger   %.4f\n", errors.degree_hellinger);
  std::printf("  triangle rel.err   %.4f\n", errors.triangles_re);
  std::printf("  edge-count rel.err %.4f\n", errors.edges_re);

  // 4. Need many synthetic graphs? The fitted parameters are the release:
  //    serve them from a ReleaseEngine at zero extra privacy cost (see
  //    examples/private_release_workflow.cpp for the full fit-once /
  //    sample-many workflow with stored artifacts).
  auto engine = pipeline::ReleaseEngine::Create(
      pipeline::MakeReleaseArtifact(result.value().params, config));
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  auto more = engine.value()->SampleMany(2, pipeline::SampleRequest{});
  if (!more.ok()) {
    std::fprintf(stderr, "serve: %s\n", more.status().ToString().c_str());
    return 1;
  }
  std::printf("\nserved %zu extra synthetic graphs from the same fit "
              "(no additional epsilon)\n",
              more.value().size());
  return 0;
}
