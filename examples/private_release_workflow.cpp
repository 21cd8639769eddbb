// Private release workflow: the end-to-end scenario from the paper's
// introduction. A data owner holds a sensitive attributed social graph and
// wants to hand analysts synthetic graphs they can explore freely.
//
// The serving-layer shape (Theorem 2): the owner fits the AGM parameters
// ONCE under the privacy accountant — that fit is the release — stores
// them as a release artifact, and then serves as many synthetic graphs as
// analysts ask for from a ReleaseEngine. Sampling is pure post-processing,
// so the owner's total privacy exposure is one epsilon, independent of how
// many graphs are served.
//
// Steps: load (or build) the private graph -> pick a privacy budget ->
// pipeline::FitReleaseArtifact (the only step that reads the data) ->
// audit the ledger -> persist the artifact -> reload it and build a
// ReleaseEngine -> serve a batch of synthetic graphs -> evaluate each
// against the input -> persist as edge/attribute files.
//
//   ./private_release_workflow [--epsilon=0.69] [--releases=3]
//                              [--dataset=petster] [--model=tricycle]
//                              [--threads=1] [--out=/tmp/release]
#include <cmath>
#include <cstdio>
#include <string>

#include "src/datasets/datasets.h"
#include "src/eval/utility_report.h"
#include "src/graph/graph_source.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/stats/summary.h"
#include "src/util/flags.h"
#include "src/util/rng.h"

int main(int argc, char** argv) {
  using namespace agmdp;
  util::Flags flags = util::Flags::Parse(argc, argv);
  const int releases = static_cast<int>(flags.GetInt("releases", 3));
  const std::string out = flags.GetString("out", "/tmp/agmdp_release");
  const auto dataset =
      datasets::DatasetByName(flags.GetString("dataset", "petster"));
  util::Rng rng(flags.GetInt("seed", 1));

  pipeline::PipelineConfig config;
  config.epsilon = flags.GetDouble("epsilon", std::log(2.0));
  config.model = flags.GetString("model", "tricycle");
  config.acceptance_iterations = 3;
  const int threads = static_cast<int>(flags.GetInt("threads", 1));

  auto input = datasets::GenerateDataset(dataset, 1.0, 11);
  if (!input.ok()) {
    std::fprintf(stderr, "%s\n", input.status().ToString().c_str());
    return 1;
  }
  // The fit and the analytics read the input's immutable snapshot.
  const graph::AttributedCsrGraph snapshot =
      graph::AttributedCsrGraph::FromGraph(input.value());
  std::printf("%s\n", stats::FormatSummary(
                         "input", stats::Summarize(snapshot.structure))
                         .c_str());

  // IMPORTANT privacy note: the parameters are the release. Fitting them
  // consumes epsilon once; every sample drawn afterwards is free
  // post-processing, so serving more graphs costs nothing extra.
  std::printf("total privacy cost: %.3f (one fit; %d samples are free)\n\n",
              config.epsilon, releases);

  // ---- fit once (the only step that touches the sensitive graph) ----
  auto fitted = pipeline::FitReleaseArtifact(snapshot, config, rng);
  if (!fitted.ok()) {
    std::fprintf(stderr, "fit failed: %s\n",
                 fitted.status().ToString().c_str());
    return 1;
  }

  // The audit trail: the ledger of DP spends, summing to epsilon, travels
  // inside the artifact.
  std::printf("ledger:");
  double spent = 0.0;
  for (const auto& [label, eps] : fitted.value().ledger) {
    std::printf(" %s=%.4f", label.c_str(), eps);
    spent += eps;
  }
  std::printf(" (total %.4f / %.4f)\n", spent,
              fitted.value().epsilon_budget);

  // ---- persist and reload the artifact (what `agmdp fit` hands to
  // `agmdp sample`, possibly on another machine) ----
  const std::string artifact_path = out + ".artifact.json";
  if (auto st = pipeline::WriteReleaseArtifact(fitted.value(), artifact_path);
      !st.ok()) {
    std::fprintf(stderr, "write: %s\n", st.ToString().c_str());
    return 1;
  }
  auto artifact = pipeline::ReadReleaseArtifact(artifact_path);
  if (!artifact.ok()) {
    std::fprintf(stderr, "reload: %s\n", artifact.status().ToString().c_str());
    return 1;
  }
  std::printf("artifact -> %s (model=%s, fingerprint=%llu)\n\n",
              artifact_path.c_str(), artifact.value().model.c_str(),
              static_cast<unsigned long long>(
                  artifact.value().config_fingerprint));

  // ---- build the serving engine and draw the whole batch ----
  pipeline::EngineOptions engine_options;
  engine_options.threads = threads;
  auto engine = pipeline::ReleaseEngine::Create(std::move(artifact).value(),
                                                engine_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  pipeline::SampleRequest base;
  base.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  auto graphs = engine.value()->SampleMany(releases, base);
  if (!graphs.ok()) {
    std::fprintf(stderr, "serve: %s\n", graphs.status().ToString().c_str());
    return 1;
  }

  // The input is profiled once; each release is scored against it.
  const eval::ReferenceProfile reference = eval::ProfileReference(snapshot);
  for (int i = 0; i < releases; ++i) {
    const graph::AttributedGraph& g = graphs.value()[static_cast<size_t>(i)];
    // WriteGraph routes on the extension: pass --out=release.agmbin to
    // get checksummed binary containers instead of text pairs.
    const std::string prefix =
        graph::NumberedGraphPath(out, static_cast<uint64_t>(i));
    if (auto st = graph::WriteGraph(g, prefix); !st.ok()) {
      std::fprintf(stderr, "write: %s\n", st.ToString().c_str());
      return 1;
    }
    const graph::AttributedCsrGraph snapshot =
        graph::AttributedCsrGraph::FromGraph(g);
    const stats::UtilityErrors e =
        eval::EvaluateRelease(reference, snapshot).errors;
    std::printf("release %d -> %s\n", i, prefix.c_str());
    std::printf("%s\n", stats::FormatSummary(
                           "  synthetic", stats::Summarize(snapshot.structure))
                           .c_str());
    std::printf("  H_ThetaF=%.4f KS_S=%.4f tri_re=%.4f m_re=%.4f\n\n",
                e.theta_f_hellinger, e.degree_ks, e.triangles_re, e.edges_re);
  }
  std::printf("done. Analysts can request more samples from the stored\n"
              "artifact at any time without further privacy accounting.\n");
  return 0;
}
