// Downstream-task demo: relational attribute prediction, the class of
// analysis the paper's introduction motivates ("correlations are exploited
// to predict missing attribute values").
//
// A simple relational classifier — predict a node's attribute configuration
// by majority vote over its neighbors — is evaluated on (a) the private
// input graph, (b) an AGM-DP synthetic graph, and (c) an FCL-based synthetic
// graph with the same budget. If AGM-DP preserves attribute-edge
// correlations, the classifier's accuracy on (b) should resemble (a), while
// (c) should fall toward the majority-class baseline.
//
//   ./homophily_analysis [--epsilon=1.1] [--dataset=petster]
//
// Petster is the default: its attribute marginal is near-balanced, so the
// majority-class baseline is weak and the relational signal visible.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/pipeline/release_pipeline.h"
#include "src/datasets/datasets.h"
#include "src/datasets/homophily.h"
#include "src/graph/attribute_encoding.h"
#include "src/util/flags.h"
#include "src/util/rng.h"

namespace {

using namespace agmdp;

// Accuracy of neighbor-majority prediction over all nodes with neighbors.
double RelationalAccuracy(const graph::AttributedGraph& g) {
  const uint32_t configs = graph::NumNodeConfigs(g.num_attributes());
  uint64_t correct = 0, evaluated = 0;
  std::vector<uint32_t> votes(configs);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& nbrs = g.structure().Neighbors(v);
    if (nbrs.empty()) continue;
    std::fill(votes.begin(), votes.end(), 0);
    for (graph::NodeId u : nbrs) ++votes[g.attribute(u)];
    const auto winner = static_cast<graph::AttrConfig>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
    correct += winner == g.attribute(v);
    ++evaluated;
  }
  return evaluated == 0 ? 0.0
                        : static_cast<double>(correct) /
                              static_cast<double>(evaluated);
}

// Majority-class baseline (no graph information at all).
double MajorityBaseline(const graph::AttributedGraph& g) {
  std::vector<uint64_t> counts(graph::NumNodeConfigs(g.num_attributes()), 0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) ++counts[g.attribute(v)];
  return static_cast<double>(
             *std::max_element(counts.begin(), counts.end())) /
         static_cast<double>(g.num_nodes());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agmdp;
  util::Flags flags = util::Flags::Parse(argc, argv);
  const double epsilon = flags.GetDouble("epsilon", std::log(3.0));
  const auto dataset =
      datasets::DatasetByName(flags.GetString("dataset", "petster"));
  util::Rng rng(flags.GetInt("seed", 13));

  auto input = datasets::GenerateDataset(
      dataset, flags.GetDouble("scale", 1.0), 21);
  if (!input.ok()) return 1;
  const graph::AttributedGraph& g = input.value();

  std::printf("dataset: %s (n=%u m=%llu), homophily (same-config edges): "
              "%.3f\n\n",
              datasets::PaperSpec(dataset).name.c_str(), g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()),
              datasets::SameConfigEdgeFraction(g));

  std::printf("majority-class baseline accuracy:   %.3f\n",
              MajorityBaseline(g));
  std::printf("relational accuracy on input graph: %.3f\n\n",
              RelationalAccuracy(g));

  // The private fit reads the input's immutable snapshot.
  const graph::AttributedCsrGraph snapshot =
      graph::AttributedCsrGraph::FromGraph(g);
  pipeline::PipelineConfig options;
  options.epsilon = epsilon;
  options.model = "tricycle";
  options.sample.acceptance_iterations = 3;
  auto tricl = pipeline::RunPrivateRelease(snapshot, options, rng);
  if (!tricl.ok()) return 1;
  std::printf("AGMDP-TriCL synthetic (eps=%.2f):    %.3f (homophily %.3f)\n",
              epsilon, RelationalAccuracy(tricl.value().graph),
              datasets::SameConfigEdgeFraction(tricl.value().graph));

  options.model = "fcl";
  auto fcl = pipeline::RunPrivateRelease(snapshot, options, rng);
  if (!fcl.ok()) return 1;
  std::printf("AGMDP-FCL synthetic (eps=%.2f):      %.3f (homophily %.3f)\n",
              epsilon, RelationalAccuracy(fcl.value().graph),
              datasets::SameConfigEdgeFraction(fcl.value().graph));

  std::printf("\nInterpretation: a downstream relational learner trained on\n"
              "the AGM-DP release sees attribute correlations similar to the\n"
              "private graph, without any per-query privacy accounting.\n");
  return 0;
}
