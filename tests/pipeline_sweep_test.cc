// Parameterized invariant sweep over the full AGM-DP pipeline: every
// (structural model, ΘF method, epsilon) combination must produce a
// well-formed release and an exact budget ledger. These are the invariants
// a downstream consumer of the library relies on unconditionally.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>

#include "src/agm/theta_f.h"
#include "src/agm/theta_x.h"
#include "src/datasets/datasets.h"
#include "src/graph/attribute_encoding.h"
#include "src/graph/components.h"
#include "src/pipeline/release_pipeline.h"
#include "src/util/rng.h"

namespace agmdp {
namespace {

using SweepParam = std::tuple<int /*model*/, int /*theta_f method*/,
                              double /*epsilon*/>;

class PipelineSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  static void SetUpTestSuite() {
    auto g = datasets::GenerateDataset(datasets::DatasetId::kPetster, 0.2, 3);
    ASSERT_TRUE(g.ok());
    input_ = new graph::AttributedCsrGraph(
        graph::AttributedCsrGraph::FromGraph(g.value()));
  }
  static void TearDownTestSuite() {
    delete input_;
    input_ = nullptr;
  }
  static graph::AttributedCsrGraph* input_;
};

graph::AttributedCsrGraph* PipelineSweepTest::input_ = nullptr;

TEST_P(PipelineSweepTest, ReleaseIsWellFormedAndBudgetExact) {
  const auto [model, method, epsilon] = GetParam();
  pipeline::PipelineConfig config;
  config.epsilon = epsilon;
  config.model = model == 0 ? "fcl" : "tricycle";
  config.theta_f_method = static_cast<agm::ThetaFMethod>(method);
  config.sample.acceptance_iterations = 1;
  util::Rng rng(1000 + model * 100 + method * 10 +
                static_cast<uint64_t>(epsilon * 7));

  auto result = pipeline::RunPrivateRelease(*input_, config, rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const graph::AttributedGraph& out = result.value().graph;

  // Node set and attribute dimension are preserved.
  EXPECT_EQ(out.num_nodes(), input_->num_nodes());
  EXPECT_EQ(out.num_attributes(), input_->num_attributes);

  // Simple graph: no self-loops / duplicates by construction; verify the
  // degree-sum identity as a structural checksum.
  uint64_t degree_sum = 0;
  for (graph::NodeId v = 0; v < out.num_nodes(); ++v) {
    degree_sum += out.structure().Degree(v);
  }
  EXPECT_EQ(degree_sum, 2 * out.num_edges());
  EXPECT_GT(out.num_edges(), 0u);

  // Attributes are valid configurations.
  const uint32_t configs = graph::NumNodeConfigs(out.num_attributes());
  for (graph::NodeId v = 0; v < out.num_nodes(); ++v) {
    EXPECT_LT(out.attribute(v), configs);
  }

  // The learned parameters are valid distributions.
  const auto& params = result.value().params;
  auto sums_to_one = [](const std::vector<double>& p) {
    double sum = std::accumulate(p.begin(), p.end(), 0.0);
    for (double x : p) {
      if (x < 0.0) return false;
    }
    return std::fabs(sum - 1.0) < 1e-6;
  };
  EXPECT_TRUE(sums_to_one(params.theta_x));
  EXPECT_TRUE(sums_to_one(params.theta_f));
  EXPECT_EQ(params.degree_sequence.size(), input_->num_nodes());

  // Budget ledger: spends are positive and total exactly epsilon.
  double spent = 0.0;
  for (const auto& [label, eps] : result.value().ledger) {
    EXPECT_GT(eps, 0.0) << label;
    spent += eps;
  }
  EXPECT_NEAR(spent, epsilon, 1e-9);

  // TriCycLe keeps the synthetic graph connected (orphan post-processing).
  if (model != 0) {
    EXPECT_TRUE(graph::IsConnected(out.structure()));
  }
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  static const char* kModels[] = {"Fcl", "TriCycLe"};
  static const char* kMethods[] = {"Trunc", "Smooth", "SA", "Naive"};
  const auto [model, method, epsilon] = info.param;
  return std::string(kModels[model]) + kMethods[method] + "Eps" +
         std::to_string(static_cast<int>(epsilon * 100));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, PipelineSweepTest,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0.2, 1.0, 5.0)),
    SweepName);

}  // namespace
}  // namespace agmdp
