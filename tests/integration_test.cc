// End-to-end integration tests: dataset generation -> AGM-DP synthesis ->
// utility evaluation -> persistence, i.e. the full workflow of Figure 4.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "src/agm/theta_f.h"
#include "src/datasets/datasets.h"
#include "src/eval/utility_report.h"
#include "src/graph/graph_io.h"
#include "src/graph/graph_source.h"
#include "src/pipeline/release_pipeline.h"
#include "src/stats/metrics.h"
#include "src/stats/summary.h"
#include "src/util/rng.h"

namespace agmdp {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Half-scale Last.fm: large enough that Ladder noise on the triangle
    // count stays well below the FCL-vs-TriCycLe clustering gap.
    auto g = datasets::GenerateDataset(datasets::DatasetId::kLastFm, 0.5, 7);
    ASSERT_TRUE(g.ok());
    snapshot_ = new graph::AttributedCsrGraph(
        graph::AttributedCsrGraph::FromGraph(g.value()));
    profile_ = new eval::ReferenceProfile(eval::ProfileReference(*snapshot_));
  }
  static void TearDownTestSuite() {
    delete profile_;
    profile_ = nullptr;
    delete snapshot_;
    snapshot_ = nullptr;
  }

  // Algorithm 3 end to end: the fit reads the snapshot, the one-shot
  // engine samples under the same accountant.
  static util::Result<pipeline::ReleaseResult> Release(
      double epsilon, const char* model, int acceptance_iterations,
      util::Rng& rng) {
    pipeline::PipelineConfig config;
    config.epsilon = epsilon;
    config.model = model;
    config.sample.acceptance_iterations = acceptance_iterations;
    return pipeline::RunPrivateRelease(*snapshot_, config, rng);
  }

  static graph::AttributedCsrGraph* snapshot_;
  static eval::ReferenceProfile* profile_;
};

graph::AttributedCsrGraph* EndToEndTest::snapshot_ = nullptr;
eval::ReferenceProfile* EndToEndTest::profile_ = nullptr;

TEST_F(EndToEndTest, TriCycLePipelinePreservesUtility) {
  util::Rng rng(101);
  auto result = Release(std::log(3.0), "tricycle", 2, rng);
  ASSERT_TRUE(result.ok());

  const stats::UtilityErrors errors =
      eval::EvaluateRelease(*profile_, result.value().graph).errors;
  // Coarse utility gates mirroring the shape of Table 2 at eps = ln 3 (wide
  // tolerances: a single trial on a quarter-scale stand-in).
  EXPECT_LT(errors.theta_f_hellinger, 0.45);
  EXPECT_LT(errors.degree_ks, 0.35);
  EXPECT_LT(errors.edges_re, 0.30);
  // The uniform-ΘF baseline should be beaten.
  std::vector<double> uniform(10, 0.1);
  const double baseline = stats::HellingerDistance(
      uniform, agm::ComputeThetaF(*snapshot_));
  EXPECT_LT(errors.theta_f_hellinger, baseline + 0.05);
}

TEST_F(EndToEndTest, TriCycLeBeatsFclOnClustering) {
  // The paper's headline: TriCycLe reproduces clustering, FCL cannot.
  util::Rng rng(103);
  double tri_err = 0.0, fcl_err = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    auto rt = Release(std::log(3.0), "tricycle", 2, rng);
    auto rf = Release(std::log(3.0), "fcl", 2, rng);
    ASSERT_TRUE(rt.ok());
    ASSERT_TRUE(rf.ok());
    tri_err += eval::EvaluateRelease(*profile_, rt.value().graph)
                   .errors.triangles_re;
    fcl_err += eval::EvaluateRelease(*profile_, rf.value().graph)
                   .errors.triangles_re;
  }
  EXPECT_LT(tri_err, fcl_err);
}

TEST_F(EndToEndTest, SyntheticGraphRoundTripsThroughDisk) {
  util::Rng rng(105);
  auto result = Release(1.0, "tricycle", 1, rng);
  ASSERT_TRUE(result.ok());

  const std::string prefix = testing::TempDir() + "/synthetic_release";
  ASSERT_TRUE(graph::WriteAttributedGraph(result.value().graph, prefix).ok());
  auto source = graph::GraphSource::Open(prefix);
  ASSERT_TRUE(source.ok());
  const graph::AttributedGraph back = source.value().Materialize();
  EXPECT_EQ(back.num_edges(), result.value().graph.num_edges());
  EXPECT_EQ(back.attributes(), result.value().graph.attributes());
  std::remove((prefix + ".edges").c_str());
  std::remove((prefix + ".attrs").c_str());
}

TEST_F(EndToEndTest, StrongerPrivacyDegradesGracefully) {
  // Across a 50x epsilon range the error should not blow up catastrophically
  // and should generally grow as epsilon shrinks.
  double err_weak = 0.0, err_strong = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    util::Rng rng(200 + trial);
    auto rw = Release(5.0, "tricycle", 1, rng);
    auto rs = Release(0.1, "tricycle", 1, rng);
    ASSERT_TRUE(rw.ok());
    ASSERT_TRUE(rs.ok());
    err_weak += eval::EvaluateRelease(*profile_, rw.value().graph)
                    .errors.theta_f_hellinger;
    err_strong += eval::EvaluateRelease(*profile_, rs.value().graph)
                      .errors.theta_f_hellinger;
  }
  EXPECT_LT(err_weak, err_strong);
}

TEST(IntegrationSmokeTest, AllDatasetsGenerateAtSmallScale) {
  for (datasets::DatasetId id : datasets::AllDatasets()) {
    const double scale =
        id == datasets::DatasetId::kPokec ? 0.004 : 0.15;
    auto g = datasets::GenerateDataset(id, scale, 3);
    ASSERT_TRUE(g.ok()) << datasets::PaperSpec(id).name;
    EXPECT_GT(g.value().num_edges(), 0u);
  }
}

}  // namespace
}  // namespace agmdp
