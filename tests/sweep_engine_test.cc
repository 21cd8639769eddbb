// Contract tests for the multi-scenario sweep engine: grid shape, exact
// budget accounting per cell, graceful per-cell failure, and the
// determinism contract — byte-identical JSON across runs and across worker
// thread counts (per-cell RNG substreams are pure functions of the spec).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "src/datasets/datasets.h"
#include "src/eval/sweep_engine.h"
#include "src/util/status.h"

namespace agmdp::eval {
namespace {

// The fit input, as the snapshot every fit reads.
const graph::AttributedCsrGraph& Input() {
  static const graph::AttributedCsrGraph* input = [] {
    auto g = datasets::GenerateDataset(datasets::DatasetId::kPetster, 0.1, 3);
    AGMDP_CHECK_MSG(g.ok(), g.status().ToString().c_str());
    return new graph::AttributedCsrGraph(
        graph::AttributedCsrGraph::FromGraph(g.value()));
  }();
  return *input;
}

std::vector<SweepInput> Inputs() {
  return {SweepInput{"petster", Input(), nullptr}};
}

SweepSpec SmallSpec() {
  SweepSpec spec;
  spec.models = {"fcl", "erdos_renyi"};
  spec.epsilons = {0.5, 1.0};
  spec.repeats = 2;
  spec.seed = 77;
  spec.acceptance_iterations = 1;
  return spec;
}

TEST(SweepEngineTest, RejectsInvalidSpecs) {
  const SweepSpec base = SmallSpec();
  EXPECT_FALSE(RunSweep({}, base).ok());

  SweepSpec bad = base;
  bad.models = {"no_such_model"};
  auto r = RunSweep(Inputs(), bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("tricycle"), std::string::npos);

  bad = base;
  bad.models.clear();
  EXPECT_FALSE(RunSweep(Inputs(), bad).ok());

  bad = base;
  bad.epsilons = {0.5, -1.0};
  EXPECT_FALSE(RunSweep(Inputs(), bad).ok());

  bad = base;
  bad.epsilons.clear();
  EXPECT_FALSE(RunSweep(Inputs(), bad).ok());

  bad = base;
  bad.repeats = 0;
  EXPECT_FALSE(RunSweep(Inputs(), bad).ok());

  SweepSpec unknown_dataset = base;
  unknown_dataset.datasets = {"no_such_dataset"};
  EXPECT_FALSE(RunSweepOnDatasets(unknown_dataset).ok());
}

TEST(SweepEngineTest, GridShapeBudgetAndMetrics) {
  auto result = RunSweep(Inputs(), SmallSpec());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SweepResult& sweep = result.value();

  // models outer, epsilons inner, one input.
  ASSERT_EQ(sweep.cells.size(), 4u);
  EXPECT_EQ(sweep.cells[0].model, "fcl");
  EXPECT_DOUBLE_EQ(sweep.cells[0].epsilon, 0.5);
  EXPECT_EQ(sweep.cells[1].model, "fcl");
  EXPECT_DOUBLE_EQ(sweep.cells[1].epsilon, 1.0);
  EXPECT_EQ(sweep.cells[3].model, "erdos_renyi");

  for (const SweepCell& cell : sweep.cells) {
    ASSERT_TRUE(cell.error.empty()) << cell.error;
    EXPECT_EQ(cell.dataset, "petster");
    EXPECT_EQ(cell.repeats, 2);
    // Exact budget accounting surfaces in the sweep aggregate.
    EXPECT_DOUBLE_EQ(cell.epsilon_spent, cell.epsilon);
    // All five metric families are present with sane aggregates.
    ASSERT_FALSE(cell.metrics.empty());
    for (const char* name :
         {"degree_ks", "degree_kl", "degree_ccdf_distance",
          "clustering_ccdf_distance", "triangles_re", "theta_f_mae",
          "degree_assortativity_delta", "attribute_assortativity_delta",
          "homophily_delta_a0", "homophily_delta_mean_abs"}) {
      bool found = false;
      for (const MetricStats& metric : cell.metrics) {
        if (metric.name != name) continue;
        found = true;
        EXPECT_TRUE(std::isfinite(metric.mean)) << name;
        EXPECT_GE(metric.stddev, 0.0) << name;
      }
      EXPECT_TRUE(found) << "missing metric " << name;
    }
  }
}

TEST(SweepEngineTest, JsonIsByteIdenticalAcrossRunsAndThreadCounts) {
  auto first = RunSweep(Inputs(), SmallSpec());
  auto second = RunSweep(Inputs(), SmallSpec());
  SweepSpec parallel = SmallSpec();
  parallel.threads = 4;
  auto third = RunSweep(Inputs(), parallel);
  ASSERT_TRUE(first.ok() && second.ok() && third.ok());

  const std::string a = SweepResultToJson(first.value(), false);
  const std::string b = SweepResultToJson(second.value(), false);
  const std::string c = SweepResultToJson(third.value(), false);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);

  // Schema markers and balanced structure.
  EXPECT_NE(a.find("\"schema\": \"agmdp.sweep.v4\""), std::string::npos);
  EXPECT_NE(a.find("\"mechanism_summary\": ["), std::string::npos);
  EXPECT_NE(a.find("\"cells\": ["), std::string::npos);
  EXPECT_NE(a.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(a.find("\"stddev\":"), std::string::npos);
  EXPECT_EQ(std::count(a.begin(), a.end(), '{'),
            std::count(a.begin(), a.end(), '}'));
  EXPECT_EQ(std::count(a.begin(), a.end(), '['),
            std::count(a.begin(), a.end(), ']'));
  // No timing fields in the deterministic serialization.
  EXPECT_EQ(a.find("seconds"), std::string::npos);

  // With timing enabled the fields appear (values may differ run to run).
  const std::string timed = SweepResultToJson(first.value(), true);
  EXPECT_NE(timed.find("\"total_seconds\":"), std::string::npos);
  EXPECT_NE(timed.find("\"seconds_mean\":"), std::string::npos);
}

TEST(SweepEngineTest, ChangingTheSeedChangesTheResults) {
  auto a = RunSweep(Inputs(), SmallSpec());
  SweepSpec other = SmallSpec();
  other.seed = 78;
  auto b = RunSweep(Inputs(), other);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(SweepResultToJson(a.value(), false),
            SweepResultToJson(b.value(), false));
}

TEST(SweepEngineTest, FailingCellIsRecordedNotFatal) {
  SweepSpec spec = SmallSpec();
  // An overdrawn absolute split: every cell must fail gracefully.
  spec.split.theta_x = 0.4;
  spec.split.theta_f = 0.4;
  spec.split.degree_seq = 0.4;
  spec.epsilons = {0.5};
  auto result = RunSweep(Inputs(), spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const SweepCell& cell : result.value().cells) {
    EXPECT_FALSE(cell.error.empty());
    EXPECT_TRUE(cell.metrics.empty());
  }
  // The failure is carried into the JSON rather than aborting it.
  const std::string json = SweepResultToJson(result.value(), false);
  EXPECT_NE(json.find("\"error\":"), std::string::npos);
}

TEST(SweepEngineTest, RunSweepOnDatasetsGeneratesStandIns) {
  SweepSpec spec;
  spec.datasets = {"lastfm"};
  spec.dataset_scale = 0.02;
  spec.models = {"fcl"};
  spec.epsilons = {1.0};
  spec.repeats = 1;
  spec.seed = 5;
  spec.acceptance_iterations = 1;
  auto result = RunSweepOnDatasets(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().cells.size(), 1u);
  EXPECT_EQ(result.value().cells[0].dataset, "lastfm");
  EXPECT_TRUE(result.value().cells[0].error.empty())
      << result.value().cells[0].error;
}

}  // namespace
}  // namespace agmdp::eval
