// Contract tests for the unified release pipeline: budget-ledger exactness
// across every registered structural model, thread-count invariance of the
// sampler (the determinism contract of DESIGN.md), and registry behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/agm/agm_sampler.h"
#include "src/agm/theta_f.h"
#include "src/datasets/datasets.h"
#include "src/dp/edge_truncation.h"
#include "src/dp/ladder_mechanism.h"
#include "src/graph/graph_container.h"
#include "src/graph/graph_source.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/util/rng.h"
#include "tests/golden_hash.h"

namespace agmdp {
namespace {

const graph::AttributedGraph& Input() {
  static const graph::AttributedGraph* input = [] {
    auto g = datasets::GenerateDataset(datasets::DatasetId::kPetster, 0.2, 3);
    AGMDP_CHECK_MSG(g.ok(), g.status().ToString().c_str());
    return new graph::AttributedGraph(std::move(g).value());
  }();
  return *input;
}

// Input() as the snapshot every fit reads.
const graph::AttributedCsrGraph& Snapshot() {
  static const graph::AttributedCsrGraph* snapshot =
      new graph::AttributedCsrGraph(
          graph::AttributedCsrGraph::FromGraph(Input()));
  return *snapshot;
}

bool SameGraph(const graph::AttributedGraph& a,
               const graph::AttributedGraph& b) {
  return a.num_nodes() == b.num_nodes() &&
         a.attributes() == b.attributes() &&
         a.structure().CanonicalEdges() == b.structure().CanonicalEdges();
}

// ------------------------------------------------------------- registry --

TEST(ModelRegistryTest, AllModelsRegisteredAndResolvable) {
  const std::vector<std::string> names = pipeline::StructuralModelNames();
  for (const char* expected :
       {"tricycle", "fcl", "bter", "holme_kim", "erdos_renyi"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
    EXPECT_NE(pipeline::FindStructuralModel(expected), nullptr) << expected;
  }
  EXPECT_EQ(pipeline::FindStructuralModel("no_such_model"), nullptr);
}

TEST(ModelRegistryTest, UnknownModelFailsCleanly) {
  pipeline::PipelineConfig config;
  config.model = "no_such_model";
  util::Rng rng(1);
  auto result = pipeline::RunPrivateRelease(Snapshot(), config, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  // The error lists the registered names to guide the caller.
  EXPECT_NE(result.status().message().find("tricycle"), std::string::npos);
}

// ------------------------------------------------------- budget ledgers --

// The tentpole invariant: for every registered model, the spends recorded
// by RunPrivateRelease sum to exactly the configured global epsilon.
TEST(ReleasePipelineTest, LedgerSumsExactlyToEpsilonForEveryModel) {
  for (const std::string& model : pipeline::StructuralModelNames()) {
    pipeline::PipelineConfig config;
    config.epsilon = std::log(2.0);
    config.model = model;
    config.sample.acceptance_iterations = 1;
    util::Rng rng(7);
    auto result = pipeline::RunPrivateRelease(Snapshot(), config, rng);
    ASSERT_TRUE(result.ok()) << model << ": " << result.status().ToString();

    double sum = 0.0;
    for (const auto& [label, eps] : result.value().ledger) {
      EXPECT_GT(eps, 0.0) << model << "/" << label;
      sum += eps;
    }
    EXPECT_DOUBLE_EQ(sum, config.epsilon) << model;
    EXPECT_DOUBLE_EQ(result.value().epsilon_spent, config.epsilon) << model;
    EXPECT_DOUBLE_EQ(result.value().epsilon_budget, config.epsilon) << model;

    // Models with a triangle target spend on four stages, the rest on three.
    const bool triangles =
        pipeline::FindStructuralModel(model)->needs_triangles;
    EXPECT_EQ(result.value().ledger.size(), triangles ? 4u : 3u) << model;

    // Well-formed release.
    EXPECT_EQ(result.value().graph.num_nodes(), Input().num_nodes());
    EXPECT_GT(result.value().graph.num_edges(), 0u) << model;
    EXPECT_EQ(result.value().model, model);
  }
}

TEST(ReleasePipelineTest, FitAloneCarriesFullLedgerAndStageTimings) {
  pipeline::PipelineConfig config;
  config.epsilon = 1.0;
  config.model = "tricycle";
  util::Rng rng(11);
  auto fit = pipeline::FitPrivateParams(Snapshot(), config, rng);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();

  double sum = 0.0;
  for (const auto& [label, eps] : fit.value().ledger) sum += eps;
  EXPECT_DOUBLE_EQ(sum, config.epsilon);
  ASSERT_EQ(fit.value().stage_seconds.size(), 4u);
  EXPECT_EQ(fit.value().stage_seconds[0].stage, "theta_x");
  EXPECT_EQ(fit.value().stage_seconds[3].stage, "triangles");
  EXPECT_EQ(fit.value().params.degree_sequence.size(), Input().num_nodes());
}

TEST(ReleasePipelineTest, ReleaseRecordsSampleStageAndTotalTime) {
  pipeline::PipelineConfig config;
  config.model = "fcl";
  config.sample.acceptance_iterations = 1;
  util::Rng rng(13);
  auto result = pipeline::RunPrivateRelease(Snapshot(), config, rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result.value().stage_seconds.empty());
  EXPECT_EQ(result.value().stage_seconds.back().stage, "sample");
  EXPECT_GE(result.value().total_seconds, 0.0);
}

TEST(ReleasePipelineTest, OverdrawnSplitIsRejected) {
  pipeline::PipelineConfig config;
  config.epsilon = 0.5;
  config.split.theta_x = 0.4;
  config.split.theta_f = 0.4;
  config.split.degree_seq = 0.4;
  util::Rng rng(17);
  auto result = pipeline::RunPrivateRelease(Snapshot(), config, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

// A delta outside (0, 1) is a typed config error, not an abort inside the
// smooth-sensitivity calculus after theta_x was already charged.
TEST(ReleasePipelineTest, SmoothDeltaOutsideUnitIntervalIsRejected) {
  for (double delta : {1.0, 1.5, 0.0, -1e-6, std::nan(""), HUGE_VAL}) {
    SCOPED_TRACE(delta);
    pipeline::PipelineConfig config;
    config.theta_f_method = agm::ThetaFMethod::kSmoothSensitivity;
    config.smooth_delta = delta;
    EXPECT_EQ(config.Validate().code(), util::StatusCode::kInvalidArgument);
    util::Rng rng(19);
    auto result = pipeline::RunPrivateRelease(Snapshot(), config, rng);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  }
}

// A sample-and-aggregate group larger than the graph fails before the
// first spend instead of aborting in the partition after two stages paid.
TEST(ReleasePipelineTest, OversizedSampleAggregateGroupFailsBeforeAnySpend) {
  const graph::NodeId n = Snapshot().num_nodes();
  agm::AgmDpOptions options;
  options.theta_f_method = agm::ThetaFMethod::kSampleAggregate;
  options.sa_group_size = n + 1;
  dp::PrivacyAccountant accountant(options.epsilon);
  util::Rng rng(31);
  auto params = agm::LearnAgmParamsDp(Snapshot(), options, accountant, rng);
  ASSERT_FALSE(params.ok());
  EXPECT_EQ(params.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(accountant.spent(), 0.0);
  EXPECT_TRUE(accountant.ledger().empty());

  pipeline::PipelineConfig config;
  config.theta_f_method = agm::ThetaFMethod::kSampleAggregate;
  config.sa_group_size = n + 1;
  auto release = pipeline::RunPrivateRelease(Snapshot(), config, rng);
  ASSERT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), util::StatusCode::kInvalidArgument);

  // One group of all n nodes is the largest valid partition.
  options.sa_group_size = n;
  dp::PrivacyAccountant fresh(options.epsilon);
  EXPECT_TRUE(agm::LearnAgmParamsDp(Snapshot(), options, fresh, rng).ok());
}

// ---------------------------------------------------------- determinism --

// Same seed => identical synthetic graph at 1, 2 and 4 sampler threads,
// for both the sharded-FCL hot path and the TriCycLe path (whose Θ'F
// measurement is the parallel part).
TEST(SamplerDeterminismTest, IdenticalGraphAcross124Threads) {
  for (const std::string& model : {std::string("fcl"), std::string("tricycle")}) {
    pipeline::PipelineConfig fit_config;
    fit_config.model = model;
    util::Rng fit_rng(23);
    auto fit = pipeline::FitPrivateParams(Snapshot(), fit_config, fit_rng);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();

    graph::AttributedGraph reference;
    for (int threads : {1, 2, 4}) {
      pipeline::PipelineConfig config;
      config.model = model;
      config.sample.acceptance_iterations = 2;
      config.sample.threads = threads;
      // The one-shot engine RunPrivateRelease samples through.
      pipeline::EngineOptions options;
      options.threads = threads;
      options.calibrate = false;
      options.sample = config.sample;
      auto engine = pipeline::ReleaseEngine::Create(
          pipeline::MakeReleaseArtifact(fit.value().params, config), options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      util::Rng rng(42);
      auto sampled = engine.value()->SampleFromStream(rng);
      ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
      if (threads == 1) {
        reference = std::move(sampled).value();
      } else {
        EXPECT_TRUE(SameGraph(reference, sampled.value()))
            << model << " diverged at " << threads << " threads";
      }
    }
    EXPECT_GT(reference.num_edges(), 0u);
  }
}

TEST(SamplerDeterminismTest, EndToEndReleaseIsThreadCountInvariant) {
  graph::AttributedGraph reference;
  for (int threads : {1, 4}) {
    pipeline::PipelineConfig config;
    config.model = "fcl";
    config.sample.acceptance_iterations = 2;
    config.sample.threads = threads;
    util::Rng rng(29);
    auto result = pipeline::RunPrivateRelease(Snapshot(), config, rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (threads == 1) {
      reference = std::move(result).value().graph;
    } else {
      EXPECT_TRUE(SameGraph(reference, result.value().graph));
    }
  }
}

TEST(SamplerDeterminismTest, ParallelThetaFMatchesSequential) {
  const std::vector<double> expected = agm::ComputeThetaF(Snapshot());
  for (int threads : {1, 2, 4, 0}) {
    const std::vector<double> measured = agm::MeasureThetaF(Input(), threads);
    ASSERT_EQ(measured.size(), expected.size());
    for (size_t y = 0; y < expected.size(); ++y) {
      EXPECT_DOUBLE_EQ(measured[y], expected[y]) << "threads=" << threads;
    }
  }
}

// FNV-1a over the canonical edge list, the attribute vector and the graph
// dimensions — a stable fingerprint of a released graph.
uint64_t GraphChecksum(const graph::AttributedGraph& g) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  mix(g.num_nodes());
  mix(static_cast<uint64_t>(g.num_attributes()));
  for (const graph::Edge& e : g.structure().CanonicalEdges()) {
    mix(e.u);
    mix(e.v);
  }
  for (graph::AttrConfig a : g.attributes()) mix(a);
  return h;
}

// Golden-release regression: a fixed seed and a fixed PipelineConfig must
// reproduce the same checksummed released edge list at 1, 2 and 4 sampler
// threads and across repeated runs, with a ledger that sums exactly to the
// configured epsilon every time.
TEST(GoldenReleaseTest, ChecksummedReleaseAndLedgerReproduceAcrossThreads) {
  constexpr uint64_t kSeed = 20260730;
  for (const std::string& model :
       {std::string("fcl"), std::string("tricycle")}) {
    uint64_t golden = 0;
    for (int threads : {1, 2, 4, /*rerun at 1:*/ 1}) {
      pipeline::PipelineConfig config;
      config.epsilon = std::log(2.0);
      config.model = model;
      config.sample.acceptance_iterations = 2;
      config.sample.threads = threads;
      util::Rng rng(kSeed);
      auto result = pipeline::RunPrivateRelease(Snapshot(), config, rng);
      ASSERT_TRUE(result.ok()) << model << ": " << result.status().ToString();

      const uint64_t checksum = GraphChecksum(result.value().graph);
      if (golden == 0) {
        golden = checksum;
      } else {
        EXPECT_EQ(checksum, golden)
            << model << " diverged at threads=" << threads;
      }

      // The epsilon ledger must sum exactly (not approximately) to the
      // budget on every run.
      double sum = 0.0;
      for (const auto& [label, eps] : result.value().ledger) sum += eps;
      EXPECT_DOUBLE_EQ(sum, config.epsilon) << model;
      EXPECT_DOUBLE_EQ(result.value().epsilon_spent, config.epsilon) << model;
    }
    EXPECT_NE(golden, 0u) << model;
  }
}

// ------------------------------------------------------------ fit goldens --

// The two forms every fit golden reads: an in-memory copy of Input() and
// the same graph written to a binary container and reopened from the
// mapping. Equal digests on both prove the fit is a function of the graph
// alone, not of how it was stored.
std::vector<std::pair<std::string, graph::AttributedCsrGraph>> FitInputs() {
  const std::string path = testing::TempDir() + "/fit_golden_input.agmbin";
  EXPECT_TRUE(graph::WriteBinaryGraph(Input(), path).ok());
  auto source = graph::GraphSource::Open(path);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_TRUE(source.value().snapshot().structure.is_external());
  return {{"in-memory", Snapshot()}, {"agmbin", source.value().snapshot()}};
}

struct FitGoldenCase {
  const char* name;
  pipeline::PipelineConfig config;
  uint64_t artifact_hash;  // FNV-1a of the WriteReleaseArtifact bytes
};

std::vector<FitGoldenCase> FitGoldenCases() {
  std::vector<FitGoldenCase> cases;
  const std::pair<agm::ThetaFMethod, const char*> methods[] = {
      {agm::ThetaFMethod::kEdgeTruncation, "truncation"},
      {agm::ThetaFMethod::kSmoothSensitivity, "smooth"},
      {agm::ThetaFMethod::kSampleAggregate, "sample_aggregate"},
      {agm::ThetaFMethod::kNaiveLaplace, "naive"}};
  const uint64_t agm_hashes[2][4] = {
      {0x9e8b45d98f02609cULL, 0x1e8776d1085b31c1ULL,
       0x34903694c7976b41ULL, 0x9a4c1b337199f2d6ULL},
      {0x262114d1d156e71aULL, 0xd7286e24f936e84fULL,
       0xa537d20913ee0f23ULL, 0xb6383d2862fac731ULL}};
  const char* models[] = {"fcl", "tricycle"};
  for (int m = 0; m < 2; ++m) {
    for (int t = 0; t < 4; ++t) {
      pipeline::PipelineConfig config;
      config.model = models[m];
      config.theta_f_method = methods[t].first;
      cases.push_back({methods[t].second, config, agm_hashes[m][t]});
    }
  }
  pipeline::PipelineConfig forced;
  forced.model = "tricycle";
  forced.ladder.force_degree_bound = true;
  cases.push_back(
      {"tricycle force_degree_bound", forced, 0xc0827ddc06f80b69ULL});
  pipeline::PipelineConfig fallback;
  fallback.model = "tricycle";
  fallback.ladder.max_exact_work = 1;
  cases.push_back(
      {"tricycle degree fallback", fallback, 0xc95d23fe52279e04ULL});
  pipeline::PipelineConfig community;
  community.mechanism = "community_dp";
  cases.push_back({"community_dp", community, 0xfaf60b12027d2d98ULL});
  pipeline::PipelineConfig kanon;
  kanon.mechanism = "kanon_baseline";
  cases.push_back({"kanon_baseline", kanon, 0xfc5520bb2735fc05ULL});
  return cases;
}

// Literal artifact bytes of every fit path: both structural models under
// all four ΘF estimators, both Ladder bases of the triangle count, and the
// two rival mechanisms.
TEST(FitGoldenTest, ReleaseArtifactsMatchPinnedLiterals) {
  const std::string path = testing::TempDir() + "/fit_golden.artifact.json";
  for (const auto& [form, input] : FitInputs()) {
    for (const FitGoldenCase& c : FitGoldenCases()) {
      SCOPED_TRACE(form + " " + c.config.mechanism + "/" + c.config.model +
                   " " + c.name);
      util::Rng rng(20261017);
      auto artifact = pipeline::FitReleaseArtifact(input, c.config, rng);
      ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
      ASSERT_TRUE(pipeline::WriteReleaseArtifact(artifact.value(), path).ok());
      std::ifstream in(path, std::ios::binary);
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      EXPECT_EQ(golden::HashBytes(bytes), c.artifact_hash)
          << std::hex << golden::HashBytes(bytes);
    }
  }
}

// Literal outputs of the DP learners no artifact above covers: the
// node-DP ΘF estimator, the k-star Ladder and the truncated edge list.
TEST(FitGoldenTest, LearnerOutputsMatchPinnedLiterals) {
  for (const auto& [form, input] : FitInputs()) {
    SCOPED_TRACE(form);
    util::Rng node_rng(20261017);
    const std::vector<double> node_dp = agm::LearnCorrelationsNodeDp(
        input, 0.5, 1e-6, /*k=*/0, node_rng);
    EXPECT_EQ(golden::HashDoubles(node_dp), 0x5ebdf4d21c700e98ULL)
        << std::hex << golden::HashDoubles(node_dp);

    const uint64_t kstar_hashes[] = {0xf4351a56a0390b32ULL,
                                     0x1cee91f90d45d4a6ULL};
    for (uint32_t k : {2u, 3u}) {
      util::Rng rng(20261017 + k);
      auto stars = dp::DpKStarCount(input.structure, k, 0.5, rng);
      ASSERT_TRUE(stars.ok()) << stars.status().ToString();
      EXPECT_EQ(golden::HashDoubles({stars.value()}), kstar_hashes[k - 2])
          << "k=" << k << " " << std::hex
          << golden::HashDoubles({stars.value()});
    }

    const uint32_t k = dp::HeuristicTruncationK(input.num_nodes());
    std::vector<graph::Edge> kept;
    dp::TruncateEdges(input.structure, k)
        .ForEachEdge([&](graph::NodeId u, graph::NodeId v) {
          kept.emplace_back(u, v);
        });
    EXPECT_EQ(golden::HashEdges(kept), 0x1cff8cd41cd0b17bULL)
        << std::hex << golden::HashEdges(kept);
  }
}

TEST(SamplerDeterminismTest, SubstreamIsPureAndDistinct) {
  util::Rng a = util::Rng::Substream(123, 0);
  util::Rng b = util::Rng::Substream(123, 0);
  util::Rng c = util::Rng::Substream(123, 1);
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    const uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    if (x != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace agmdp
