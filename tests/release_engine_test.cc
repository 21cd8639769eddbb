// Contract tests for the serving layer: release-artifact JSON round trips
// (including schema-version rejection), ReleaseEngine determinism —
// concurrent and batched serving bitwise-identical to sequential at 1/2/4
// pool threads — config validation before any budget is spent, and the
// SweepEngine reuse_fit ledger invariant (budget spent exactly once per
// cell).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/agm/agm_sampler.h"
#include "src/datasets/datasets.h"
#include "src/eval/sweep_engine.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/server/protocol.h"
#include "src/util/rng.h"

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

bool SameGraph(const graph::AttributedGraph& a,
               const graph::AttributedGraph& b) {
  return a.num_nodes() == b.num_nodes() &&
         a.attributes() == b.attributes() &&
         a.structure().CanonicalEdges() == b.structure().CanonicalEdges();
}

pipeline::PipelineConfig TestConfig(const std::string& model) {
  pipeline::PipelineConfig config;
  config.epsilon = std::log(2.0);
  config.model = model;
  config.sample.acceptance_iterations = 2;
  return config;
}

pipeline::ReleaseArtifact FitArtifact(const std::string& model,
                                      uint64_t seed = 5) {
  util::Rng rng(seed);
  auto artifact =
      pipeline::FitReleaseArtifact(Input(), TestConfig(model), rng);
  AGMDP_CHECK_MSG(artifact.ok(), artifact.status().ToString().c_str());
  return std::move(artifact).value();
}

// ------------------------------------------------------------- artifact --

TEST(ReleaseArtifactTest, JsonRoundTripIsBitExact) {
  const pipeline::ReleaseArtifact artifact = FitArtifact("tricycle");
  const std::string json = pipeline::ReleaseArtifactToJson(artifact);
  auto back = pipeline::ReleaseArtifactFromJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  EXPECT_EQ(back.value().schema_version, artifact.schema_version);
  EXPECT_EQ(back.value().model, artifact.model);
  EXPECT_EQ(back.value().config_fingerprint, artifact.config_fingerprint);
  // Bitwise double equality — the artifact serializes with 17 significant
  // digits exactly so a stored release resamples identically.
  EXPECT_EQ(back.value().epsilon_budget, artifact.epsilon_budget);
  EXPECT_EQ(back.value().epsilon_spent, artifact.epsilon_spent);
  EXPECT_EQ(back.value().ledger, artifact.ledger);
  EXPECT_EQ(back.value().params.w, artifact.params.w);
  EXPECT_EQ(back.value().params.theta_x, artifact.params.theta_x);
  EXPECT_EQ(back.value().params.theta_f, artifact.params.theta_f);
  EXPECT_EQ(back.value().params.degree_sequence,
            artifact.params.degree_sequence);
  EXPECT_EQ(back.value().params.target_triangles,
            artifact.params.target_triangles);
  EXPECT_EQ(back.value().acceptance_iterations,
            artifact.acceptance_iterations);
  EXPECT_EQ(back.value().acceptance_tolerance,
            artifact.acceptance_tolerance);
  EXPECT_EQ(back.value().min_acceptance, artifact.min_acceptance);

  // And the round trip is a fixed point: serializing again is
  // byte-identical.
  EXPECT_EQ(pipeline::ReleaseArtifactToJson(back.value()), json);
}

TEST(ReleaseArtifactTest, FileRoundTrip) {
  const pipeline::ReleaseArtifact artifact = FitArtifact("fcl");
  const std::string path = testing::TempDir() + "/artifact_roundtrip.json";
  ASSERT_TRUE(pipeline::WriteReleaseArtifact(artifact, path).ok());
  auto back = pipeline::ReadReleaseArtifact(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(pipeline::ReleaseArtifactToJson(back.value()),
            pipeline::ReleaseArtifactToJson(artifact));
  std::remove(path.c_str());

  EXPECT_FALSE(pipeline::ReadReleaseArtifact("/nonexistent/artifact").ok());
}

TEST(ReleaseArtifactTest, RejectsBumpedSchemaVersion) {
  pipeline::ReleaseArtifact artifact = FitArtifact("fcl");
  artifact.schema_version = pipeline::kReleaseArtifactSchemaVersion + 1;
  const std::string json = pipeline::ReleaseArtifactToJson(artifact);
  auto back = pipeline::ReleaseArtifactFromJson(json);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(back.status().message().find("schema version"),
            std::string::npos);
  // A bumped artifact is also rejected at the write boundary.
  EXPECT_FALSE(
      pipeline::WriteReleaseArtifact(artifact, testing::TempDir() + "/x.json")
          .ok());
}

TEST(ReleaseArtifactTest, RejectsGarbageDocumentsAndValues) {
  EXPECT_FALSE(pipeline::ReleaseArtifactFromJson("").ok());
  EXPECT_FALSE(pipeline::ReleaseArtifactFromJson("{").ok());
  EXPECT_FALSE(pipeline::ReleaseArtifactFromJson("{}").ok());
  EXPECT_FALSE(pipeline::ReleaseArtifactFromJson("[1, 2]").ok());

  // NaN serializes as null, which the reader rejects as a theta entry.
  pipeline::ReleaseArtifact artifact = FitArtifact("fcl");
  artifact.params.theta_x[0] = std::nan("");
  EXPECT_FALSE(
      pipeline::ReleaseArtifactFromJson(pipeline::ReleaseArtifactToJson(artifact))
          .ok());

  // Negative mass fails validation even though it parses as a number.
  artifact = FitArtifact("fcl");
  artifact.params.theta_f[0] = -0.25;
  EXPECT_FALSE(
      pipeline::ReleaseArtifactFromJson(pipeline::ReleaseArtifactToJson(artifact))
          .ok());

  // Truncated document.
  const std::string json =
      pipeline::ReleaseArtifactToJson(FitArtifact("fcl"));
  EXPECT_FALSE(
      pipeline::ReleaseArtifactFromJson(json.substr(0, json.size() / 2)).ok());
}

// A degree above n - 1 or a triangle target above C(n, 3) is a typed
// error when a release is read or loaded, never a generator chasing a count
// no simple graph has: a 3-node tricycle release with degrees of 4e9 used
// to pin its loader inside calibration for hours.
TEST(ReleaseArtifactTest, RejectsInfeasibleStructure) {
  const pipeline::ReleaseArtifact fitted = FitArtifact("tricycle");
  struct Case {
    std::vector<uint32_t> degrees;
    uint64_t triangles;
    bool feasible;
  };
  const Case cases[] = {
      {{4000000000u, 4000000000u, 4000000000u}, 1, false},
      {{2, 2, 3}, 1, false},
      {{2, 2, 2}, 2, false},
      {{2, 2, 2}, 1, true},
  };
  const std::string path = testing::TempDir() + "/artifact_infeasible.json";
  for (const Case& c : cases) {
    pipeline::ReleaseArtifact artifact = fitted;
    artifact.params.degree_sequence = c.degrees;
    artifact.params.target_triangles = c.triangles;
    {
      std::ofstream out(path, std::ios::trunc);
      out << pipeline::ReleaseArtifactToJson(artifact);
    }
    auto read = pipeline::ReadReleaseArtifact(path);
    auto engine = pipeline::ReleaseEngine::Create(artifact);
    if (c.feasible) {
      EXPECT_TRUE(read.ok()) << read.status().ToString();
      EXPECT_TRUE(engine.ok()) << engine.status().ToString();
      continue;
    }
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), util::StatusCode::kInvalidArgument);
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), util::StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(ReleaseArtifactTest, RejectsInconsistentPrivacyAccounting) {
  // The audit fields must agree with each other: a doctored epsilon_spent
  // that contradicts the ledger (or overdraws the budget) is a tampered
  // artifact, not a loadable release.
  pipeline::ReleaseArtifact artifact = FitArtifact("fcl");
  artifact.epsilon_spent = 0.1;  // ledger still sums to ~ln 2
  EXPECT_FALSE(pipeline::ValidateReleaseArtifact(artifact).ok());
  EXPECT_FALSE(
      pipeline::ReleaseArtifactFromJson(pipeline::ReleaseArtifactToJson(artifact))
          .ok());

  artifact = FitArtifact("fcl");
  artifact.epsilon_budget = artifact.epsilon_spent / 2.0;
  EXPECT_FALSE(pipeline::ValidateReleaseArtifact(artifact).ok());

  // Non-private artifacts (no ledger, zero budget) remain valid.
  pipeline::PipelineConfig config;
  config.model = "fcl";
  const pipeline::ReleaseArtifact non_private =
      pipeline::MakeReleaseArtifact(FitArtifact("fcl").params, config);
  EXPECT_TRUE(pipeline::ValidateReleaseArtifact(non_private).ok());
}

// --------------------------------------------------------------- engine --

TEST(ReleaseEngineTest, BatchedServingMatchesSequentialAt124PoolThreads) {
  const pipeline::ReleaseArtifact artifact = FitArtifact("fcl");
  constexpr int kSamples = 6;
  pipeline::SampleRequest base;
  base.seed = 99;

  // Sequential reference: one Sample call per request on a 1-thread engine.
  pipeline::EngineOptions options;
  options.threads = 1;
  auto reference_engine = pipeline::ReleaseEngine::Create(artifact, options);
  ASSERT_TRUE(reference_engine.ok())
      << reference_engine.status().ToString();
  std::vector<graph::AttributedGraph> sequential;
  for (int i = 0; i < kSamples; ++i) {
    pipeline::SampleRequest request = base;
    request.sequence = static_cast<uint64_t>(i);
    auto g = reference_engine.value()->Sample(request);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    sequential.push_back(std::move(g).value());
  }
  EXPECT_GT(sequential[0].num_edges(), 0u);

  for (int threads : {1, 2, 4}) {
    pipeline::EngineOptions pool_options;
    pool_options.threads = threads;
    auto engine = pipeline::ReleaseEngine::Create(artifact, pool_options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto graphs = engine.value()->SampleMany(kSamples, base);
    ASSERT_TRUE(graphs.ok()) << graphs.status().ToString();
    ASSERT_EQ(graphs.value().size(), static_cast<size_t>(kSamples));
    for (int i = 0; i < kSamples; ++i) {
      EXPECT_TRUE(SameGraph(sequential[static_cast<size_t>(i)],
                            graphs.value()[static_cast<size_t>(i)]))
          << "diverged at request " << i << " with " << threads
          << " pool threads";
    }
  }
}

TEST(ReleaseEngineTest, ConcurrentSampleCallsMatchSequential) {
  const pipeline::ReleaseArtifact artifact = FitArtifact("fcl");
  constexpr int kSamples = 8;
  auto engine = pipeline::ReleaseEngine::Create(artifact);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<graph::AttributedGraph> sequential(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    pipeline::SampleRequest request;
    request.seed = 123;
    request.sequence = static_cast<uint64_t>(i);
    auto g = engine.value()->Sample(request);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    sequential[static_cast<size_t>(i)] = std::move(g).value();
  }

  // The same requests issued from concurrent caller threads against the
  // same engine handle must produce the same bits.
  std::vector<graph::AttributedGraph> concurrent(kSamples);
  std::vector<util::Status> statuses(kSamples);
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int i = t; i < kSamples; i += 4) {
        pipeline::SampleRequest request;
        request.seed = 123;
        request.sequence = static_cast<uint64_t>(i);
        auto g = engine.value()->Sample(request);
        if (g.ok()) {
          concurrent[static_cast<size_t>(i)] = std::move(g).value();
        } else {
          statuses[static_cast<size_t>(i)] = g.status();
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int i = 0; i < kSamples; ++i) {
    ASSERT_TRUE(statuses[static_cast<size_t>(i)].ok())
        << statuses[static_cast<size_t>(i)].ToString();
    EXPECT_TRUE(SameGraph(sequential[static_cast<size_t>(i)],
                          concurrent[static_cast<size_t>(i)]))
        << "request " << i;
  }
}

TEST(ReleaseEngineTest, CalibrationIsAPureFunctionOfTheArtifact) {
  const pipeline::ReleaseArtifact artifact = FitArtifact("fcl");
  pipeline::EngineOptions one;
  one.threads = 1;
  pipeline::EngineOptions four;
  four.threads = 4;
  auto a = pipeline::ReleaseEngine::Create(artifact, one);
  auto b = pipeline::ReleaseEngine::Create(artifact, four);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a.value()->calibrated());
  EXPECT_EQ(a.value()->calibrated_acceptance(),
            b.value()->calibrated_acceptance());
}

TEST(ReleaseEngineTest, TriangleModelServesWellFormedGraphs) {
  const pipeline::ReleaseArtifact artifact = FitArtifact("tricycle");
  auto engine = pipeline::ReleaseEngine::Create(artifact);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto graphs = engine.value()->SampleMany(2, pipeline::SampleRequest{});
  ASSERT_TRUE(graphs.ok()) << graphs.status().ToString();
  for (const graph::AttributedGraph& g : graphs.value()) {
    EXPECT_EQ(g.num_nodes(), Input().num_nodes());
    EXPECT_GT(g.num_edges(), 0u);
    EXPECT_EQ(g.num_attributes(), Input().num_attributes());
  }
}

TEST(ReleaseEngineTest, RefineIterationsAreBoundedByTheLoopCap) {
  const pipeline::ReleaseArtifact artifact = FitArtifact("fcl");
  pipeline::EngineOptions options;
  options.threads = 1;
  options.default_refine_iterations = agm::kMaxAcceptanceIterations + 1;
  auto rejected = pipeline::ReleaseEngine::Create(artifact, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);

  options.default_refine_iterations = 0;
  auto engine = pipeline::ReleaseEngine::Create(artifact, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // An unbounded request count would pin the serving thread; it fails
  // before any sampling work, on both entry points.
  for (int refine : {agm::kMaxAcceptanceIterations + 1, 2000000000}) {
    pipeline::SampleRequest request;
    request.refine_iterations = refine;
    auto one = engine.value()->Sample(request);
    ASSERT_FALSE(one.ok());
    EXPECT_EQ(one.status().code(), util::StatusCode::kInvalidArgument);
    for (int n : {1, 3}) {
      auto many = engine.value()->SampleMany(n, request);
      ASSERT_FALSE(many.ok());
      EXPECT_EQ(many.status().code(), util::StatusCode::kInvalidArgument);
    }
  }
  pipeline::SampleRequest one_refinement;
  one_refinement.refine_iterations = 1;
  EXPECT_TRUE(engine.value()->Sample(one_refinement).ok());
}

TEST(ReleaseEngineTest, RejectsTamperedArtifacts) {
  pipeline::ReleaseArtifact artifact = FitArtifact("fcl");
  artifact.model = "no_such_model";
  EXPECT_FALSE(pipeline::ReleaseEngine::Create(artifact).ok());

  artifact = FitArtifact("fcl");
  artifact.params.theta_x[0] = -1.0;
  EXPECT_FALSE(pipeline::ReleaseEngine::Create(artifact).ok());

  artifact = FitArtifact("fcl");
  artifact.schema_version = pipeline::kReleaseArtifactSchemaVersion + 1;
  EXPECT_FALSE(pipeline::ReleaseEngine::Create(artifact).ok());
}

// --------------------------------------------------------------- golden --

// FNV-1a over the IEEE-754 bit patterns, so a last-ulp change shows.
uint64_t AcceptanceBitsHash(const std::vector<double>& acceptance) {
  uint64_t hash = 1469598103934665603ULL;
  for (double value : acceptance) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

struct GoldenCase {
  const char* model;
  int acceptance_iterations;
  double acceptance_tolerance;
  uint64_t acceptance_hash;
  uint64_t sample_checksums[4];  // SampleMany(4), seed 7, sequence 0..3
  uint64_t cold_checksum;        // one uncalibrated (full cold loop) sample
};

// Literal calibration and sample bits on a fixed non-private input. Other
// engine tests only compare runs with each other; these pin the absolute
// values, so a refactor of the acceptance loop or the generators that
// changes any calibrated vector or sampled graph fails here. The cases
// cover both loop exits: the iteration limit (1 and 3 iterations) and the
// tolerance exit at the second iteration (a tolerance above 1 always
// holds, as acceptance values lie in [0, 1]).
TEST(ReleaseEngineGoldenTest, CalibrationAndSamplesMatchPinnedLiterals) {
  static const GoldenCase kCases[] = {
      {"tricycle", 1, 0.01, 0xe6b40968d5ddc147ULL,
       {0xf7f25f37cc815260ULL, 0x1901e5a166a4807fULL,
        0x5b70522e4687987bULL, 0x11948c409945778eULL},
       0x95c343f3c5ec44a0ULL},
      {"tricycle", 3, 0.01, 0xcf2b5237f9ba3953ULL,
       {0xb16562079165f764ULL, 0x6af32ad07cf7ba3aULL,
        0x424573af7572f571ULL, 0x30d5182bc7a092d3ULL},
       0x961c20acffda2732ULL},
      {"tricycle", 4, 1.5, 0x54f163fdef7c2316ULL,
       {0xb6dd1631cf3701c3ULL, 0x98af06c6b00bd9a2ULL,
        0xbe378568c62d0ddcULL, 0xa769397d2ca74511ULL},
       0x7805d8c49717f6c7ULL},
      {"fcl", 1, 0.01, 0xc35e8e5b0e4d579aULL,
       {0xf91a877537b1f17dULL, 0x2591fd87dec3251dULL,
        0x2c86621c7fe8c41cULL, 0x619b85fbf9cba842ULL},
       0xf8f710802e15f307ULL},
      {"fcl", 3, 0.01, 0xa41610b1c47b8752ULL,
       {0xf208ec4b4287df8fULL, 0x4e70eed19f92fad4ULL,
        0x38eadb7f0f689b08ULL, 0x73d5d6e651336b5bULL},
       0x1a86a8d675614dc3ULL},
      {"fcl", 4, 1.5, 0xae2c5a11e17a27ecULL,
       {0x7812d2606f75b4a4ULL, 0x7efd06201194875eULL,
        0xccfa4e7719793043ULL, 0xd5cb4dc2620b85e5ULL},
       0x1e53251995df1fdcULL},
  };
  auto input = datasets::GenerateDataset(datasets::DatasetId::kPetster, 0.1, 4);
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  const agm::AgmParams params = agm::LearnAgmParams(input.value());

  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(std::string(c.model) + " iterations " +
                 std::to_string(c.acceptance_iterations) + " tolerance " +
                 std::to_string(c.acceptance_tolerance));
    pipeline::PipelineConfig config;
    config.model = c.model;
    config.sample.acceptance_iterations = c.acceptance_iterations;
    config.sample.acceptance_tolerance = c.acceptance_tolerance;
    const pipeline::ReleaseArtifact artifact =
        pipeline::MakeReleaseArtifact(params, config);

    pipeline::EngineOptions options;
    options.threads = 2;
    auto engine = pipeline::ReleaseEngine::Create(artifact, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(AcceptanceBitsHash(engine.value()->calibrated_acceptance()),
              c.acceptance_hash);
    pipeline::SampleRequest base;
    base.seed = 7;
    auto graphs = engine.value()->SampleMany(4, base);
    ASSERT_TRUE(graphs.ok()) << graphs.status().ToString();
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(server::GraphChecksum(graphs.value()[i]),
                c.sample_checksums[i])
          << "sample " << i;
    }

    options.calibrate = false;
    auto cold = pipeline::ReleaseEngine::Create(artifact, options);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    auto cold_graph = cold.value()->Sample(base);
    ASSERT_TRUE(cold_graph.ok()) << cold_graph.status().ToString();
    EXPECT_EQ(server::GraphChecksum(cold_graph.value()), c.cold_checksum);
  }
}

// ------------------------------------------------------------- validate --

TEST(PipelineConfigValidateTest, CatchesBadConfigsBeforeAnyBudgetIsSpent) {
  pipeline::PipelineConfig config;
  EXPECT_TRUE(config.Validate().ok());

  config = pipeline::PipelineConfig();
  config.model = "no_such_model";
  auto st = config.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("tricycle"), std::string::npos);

  config = pipeline::PipelineConfig();
  config.epsilon = -1.0;
  EXPECT_FALSE(config.Validate().ok());

  config = pipeline::PipelineConfig();
  config.epsilon = 0.5;
  config.split.theta_x = 0.4;
  config.split.theta_f = 0.4;
  config.split.degree_seq = 0.4;
  EXPECT_FALSE(config.Validate().ok());

  config = pipeline::PipelineConfig();
  config.split.theta_x = -0.1;
  EXPECT_FALSE(config.Validate().ok());

  // A custom split must fund every stage the model spends: the default
  // tricycle model learns a triangle target, so a zero triangles share
  // would abort mid-fit after the other stages already spent — Validate
  // has to reject it up front.
  config = pipeline::PipelineConfig();
  config.split.theta_x = 0.2;
  config.split.theta_f = 0.2;
  config.split.degree_seq = 0.2;
  auto zero_triangles = config.Validate();
  ASSERT_FALSE(zero_triangles.ok());
  EXPECT_NE(zero_triangles.message().find("triangle"), std::string::npos);
  // The same split is fine for a model without a triangle target.
  config.model = "fcl";
  EXPECT_TRUE(config.Validate().ok());

  config = pipeline::PipelineConfig();
  config.sample.acceptance_iterations = -1;
  EXPECT_FALSE(config.Validate().ok());

  config = pipeline::PipelineConfig();
  config.sample.min_acceptance = 1.5;
  EXPECT_FALSE(config.Validate().ok());

  // The pipeline entry points surface the same typed error.
  config = pipeline::PipelineConfig();
  config.model = "no_such_model";
  util::Rng rng(1);
  auto fit = pipeline::FitPrivateParams(Input(), config, rng);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), util::StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------- sweep reuse --

TEST(SweepReuseFitTest, BudgetSpentExactlyOncePerCell) {
  std::vector<eval::SweepInput> inputs = {
      eval::SweepInput{"petster", Input(), nullptr}};
  eval::SweepSpec spec;
  spec.models = {"fcl", "tricycle"};
  spec.epsilons = {std::log(2.0)};
  spec.repeats = 3;
  spec.seed = 11;
  spec.acceptance_iterations = 1;
  spec.reuse_fit = true;

  auto result = eval::RunSweep(inputs, spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().cells.size(), 2u);
  for (const eval::SweepCell& cell : result.value().cells) {
    ASSERT_TRUE(cell.error.empty()) << cell.error;
    // The ledger invariant: one fit per cell, spending the full epsilon
    // exactly once — not repeats * epsilon.
    EXPECT_EQ(cell.fits, 1);
    EXPECT_DOUBLE_EQ(cell.epsilon_spent, cell.epsilon);
    EXPECT_EQ(cell.repeats, spec.repeats);
    ASSERT_FALSE(cell.metrics.empty());
    for (const eval::MetricStats& metric : cell.metrics) {
      EXPECT_TRUE(std::isfinite(metric.mean)) << metric.name;
    }
  }

  // The default protocol still refits per repeat.
  spec.reuse_fit = false;
  auto refit = eval::RunSweep(inputs, spec);
  ASSERT_TRUE(refit.ok());
  for (const eval::SweepCell& cell : refit.value().cells) {
    EXPECT_EQ(cell.fits, spec.repeats);
  }
}

TEST(SweepReuseFitTest, DeterministicAcrossWorkerCounts) {
  std::vector<eval::SweepInput> inputs = {
      eval::SweepInput{"petster", Input(), nullptr}};
  eval::SweepSpec spec;
  spec.models = {"fcl"};
  spec.epsilons = {0.5, 1.0};
  spec.repeats = 2;
  spec.seed = 21;
  spec.acceptance_iterations = 1;
  spec.reuse_fit = true;

  auto serial = eval::RunSweep(inputs, spec);
  eval::SweepSpec parallel = spec;
  parallel.threads = 4;
  auto threaded = eval::RunSweep(inputs, parallel);
  ASSERT_TRUE(serial.ok() && threaded.ok());
  EXPECT_EQ(eval::SweepResultToJson(serial.value(), false),
            eval::SweepResultToJson(threaded.value(), false));
  EXPECT_NE(eval::SweepResultToJson(serial.value(), false)
                .find("\"fits\": 1"),
            std::string::npos);
}

}  // namespace
}  // namespace agmdp
