// Cross-mechanism contract tests for the release-mechanism registry:
// every DP mechanism's ledger sums back to the global epsilon, the
// syntactic baseline provably spends nothing, mechanism-tagged artifacts
// round-trip bit-exactly through JSON while unknown tags are rejected at
// the read boundary, and every mechanism's serving path honours the
// engine's Substream(seed, sequence) determinism contract — including the
// comparative sweep that ranks all registered mechanisms side by side.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/datasets/datasets.h"
#include "src/eval/sweep_engine.h"
#include "src/graph/attributed_graph.h"
#include "src/mechanisms/mechanism_tags.h"
#include "src/mechanisms/release_mechanism.h"
#include "src/pipeline/release_artifact.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp {
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

pipeline::PipelineConfig Config(const std::string& mechanism, double epsilon) {
  pipeline::PipelineConfig config;
  config.mechanism = mechanism;
  config.epsilon = epsilon;
  config.sample.acceptance_iterations = 1;
  return config;
}

util::Result<pipeline::ReleaseArtifact> Fit(const std::string& mechanism,
                                            double epsilon, uint64_t seed) {
  util::Rng rng = util::Rng::Substream(seed, 0);
  return pipeline::FitReleaseArtifact(Input(), Config(mechanism, epsilon),
                                      rng);
}

bool GraphsEqual(const graph::AttributedGraph& a,
                 const graph::AttributedGraph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  if (a.structure().CanonicalEdges() != b.structure().CanonicalEdges()) {
    return false;
  }
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    if (a.attribute(v) != b.attribute(v)) return false;
  }
  return true;
}

TEST(MechanismRegistryTest, ListsEveryKnownTagWithItsPrivacyModel) {
  const std::vector<std::string> names = mechanisms::MechanismNames();
  ASSERT_EQ(names.size(), mechanisms::KnownMechanismTags().size());
  for (const std::string& tag : mechanisms::KnownMechanismTags()) {
    EXPECT_TRUE(mechanisms::IsKnownMechanismTag(tag)) << tag;
    const mechanisms::MechanismSpec* spec = mechanisms::FindMechanism(tag);
    ASSERT_NE(spec, nullptr) << tag;
    EXPECT_EQ(spec->name, tag);
    EXPECT_TRUE(spec->fit != nullptr) << tag;
    // AGM keeps its dedicated engine path; every other mechanism must
    // provide the sampler the engine delegates to.
    EXPECT_EQ(spec->make_sampler == nullptr, spec->builtin_agm) << tag;
  }
  EXPECT_EQ(mechanisms::FindMechanism("agm")->privacy_model,
            mechanisms::PrivacyModel::kEdgeDp);
  EXPECT_EQ(mechanisms::FindMechanism("community_dp")->privacy_model,
            mechanisms::PrivacyModel::kEdgeDp);
  EXPECT_EQ(mechanisms::FindMechanism("kanon_baseline")->privacy_model,
            mechanisms::PrivacyModel::kSyntactic);
  EXPECT_EQ(mechanisms::FindMechanism("no_such_mechanism"), nullptr);
  const std::string list = mechanisms::MechanismNameList();
  for (const std::string& tag : names) {
    EXPECT_NE(list.find(tag), std::string::npos) << tag;
  }
}

TEST(MechanismLedgerTest, CommunityDpLedgerSumsToTheGlobalEpsilon) {
  for (double epsilon : {0.3, 0.6931471805599453, 1.0, 1.1}) {
    auto artifact = Fit("community_dp", epsilon, 11);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    EXPECT_EQ(artifact.value().mechanism, "community_dp");
    EXPECT_EQ(artifact.value().epsilon_budget, epsilon);

    const pipeline::BudgetLedger& ledger = artifact.value().ledger;
    ASSERT_EQ(ledger.size(), 4u);
    EXPECT_EQ(ledger[0].first, "partition_pass_0");
    EXPECT_EQ(ledger[1].first, "partition_pass_1");
    EXPECT_EQ(ledger[2].first, "block_edges");
    EXPECT_EQ(ledger[3].first, "block_attributes");

    double sum = 0.0;
    for (const auto& [label, spend] : ledger) {
      EXPECT_GT(spend, 0.0) << label;
      sum += spend;
    }
    // Shares are epsilon / 4 — exact in binary floating point — so the
    // in-order ledger sum reproduces the accountant's spent total exactly,
    // and both land on the global epsilon to the last ulp.
    EXPECT_EQ(sum, artifact.value().epsilon_spent);
    EXPECT_DOUBLE_EQ(artifact.value().epsilon_spent, epsilon);
  }
}

TEST(MechanismLedgerTest, KanonBaselineAssertsZeroSpend) {
  auto artifact = Fit("kanon_baseline", 0.5, 11);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value().mechanism, "kanon_baseline");
  EXPECT_EQ(artifact.value().epsilon_budget, 0.0);
  EXPECT_EQ(artifact.value().epsilon_spent, 0.0);
  EXPECT_TRUE(artifact.value().ledger.empty());
  // k = max(2, round(2 / eps)) under the zero-knob default.
  EXPECT_EQ(artifact.value().payload.k_anonymity, 4u);
  EXPECT_GE(artifact.value().payload.num_blocks, 1u);

  // The zero-spend invariant is enforced at the artifact boundary, not
  // just produced by the fit: a doctored spend must not validate.
  pipeline::ReleaseArtifact doctored = artifact.value();
  doctored.epsilon_spent = 0.25;
  doctored.ledger.push_back({"sneaky", 0.25});
  EXPECT_FALSE(pipeline::ValidateReleaseArtifact(doctored).ok());
}

TEST(MechanismArtifactTest, TaggedRoundTripIsBitExact) {
  for (const char* mechanism : {"community_dp", "kanon_baseline"}) {
    auto artifact = Fit(mechanism, 0.7, 21);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();

    const std::string once = pipeline::ReleaseArtifactToJson(artifact.value());
    auto parsed = pipeline::ReleaseArtifactFromJson(once);
    ASSERT_TRUE(parsed.ok()) << mechanism << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(parsed.value().mechanism, mechanism);
    const std::string twice = pipeline::ReleaseArtifactToJson(parsed.value());
    EXPECT_EQ(once, twice) << mechanism;
    EXPECT_EQ(pipeline::ReleaseArtifactReleaseKey(artifact.value()),
              pipeline::ReleaseArtifactReleaseKey(parsed.value()));
  }
}

TEST(MechanismArtifactTest, UnknownTagIsRejectedAtRead) {
  auto artifact = Fit("community_dp", 0.7, 21);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  std::string json = pipeline::ReleaseArtifactToJson(artifact.value());
  const std::string needle = "\"mechanism\": \"community_dp\"";
  const size_t at = json.find(needle);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, needle.size(), "\"mechanism\": \"zkp_wizardry\"");

  auto parsed = pipeline::ReleaseArtifactFromJson(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
  // The error names the registered tags so a typo is self-diagnosing.
  EXPECT_NE(parsed.status().message().find("zkp_wizardry"),
            std::string::npos);
  EXPECT_NE(parsed.status().message().find("community_dp"),
            std::string::npos);
}

TEST(MechanismArtifactTest, AgmArtifactsMustNotCarryAPayload) {
  auto artifact = Fit("community_dp", 0.7, 21);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  pipeline::ReleaseArtifact doctored = artifact.value();
  doctored.mechanism = "agm";
  doctored.model = "tricycle";
  EXPECT_FALSE(pipeline::ValidateReleaseArtifact(doctored).ok());
}

TEST(MechanismEngineTest, SampleManyMatchesSequentialSamplesForEveryTag) {
  for (const char* mechanism : {"community_dp", "kanon_baseline"}) {
    auto artifact = Fit(mechanism, 0.7, 33);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    auto engine = pipeline::ReleaseEngine::Create(artifact.value());
    ASSERT_TRUE(engine.ok()) << mechanism << ": "
                             << engine.status().ToString();
    EXPECT_GT(engine.value()->ApproxBytes(),
              pipeline::EstimateArtifactBytes(artifact.value()));

    pipeline::SampleRequest base;
    base.seed = 9;
    base.sequence = 5;
    auto batch = engine.value()->SampleMany(3, base);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch.value().size(), 3u);
    for (int i = 0; i < 3; ++i) {
      pipeline::SampleRequest request = base;
      request.sequence = base.sequence + static_cast<uint64_t>(i);
      auto single = engine.value()->Sample(request);
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      EXPECT_TRUE(GraphsEqual(batch.value()[i], single.value()))
          << mechanism << " sample " << i;
      EXPECT_GT(single.value().num_edges(), 0u) << mechanism;
    }
  }
}

TEST(MechanismSweepTest, ComparativeSweepIsShapedAndByteStable) {
  eval::SweepSpec spec;
  spec.mechanisms = {"agm", "community_dp", "kanon_baseline"};
  spec.models = {"fcl"};
  spec.epsilons = {0.5, 1.0};
  spec.repeats = 2;
  spec.seed = 77;
  spec.acceptance_iterations = 1;
  const std::vector<eval::SweepInput> inputs = {
      eval::SweepInput{"petster", Input(), nullptr}};

  auto first = eval::RunSweep(inputs, spec);
  auto second = eval::RunSweep(inputs, spec);
  eval::SweepSpec parallel = spec;
  parallel.threads = 4;
  auto third = eval::RunSweep(inputs, parallel);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok() && third.ok());

  // agm expands over the model list; the other mechanisms contribute one
  // row each, every row crossed with the epsilon grid.
  const eval::SweepResult& sweep = first.value();
  ASSERT_EQ(sweep.cells.size(), 6u);
  const std::vector<std::string> expected = {
      "agm",            "agm",           "community_dp",
      "community_dp",   "kanon_baseline", "kanon_baseline"};
  for (size_t i = 0; i < sweep.cells.size(); ++i) {
    const eval::SweepCell& cell = sweep.cells[i];
    EXPECT_EQ(cell.mechanism, expected[i]) << i;
    ASSERT_TRUE(cell.error.empty()) << cell.mechanism << ": " << cell.error;
    ASSERT_FALSE(cell.metrics.empty()) << cell.mechanism;
    if (cell.mechanism == "kanon_baseline") {
      EXPECT_EQ(cell.epsilon_spent, 0.0);
    } else {
      EXPECT_DOUBLE_EQ(cell.epsilon_spent, cell.epsilon) << cell.mechanism;
    }
  }

  const std::string a = eval::SweepResultToJson(first.value(), false);
  EXPECT_EQ(a, eval::SweepResultToJson(second.value(), false));
  EXPECT_EQ(a, eval::SweepResultToJson(third.value(), false));
  EXPECT_NE(a.find("\"schema\": \"agmdp.sweep.v4\""), std::string::npos);
  EXPECT_NE(a.find("\"mechanism_summary\": ["), std::string::npos);
  for (const char* tag : {"agm", "community_dp", "kanon_baseline"}) {
    EXPECT_NE(a.find("\"mechanism\": \"" + std::string(tag) + "\""),
              std::string::npos)
        << tag;
  }

  auto unknown = spec;
  unknown.mechanisms = {"agm", "no_such_mechanism"};
  auto rejected = eval::RunSweep(inputs, unknown);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace agmdp
