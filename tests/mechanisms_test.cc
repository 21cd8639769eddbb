// Cross-mechanism contract tests for the release-mechanism registry:
// every DP mechanism's ledger sums back to the global epsilon, the
// syntactic baseline provably spends nothing, mechanism-tagged artifacts
// round-trip bit-exactly through JSON while unknown tags are rejected at
// the read boundary, and every mechanism's serving path honours the
// engine's Substream(seed, sequence) determinism contract — including the
// comparative sweep that ranks all registered mechanisms side by side.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "src/datasets/datasets.h"
#include "src/eval/sweep_engine.h"
#include "src/graph/attributed_graph.h"
#include "src/mechanisms/release_mechanism.h"
#include "src/pipeline/release_artifact.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/server/protocol.h"
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
  config.acceptance_iterations = 1;
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
  const std::vector<std::string> tags = {"agm", "community_dp",
                                         "kanon_baseline"};
  EXPECT_EQ(mechanisms::MechanismNames(), tags);
  for (const std::string& tag : tags) {
    const mechanisms::MechanismSpec* spec = mechanisms::FindMechanism(tag);
    ASSERT_NE(spec, nullptr) << tag;
    EXPECT_EQ(spec->name, tag);
    // One contract for every scheme, agm included.
    EXPECT_TRUE(spec->fit != nullptr) << tag;
    EXPECT_TRUE(spec->validate != nullptr) << tag;
    EXPECT_TRUE(spec->make_sampler != nullptr) << tag;
  }
  EXPECT_EQ(mechanisms::FindMechanism("agm")->privacy_model,
            mechanisms::PrivacyModel::kEdgeDp);
  EXPECT_EQ(mechanisms::FindMechanism("community_dp")->privacy_model,
            mechanisms::PrivacyModel::kEdgeDp);
  EXPECT_EQ(mechanisms::FindMechanism("kanon_baseline")->privacy_model,
            mechanisms::PrivacyModel::kSyntactic);
  EXPECT_EQ(mechanisms::FindMechanism("no_such_mechanism"), nullptr);
  EXPECT_EQ(mechanisms::MechanismNameList(),
            "agm, community_dp, kanon_baseline");
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

TEST(MechanismLedgerTest, KanonBaselineTakesTheStrongestKAtTinyEpsilon) {
  // 2 / epsilon is far beyond any integer here; the heuristic still means
  // "as strong as possible", i.e. one group of all n nodes.
  for (double epsilon : {1e-20, 1e-300}) {
    auto artifact = Fit("kanon_baseline", epsilon, 11);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    EXPECT_EQ(artifact.value().payload.k_anonymity, Input().num_nodes())
        << epsilon;
    EXPECT_EQ(artifact.value().payload.num_blocks, 1u) << epsilon;
  }
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
  for (const std::string& mechanism : mechanisms::MechanismNames()) {
    auto artifact = Fit(mechanism, 0.7, 33);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    for (int threads : {1, 4}) {
      SCOPED_TRACE(mechanism + " threads " + std::to_string(threads));
      pipeline::EngineOptions options;
      options.threads = threads;
      auto engine = pipeline::ReleaseEngine::Create(artifact.value(), options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
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
            << "sample " << i;
        EXPECT_GT(single.value().num_edges(), 0u);
      }
    }
  }
}

// Literal serving bits of the non-AGM schemes: one request, a batch of
// three at pool sizes 1 and 4, and the one-shot RunPrivateRelease draw
// (which samples from the caller's stream). The literals pin the block
// model and Chung-Lu samplers end to end, so a change to how the engine
// hands requests to a mechanism that moves any bit fails here.
struct ServingGoldenCase {
  const char* mechanism;
  uint64_t single_checksum;
  uint64_t batch_checksums[3];
  uint64_t release_checksum;
};

TEST(MechanismServingGoldenTest, SamplesMatchPinnedLiterals) {
  static const ServingGoldenCase kCases[] = {
      {"community_dp", 0x01bae344526d7908ULL,
       {0xd568f0cdd2682fd0ULL, 0x304d844ff316924eULL,
        0x07793af49c83dd3fULL},
       0x7754c5a12216197fULL},
      {"kanon_baseline", 0x25eaab0a7f1fc3ecULL,
       {0xd074ed2866fe3e63ULL, 0x07910cd6a3f0508dULL,
        0xe9514331eb260dceULL},
       0x2594d9544b7f5d54ULL},
  };
  for (const ServingGoldenCase& c : kCases) {
    SCOPED_TRACE(c.mechanism);
    auto artifact = Fit(c.mechanism, 0.7, 41);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      pipeline::EngineOptions options;
      options.threads = threads;
      auto engine = pipeline::ReleaseEngine::Create(artifact.value(), options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();

      pipeline::SampleRequest request;
      request.seed = 5;
      request.sequence = 7;
      request.threads = threads;
      auto single = engine.value()->Sample(request);
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      EXPECT_EQ(server::GraphChecksum(single.value()), c.single_checksum);

      pipeline::SampleRequest base;
      base.seed = 5;
      auto batch = engine.value()->SampleMany(3, base);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch.value().size(), 3u);
      for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(server::GraphChecksum(batch.value()[i]),
                  c.batch_checksums[i])
            << "sample " << i;
      }
    }

    util::Rng rng = util::Rng::Substream(41, 1);
    auto release =
        pipeline::RunPrivateRelease(Input(), Config(c.mechanism, 0.7), rng);
    ASSERT_TRUE(release.ok()) << release.status().ToString();
    EXPECT_EQ(server::GraphChecksum(release.value().graph),
              c.release_checksum);
  }
}

// One case per payload check of the non-AGM schemes: each doctors a fitted
// artifact so that exactly that check fails. Every read boundary must
// refuse it with kInvalidArgument: validation itself, the JSON reader, and
// engine construction.
struct PayloadCase {
  const char* name;
  const char* mechanism;
  const char* message;
  void (*doctor)(pipeline::ReleaseArtifact&);
};

void ExpectInvalidArgument(const util::Status& status, const char* message) {
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
  if (message != nullptr) {
    EXPECT_NE(status.message().find(message), std::string::npos)
        << status.ToString();
  }
}

TEST(MechanismPayloadValidationTest, EveryCheckRejectsAtEveryBoundary) {
  static const PayloadCase kCases[] = {
      {"no blocks", "community_dp", "needs num_blocks >= 1",
       [](pipeline::ReleaseArtifact& a) { a.payload.num_blocks = 0; }},
      {"empty partition", "community_dp", "non-empty node partition",
       [](pipeline::ReleaseArtifact& a) { a.payload.node_blocks.clear(); }},
      {"node block out of range", "community_dp",
       "community_dp node_blocks entry out of range",
       [](pipeline::ReleaseArtifact& a) {
         a.payload.node_blocks[3] = a.payload.num_blocks;
       }},
      {"block_edges size", "community_dp", "one entry per unordered block pair",
       [](pipeline::ReleaseArtifact& a) { a.payload.block_edges.pop_back(); }},
      {"negative block edge count", "community_dp",
       "block_edges must be finite and non-negative",
       [](pipeline::ReleaseArtifact& a) { a.payload.block_edges[1] = -1.0; }},
      {"non-finite block edge count", "community_dp",
       "block_edges must be finite and non-negative",
       [](pipeline::ReleaseArtifact& a) {
         a.payload.block_edges[0] = std::numeric_limits<double>::infinity();
       }},
      {"w above 20", "community_dp", "community_dp payload needs 0 <= w <= 20",
       [](pipeline::ReleaseArtifact& a) { a.params.w = 21; }},
      {"negative w", "community_dp", "community_dp payload needs 0 <= w <= 20",
       [](pipeline::ReleaseArtifact& a) { a.params.w = -1; }},
      {"block_attr size", "community_dp",
       "community_dp block_attr must be num_blocks * 2^w",
       [](pipeline::ReleaseArtifact& a) { a.payload.block_attr.pop_back(); }},
      {"negative attribute mass", "community_dp",
       "community_dp block_attr must be finite and non-negative",
       [](pipeline::ReleaseArtifact& a) { a.payload.block_attr[2] = -0.5; }},
      {"non-finite attribute mass", "community_dp",
       "community_dp block_attr must be finite and non-negative",
       [](pipeline::ReleaseArtifact& a) {
         a.payload.block_attr[2] = std::numeric_limits<double>::quiet_NaN();
       }},
      {"attribute row without mass", "community_dp",
       "community_dp block_attr row 0 has no mass",
       [](pipeline::ReleaseArtifact& a) {
         const size_t configs = size_t{1} << a.params.w;
         std::fill(a.payload.block_attr.begin(),
                   a.payload.block_attr.begin() +
                       static_cast<std::ptrdiff_t>(configs),
                   0.0);
       }},
      {"non-empty ledger", "kanon_baseline", "must carry zero epsilon spend",
       [](pipeline::ReleaseArtifact& a) {
         a.ledger.push_back({"sneaky", 0.25});
         a.epsilon_budget = 0.25;
         a.epsilon_spent = 0.25;
       }},
      {"budget without spend", "kanon_baseline",
       "must carry zero epsilon spend",
       [](pipeline::ReleaseArtifact& a) { a.epsilon_budget = 0.5; }},
      {"k below 2", "kanon_baseline", "needs k_anonymity >= 2",
       [](pipeline::ReleaseArtifact& a) { a.payload.k_anonymity = 1; }},
      {"t above 1", "kanon_baseline", "needs t_closeness in [0, 1]",
       [](pipeline::ReleaseArtifact& a) { a.payload.t_closeness = 1.5; }},
      {"negative t", "kanon_baseline", "needs t_closeness in [0, 1]",
       [](pipeline::ReleaseArtifact& a) { a.payload.t_closeness = -0.1; }},
      {"non-finite t", "kanon_baseline", "needs t_closeness in [0, 1]",
       [](pipeline::ReleaseArtifact& a) {
         a.payload.t_closeness = std::numeric_limits<double>::quiet_NaN();
       }},
      {"group count mismatch", "kanon_baseline",
       "one anonymity group per degree-sequence entry",
       [](pipeline::ReleaseArtifact& a) { a.payload.node_blocks.pop_back(); }},
      {"no groups", "kanon_baseline", "kanon_baseline payload needs "
       "num_blocks >= 1",
       [](pipeline::ReleaseArtifact& a) { a.payload.num_blocks = 0; }},
      {"group out of range", "kanon_baseline",
       "kanon_baseline node_blocks entry out of range",
       [](pipeline::ReleaseArtifact& a) {
         a.payload.node_blocks[3] = a.payload.num_blocks;
       }},
      {"kanon w above 20", "kanon_baseline",
       "kanon_baseline payload needs 0 <= w <= 20",
       [](pipeline::ReleaseArtifact& a) { a.params.w = 21; }},
      {"kanon block_attr size", "kanon_baseline",
       "kanon_baseline block_attr must be num_blocks * 2^w",
       [](pipeline::ReleaseArtifact& a) { a.payload.block_attr.push_back(1); }},
      {"kanon negative attribute mass", "kanon_baseline",
       "kanon_baseline block_attr must be finite and non-negative",
       [](pipeline::ReleaseArtifact& a) { a.payload.block_attr[0] = -1.0; }},
      {"kanon attribute row without mass", "kanon_baseline",
       "kanon_baseline block_attr row 1 has no mass",
       [](pipeline::ReleaseArtifact& a) {
         const size_t configs = size_t{1} << a.params.w;
         std::fill(a.payload.block_attr.begin() +
                       static_cast<std::ptrdiff_t>(configs),
                   a.payload.block_attr.begin() +
                       static_cast<std::ptrdiff_t>(2 * configs),
                   0.0);
       }},
      {"degree of n", "kanon_baseline",
       "kanon_baseline anonymized degree exceeds n - 1",
       [](pipeline::ReleaseArtifact& a) {
         a.params.degree_sequence[0] = static_cast<uint32_t>(
             a.params.degree_sequence.size());
       }},
  };
  for (const PayloadCase& c : kCases) {
    SCOPED_TRACE(c.name);
    auto fitted = Fit(c.mechanism, 0.7, 21);
    ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
    ASSERT_TRUE(pipeline::ValidateReleaseArtifact(fitted.value()).ok());
    pipeline::ReleaseArtifact doctored = fitted.value();
    c.doctor(doctored);

    ExpectInvalidArgument(pipeline::ValidateReleaseArtifact(doctored),
                          c.message);
    // Non-finite values serialize as null, which the reader refuses
    // before validation runs; the code is the same either way.
    ExpectInvalidArgument(
        pipeline::ReleaseArtifactFromJson(
            pipeline::ReleaseArtifactToJson(doctored))
            .status(),
        nullptr);
    ExpectInvalidArgument(
        pipeline::ReleaseEngine::Create(doctored).status(), c.message);
  }
}

TEST(MechanismPayloadValidationTest, MissingPayloadObjectIsRejectedAtRead) {
  for (const char* mechanism : {"community_dp", "kanon_baseline"}) {
    SCOPED_TRACE(mechanism);
    auto artifact = Fit(mechanism, 0.7, 21);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    std::string json = pipeline::ReleaseArtifactToJson(artifact.value());
    const std::string key = "\"mechanism_payload\"";
    const size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos);
    json.replace(at, key.size(), "\"unread_payload\"");
    ExpectInvalidArgument(pipeline::ReleaseArtifactFromJson(json).status(),
                          "'mechanism_payload' must be an object");
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
