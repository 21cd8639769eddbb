// Crash-safety suite for the durable artifact registry (ctest label:
// fault — the set the ASan CI fault step runs).
//
// The invariant under test is the one differential privacy depends on:
// recovered spend is never lower than any spend acknowledged to a caller.
// The suite drives it three ways:
//   * torn tails — the journal truncated at every record boundary and at
//     several mid-record cuts must recover to a valid prefix state whose
//     spend dominates everything acknowledged within the surviving bytes;
//   * injected IO faults — failed/torn appends wound the registry (reads
//     OK, mutations refused) and leave a recoverable file behind;
//   * a crash matrix — a forked child _exits inside every journaled fault
//     point mid-mutation; the reopened registry must still enforce the
//     dataset cap and hold every acknowledged charge.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/agm/agm_sampler.h"
#include "src/datasets/datasets.h"
#include "src/pipeline/release_artifact.h"
#include "src/registry/artifact_registry.h"
#include "src/util/check.h"
#include "src/util/checksum.h"
#include "src/util/fault_injector.h"

namespace agmdp::registry {
namespace {

constexpr double kTol = 1e-9;

/// A small but valid fitted-parameter set, learned once (exact, free).
const agm::AgmParams& BaseParams() {
  static const agm::AgmParams* params = [] {
    auto g = datasets::GenerateDataset(datasets::DatasetId::kLastFm,
                                       /*scale=*/0.05, /*seed=*/7);
    AGMDP_CHECK_MSG(g.ok(), g.status().ToString().c_str());
    return new agm::AgmParams(agm::LearnAgmParams(
        graph::AttributedCsrGraph::FromGraph(g.value())));
  }();
  return *params;
}

/// Distinct epsilons give distinct config fingerprints AND distinct
/// release keys (epsilon_spent is part of the canonical JSON).
pipeline::ReleaseArtifact TestArtifact(double epsilon) {
  pipeline::PipelineConfig config;
  config.epsilon = epsilon;
  config.model = "fcl";
  pipeline::ReleaseArtifact artifact =
      pipeline::MakeReleaseArtifact(BaseParams(), config);
  artifact.epsilon_budget = epsilon;
  artifact.epsilon_spent = epsilon;
  artifact.ledger.emplace_back("fit", epsilon);
  return artifact;
}

/// Same config fingerprint as TestArtifact(epsilon) but a different
/// release key — "the same config was refit and drew different noise".
pipeline::ReleaseArtifact RefitArtifact(double epsilon) {
  pipeline::ReleaseArtifact artifact = TestArtifact(epsilon);
  AGMDP_CHECK_MSG(!artifact.params.degree_sequence.empty(),
                  "test params need a degree sequence");
  artifact.params.degree_sequence[0] += 1;
  return artifact;
}

RegistryOptions Capped(double cap) {
  RegistryOptions options;
  options.default_dataset_cap = cap;
  return options;
}

class RegistryTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    const std::string path = ::testing::TempDir() + "registry_test_" + name;
    paths_.push_back(path);
    paths_.push_back(path + ".tmp");
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    return path;
  }

  void TearDown() override {
    util::FaultInjector::Global().Reset();
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  static std::string ReadAll(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << path;
    return std::string(std::istreambuf_iterator<char>(f), {});
  }

  static void WriteAll(const std::string& path, const std::string& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(f.is_open()) << path;
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  static uint64_t FileBytes(const std::string& path) {
    struct stat st{};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return static_cast<uint64_t>(st.st_size);
  }

  std::vector<std::string> paths_;
};

TEST_F(RegistryTest, RoundTripAndReopen) {
  const std::string path = TempPath("roundtrip");
  const pipeline::ReleaseArtifact a = TestArtifact(0.69);
  {
    auto reg = ArtifactRegistry::Open(path, Capped(2.0));
    ASSERT_TRUE(reg.ok()) << reg.status().ToString();
    ASSERT_TRUE(reg.value()->Put("lastfm", "m", a).ok());
    auto resolved = reg.value()->Resolve("lastfm", "m");
    ASSERT_TRUE(resolved.ok());
    EXPECT_EQ(pipeline::ReleaseArtifactToJson(resolved.value()),
              pipeline::ReleaseArtifactToJson(a));
    EXPECT_NEAR(reg.value()->Spent("lastfm"), 0.69, kTol);
    EXPECT_NEAR(reg.value()->Cap("lastfm"), 2.0, kTol);
  }
  auto reopened = ArtifactRegistry::Open(path, Capped(2.0));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_NEAR(reopened.value()->Spent("lastfm"), 0.69, kTol);
  auto resolved = reopened.value()->Resolve("lastfm", "m");
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(pipeline::ReleaseArtifactToJson(resolved.value()),
            pipeline::ReleaseArtifactToJson(a));
  const RegistryStats stats = reopened.value()->Stats();
  EXPECT_EQ(stats.recovered_records, 2u);  // charge + artifact
  EXPECT_EQ(stats.discarded_tail_bytes, 0u);
  EXPECT_EQ(stats.artifacts, 1u);
}

TEST_F(RegistryTest, IdempotentPutAndCollisions) {
  const std::string path = TempPath("idempotent");
  auto reg = ArtifactRegistry::Open(path, Capped(1.0));
  ASSERT_TRUE(reg.ok());
  const pipeline::ReleaseArtifact a = TestArtifact(0.69);
  ASSERT_TRUE(reg.value()->Put("lastfm", "m", a).ok());
  const uint64_t bytes_after_first = reg.value()->Stats().journal_bytes;

  // Re-putting the identical artifact is OK and journals nothing: with a
  // 1.0 cap a second 0.69 charge would be refused, so this also proves no
  // double charge.
  ASSERT_TRUE(reg.value()->Put("lastfm", "m", a).ok());
  EXPECT_NEAR(reg.value()->Spent("lastfm"), 0.69, kTol);
  EXPECT_EQ(reg.value()->Stats().journal_bytes, bytes_after_first);

  // A different release under the same name is refused.
  auto st = reg.value()->Put("lastfm", "m", TestArtifact(0.1));
  EXPECT_EQ(st.code(), util::StatusCode::kFailedPrecondition)
      << st.ToString();

  // A refit of an already-released config (same fingerprint, new key) is
  // refused even under a fresh name: it would burn budget for noise.
  st = reg.value()->Put("lastfm", "m2", RefitArtifact(0.69));
  EXPECT_EQ(st.code(), util::StatusCode::kFailedPrecondition)
      << st.ToString();

  // The same artifact may serve two datasets independently.
  EXPECT_TRUE(reg.value()->Put("petster", "m", a).ok());
  EXPECT_NEAR(reg.value()->Spent("petster"), 0.69, kTol);
}

TEST_F(RegistryTest, CapEnforcement) {
  const std::string path = TempPath("cap");
  auto reg = ArtifactRegistry::Open(path, Capped(1.0));
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(reg.value()->Put("lastfm", "a", TestArtifact(0.69)).ok());
  const uint64_t bytes_before = reg.value()->Stats().journal_bytes;

  auto st = reg.value()->Put("lastfm", "b", TestArtifact(0.5));
  EXPECT_EQ(st.code(), util::StatusCode::kResourceExhausted)
      << st.ToString();
  // A refused charge journals nothing and changes nothing.
  EXPECT_EQ(reg.value()->Stats().journal_bytes, bytes_before);
  EXPECT_NEAR(reg.value()->Spent("lastfm"), 0.69, kTol);
  EXPECT_FALSE(reg.value()->Resolve("lastfm", "b").ok());

  // A charge that exactly lands on the cap is allowed (tolerance covers
  // the float sum), and per-dataset overrides beat the default cap.
  RegistryOptions options = Capped(1.0);
  options.dataset_caps.emplace_back("petster", 0.5);
  const std::string path2 = TempPath("cap_override");
  auto reg2 = ArtifactRegistry::Open(path2, options);
  ASSERT_TRUE(reg2.ok());
  EXPECT_EQ(
      reg2.value()->Put("petster", "a", TestArtifact(0.69)).code(),
      util::StatusCode::kResourceExhausted);
  EXPECT_TRUE(reg2.value()->Put("petster", "b", TestArtifact(0.5)).ok());
}

TEST_F(RegistryTest, GcKeepsChargeAndReputIsFree) {
  const std::string path = TempPath("gc");
  auto reg = ArtifactRegistry::Open(path, Capped(1.0));
  ASSERT_TRUE(reg.ok());
  const pipeline::ReleaseArtifact a = TestArtifact(0.69);
  ASSERT_TRUE(reg.value()->Put("lastfm", "m", a).ok());
  ASSERT_TRUE(reg.value()->Gc("lastfm", "m").ok());

  // The artifact is gone but the privacy loss is not refundable.
  EXPECT_EQ(reg.value()->Resolve("lastfm", "m").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_NEAR(reg.value()->Spent("lastfm"), 0.69, kTol);
  EXPECT_EQ(reg.value()->Gc("lastfm", "m").code(),
            util::StatusCode::kNotFound);

  // Re-releasing the identical artifact costs nothing (it is the same
  // release) — and that survives a reopen.
  ASSERT_TRUE(reg.value()->Put("lastfm", "m", a).ok());
  EXPECT_NEAR(reg.value()->Spent("lastfm"), 0.69, kTol);
  reg = util::Status::Internal("closed");
  auto reopened = ArtifactRegistry::Open(path, Capped(1.0));
  ASSERT_TRUE(reopened.ok());
  EXPECT_NEAR(reopened.value()->Spent("lastfm"), 0.69, kTol);
  EXPECT_TRUE(reopened.value()->Resolve("lastfm", "m").ok());
}

TEST_F(RegistryTest, TenantChargesPersist) {
  const std::string path = TempPath("tenant");
  {
    auto reg = ArtifactRegistry::Open(path, RegistryOptions{});
    ASSERT_TRUE(reg.ok());
    ASSERT_TRUE(reg.value()->ChargeTenant("alice", 7, 0.5).ok());
    ASSERT_TRUE(reg.value()->ChargeTenant("alice", 7, 0.5).ok());  // idem
    ASSERT_TRUE(reg.value()->ChargeTenant("bob", 7, 0.5).ok());
    EXPECT_EQ(reg.value()->TenantCharges().size(), 2u);
  }
  auto reopened = ArtifactRegistry::Open(path, RegistryOptions{});
  ASSERT_TRUE(reopened.ok());
  const std::vector<TenantChargeRow> charges =
      reopened.value()->TenantCharges();
  ASSERT_EQ(charges.size(), 2u);
  EXPECT_EQ(charges[0].tenant, "alice");
  EXPECT_EQ(charges[0].release_key, 7u);
  EXPECT_NEAR(charges[0].epsilon, 0.5, kTol);
  EXPECT_EQ(charges[1].tenant, "bob");
}

TEST_F(RegistryTest, CheckpointCompactsAndIsDeterministic) {
  const std::string path_a = TempPath("ckpt_a");
  const std::string path_b = TempPath("ckpt_b");
  for (const std::string& path : {path_a, path_b}) {
    auto reg = ArtifactRegistry::Open(path, Capped(5.0));
    ASSERT_TRUE(reg.ok());
    ASSERT_TRUE(reg.value()->Put("lastfm", "a", TestArtifact(0.3)).ok());
    ASSERT_TRUE(reg.value()->Put("lastfm", "b", TestArtifact(0.5)).ok());
    ASSERT_TRUE(reg.value()->Put("petster", "a", TestArtifact(0.3)).ok());
    ASSERT_TRUE(reg.value()->ChargeTenant("alice", 1, 0.3).ok());
    ASSERT_TRUE(reg.value()->Gc("lastfm", "a").ok());
    const uint64_t before = reg.value()->Stats().journal_bytes;
    ASSERT_TRUE(reg.value()->Checkpoint().ok());
    EXPECT_LT(reg.value()->Stats().journal_bytes, before);
    EXPECT_EQ(reg.value()->Stats().checkpoints, 1u);
    // The registry stays fully usable across the checkpoint fd swap.
    ASSERT_TRUE(reg.value()->Put("lastfm", "c", TestArtifact(0.7)).ok());
  }
  // Same history, byte-identical files — the contract crash recovery
  // depends on.
  EXPECT_EQ(ReadAll(path_a), ReadAll(path_b));

  auto reopened = ArtifactRegistry::Open(path_a, Capped(5.0));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_NEAR(reopened.value()->Spent("lastfm"), 1.5, kTol);
  EXPECT_NEAR(reopened.value()->Spent("petster"), 0.3, kTol);
  EXPECT_EQ(reopened.value()->Resolve("lastfm", "a").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_TRUE(reopened.value()->Resolve("lastfm", "b").ok());
  EXPECT_TRUE(reopened.value()->Resolve("lastfm", "c").ok());
  EXPECT_EQ(reopened.value()->TenantCharges().size(), 1u);
}

// The heart of the durability story: cut the journal at every frame
// boundary and at several mid-record offsets. Every cut must recover to a
// valid registry, and the recovered spend must dominate every state that
// was acknowledged within the surviving bytes.
TEST_F(RegistryTest, TornTailAtEveryBoundary) {
  const std::string path = TempPath("torn_src");
  // (journal size after the mutation, spent after the mutation) — the
  // acknowledged states a crashed writer's clients could have observed.
  std::vector<std::pair<uint64_t, double>> acknowledged;
  {
    auto reg = ArtifactRegistry::Open(path, Capped(5.0));
    ASSERT_TRUE(reg.ok());
    auto ack = [&] {
      acknowledged.emplace_back(reg.value()->Stats().journal_bytes,
                                reg.value()->Spent("lastfm"));
    };
    ASSERT_TRUE(reg.value()->Put("lastfm", "a", TestArtifact(0.3)).ok());
    ack();
    ASSERT_TRUE(reg.value()->ChargeTenant("alice", 11, 0.3).ok());
    ack();
    ASSERT_TRUE(reg.value()->Put("lastfm", "b", TestArtifact(0.5)).ok());
    ack();
    ASSERT_TRUE(reg.value()->Gc("lastfm", "a").ok());
    ack();
    ASSERT_TRUE(reg.value()->Put("lastfm", "c", TestArtifact(0.7)).ok());
    ack();
  }
  const std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 16u);

  // Parse the frame boundaries (16-byte header, then [len][crc][payload]).
  std::vector<uint64_t> boundaries = {16};
  uint64_t offset = 16;
  while (offset + 8 <= bytes.size()) {
    const auto* b =
        reinterpret_cast<const unsigned char*>(bytes.data() + offset);
    const uint32_t len = static_cast<uint32_t>(b[0]) |
                         (static_cast<uint32_t>(b[1]) << 8) |
                         (static_cast<uint32_t>(b[2]) << 16) |
                         (static_cast<uint32_t>(b[3]) << 24);
    offset += 8 + len;
    boundaries.push_back(offset);
  }
  ASSERT_EQ(offset, bytes.size()) << "journal must end on a frame boundary";
  ASSERT_GE(boundaries.size(), 8u);  // 5 mutations journal >= 7 records

  std::vector<uint64_t> cuts;
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    const uint64_t begin = boundaries[i];
    const uint64_t next = boundaries[i + 1];
    // The clean boundary, a cut inside the frame header, a cut right after
    // it, and a cut mid-payload.
    cuts.push_back(begin);
    cuts.push_back(begin + 3);
    cuts.push_back(begin + 8);
    cuts.push_back(begin + (next - begin) / 2);
  }
  const std::string torn = TempPath("torn_cut");
  for (const uint64_t cut : cuts) {
    ASSERT_LE(cut, bytes.size());
    WriteAll(torn, bytes.substr(0, cut));
    auto reg = ArtifactRegistry::Open(torn, Capped(5.0));
    ASSERT_TRUE(reg.ok()) << "cut at byte " << cut << ": "
                          << reg.status().ToString();
    double floor_spent = 0.0;
    for (const auto& [size, spent] : acknowledged) {
      if (size <= cut) floor_spent = std::max(floor_spent, spent);
    }
    EXPECT_GE(reg.value()->Spent("lastfm") + kTol, floor_spent)
        << "cut at byte " << cut << " under-counted acknowledged spend";
    // The truncated file was repaired in place: a new mutation appends
    // cleanly and the next recovery sees no tail damage.
    ASSERT_TRUE(reg.value()->Put("pokec", "fresh", TestArtifact(0.1)).ok())
        << "cut at byte " << cut;
    reg = util::Status::Internal("closed");
    auto again = ArtifactRegistry::Open(torn, Capped(5.0));
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again.value()->Stats().discarded_tail_bytes, 0u)
        << "cut at byte " << cut;
    EXPECT_TRUE(again.value()->Resolve("pokec", "fresh").ok());
  }
}

TEST_F(RegistryTest, MidJournalCorruptionIsNotATornTail) {
  const std::string path = TempPath("midrot");
  {
    auto reg = ArtifactRegistry::Open(path, Capped(5.0));
    ASSERT_TRUE(reg.ok());
    ASSERT_TRUE(reg.value()->Put("lastfm", "a", TestArtifact(0.3)).ok());
    ASSERT_TRUE(reg.value()->Put("lastfm", "b", TestArtifact(0.5)).ok());
  }
  std::string bytes = ReadAll(path);
  // Flip one payload byte of the FIRST record. Truncating here would drop
  // the durable records behind it, so Open must refuse instead.
  bytes[30] = static_cast<char>(bytes[30] ^ 0x40);
  WriteAll(path, bytes);
  auto reg = ArtifactRegistry::Open(path, Capped(5.0));
  ASSERT_FALSE(reg.ok());
  EXPECT_EQ(reg.status().code(), util::StatusCode::kCorruption)
      << reg.status().ToString();
}

TEST_F(RegistryTest, ChecksummedRecordWithMistypedFieldIsCorruption) {
  const std::string path = TempPath("mistyped");
  { ASSERT_TRUE(ArtifactRegistry::Open(path, RegistryOptions{}).ok()); }
  const std::string header = ReadAll(path);
  // A frame: payload length and CRC32C (little-endian), then the payload.
  auto frame = [](const std::string& payload) {
    std::string out;
    for (const uint32_t word :
         {static_cast<uint32_t>(payload.size()),
          util::Crc32c(payload.data(), payload.size())}) {
      for (int shift = 0; shift < 32; shift += 8) {
        out += static_cast<char>((word >> shift) & 0xff);
      }
    }
    return out + payload;
  };
  const std::string charge =
      "{\"type\":\"charge\",\"dataset\":\"lastfm\",\"release_key\":\"7\",";
  WriteAll(path, header + frame(charge + "\"epsilon\":0.5}"));
  {
    auto reg = ArtifactRegistry::Open(path, RegistryOptions{});
    ASSERT_TRUE(reg.ok()) << reg.status().ToString();
    EXPECT_EQ(reg.value()->Stats().recovered_records, 1u);
  }
  // The same record with a string epsilon passes its CRC, so it is not a
  // torn tail: it is corruption.
  WriteAll(path, header + frame(charge + "\"epsilon\":\"0.5\"}"));
  auto reg = ArtifactRegistry::Open(path, RegistryOptions{});
  ASSERT_FALSE(reg.ok());
  EXPECT_EQ(reg.status().code(), util::StatusCode::kCorruption)
      << reg.status().ToString();
}

TEST_F(RegistryTest, HeaderDamageYieldsTypedErrors) {
  const std::string path = TempPath("header");
  {
    auto reg = ArtifactRegistry::Open(path, RegistryOptions{});
    ASSERT_TRUE(reg.ok());
    ASSERT_TRUE(reg.value()->ChargeTenant("alice", 1, 0.1).ok());
  }
  const std::string good = ReadAll(path);

  std::string bad = good;
  bad[0] = 'X';
  WriteAll(path, bad);
  EXPECT_EQ(ArtifactRegistry::Open(path, RegistryOptions{}).status().code(),
            util::StatusCode::kCorruption);

  // Bumping the version byte without fixing the CRC is a checksum error;
  // with a recomputed CRC it is a version error.
  bad = good;
  bad[8] = static_cast<char>(bad[8] + 1);
  WriteAll(path, bad);
  EXPECT_EQ(ArtifactRegistry::Open(path, RegistryOptions{}).status().code(),
            util::StatusCode::kChecksumMismatch);

  const uint32_t crc = util::Crc32c(bad.data(), 12);
  bad[12] = static_cast<char>(crc & 0xff);
  bad[13] = static_cast<char>((crc >> 8) & 0xff);
  bad[14] = static_cast<char>((crc >> 16) & 0xff);
  bad[15] = static_cast<char>((crc >> 24) & 0xff);
  WriteAll(path, bad);
  EXPECT_EQ(ArtifactRegistry::Open(path, RegistryOptions{}).status().code(),
            util::StatusCode::kVersionMismatch);

  // A sub-header fragment (crash during creation) restarts cleanly.
  WriteAll(path, good.substr(0, 9));
  auto reg = ArtifactRegistry::Open(path, RegistryOptions{});
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  EXPECT_EQ(reg.value()->Stats().discarded_tail_bytes, 9u);
}

TEST_F(RegistryTest, SecondOpenIsRefusedByTheLock) {
  const std::string path = TempPath("flock");
  auto first = ArtifactRegistry::Open(path, RegistryOptions{});
  ASSERT_TRUE(first.ok());
  auto second = ArtifactRegistry::Open(path, RegistryOptions{});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(),
            util::StatusCode::kFailedPrecondition)
      << second.status().ToString();
  // Releasing the first holder frees the file.
  first = util::Status::Internal("closed");
  EXPECT_TRUE(ArtifactRegistry::Open(path, RegistryOptions{}).ok());
}

TEST_F(RegistryTest, JournalFaultWoundsButStaysReadable) {
  const std::string path = TempPath("wounded");
  auto reg = ArtifactRegistry::Open(path, Capped(5.0));
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(reg.value()->Put("lastfm", "a", TestArtifact(0.3)).ok());

  ASSERT_TRUE(util::FaultInjector::Global()
                  .Arm("registry.charge.write", 1, util::FaultKind::kError)
                  .ok());
  auto st = reg.value()->Put("lastfm", "b", TestArtifact(0.5));
  EXPECT_EQ(st.code(), util::StatusCode::kIoError) << st.ToString();
  util::FaultInjector::Global().Reset();

  // Wounded: reads fine, every further mutation refused even though the
  // injector is disarmed — after a failed append the tail is untrusted.
  EXPECT_TRUE(reg.value()->Stats().wounded);
  EXPECT_TRUE(reg.value()->Resolve("lastfm", "a").ok());
  EXPECT_EQ(reg.value()->Put("lastfm", "c", TestArtifact(0.1)).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(reg.value()->ChargeTenant("alice", 1, 0.1).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(reg.value()->Checkpoint().code(),
            util::StatusCode::kFailedPrecondition);

  // Reopening recovers: the failed append never reached the file.
  reg = util::Status::Internal("closed");
  auto reopened = ArtifactRegistry::Open(path, Capped(5.0));
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(reopened.value()->Stats().wounded);
  EXPECT_NEAR(reopened.value()->Spent("lastfm"), 0.3, kTol);
  EXPECT_TRUE(reopened.value()->Put("lastfm", "c", TestArtifact(0.1)).ok());
}

TEST_F(RegistryTest, TornAppendLeavesARecoverableFile) {
  const std::string path = TempPath("torn_append");
  auto reg = ArtifactRegistry::Open(path, Capped(5.0));
  ASSERT_TRUE(reg.ok());
  const pipeline::ReleaseArtifact b = TestArtifact(0.5);

  // Tear the artifact-commit append: the charge before it is durable, the
  // half-written commit frame is a torn tail for the next recovery.
  ASSERT_TRUE(
      util::FaultInjector::Global()
          .Arm("registry.commit.write", 1, util::FaultKind::kTornWrite)
          .ok());
  auto st = reg.value()->Put("lastfm", "b", b);
  EXPECT_EQ(st.code(), util::StatusCode::kIoError) << st.ToString();
  util::FaultInjector::Global().Reset();
  EXPECT_TRUE(reg.value()->Stats().wounded);
  reg = util::Status::Internal("closed");

  auto reopened = ArtifactRegistry::Open(path, Capped(5.0));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // Over-counted, exactly as designed: the charge survived, the artifact
  // did not — and re-putting the same artifact is free, so nothing is
  // permanently lost.
  EXPECT_GT(reopened.value()->Stats().discarded_tail_bytes, 0u);
  EXPECT_NEAR(reopened.value()->Spent("lastfm"), 0.5, kTol);
  EXPECT_EQ(reopened.value()->Resolve("lastfm", "b").status().code(),
            util::StatusCode::kNotFound);
  ASSERT_TRUE(reopened.value()->Put("lastfm", "b", b).ok());
  EXPECT_NEAR(reopened.value()->Spent("lastfm"), 0.5, kTol);
  EXPECT_TRUE(reopened.value()->Resolve("lastfm", "b").ok());
}

TEST_F(RegistryTest, CheckpointFaultBeforeRenameDoesNotWound) {
  const std::string path = TempPath("ckpt_fault");
  auto reg = ArtifactRegistry::Open(path, Capped(5.0));
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(reg.value()->Put("lastfm", "a", TestArtifact(0.3)).ok());

  for (const char* point :
       {"registry.checkpoint.write", "registry.checkpoint.fsync",
        "registry.checkpoint.rename"}) {
    ASSERT_TRUE(util::FaultInjector::Global()
                    .Arm(point, 1, util::FaultKind::kError)
                    .ok());
    auto st = reg.value()->Checkpoint();
    EXPECT_EQ(st.code(), util::StatusCode::kIoError)
        << point << ": " << st.ToString();
    util::FaultInjector::Global().Reset();
    // A failed checkpoint never touched the live journal: not wounded,
    // still fully mutable.
    EXPECT_FALSE(reg.value()->Stats().wounded) << point;
  }
  ASSERT_TRUE(reg.value()->Put("lastfm", "b", TestArtifact(0.5)).ok());
  ASSERT_TRUE(reg.value()->Checkpoint().ok());
  EXPECT_NEAR(reg.value()->Spent("lastfm"), 0.8, kTol);
}

// The crash matrix: a forked child _exits inside every journaled fault
// point while mutating; the parent reopens the file and checks the
// acceptance invariant — the cap is still enforced and no acknowledged
// charge is lost.
TEST_F(RegistryTest, CrashAtEveryFaultPointNeverUndercounts) {
  const pipeline::ReleaseArtifact a = TestArtifact(0.69);
  const pipeline::ReleaseArtifact b = TestArtifact(0.3);
  const uint64_t key_b = pipeline::ReleaseArtifactReleaseKey(b);

  for (const char* point : kRegistryFaultPoints) {
    const std::string path = TempPath(std::string("crash_") + point);
    const std::string ack_put = path + ".ack_put";
    const std::string ack_tenant = path + ".ack_tenant";
    paths_.push_back(ack_put);
    paths_.push_back(ack_tenant);
    {
      auto reg = ArtifactRegistry::Open(path, Capped(1.0));
      ASSERT_TRUE(reg.ok()) << reg.status().ToString();
      ASSERT_TRUE(reg.value()->Put("lastfm", "a", a).ok());
    }

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // In the child: arm the crash, run a full mutation sequence, and
      // record which acknowledgements clients would have seen. _exit
      // everywhere — no gtest teardown in the child.
      if (!util::FaultInjector::Global()
               .Arm(point, 1, util::FaultKind::kExit)
               .ok()) {
        ::_exit(3);
      }
      auto reg = ArtifactRegistry::Open(path, Capped(1.0));
      if (!reg.ok()) ::_exit(4);
      if (reg.value()->Put("lastfm", "b", b).ok()) {
        ::close(::open(ack_put.c_str(), O_CREAT | O_WRONLY, 0644));
      }
      if (reg.value()->ChargeTenant("alice", key_b, 0.3).ok()) {
        ::close(::open(ack_tenant.c_str(), O_CREAT | O_WRONLY, 0644));
      }
      (void)reg.value()->Gc("lastfm", "b");
      (void)reg.value()->Checkpoint();
      ::_exit(0);  // the armed point was never reached — a test bug
    }

    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFEXITED(wstatus)) << point;
    ASSERT_EQ(WEXITSTATUS(wstatus), util::FaultInjector::kExitCode)
        << point << ": the child must die inside the armed fault point";

    auto reg = ArtifactRegistry::Open(path, Capped(1.0));
    ASSERT_TRUE(reg.ok()) << point << ": " << reg.status().ToString();
    // Never below what was acknowledged before the crash.
    double floor_spent = 0.69;
    if (::access(ack_put.c_str(), F_OK) == 0) floor_spent += 0.3;
    EXPECT_GE(reg.value()->Spent("lastfm") + kTol, floor_spent) << point;
    if (::access(ack_tenant.c_str(), F_OK) == 0) {
      bool found = false;
      for (const TenantChargeRow& row : reg.value()->TenantCharges()) {
        found |= row.tenant == "alice" && row.release_key == key_b;
      }
      EXPECT_TRUE(found)
          << point << ": acknowledged tenant charge lost by the crash";
    }
    // Re-putting b is free whether or not its charge survived…
    ASSERT_TRUE(reg.value()->Put("lastfm", "b", b).ok()) << point;
    EXPECT_NEAR(reg.value()->Spent("lastfm"), 0.99, kTol) << point;
    // …and the lifetime cap still holds.
    EXPECT_EQ(reg.value()->Put("lastfm", "c", TestArtifact(0.5)).code(),
              util::StatusCode::kResourceExhausted)
        << point;
  }
}

}  // namespace
}  // namespace agmdp::registry
