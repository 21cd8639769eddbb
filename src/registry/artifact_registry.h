// Crash-safe artifact registry: the durable source of truth for what was
// released and what it cost.
//
// A differential-privacy guarantee is a statement about *everything ever
// published* from a dataset, so the spend accounting has to outlive any
// process. The registry is a single file: a 16-byte checksummed header
// followed by an append-only journal of CRC32C-framed JSON records. Every
// mutation is journaled and fsynced before it takes effect in memory, and
// the epsilon charge for a release is journaled *before* the record that
// makes the artifact resolvable — so on any crash, recovery can under-count
// releases but never under-count spend. Recovery replays the journal,
// treats the first unparseable frame as a torn tail (truncates it away),
// and surfaces genuine damage earlier in the file as typed Corruption /
// ChecksumMismatch / VersionMismatch errors.
//
// Checkpoint() compacts the journal RocksDB-style: the full state is
// written to `path.tmp` as one checkpoint record, fsynced, renamed over the
// live file, and the directory fsynced — atomic on POSIX, and every step is
// a named fault point (see kRegistryFaultPoints) so the crash matrix is
// testable. A journal IO failure wounds the registry: it stays readable but
// refuses further mutations, because after a failed append the file's tail
// state is unknown.
//
// Concurrency: one exclusive flock per file (a second Open fails with a
// typed FailedPrecondition), one mutex inside the process.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/pipeline/release_artifact.h"
#include "src/util/status.h"

namespace agmdp::registry {

/// Bump when the journal layout changes incompatibly.
inline constexpr uint32_t kRegistryFormatVersion = 1;

/// Every journaled IO step, by fault-point name — the crash matrix the
/// recovery tests iterate (util::FaultInjector fires these).
inline constexpr const char* kRegistryFaultPoints[] = {
    "registry.charge.write",     "registry.charge.fsync",
    "registry.commit.write",     "registry.commit.fsync",
    "registry.tenant.write",     "registry.tenant.fsync",
    "registry.gc.write",         "registry.gc.fsync",
    "registry.checkpoint.write", "registry.checkpoint.fsync",
    "registry.checkpoint.rename",
};

struct RegistryOptions {
  /// Lifetime epsilon cap applied to datasets without an explicit entry in
  /// `dataset_caps`; <= 0 means uncapped.
  double default_dataset_cap = 0.0;
  /// Per-dataset cap overrides as (dataset, cap) pairs.
  std::vector<std::pair<std::string, double>> dataset_caps;
  /// Disable only in tests that measure pure journaling overhead; with
  /// fsync off a crash can lose acknowledged records.
  bool fsync = true;
};

/// One resolvable release, as listed by List().
struct ArtifactRow {
  std::string dataset;
  std::string name;
  std::string mechanism;
  std::string model;
  uint64_t release_key = 0;
  uint64_t config_fingerprint = 0;
  double epsilon = 0.0;
};

/// One release ever bound to a (dataset, name), in bind order — the
/// per-config fingerprint history behind `agmdp registry list`. Gc marks a
/// row superseded instead of dropping it: the release happened, and its
/// fingerprint/epsilon lineage stays auditable after the bytes are gone.
struct HistoryRow {
  std::string dataset;
  std::string name;
  std::string mechanism;
  std::string model;
  uint64_t release_key = 0;
  uint64_t config_fingerprint = 0;
  double epsilon = 0.0;
  /// False once the binding was gc'd (superseded).
  bool live = true;
};

/// Per-dataset budget posture.
struct DatasetRow {
  std::string dataset;
  double spent = 0.0;
  /// 0 = uncapped.
  double cap = 0.0;
  /// Currently resolvable artifacts (gc'd releases stay charged).
  uint64_t artifacts = 0;
};

/// One durable tenant charge, replayed into the server's TenantLedger.
struct TenantChargeRow {
  std::string tenant;
  uint64_t release_key = 0;
  double epsilon = 0.0;
};

struct RegistryStats {
  uint64_t artifacts = 0;
  uint64_t datasets = 0;
  uint64_t tenant_charges = 0;
  /// Journal records replayed at Open (0 for a fresh file).
  uint64_t recovered_records = 0;
  /// Bytes discarded from a torn tail at Open.
  uint64_t discarded_tail_bytes = 0;
  /// Records appended + fsyncs issued since Open.
  uint64_t appends = 0;
  uint64_t fsyncs = 0;
  uint64_t checkpoints = 0;
  /// Current journal size in bytes.
  uint64_t journal_bytes = 0;
  /// True after a journal IO failure: reads still work, mutations refuse.
  bool wounded = false;
};

/// \brief Single-file durable registry of releases and epsilon charges.
///
/// Thread-safe; all methods may be called concurrently.
class ArtifactRegistry {
 public:
  /// Opens (creating if absent) and recovers the registry at `path`.
  static util::Result<std::unique_ptr<ArtifactRegistry>> Open(
      const std::string& path, const RegistryOptions& options);

  ~ArtifactRegistry();

  ArtifactRegistry(const ArtifactRegistry&) = delete;
  ArtifactRegistry& operator=(const ArtifactRegistry&) = delete;

  /// Registers `artifact` under (dataset, name), charging its epsilon_spent
  /// against the dataset cap. Idempotent per release key: re-putting the
  /// identical artifact is OK and charges nothing. A different artifact
  /// under an existing name, or a different release under an existing
  /// config fingerprint, is FailedPrecondition; an over-cap charge is
  /// ResourceExhausted (and nothing is journaled).
  util::Status Put(const std::string& dataset, const std::string& name,
                   const pipeline::ReleaseArtifact& artifact);

  /// Looks up the artifact registered under (dataset, name). When
  /// `release_key` is non-null it receives the artifact's
  /// pipeline::ReleaseArtifactReleaseKey, which the entry holds, so the
  /// caller need not serialize the artifact to learn it.
  util::Result<pipeline::ReleaseArtifact> Resolve(
      const std::string& dataset, const std::string& name,
      uint64_t* release_key = nullptr) const;

  /// Drops (dataset, name) from the resolvable set. The epsilon charge
  /// REMAINS — the release happened; deleting the bytes does not refund the
  /// privacy loss. Re-putting the same artifact later is free.
  util::Status Gc(const std::string& dataset, const std::string& name);

  /// Durably records a tenant-ledger charge (idempotent per (tenant,
  /// release_key)). The server journals here before acknowledging a load.
  util::Status ChargeTenant(const std::string& tenant, uint64_t release_key,
                            double epsilon);

  /// Compacts the journal into a single checkpoint record via
  /// write-tmp + fsync + rename + fsync-dir.
  util::Status Checkpoint();

  /// Lifetime epsilon spent against / cap for `dataset` (cap 0 = uncapped).
  double Spent(const std::string& dataset) const;
  double Cap(const std::string& dataset) const;

  std::vector<ArtifactRow> List() const;
  /// Every release ever bound, in bind order, gc'd (superseded) rows
  /// included. Survives checkpoints and recovery.
  std::vector<HistoryRow> History() const;
  std::vector<DatasetRow> Datasets() const;
  std::vector<TenantChargeRow> TenantCharges() const;
  RegistryStats Stats() const;

  const std::string& path() const { return path_; }

 private:
  ArtifactRegistry(std::string path, RegistryOptions options);

  struct Entry {
    pipeline::ReleaseArtifact artifact;
    std::string artifact_json;
    uint64_t release_key = 0;
  };
  struct DatasetState {
    /// release_key -> epsilon, the idempotence record behind `spent`.
    std::unordered_map<uint64_t, double> charges;
    double spent = 0.0;
  };

  util::Status OpenFileLocked();
  util::Status RecoverLocked();
  util::Status ApplyRecordLocked(const std::string& payload);
  util::Status AppendRecordLocked(const std::string& payload,
                                  const char* point_prefix);
  std::string EncodeCheckpointLocked() const;
  util::Status MutableCheckLocked() const;
  double CapLocked(const std::string& dataset) const;
  void WoundLocked(const char* why);

  const std::string path_;
  const RegistryOptions options_;

  mutable std::mutex mu_;
  int fd_ = -1;
  uint64_t file_bytes_ = 0;
  bool wounded_ = false;

  /// (dataset, name) -> entry; key is dataset + '\n' + name.
  std::unordered_map<std::string, Entry> entries_;
  /// (dataset, fingerprint) -> release_key, the collision index.
  std::unordered_map<std::string, uint64_t> fingerprints_;
  std::unordered_map<std::string, DatasetState> dataset_state_;
  /// Bind-order release history (superseded rows included); rebuilt on
  /// replay and carried through checkpoints.
  std::vector<HistoryRow> history_;
  /// tenant -> release_key -> epsilon.
  std::unordered_map<std::string, std::unordered_map<uint64_t, double>>
      tenant_charges_;

  RegistryStats counters_;
};

}  // namespace agmdp::registry
