#include "src/registry/artifact_registry.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <tuple>

#include "src/util/checksum.h"
#include "src/util/fault_injector.h"
#include "src/util/json.h"

namespace agmdp::registry {
namespace {

// File layout: an 8-byte magic, a u32 format version, and a u32 CRC32C of
// the first 12 bytes; then zero or more frames of
// [u32 payload_len][u32 CRC32C(payload)][payload]. All integers little
// endian, encoded explicitly so the file is byte-portable.
constexpr char kMagic[8] = {'A', 'G', 'M', 'D', 'P', 'R', 'E', 'G'};
constexpr size_t kHeaderBytes = 16;
constexpr size_t kFrameHeaderBytes = 8;
// Sanity cap on one record; a frame length above this is treated as a torn
// tail, not a real record.
constexpr uint64_t kMaxRecordBytes = uint64_t{1} << 30;

// Spend comparisons tolerate the rounding of summed doubles, scaled to the
// cap so large budgets do not get a stricter relative test.
bool OverCap(double spent, double epsilon, double cap) {
  return spent + epsilon > cap + 1e-9 * std::max(1.0, cap);
}

void PutU32LE(std::string& out, uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t ReadU32LE(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

std::string EncodeHeader() {
  std::string header(kMagic, sizeof(kMagic));
  PutU32LE(header, kRegistryFormatVersion);
  PutU32LE(header, util::Crc32c(header.data(), header.size()));
  return header;
}

std::string EntryKey(const std::string& dataset, const std::string& name) {
  return dataset + '\n' + name;
}

std::string FingerprintKey(const std::string& dataset, uint64_t fingerprint) {
  return dataset + '\n' + std::to_string(fingerprint);
}

util::Status ValidateIdentifier(const char* what, const std::string& value) {
  if (value.empty()) {
    return util::Status::InvalidArgument(std::string(what) +
                                         " must be non-empty");
  }
  if (value.find('\n') != std::string::npos) {
    return util::Status::InvalidArgument(std::string(what) +
                                         " must not contain newlines");
  }
  return util::Status::OK();
}

util::Status WriteAll(int fd, const char* data, size_t size, uint64_t offset) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, data, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::Status::IoError(std::string("pwrite: ") +
                                   std::strerror(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return util::Status::OK();
}

util::Result<std::string> ReadWholeFile(int fd, uint64_t size) {
  std::string bytes(size, '\0');
  uint64_t offset = 0;
  while (offset < size) {
    const ssize_t n = ::pread(fd, bytes.data() + offset, size - offset,
                              static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::Status::IoError(std::string("pread: ") +
                                   std::strerror(errno));
    }
    if (n == 0) break;
    offset += static_cast<uint64_t>(n);
  }
  bytes.resize(offset);
  return bytes;
}

util::Status SyncDirectoryOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return util::Status::IoError("open directory '" + dir +
                                 "': " + std::strerror(errno));
  }
  util::Status st;
  if (::fsync(fd) != 0) {
    st = util::Status::IoError("fsync directory '" + dir +
                               "': " + std::strerror(errno));
  }
  ::close(fd);
  return st;
}

}  // namespace

ArtifactRegistry::ArtifactRegistry(std::string path, RegistryOptions options)
    : path_(std::move(path)), options_(std::move(options)) {}

ArtifactRegistry::~ArtifactRegistry() {
  if (fd_ >= 0) ::close(fd_);
}

util::Result<std::unique_ptr<ArtifactRegistry>> ArtifactRegistry::Open(
    const std::string& path, const RegistryOptions& options) {
  if (path.empty()) {
    return util::Status::InvalidArgument("registry path must be non-empty");
  }
  for (const auto& [dataset, cap] : options.dataset_caps) {
    if (auto st = ValidateIdentifier("dataset", dataset); !st.ok()) return st;
    if (!(cap >= 0.0)) {
      return util::Status::InvalidArgument("dataset cap for '" + dataset +
                                           "' must be >= 0");
    }
  }
  std::unique_ptr<ArtifactRegistry> registry(
      new ArtifactRegistry(path, options));
  std::lock_guard<std::mutex> lock(registry->mu_);
  if (auto st = registry->OpenFileLocked(); !st.ok()) return st;
  if (auto st = registry->RecoverLocked(); !st.ok()) return st;
  return registry;
}

util::Status ArtifactRegistry::OpenFileLocked() {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return util::Status::IoError("open registry '" + path_ +
                                 "': " + std::strerror(errno));
  }
  if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    if (err == EWOULDBLOCK) {
      return util::Status::FailedPrecondition(
          "registry '" + path_ + "' is locked by another process");
    }
    return util::Status::IoError("flock registry '" + path_ +
                                 "': " + std::strerror(err));
  }
  return util::Status::OK();
}

util::Status ArtifactRegistry::RecoverLocked() {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    return util::Status::IoError(std::string("fstat: ") +
                                 std::strerror(errno));
  }
  const auto size = static_cast<uint64_t>(st.st_size);

  if (size < kHeaderBytes) {
    // Either a fresh file or a crash during creation — no record can have
    // been acknowledged without a complete header, so starting over cannot
    // lose accounted spend.
    counters_.discarded_tail_bytes = size;
    if (::ftruncate(fd_, 0) != 0) {
      return util::Status::IoError(std::string("ftruncate: ") +
                                   std::strerror(errno));
    }
    const std::string header = EncodeHeader();
    if (auto ws = WriteAll(fd_, header.data(), header.size(), 0); !ws.ok()) {
      return ws;
    }
    if (options_.fsync && ::fsync(fd_) != 0) {
      return util::Status::IoError(std::string("fsync: ") +
                                   std::strerror(errno));
    }
    if (auto ds = SyncDirectoryOf(path_); options_.fsync && !ds.ok()) {
      return ds;
    }
    file_bytes_ = kHeaderBytes;
    counters_.journal_bytes = file_bytes_;
    return util::Status::OK();
  }

  auto bytes = ReadWholeFile(fd_, size);
  if (!bytes.ok()) return bytes.status();
  const std::string& data = bytes.value();
  if (data.size() != size) {
    return util::Status::IoError("short read of registry '" + path_ + "'");
  }

  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return util::Status::Corruption("registry '" + path_ +
                                    "' has a bad magic; not a registry file");
  }
  const uint32_t version = ReadU32LE(data.data() + 8);
  const uint32_t header_crc = ReadU32LE(data.data() + 12);
  if (header_crc != util::Crc32c(data.data(), 12)) {
    return util::Status::ChecksumMismatch("registry '" + path_ +
                                          "' header checksum mismatch");
  }
  if (version != kRegistryFormatVersion) {
    return util::Status::VersionMismatch(
        "registry '" + path_ + "' is format version " +
        std::to_string(version) + ", this build reads version " +
        std::to_string(kRegistryFormatVersion));
  }

  // Replay frames. The first frame that cannot be a complete, checksummed
  // record is a torn tail from an interrupted append: everything after the
  // last valid record is discarded. A frame whose checksum verifies but
  // whose payload is semantically invalid is genuine corruption — fsync'd
  // bytes do not spontaneously turn into valid CRC frames.
  uint64_t offset = kHeaderBytes;
  while (offset < size) {
    if (size - offset < kFrameHeaderBytes) break;
    const uint32_t payload_len = ReadU32LE(data.data() + offset);
    const uint32_t payload_crc = ReadU32LE(data.data() + offset + 4);
    if (payload_len == 0 || payload_len > kMaxRecordBytes) break;
    if (size - offset - kFrameHeaderBytes < payload_len) break;
    const char* payload = data.data() + offset + kFrameHeaderBytes;
    if (util::Crc32c(payload, payload_len) != payload_crc) break;
    if (auto st = ApplyRecordLocked(std::string(payload, payload_len));
        !st.ok()) {
      return st;
    }
    offset += kFrameHeaderBytes + payload_len;
    ++counters_.recovered_records;
  }

  if (offset < size) {
    // A torn append damages only the *end* of the journal. If any complete
    // checksummed frame exists beyond the bad bytes, the damage is in the
    // middle — bit rot, not a crash — and truncating would silently drop
    // durable records (possibly accounted spend). That must fail loudly.
    // The scan is byte-wise but only runs on the already-damaged path, and
    // a random 8-byte window matching its own CRC32C is a 2^-32 accident.
    for (uint64_t probe = offset + 1;
         probe + kFrameHeaderBytes <= size; ++probe) {
      const uint32_t len = ReadU32LE(data.data() + probe);
      const uint32_t crc = ReadU32LE(data.data() + probe + 4);
      if (len == 0 || len > kMaxRecordBytes) continue;
      if (size - probe - kFrameHeaderBytes < len) continue;
      if (util::Crc32c(data.data() + probe + kFrameHeaderBytes, len) != crc) {
        continue;
      }
      return util::Status::Corruption(
          "registry '" + path_ + "' record at offset " +
          std::to_string(offset) +
          " is damaged but a valid record follows at offset " +
          std::to_string(probe) +
          " — mid-journal corruption, not a torn tail; refusing to "
          "truncate away durable records");
    }
    counters_.discarded_tail_bytes = size - offset;
    if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
      return util::Status::IoError(std::string("ftruncate torn tail: ") +
                                   std::strerror(errno));
    }
    if (options_.fsync && ::fsync(fd_) != 0) {
      return util::Status::IoError(std::string("fsync: ") +
                                   std::strerror(errno));
    }
  }
  file_bytes_ = offset;
  counters_.journal_bytes = file_bytes_;
  return util::Status::OK();
}

util::Status ArtifactRegistry::ApplyRecordLocked(const std::string& payload) {
  util::JsonLimits limits;
  limits.max_bytes = payload.size();
  auto parsed = util::JsonValue::Parse(payload, limits);
  if (!parsed.ok()) {
    return util::Status::Corruption("registry record is not valid JSON: " +
                                    parsed.status().message());
  }
  const util::JsonValue& record = parsed.value();
  if (!record.is_object()) {
    return util::Status::Corruption("registry record is not a JSON object");
  }
  const util::JsonFields fields(util::StatusCode::kCorruption,
                                "registry record: ");
  auto type = fields.RequireString(record, "type");
  if (!type.ok()) return type.status();

  auto apply_charge = [this](const std::string& dataset, uint64_t key,
                             double epsilon) {
    DatasetState& state = dataset_state_[dataset];
    if (state.charges.emplace(key, epsilon).second) state.spent += epsilon;
  };
  auto append_history = [this](const std::string& dataset,
                               const std::string& name, const Entry& entry) {
    HistoryRow row;
    row.dataset = dataset;
    row.name = name;
    row.mechanism = entry.artifact.mechanism;
    row.model = entry.artifact.model;
    row.release_key = entry.release_key;
    row.config_fingerprint = entry.artifact.config_fingerprint;
    row.epsilon = entry.artifact.epsilon_spent;
    history_.push_back(std::move(row));
  };
  auto apply_artifact = [this, &append_history](
                            const std::string& dataset,
                            const std::string& name,
                            const std::string& artifact_json,
                            bool record_history) -> util::Status {
    auto artifact = pipeline::ReleaseArtifactFromJson(artifact_json);
    if (!artifact.ok()) {
      return util::Status::Corruption(
          "registry artifact record for '" + dataset + "/" + name +
          "' does not parse: " + artifact.status().message());
    }
    Entry entry;
    entry.artifact = std::move(artifact).value();
    entry.artifact_json = artifact_json;
    entry.release_key = pipeline::ReleaseArtifactReleaseKey(entry.artifact);
    fingerprints_[FingerprintKey(dataset,
                                 entry.artifact.config_fingerprint)] =
        entry.release_key;
    if (record_history) append_history(dataset, name, entry);
    entries_[EntryKey(dataset, name)] = std::move(entry);
    return util::Status::OK();
  };

  const std::string& kind = type.value();
  if (kind == "charge") {
    auto dataset = fields.RequireString(record, "dataset");
    auto key = fields.RequireUint64String(record, "release_key");
    auto epsilon = fields.RequireNumber(record, "epsilon");
    if (!dataset.ok()) return dataset.status();
    if (!key.ok()) return key.status();
    if (!epsilon.ok()) return epsilon.status();
    apply_charge(dataset.value(), key.value(), epsilon.value());
    return util::Status::OK();
  }
  if (kind == "artifact") {
    auto dataset = fields.RequireString(record, "dataset");
    auto name = fields.RequireString(record, "name");
    auto artifact_json = fields.RequireString(record, "artifact_json");
    if (!dataset.ok()) return dataset.status();
    if (!name.ok()) return name.status();
    if (!artifact_json.ok()) return artifact_json.status();
    return apply_artifact(dataset.value(), name.value(),
                          artifact_json.value(), /*record_history=*/true);
  }
  if (kind == "gc") {
    auto dataset = fields.RequireString(record, "dataset");
    auto name = fields.RequireString(record, "name");
    if (!dataset.ok()) return dataset.status();
    if (!name.ok()) return name.status();
    auto it = entries_.find(EntryKey(dataset.value(), name.value()));
    if (it != entries_.end()) {
      for (auto h = history_.rbegin(); h != history_.rend(); ++h) {
        if (h->live && h->dataset == dataset.value() &&
            h->name == name.value() &&
            h->release_key == it->second.release_key) {
          h->live = false;
          break;
        }
      }
      fingerprints_.erase(FingerprintKey(
          dataset.value(), it->second.artifact.config_fingerprint));
      entries_.erase(it);
    }
    return util::Status::OK();
  }
  if (kind == "tenant_charge") {
    auto tenant = fields.RequireString(record, "tenant");
    auto key = fields.RequireUint64String(record, "release_key");
    auto epsilon = fields.RequireNumber(record, "epsilon");
    if (!tenant.ok()) return tenant.status();
    if (!key.ok()) return key.status();
    if (!epsilon.ok()) return epsilon.status();
    tenant_charges_[tenant.value()].emplace(key.value(), epsilon.value());
    return util::Status::OK();
  }
  if (kind == "checkpoint") {
    entries_.clear();
    fingerprints_.clear();
    dataset_state_.clear();
    tenant_charges_.clear();
    history_.clear();
    const util::JsonValue* datasets = record.Find("datasets");
    const util::JsonValue* artifacts = record.Find("artifacts");
    const util::JsonValue* tenants = record.Find("tenants");
    if (datasets == nullptr || !datasets->is_array() || artifacts == nullptr ||
        !artifacts->is_array() || tenants == nullptr || !tenants->is_array()) {
      return util::Status::Corruption(
          "registry checkpoint record is missing its sections");
    }
    for (const util::JsonValue& row : datasets->array_items()) {
      auto dataset = fields.RequireString(row, "dataset");
      if (!dataset.ok()) return dataset.status();
      const util::JsonValue* charges = row.Find("charges");
      if (charges == nullptr || !charges->is_array()) {
        return util::Status::Corruption(
            "registry checkpoint dataset row has no charges array");
      }
      for (const util::JsonValue& charge : charges->array_items()) {
        auto key = fields.RequireUint64String(charge, "release_key");
        auto epsilon = fields.RequireNumber(charge, "epsilon");
        if (!key.ok()) return key.status();
        if (!epsilon.ok()) return epsilon.status();
        apply_charge(dataset.value(), key.value(), epsilon.value());
      }
    }
    for (const util::JsonValue& row : artifacts->array_items()) {
      auto dataset = fields.RequireString(row, "dataset");
      auto name = fields.RequireString(row, "name");
      auto artifact_json = fields.RequireString(row, "artifact_json");
      if (!dataset.ok()) return dataset.status();
      if (!name.ok()) return name.status();
      if (!artifact_json.ok()) return artifact_json.status();
      if (auto st = apply_artifact(dataset.value(), name.value(),
                                   artifact_json.value(),
                                   /*record_history=*/false);
          !st.ok()) {
        return st;
      }
    }
    for (const util::JsonValue& row : tenants->array_items()) {
      auto tenant = fields.RequireString(row, "tenant");
      if (!tenant.ok()) return tenant.status();
      const util::JsonValue* charges = row.Find("charges");
      if (charges == nullptr || !charges->is_array()) {
        return util::Status::Corruption(
            "registry checkpoint tenant row has no charges array");
      }
      for (const util::JsonValue& charge : charges->array_items()) {
        auto key = fields.RequireUint64String(charge, "release_key");
        auto epsilon = fields.RequireNumber(charge, "epsilon");
        if (!key.ok()) return key.status();
        if (!epsilon.ok()) return epsilon.status();
        tenant_charges_[tenant.value()].emplace(key.value(), epsilon.value());
      }
    }
    const util::JsonValue* history = record.Find("history");
    if (history != nullptr) {
      if (!history->is_array()) {
        return util::Status::Corruption(
            "registry checkpoint history section is not an array");
      }
      for (const util::JsonValue& row_json : history->array_items()) {
        auto dataset = fields.RequireString(row_json, "dataset");
        auto name = fields.RequireString(row_json, "name");
        auto mechanism = fields.RequireString(row_json, "mechanism");
        auto model = fields.RequireString(row_json, "model");
        auto key = fields.RequireUint64String(row_json, "release_key");
        auto fingerprint =
            fields.RequireUint64String(row_json, "config_fingerprint");
        auto epsilon = fields.RequireNumber(row_json, "epsilon");
        if (!dataset.ok()) return dataset.status();
        if (!name.ok()) return name.status();
        if (!mechanism.ok()) return mechanism.status();
        if (!model.ok()) return model.status();
        if (!key.ok()) return key.status();
        if (!fingerprint.ok()) return fingerprint.status();
        if (!epsilon.ok()) return epsilon.status();
        const util::JsonValue* live = row_json.Find("live");
        if (live == nullptr || !live->is_bool()) {
          return util::Status::Corruption(
              "registry checkpoint history row field 'live' missing or not "
              "a bool");
        }
        HistoryRow row;
        row.dataset = std::move(dataset).value();
        row.name = std::move(name).value();
        row.mechanism = std::move(mechanism).value();
        row.model = std::move(model).value();
        row.release_key = key.value();
        row.config_fingerprint = fingerprint.value();
        row.epsilon = epsilon.value();
        row.live = live->bool_value();
        history_.push_back(std::move(row));
      }
    } else {
      // Checkpoint written before the history section existed: the
      // superseded lineage is gone, so rebuild the best available history —
      // every currently-resolvable release, live, in sorted key order.
      std::vector<const std::string*> keys;
      keys.reserve(entries_.size());
      for (const auto& [key, entry] : entries_) keys.push_back(&key);
      std::sort(keys.begin(), keys.end(),
                [](const std::string* a, const std::string* b) {
                  return *a < *b;
                });
      for (const std::string* key : keys) {
        const Entry& entry = entries_.at(*key);
        const size_t sep = key->find('\n');
        append_history(key->substr(0, sep), key->substr(sep + 1), entry);
      }
    }
    return util::Status::OK();
  }
  return util::Status::Corruption("registry record has unknown type '" +
                                  kind + "'");
}

void ArtifactRegistry::WoundLocked(const char* why) {
  if (!wounded_) {
    std::fprintf(stderr,
                 "registry '%s' wounded (%s): mutations disabled until "
                 "reopen\n",
                 path_.c_str(), why);
  }
  wounded_ = true;
  counters_.wounded = true;
}

util::Status ArtifactRegistry::MutableCheckLocked() const {
  if (fd_ < 0) {
    return util::Status::FailedPrecondition("registry is not open");
  }
  if (wounded_) {
    return util::Status::FailedPrecondition(
        "registry '" + path_ +
        "' is wounded after a journal IO failure; reopen to recover");
  }
  return util::Status::OK();
}

util::Status ArtifactRegistry::AppendRecordLocked(const std::string& payload,
                                                  const char* point_prefix) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32LE(frame, static_cast<uint32_t>(payload.size()));
  PutU32LE(frame, util::Crc32c(payload.data(), payload.size()));
  frame.append(payload);

  const std::string write_point = std::string(point_prefix) + ".write";
  const std::string fsync_point = std::string(point_prefix) + ".fsync";

  if (util::FaultAction fault = util::PollFault(write_point.c_str());
      fault.fire) {
    if (fault.kind == util::FaultKind::kTornWrite) {
      // Leave exactly what a power loss mid-append would: a prefix of the
      // frame, including a frame header whose length promises bytes that
      // never arrived.
      const size_t torn = frame.size() / 2;
      (void)WriteAll(fd_, frame.data(), torn, file_bytes_);
      if (options_.fsync) (void)::fsync(fd_);
    }
    WoundLocked(write_point.c_str());
    return util::Status::IoError("injected fault at '" + write_point + "'");
  }
  if (auto st = WriteAll(fd_, frame.data(), frame.size(), file_bytes_);
      !st.ok()) {
    WoundLocked("append write failed");
    return st;
  }
  if (util::FaultAction fault = util::PollFault(fsync_point.c_str());
      fault.fire) {
    WoundLocked(fsync_point.c_str());
    return util::Status::IoError("injected fault at '" + fsync_point + "'");
  }
  if (options_.fsync) {
    if (::fsync(fd_) != 0) {
      WoundLocked("append fsync failed");
      return util::Status::IoError(std::string("fsync: ") +
                                   std::strerror(errno));
    }
    ++counters_.fsyncs;
  }
  file_bytes_ += frame.size();
  counters_.journal_bytes = file_bytes_;
  ++counters_.appends;
  return util::Status::OK();
}

util::Status ArtifactRegistry::Put(const std::string& dataset,
                                   const std::string& name,
                                   const pipeline::ReleaseArtifact& artifact) {
  if (auto st = ValidateIdentifier("dataset", dataset); !st.ok()) return st;
  if (auto st = ValidateIdentifier("name", name); !st.ok()) return st;
  if (auto st = pipeline::ValidateReleaseArtifact(artifact); !st.ok()) {
    return st;
  }
  const std::string artifact_json = pipeline::ReleaseArtifactToJson(artifact);
  const uint64_t release_key = pipeline::ReleaseArtifactReleaseKey(artifact);
  const double epsilon = artifact.epsilon_spent;

  std::lock_guard<std::mutex> lock(mu_);
  if (auto st = MutableCheckLocked(); !st.ok()) return st;

  if (auto it = entries_.find(EntryKey(dataset, name));
      it != entries_.end()) {
    if (it->second.release_key == release_key) return util::Status::OK();
    return util::Status::FailedPrecondition(
        "registry name '" + dataset + "/" + name +
        "' is bound to a different release; gc it first or pick a new name");
  }
  if (auto it = fingerprints_.find(
          FingerprintKey(dataset, artifact.config_fingerprint));
      it != fingerprints_.end() && it->second != release_key) {
    return util::Status::FailedPrecondition(
        "dataset '" + dataset + "' already holds a different release fitted "
        "under config fingerprint " +
        std::to_string(artifact.config_fingerprint) +
        " — refitting the same config burns budget without a new name");
  }

  auto ds = dataset_state_.find(dataset);
  const bool already_charged =
      ds != dataset_state_.end() && ds->second.charges.count(release_key) > 0;
  if (!already_charged) {
    const double cap = CapLocked(dataset);
    const double spent = ds == dataset_state_.end() ? 0.0 : ds->second.spent;
    if (cap > 0.0 && OverCap(spent, epsilon, cap)) {
      return util::Status::ResourceExhausted(
          "dataset '" + dataset + "' lifetime epsilon cap exhausted: spent " +
          std::to_string(spent) + " + " + std::to_string(epsilon) + " > cap " +
          std::to_string(cap));
    }
    // Charge first, commit second: if we crash between the two appends the
    // recovered registry holds the spend with no resolvable artifact —
    // over-counting is safe, under-counting would break the DP guarantee.
    util::JsonWriter charge;
    charge.BeginObject();
    charge.Key("type").Value("charge");
    charge.Key("dataset").Value(dataset);
    charge.Key("name").Value(name);
    charge.Key("release_key").Value(std::to_string(release_key));
    charge.Key("epsilon").ValueExact(epsilon);
    charge.EndObject();
    if (auto st = AppendRecordLocked(charge.Finish(), "registry.charge");
        !st.ok()) {
      return st;
    }
    DatasetState& state = dataset_state_[dataset];
    state.charges.emplace(release_key, epsilon);
    state.spent += epsilon;
  }

  util::JsonWriter commit;
  commit.BeginObject();
  commit.Key("type").Value("artifact");
  commit.Key("dataset").Value(dataset);
  commit.Key("name").Value(name);
  commit.Key("artifact_json").Value(artifact_json);
  commit.EndObject();
  if (auto st = AppendRecordLocked(commit.Finish(), "registry.commit");
      !st.ok()) {
    return st;
  }

  Entry entry;
  entry.artifact = artifact;
  entry.artifact_json = artifact_json;
  entry.release_key = release_key;
  fingerprints_[FingerprintKey(dataset, artifact.config_fingerprint)] =
      release_key;
  entries_[EntryKey(dataset, name)] = std::move(entry);
  HistoryRow history_row;
  history_row.dataset = dataset;
  history_row.name = name;
  history_row.mechanism = artifact.mechanism;
  history_row.model = artifact.model;
  history_row.release_key = release_key;
  history_row.config_fingerprint = artifact.config_fingerprint;
  history_row.epsilon = epsilon;
  history_.push_back(std::move(history_row));
  return util::Status::OK();
}

util::Result<pipeline::ReleaseArtifact> ArtifactRegistry::Resolve(
    const std::string& dataset, const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(EntryKey(dataset, name));
  if (it == entries_.end()) {
    return util::Status::NotFound("registry has no release '" + dataset +
                                  "/" + name + "'");
  }
  return it->second.artifact;
}

util::Status ArtifactRegistry::Gc(const std::string& dataset,
                                  const std::string& name) {
  if (auto st = ValidateIdentifier("dataset", dataset); !st.ok()) return st;
  if (auto st = ValidateIdentifier("name", name); !st.ok()) return st;
  std::lock_guard<std::mutex> lock(mu_);
  if (auto st = MutableCheckLocked(); !st.ok()) return st;
  auto it = entries_.find(EntryKey(dataset, name));
  if (it == entries_.end()) {
    return util::Status::NotFound("registry has no release '" + dataset +
                                  "/" + name + "'");
  }
  util::JsonWriter record;
  record.BeginObject();
  record.Key("type").Value("gc");
  record.Key("dataset").Value(dataset);
  record.Key("name").Value(name);
  record.EndObject();
  if (auto st = AppendRecordLocked(record.Finish(), "registry.gc"); !st.ok()) {
    return st;
  }
  for (auto h = history_.rbegin(); h != history_.rend(); ++h) {
    if (h->live && h->dataset == dataset && h->name == name &&
        h->release_key == it->second.release_key) {
      h->live = false;
      break;
    }
  }
  fingerprints_.erase(
      FingerprintKey(dataset, it->second.artifact.config_fingerprint));
  entries_.erase(it);
  return util::Status::OK();
}

util::Status ArtifactRegistry::ChargeTenant(const std::string& tenant,
                                            uint64_t release_key,
                                            double epsilon) {
  if (auto st = ValidateIdentifier("tenant", tenant); !st.ok()) return st;
  if (!(epsilon >= 0.0)) {
    return util::Status::InvalidArgument("tenant charge must be >= 0");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (auto st = MutableCheckLocked(); !st.ok()) return st;
  auto& charges = tenant_charges_[tenant];
  if (charges.count(release_key) > 0) return util::Status::OK();
  util::JsonWriter record;
  record.BeginObject();
  record.Key("type").Value("tenant_charge");
  record.Key("tenant").Value(tenant);
  record.Key("release_key").Value(std::to_string(release_key));
  record.Key("epsilon").ValueExact(epsilon);
  record.EndObject();
  if (auto st = AppendRecordLocked(record.Finish(), "registry.tenant");
      !st.ok()) {
    return st;
  }
  charges.emplace(release_key, epsilon);
  return util::Status::OK();
}

std::string ArtifactRegistry::EncodeCheckpointLocked() const {
  // Sort every section so the checkpoint bytes are a deterministic function
  // of the logical state (the unordered_map iteration order is not).
  std::vector<std::string> dataset_names;
  dataset_names.reserve(dataset_state_.size());
  for (const auto& [dataset, state] : dataset_state_) {
    dataset_names.push_back(dataset);
  }
  std::sort(dataset_names.begin(), dataset_names.end());

  std::vector<const std::string*> entry_keys;
  entry_keys.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) entry_keys.push_back(&key);
  std::sort(entry_keys.begin(), entry_keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });

  std::vector<std::string> tenant_names;
  tenant_names.reserve(tenant_charges_.size());
  for (const auto& [tenant, charges] : tenant_charges_) {
    tenant_names.push_back(tenant);
  }
  std::sort(tenant_names.begin(), tenant_names.end());

  auto sorted_charges =
      [](const std::unordered_map<uint64_t, double>& charges) {
        std::vector<std::pair<uint64_t, double>> rows(charges.begin(),
                                                      charges.end());
        std::sort(rows.begin(), rows.end());
        return rows;
      };

  util::JsonWriter json;
  json.BeginObject();
  json.Key("type").Value("checkpoint");
  json.Key("datasets").BeginArray();
  for (const std::string& dataset : dataset_names) {
    const DatasetState& state = dataset_state_.at(dataset);
    json.BeginObject();
    json.Key("dataset").Value(dataset);
    json.Key("charges").BeginArray();
    for (const auto& [key, epsilon] : sorted_charges(state.charges)) {
      json.BeginObject();
      json.Key("release_key").Value(std::to_string(key));
      json.Key("epsilon").ValueExact(epsilon);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("artifacts").BeginArray();
  for (const std::string* key : entry_keys) {
    const Entry& entry = entries_.at(*key);
    const size_t sep = key->find('\n');
    json.BeginObject();
    json.Key("dataset").Value(key->substr(0, sep));
    json.Key("name").Value(key->substr(sep + 1));
    json.Key("artifact_json").Value(entry.artifact_json);
    json.EndObject();
  }
  json.EndArray();
  json.Key("tenants").BeginArray();
  for (const std::string& tenant : tenant_names) {
    json.BeginObject();
    json.Key("tenant").Value(tenant);
    json.Key("charges").BeginArray();
    for (const auto& [key, epsilon] :
         sorted_charges(tenant_charges_.at(tenant))) {
      json.BeginObject();
      json.Key("release_key").Value(std::to_string(key));
      json.Key("epsilon").ValueExact(epsilon);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  // History travels in bind order (already deterministic — it was built by
  // deterministic journal replay), so superseded lineage survives
  // compaction.
  json.Key("history").BeginArray();
  for (const HistoryRow& row : history_) {
    json.BeginObject();
    json.Key("dataset").Value(row.dataset);
    json.Key("name").Value(row.name);
    json.Key("mechanism").Value(row.mechanism);
    json.Key("model").Value(row.model);
    json.Key("release_key").Value(std::to_string(row.release_key));
    json.Key("config_fingerprint")
        .Value(std::to_string(row.config_fingerprint));
    json.Key("epsilon").ValueExact(row.epsilon);
    json.Key("live").Value(row.live);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.Finish();
}

util::Status ArtifactRegistry::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto st = MutableCheckLocked(); !st.ok()) return st;

  const std::string payload = EncodeCheckpointLocked();
  std::string bytes = EncodeHeader();
  PutU32LE(bytes, static_cast<uint32_t>(payload.size()));
  PutU32LE(bytes, util::Crc32c(payload.data(), payload.size()));
  bytes.append(payload);

  // A failure before the rename leaves the live journal untouched: clean up
  // the tmp file and stay healthy. After the rename the live file has
  // changed under us, so any later failure wounds the registry.
  const std::string tmp = path_ + ".tmp";
  const int tmp_fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) {
    return util::Status::IoError("open '" + tmp +
                                 "': " + std::strerror(errno));
  }
  auto fail_before_rename = [&](util::Status st) {
    ::close(tmp_fd);
    ::unlink(tmp.c_str());
    return st;
  };
  if (util::FaultAction fault = util::PollFault("registry.checkpoint.write");
      fault.fire) {
    if (fault.kind == util::FaultKind::kTornWrite) {
      (void)WriteAll(tmp_fd, bytes.data(), bytes.size() / 2, 0);
    }
    return fail_before_rename(util::Status::IoError(
        "injected fault at 'registry.checkpoint.write'"));
  }
  if (auto st = WriteAll(tmp_fd, bytes.data(), bytes.size(), 0); !st.ok()) {
    return fail_before_rename(std::move(st));
  }
  if (util::FaultAction fault = util::PollFault("registry.checkpoint.fsync");
      fault.fire) {
    return fail_before_rename(util::Status::IoError(
        "injected fault at 'registry.checkpoint.fsync'"));
  }
  if (options_.fsync && ::fsync(tmp_fd) != 0) {
    return fail_before_rename(util::Status::IoError(
        std::string("fsync '") + tmp + "': " + std::strerror(errno)));
  }
  ::close(tmp_fd);

  if (util::FaultAction fault = util::PollFault("registry.checkpoint.rename");
      fault.fire) {
    ::unlink(tmp.c_str());
    return util::Status::IoError(
        "injected fault at 'registry.checkpoint.rename'");
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    const util::Status st = util::Status::IoError(
        "rename '" + tmp + "' over '" + path_ + "': " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return st;
  }
  if (auto st = SyncDirectoryOf(path_); options_.fsync && !st.ok()) {
    WoundLocked("checkpoint directory fsync failed");
    return st;
  }

  // The old fd points at the replaced inode; move the handle (and the
  // exclusive flock) to the new file.
  const int new_fd = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  if (new_fd < 0) {
    WoundLocked("reopen after checkpoint failed");
    return util::Status::IoError("reopen '" + path_ +
                                 "': " + std::strerror(errno));
  }
  if (::flock(new_fd, LOCK_EX | LOCK_NB) != 0) {
    const util::Status st = util::Status::IoError(
        "flock after checkpoint '" + path_ + "': " + std::strerror(errno));
    ::close(new_fd);
    WoundLocked("flock after checkpoint failed");
    return st;
  }
  ::close(fd_);
  fd_ = new_fd;
  file_bytes_ = bytes.size();
  counters_.journal_bytes = file_bytes_;
  ++counters_.checkpoints;
  if (options_.fsync) ++counters_.fsyncs;
  return util::Status::OK();
}

double ArtifactRegistry::CapLocked(const std::string& dataset) const {
  for (const auto& [name, cap] : options_.dataset_caps) {
    if (name == dataset) return cap;
  }
  return options_.default_dataset_cap > 0.0 ? options_.default_dataset_cap
                                            : 0.0;
}

double ArtifactRegistry::Spent(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dataset_state_.find(dataset);
  return it == dataset_state_.end() ? 0.0 : it->second.spent;
}

double ArtifactRegistry::Cap(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mu_);
  return CapLocked(dataset);
}

std::vector<ArtifactRow> ArtifactRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ArtifactRow> rows;
  rows.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    const size_t sep = key.find('\n');
    ArtifactRow row;
    row.dataset = key.substr(0, sep);
    row.name = key.substr(sep + 1);
    row.mechanism = entry.artifact.mechanism;
    row.model = entry.artifact.model;
    row.release_key = entry.release_key;
    row.config_fingerprint = entry.artifact.config_fingerprint;
    row.epsilon = entry.artifact.epsilon_spent;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const ArtifactRow& a, const ArtifactRow& b) {
              return std::tie(a.dataset, a.name) < std::tie(b.dataset, b.name);
            });
  return rows;
}

std::vector<HistoryRow> ArtifactRegistry::History() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

std::vector<DatasetRow> ArtifactRegistry::Datasets() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DatasetRow> rows;
  rows.reserve(dataset_state_.size());
  for (const auto& [dataset, state] : dataset_state_) {
    DatasetRow row;
    row.dataset = dataset;
    row.spent = state.spent;
    row.cap = CapLocked(dataset);
    rows.push_back(std::move(row));
  }
  for (const auto& [key, entry] : entries_) {
    const std::string dataset = key.substr(0, key.find('\n'));
    for (DatasetRow& row : rows) {
      if (row.dataset == dataset) {
        ++row.artifacts;
        break;
      }
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const DatasetRow& a, const DatasetRow& b) {
              return a.dataset < b.dataset;
            });
  return rows;
}

std::vector<TenantChargeRow> ArtifactRegistry::TenantCharges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantChargeRow> rows;
  for (const auto& [tenant, charges] : tenant_charges_) {
    for (const auto& [key, epsilon] : charges) {
      rows.push_back(TenantChargeRow{tenant, key, epsilon});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const TenantChargeRow& a, const TenantChargeRow& b) {
              return std::tie(a.tenant, a.release_key) <
                     std::tie(b.tenant, b.release_key);
            });
  return rows;
}

RegistryStats ArtifactRegistry::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistryStats stats = counters_;
  stats.artifacts = entries_.size();
  stats.datasets = dataset_state_.size();
  stats.tenant_charges = 0;
  for (const auto& [tenant, charges] : tenant_charges_) {
    stats.tenant_charges += charges.size();
  }
  stats.wounded = wounded_;
  stats.journal_bytes = file_bytes_;
  return stats;
}

}  // namespace agmdp::registry
