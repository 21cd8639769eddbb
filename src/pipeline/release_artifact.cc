#include "src/pipeline/release_artifact.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/util/json.h"

namespace agmdp::pipeline {

namespace {

constexpr char kSchemaName[] = "agmdp.release-artifact";

util::Status Invalid(const std::string& what) {
  return util::Status::InvalidArgument("release artifact: " + what);
}

util::Status CheckSchemaVersion(int version) {
  if (version != kReleaseArtifactSchemaVersion) {
    return Invalid("schema version " + std::to_string(version) +
                   " is not supported (this build reads version " +
                   std::to_string(kReleaseArtifactSchemaVersion) + ")");
  }
  return util::Status::OK();
}

// ------------------------------------------------- typed JSON field access

util::Result<const util::JsonValue*> Require(const util::JsonValue& object,
                                             const std::string& key) {
  const util::JsonValue* field = object.Find(key);
  if (field == nullptr) return Invalid("missing field '" + key + "'");
  return field;
}

util::Result<double> RequireNumber(const util::JsonValue& object,
                                   const std::string& key) {
  auto field = Require(object, key);
  if (!field.ok()) return field.status();
  if (!field.value()->is_number()) {
    return Invalid("field '" + key + "' must be a number");
  }
  return field.value()->number_value();
}

util::Result<std::string> RequireString(const util::JsonValue& object,
                                        const std::string& key) {
  auto field = Require(object, key);
  if (!field.ok()) return field.status();
  if (!field.value()->is_string()) {
    return Invalid("field '" + key + "' must be a string");
  }
  return field.value()->string_value();
}

util::Result<int> RequireInt(const util::JsonValue& object,
                             const std::string& key) {
  auto number = RequireNumber(object, key);
  if (!number.ok()) return number.status();
  const double value = number.value();
  if (value != std::floor(value) || std::fabs(value) > 1e9) {
    return Invalid("field '" + key + "' must be a small integer");
  }
  return static_cast<int>(value);
}

// uint64 values travel as decimal strings: JSON numbers are doubles and
// lose integers above 2^53.
util::Result<uint64_t> RequireUint64String(const util::JsonValue& object,
                                           const std::string& key) {
  auto text = RequireString(object, key);
  if (!text.ok()) return text.status();
  const std::string& s = text.value();
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return Invalid("field '" + key + "' must be a decimal uint64 string");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') {
    return Invalid("field '" + key + "' overflows uint64");
  }
  return static_cast<uint64_t>(value);
}

}  // namespace

ReleaseArtifact MakeReleaseArtifact(const FitResult& fit,
                                    const PipelineConfig& config) {
  ReleaseArtifact artifact = MakeReleaseArtifact(fit.params, config);
  artifact.ledger = fit.ledger;
  artifact.epsilon_budget = fit.epsilon_budget;
  artifact.epsilon_spent = fit.epsilon_spent;
  return artifact;
}

ReleaseArtifact MakeReleaseArtifact(const agm::AgmParams& params,
                                    const PipelineConfig& config) {
  ReleaseArtifact artifact;
  artifact.mechanism = config.mechanism;
  artifact.model = config.model;
  artifact.config_fingerprint = config.Fingerprint();
  artifact.params = params;
  artifact.acceptance_iterations = config.sample.acceptance_iterations;
  artifact.acceptance_tolerance = config.sample.acceptance_tolerance;
  artifact.min_acceptance = config.sample.min_acceptance;
  return artifact;
}

namespace {

// Shape/value checks of the community_dp payload: a private partition of n
// nodes into num_blocks communities, a noised count per unordered block
// pair, and a per-block attribute-config histogram each alias-samplable
// (non-negative, finite, positive row sum).
util::Status ValidateCommunityPayload(const ReleaseArtifact& artifact) {
  const MechanismPayload& p = artifact.payload;
  const size_t n = p.node_blocks.size();
  const size_t blocks = p.num_blocks;
  if (blocks == 0 || n == 0) {
    return Invalid("community_dp payload needs num_blocks >= 1 and a "
                   "non-empty node partition");
  }
  for (uint32_t block : p.node_blocks) {
    if (block >= blocks) {
      return Invalid("community_dp node_blocks entry out of range");
    }
  }
  if (p.block_edges.size() != blocks * (blocks + 1) / 2) {
    return Invalid("community_dp block_edges must have one entry per "
                   "unordered block pair");
  }
  for (double count : p.block_edges) {
    if (!std::isfinite(count) || count < 0.0) {
      return Invalid("community_dp block_edges must be finite and "
                     "non-negative");
    }
  }
  if (artifact.params.w < 0 || artifact.params.w > 20) {
    return Invalid("community_dp payload needs 0 <= w <= 20");
  }
  const size_t configs = size_t{1} << artifact.params.w;
  if (p.block_attr.size() != blocks * configs) {
    return Invalid("community_dp block_attr must be num_blocks * 2^w");
  }
  for (size_t b = 0; b < blocks; ++b) {
    double row_sum = 0.0;
    for (size_t y = 0; y < configs; ++y) {
      const double mass = p.block_attr[b * configs + y];
      if (!std::isfinite(mass) || mass < 0.0) {
        return Invalid("community_dp block_attr must be finite and "
                       "non-negative");
      }
      row_sum += mass;
    }
    if (row_sum <= 0.0) {
      return Invalid("community_dp block_attr row " + std::to_string(b) +
                     " has no mass");
    }
  }
  return util::Status::OK();
}

// kanon_baseline is syntactic: it must assert *zero* epsilon spend (the
// "equivalent protection" ledger is epsilon-free) and a well-formed
// grouping of the anonymized degree sequence.
util::Status ValidateKanonPayload(const ReleaseArtifact& artifact) {
  const MechanismPayload& p = artifact.payload;
  if (!artifact.ledger.empty() || artifact.epsilon_budget != 0.0 ||
      artifact.epsilon_spent != 0.0) {
    return Invalid("kanon_baseline artifacts must carry zero epsilon spend "
                   "and an empty ledger");
  }
  if (p.k_anonymity < 2) {
    return Invalid("kanon_baseline needs k_anonymity >= 2");
  }
  if (!std::isfinite(p.t_closeness) || p.t_closeness < 0.0 ||
      p.t_closeness > 1.0) {
    return Invalid("kanon_baseline needs t_closeness in [0, 1]");
  }
  const size_t n = artifact.params.degree_sequence.size();
  if (n == 0 || p.node_blocks.size() != n) {
    return Invalid("kanon_baseline payload needs one anonymity group per "
                   "degree-sequence entry");
  }
  if (p.num_blocks == 0) {
    return Invalid("kanon_baseline payload needs num_blocks >= 1");
  }
  for (uint32_t block : p.node_blocks) {
    if (block >= p.num_blocks) {
      return Invalid("kanon_baseline node_blocks entry out of range");
    }
  }
  if (artifact.params.w < 0 || artifact.params.w > 20) {
    return Invalid("kanon_baseline payload needs 0 <= w <= 20");
  }
  const size_t configs = size_t{1} << artifact.params.w;
  if (p.block_attr.size() != size_t{p.num_blocks} * configs) {
    return Invalid("kanon_baseline block_attr must be num_blocks * 2^w");
  }
  for (size_t b = 0; b < p.num_blocks; ++b) {
    double row_sum = 0.0;
    for (size_t y = 0; y < configs; ++y) {
      const double mass = p.block_attr[b * configs + y];
      if (!std::isfinite(mass) || mass < 0.0) {
        return Invalid("kanon_baseline block_attr must be finite and "
                       "non-negative");
      }
      row_sum += mass;
    }
    if (row_sum <= 0.0) {
      return Invalid("kanon_baseline block_attr row " + std::to_string(b) +
                     " has no mass");
    }
  }
  for (uint32_t d : artifact.params.degree_sequence) {
    if (d >= n) {
      return Invalid("kanon_baseline anonymized degree exceeds n - 1");
    }
  }
  return util::Status::OK();
}

}  // namespace

util::Status ValidateReleaseArtifact(const ReleaseArtifact& artifact) {
  if (auto st = CheckSchemaVersion(artifact.schema_version); !st.ok()) {
    return st;
  }
  // The mechanism tag gates everything downstream (engine construction,
  // registry rows, sweep cells), so an unknown tag is rejected here — at
  // every read boundary — with the set of tags this build can serve.
  if (!mechanisms::IsKnownMechanismTag(artifact.mechanism)) {
    return Invalid("unknown mechanism '" + artifact.mechanism +
                   "' (this build serves: " +
                   mechanisms::KnownMechanismTagList() + ")");
  }
  if (artifact.model.empty()) return Invalid("empty model name");
  if (!std::isfinite(artifact.epsilon_budget) ||
      artifact.epsilon_budget < 0.0 ||
      !std::isfinite(artifact.epsilon_spent) || artifact.epsilon_spent < 0.0) {
    return Invalid("epsilon budget/spent must be finite and non-negative");
  }
  double ledger_sum = 0.0;
  for (const auto& [stage, epsilon] : artifact.ledger) {
    if (stage.empty() || !std::isfinite(epsilon) || epsilon <= 0.0) {
      return Invalid("ledger entries need a stage name and positive epsilon");
    }
    ledger_sum += epsilon;
  }
  // The privacy-accounting fields are what an auditor reads, so they must
  // be mutually consistent: the ledger's spends are the spend, and nothing
  // can spend beyond the budget. (Tolerance covers re-summation order;
  // values themselves round-trip bit-exactly.)
  const double tolerance = 1e-9 * std::max(1.0, artifact.epsilon_budget);
  if (std::fabs(ledger_sum - artifact.epsilon_spent) > tolerance) {
    return Invalid("ledger sums to " + std::to_string(ledger_sum) +
                   " but epsilon_spent claims " +
                   std::to_string(artifact.epsilon_spent));
  }
  if (artifact.epsilon_spent > artifact.epsilon_budget + tolerance) {
    return Invalid("epsilon_spent exceeds epsilon_budget");
  }
  if (auto st = ValidateAcceptanceKnobs(artifact.acceptance_iterations,
                                        artifact.acceptance_tolerance,
                                        artifact.min_acceptance);
      !st.ok()) {
    return st;
  }
  if (artifact.mechanism == "agm") {
    if (!artifact.payload.Empty()) {
      return Invalid("agm artifacts must not carry a mechanism payload");
    }
    return agm::ValidateAgmParams(artifact.params);
  }
  if (artifact.mechanism == "community_dp") {
    return ValidateCommunityPayload(artifact);
  }
  return ValidateKanonPayload(artifact);
}

namespace {

// The one serialization of an artifact, into either an in-memory or a
// streaming writer.
void EmitReleaseArtifact(const ReleaseArtifact& artifact,
                         util::JsonWriter& json) {
  json.BeginObject();
  json.Key("schema").Value(kSchemaName);
  json.Key("schema_version").Value(artifact.schema_version);
  json.Key("model").Value(artifact.model);
  json.Key("mechanism").Value(artifact.mechanism);
  json.Key("config_fingerprint")
      .Value(std::to_string(artifact.config_fingerprint));
  json.Key("epsilon_budget").ValueExact(artifact.epsilon_budget);
  json.Key("epsilon_spent").ValueExact(artifact.epsilon_spent);
  json.Key("ledger").BeginArray();
  for (const auto& [stage, epsilon] : artifact.ledger) {
    json.BeginObject();
    json.Key("stage").Value(stage);
    json.Key("epsilon").ValueExact(epsilon);
    json.EndObject();
  }
  json.EndArray();
  json.Key("sample_defaults").BeginObject();
  json.Key("acceptance_iterations").Value(artifact.acceptance_iterations);
  json.Key("acceptance_tolerance").ValueExact(artifact.acceptance_tolerance);
  json.Key("min_acceptance").ValueExact(artifact.min_acceptance);
  json.EndObject();
  json.Key("params").BeginObject();
  json.Key("w").Value(artifact.params.w);
  json.Key("theta_x").BeginArray();
  for (double p : artifact.params.theta_x) json.ValueExact(p);
  json.EndArray();
  json.Key("theta_f").BeginArray();
  for (double p : artifact.params.theta_f) json.ValueExact(p);
  json.EndArray();
  json.Key("degree_sequence").BeginArray();
  for (uint32_t d : artifact.params.degree_sequence) {
    json.Value(static_cast<uint64_t>(d));
  }
  json.EndArray();
  json.Key("target_triangles")
      .Value(std::to_string(artifact.params.target_triangles));
  json.EndObject();
  // The mechanism payload is written only for non-AGM mechanisms: AGM
  // artifacts keep the exact PR-5 layout plus the "mechanism" tag above.
  if (artifact.mechanism != "agm") {
    const MechanismPayload& payload = artifact.payload;
    json.Key("mechanism_payload").BeginObject();
    json.Key("num_blocks").Value(static_cast<uint64_t>(payload.num_blocks));
    json.Key("node_blocks").BeginArray();
    for (uint32_t block : payload.node_blocks) {
      json.Value(static_cast<uint64_t>(block));
    }
    json.EndArray();
    json.Key("block_edges").BeginArray();
    for (double count : payload.block_edges) json.ValueExact(count);
    json.EndArray();
    json.Key("block_attr").BeginArray();
    for (double mass : payload.block_attr) json.ValueExact(mass);
    json.EndArray();
    json.Key("k_anonymity").Value(static_cast<uint64_t>(payload.k_anonymity));
    json.Key("t_closeness").ValueExact(payload.t_closeness);
    json.EndObject();
  }
  json.EndObject();
}

}  // namespace

std::string ReleaseArtifactToJson(const ReleaseArtifact& artifact) {
  util::JsonWriter json;
  EmitReleaseArtifact(artifact, json);
  return json.Finish();
}

util::Result<ReleaseArtifact> ReleaseArtifactFromJson(
    const std::string& json) {
  auto parsed = util::JsonValue::Parse(json);
  if (!parsed.ok()) return parsed.status();
  const util::JsonValue& root = parsed.value();
  if (!root.is_object()) return Invalid("top-level value must be an object");

  auto schema = RequireString(root, "schema");
  if (!schema.ok()) return schema.status();
  if (schema.value() != kSchemaName) {
    return Invalid("schema '" + schema.value() + "' is not '" + kSchemaName +
                   "'");
  }

  ReleaseArtifact artifact;
  auto version = RequireInt(root, "schema_version");
  if (!version.ok()) return version.status();
  artifact.schema_version = version.value();
  // Reject a bumped version before touching any other field: a future
  // layout may have renamed them all.
  if (auto st = CheckSchemaVersion(artifact.schema_version); !st.ok()) {
    return st;
  }

  auto model = RequireString(root, "model");
  if (!model.ok()) return model.status();
  artifact.model = model.value();

  // Pre-mechanism artifacts (written before the tag existed) are AGM by
  // construction; a present tag must be a string, and ValidateReleaseArtifact
  // below rejects values this build does not serve.
  if (root.Find("mechanism") != nullptr) {
    auto mechanism = RequireString(root, "mechanism");
    if (!mechanism.ok()) return mechanism.status();
    artifact.mechanism = mechanism.value();
  }

  auto fingerprint = RequireUint64String(root, "config_fingerprint");
  if (!fingerprint.ok()) return fingerprint.status();
  artifact.config_fingerprint = fingerprint.value();

  auto budget = RequireNumber(root, "epsilon_budget");
  if (!budget.ok()) return budget.status();
  artifact.epsilon_budget = budget.value();
  auto spent = RequireNumber(root, "epsilon_spent");
  if (!spent.ok()) return spent.status();
  artifact.epsilon_spent = spent.value();

  auto ledger = Require(root, "ledger");
  if (!ledger.ok()) return ledger.status();
  if (!ledger.value()->is_array()) return Invalid("'ledger' must be an array");
  for (const util::JsonValue& entry : ledger.value()->array_items()) {
    if (!entry.is_object()) return Invalid("ledger entries must be objects");
    auto stage = RequireString(entry, "stage");
    if (!stage.ok()) return stage.status();
    auto epsilon = RequireNumber(entry, "epsilon");
    if (!epsilon.ok()) return epsilon.status();
    artifact.ledger.emplace_back(stage.value(), epsilon.value());
  }

  auto defaults = Require(root, "sample_defaults");
  if (!defaults.ok()) return defaults.status();
  auto iterations = RequireInt(*defaults.value(), "acceptance_iterations");
  if (!iterations.ok()) return iterations.status();
  artifact.acceptance_iterations = iterations.value();
  auto tolerance = RequireNumber(*defaults.value(), "acceptance_tolerance");
  if (!tolerance.ok()) return tolerance.status();
  artifact.acceptance_tolerance = tolerance.value();
  auto min_acceptance = RequireNumber(*defaults.value(), "min_acceptance");
  if (!min_acceptance.ok()) return min_acceptance.status();
  artifact.min_acceptance = min_acceptance.value();

  auto params = Require(root, "params");
  if (!params.ok()) return params.status();
  const util::JsonValue& p = *params.value();
  if (!p.is_object()) return Invalid("'params' must be an object");
  auto w = RequireInt(p, "w");
  if (!w.ok()) return w.status();
  artifact.params.w = w.value();

  auto read_theta = [&p](const std::string& key,
                         std::vector<double>* out) -> util::Status {
    auto field = Require(p, key);
    if (!field.ok()) return field.status();
    if (!field.value()->is_array()) {
      return Invalid("'" + key + "' must be an array");
    }
    out->reserve(field.value()->array_items().size());
    for (const util::JsonValue& item : field.value()->array_items()) {
      if (!item.is_number()) {
        return Invalid("'" + key + "' entries must be numbers");
      }
      out->push_back(item.number_value());
    }
    return util::Status::OK();
  };
  if (auto st = read_theta("theta_x", &artifact.params.theta_x); !st.ok()) {
    return st;
  }
  if (auto st = read_theta("theta_f", &artifact.params.theta_f); !st.ok()) {
    return st;
  }

  auto degrees = Require(p, "degree_sequence");
  if (!degrees.ok()) return degrees.status();
  if (!degrees.value()->is_array()) {
    return Invalid("'degree_sequence' must be an array");
  }
  artifact.params.degree_sequence.reserve(
      degrees.value()->array_items().size());
  for (const util::JsonValue& item : degrees.value()->array_items()) {
    const double value = item.is_number() ? item.number_value() : -1.0;
    if (value < 0.0 || value > 4294967295.0 || value != std::floor(value)) {
      return Invalid("'degree_sequence' entries must be uint32 integers");
    }
    artifact.params.degree_sequence.push_back(static_cast<uint32_t>(value));
  }

  auto triangles = RequireUint64String(p, "target_triangles");
  if (!triangles.ok()) return triangles.status();
  artifact.params.target_triangles = triangles.value();

  const util::JsonValue* payload = root.Find("mechanism_payload");
  if (artifact.mechanism != "agm") {
    if (payload == nullptr || !payload->is_object()) {
      return Invalid("'mechanism_payload' must be an object for mechanism '" +
                     artifact.mechanism + "'");
    }
    auto read_doubles = [payload](const std::string& key,
                                  std::vector<double>* out) -> util::Status {
      auto field = Require(*payload, key);
      if (!field.ok()) return field.status();
      if (!field.value()->is_array()) {
        return Invalid("'" + key + "' must be an array");
      }
      out->reserve(field.value()->array_items().size());
      for (const util::JsonValue& item : field.value()->array_items()) {
        if (!item.is_number()) {
          return Invalid("'" + key + "' entries must be numbers");
        }
        out->push_back(item.number_value());
      }
      return util::Status::OK();
    };
    auto read_uint32 = [payload](const std::string& key)
        -> util::Result<uint32_t> {
      auto number = RequireNumber(*payload, key);
      if (!number.ok()) return number.status();
      const double value = number.value();
      if (value < 0.0 || value > 4294967295.0 || value != std::floor(value)) {
        return Invalid("'" + key + "' must be a uint32 integer");
      }
      return static_cast<uint32_t>(value);
    };
    auto num_blocks = read_uint32("num_blocks");
    if (!num_blocks.ok()) return num_blocks.status();
    artifact.payload.num_blocks = num_blocks.value();
    auto blocks_field = Require(*payload, "node_blocks");
    if (!blocks_field.ok()) return blocks_field.status();
    if (!blocks_field.value()->is_array()) {
      return Invalid("'node_blocks' must be an array");
    }
    artifact.payload.node_blocks.reserve(
        blocks_field.value()->array_items().size());
    for (const util::JsonValue& item : blocks_field.value()->array_items()) {
      const double value = item.is_number() ? item.number_value() : -1.0;
      if (value < 0.0 || value > 4294967295.0 || value != std::floor(value)) {
        return Invalid("'node_blocks' entries must be uint32 integers");
      }
      artifact.payload.node_blocks.push_back(static_cast<uint32_t>(value));
    }
    if (auto st = read_doubles("block_edges", &artifact.payload.block_edges);
        !st.ok()) {
      return st;
    }
    if (auto st = read_doubles("block_attr", &artifact.payload.block_attr);
        !st.ok()) {
      return st;
    }
    auto k_anonymity = read_uint32("k_anonymity");
    if (!k_anonymity.ok()) return k_anonymity.status();
    artifact.payload.k_anonymity = k_anonymity.value();
    auto t_closeness = RequireNumber(*payload, "t_closeness");
    if (!t_closeness.ok()) return t_closeness.status();
    artifact.payload.t_closeness = t_closeness.value();
  } else if (payload != nullptr) {
    return Invalid("agm artifacts must not carry a mechanism payload");
  }

  if (auto st = ValidateReleaseArtifact(artifact); !st.ok()) return st;
  return artifact;
}

util::Status WriteReleaseArtifact(const ReleaseArtifact& artifact,
                                  const std::string& path) {
  if (auto st = ValidateReleaseArtifact(artifact); !st.ok()) return st;
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return util::Status::IoError("cannot open for writing: " + path);
  }
  // Streamed: a length-n artifact never sits whole in memory.
  util::JsonWriter json(&out);
  EmitReleaseArtifact(artifact, json);
  json.Finish();
  out.flush();
  if (!out.good()) return util::Status::IoError("write failed: " + path);
  return util::Status::OK();
}

util::Result<ReleaseArtifact> ReadReleaseArtifact(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return util::Status::IoError("cannot open for reading: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return util::Status::IoError("read failed: " + path);
  return ReleaseArtifactFromJson(buffer.str());
}

uint64_t EstimateArtifactBytes(const ReleaseArtifact& artifact) {
  // Dominated by the parameter vectors (degree_sequence is length n); the
  // strings and scalar fields are noise next to them at any real scale.
  uint64_t bytes = sizeof(ReleaseArtifact);
  bytes += artifact.params.theta_x.size() * sizeof(double);
  bytes += artifact.params.theta_f.size() * sizeof(double);
  bytes += artifact.params.degree_sequence.size() * sizeof(uint32_t);
  bytes += artifact.payload.node_blocks.size() * sizeof(uint32_t);
  bytes += artifact.payload.block_edges.size() * sizeof(double);
  bytes += artifact.payload.block_attr.size() * sizeof(double);
  bytes += artifact.model.size() + artifact.mechanism.size();
  for (const auto& [label, eps] : artifact.ledger) {
    (void)eps;
    bytes += label.size() + sizeof(std::pair<std::string, double>);
  }
  return bytes;
}

uint64_t ReleaseArtifactReleaseKey(const ReleaseArtifact& artifact) {
  // FNV-1a over the canonical JSON serialization: two artifacts are the
  // same *release* exactly when every fitted value matches bit for bit.
  // (config_fingerprint alone cannot tell releases apart — two fits of the
  // same config from different data or seeds share it.)
  const std::string body = ReleaseArtifactToJson(artifact);
  uint64_t h = 1469598103934665603ULL;
  for (char c : body) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace agmdp::pipeline
