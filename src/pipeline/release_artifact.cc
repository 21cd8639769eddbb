#include "src/pipeline/release_artifact.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "src/mechanisms/release_mechanism.h"
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

}  // namespace

util::Status InvalidArtifact(const std::string& what) { return Invalid(what); }

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
  artifact.acceptance_iterations = config.acceptance_iterations;
  artifact.acceptance_tolerance = config.acceptance_tolerance;
  artifact.min_acceptance = config.min_acceptance;
  return artifact;
}

util::Status ValidateReleaseArtifact(const ReleaseArtifact& artifact) {
  if (auto st = CheckSchemaVersion(artifact.schema_version); !st.ok()) {
    return st;
  }
  // The mechanism tag gates everything downstream (engine construction,
  // registry rows, sweep cells), so an unknown tag is rejected here — at
  // every read boundary — with the set of tags this build can serve.
  const mechanisms::MechanismSpec* mechanism =
      mechanisms::FindMechanism(artifact.mechanism);
  if (mechanism == nullptr) {
    return Invalid("unknown mechanism '" + artifact.mechanism +
                   "' (this build serves: " +
                   mechanisms::MechanismNameList() + ")");
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
  return mechanism->validate(artifact);
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
  const util::JsonFields fields(util::StatusCode::kInvalidArgument,
                                "release artifact: ");

  auto schema = fields.RequireString(root, "schema");
  if (!schema.ok()) return schema.status();
  if (schema.value() != kSchemaName) {
    return Invalid("schema '" + schema.value() + "' is not '" + kSchemaName +
                   "'");
  }

  ReleaseArtifact artifact;
  auto version = fields.RequireInteger<int>(root, "schema_version");
  if (!version.ok()) return version.status();
  artifact.schema_version = version.value();
  // Reject a bumped version before touching any other field: a future
  // layout may have renamed them all.
  if (auto st = CheckSchemaVersion(artifact.schema_version); !st.ok()) {
    return st;
  }

  auto model = fields.RequireString(root, "model");
  if (!model.ok()) return model.status();
  artifact.model = model.value();

  // Pre-mechanism artifacts (written before the tag existed) are AGM by
  // construction; a present tag must be a string, and ValidateReleaseArtifact
  // below rejects values this build does not serve.
  if (root.Find("mechanism") != nullptr) {
    auto mechanism = fields.RequireString(root, "mechanism");
    if (!mechanism.ok()) return mechanism.status();
    artifact.mechanism = mechanism.value();
  }

  auto fingerprint = fields.RequireUint64String(root, "config_fingerprint");
  if (!fingerprint.ok()) return fingerprint.status();
  artifact.config_fingerprint = fingerprint.value();

  auto budget = fields.RequireNumber(root, "epsilon_budget");
  if (!budget.ok()) return budget.status();
  artifact.epsilon_budget = budget.value();
  auto spent = fields.RequireNumber(root, "epsilon_spent");
  if (!spent.ok()) return spent.status();
  artifact.epsilon_spent = spent.value();

  auto ledger = fields.Require(root, "ledger");
  if (!ledger.ok()) return ledger.status();
  if (!ledger.value()->is_array()) return Invalid("'ledger' must be an array");
  for (const util::JsonValue& entry : ledger.value()->array_items()) {
    if (!entry.is_object()) return Invalid("ledger entries must be objects");
    auto stage = fields.RequireString(entry, "stage");
    if (!stage.ok()) return stage.status();
    auto epsilon = fields.RequireNumber(entry, "epsilon");
    if (!epsilon.ok()) return epsilon.status();
    artifact.ledger.emplace_back(stage.value(), epsilon.value());
  }

  auto defaults = fields.Require(root, "sample_defaults");
  if (!defaults.ok()) return defaults.status();
  auto iterations =
      fields.RequireInteger<int>(*defaults.value(), "acceptance_iterations");
  if (!iterations.ok()) return iterations.status();
  artifact.acceptance_iterations = iterations.value();
  auto tolerance =
      fields.RequireNumber(*defaults.value(), "acceptance_tolerance");
  if (!tolerance.ok()) return tolerance.status();
  artifact.acceptance_tolerance = tolerance.value();
  auto min_acceptance =
      fields.RequireNumber(*defaults.value(), "min_acceptance");
  if (!min_acceptance.ok()) return min_acceptance.status();
  artifact.min_acceptance = min_acceptance.value();

  auto params = fields.Require(root, "params");
  if (!params.ok()) return params.status();
  const util::JsonValue& p = *params.value();
  if (!p.is_object()) return Invalid("'params' must be an object");
  auto w = fields.RequireInteger<int>(p, "w");
  if (!w.ok()) return w.status();
  artifact.params.w = w.value();

  auto read_theta = [&p, &fields](const std::string& key,
                         std::vector<double>* out) -> util::Status {
    auto field = fields.Require(p, key);
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

  auto degrees = fields.Require(p, "degree_sequence");
  if (!degrees.ok()) return degrees.status();
  if (!degrees.value()->is_array()) {
    return Invalid("'degree_sequence' must be an array");
  }
  artifact.params.degree_sequence.reserve(
      degrees.value()->array_items().size());
  for (const util::JsonValue& item : degrees.value()->array_items()) {
    uint32_t degree = 0;
    if (!item.is_number() ||
        !util::JsonNumberToInteger(item.number_value(), &degree)) {
      return Invalid("'degree_sequence' entries must be uint32 integers");
    }
    artifact.params.degree_sequence.push_back(degree);
  }

  auto triangles = fields.RequireUint64String(p, "target_triangles");
  if (!triangles.ok()) return triangles.status();
  artifact.params.target_triangles = triangles.value();

  const util::JsonValue* payload = root.Find("mechanism_payload");
  if (artifact.mechanism != "agm") {
    if (payload == nullptr || !payload->is_object()) {
      return Invalid("'mechanism_payload' must be an object for mechanism '" +
                     artifact.mechanism + "'");
    }
    auto read_doubles = [payload, &fields](const std::string& key,
                                  std::vector<double>* out) -> util::Status {
      auto field = fields.Require(*payload, key);
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
    auto num_blocks = fields.RequireInteger<uint32_t>(*payload, "num_blocks");
    if (!num_blocks.ok()) return num_blocks.status();
    artifact.payload.num_blocks = num_blocks.value();
    auto blocks_field = fields.Require(*payload, "node_blocks");
    if (!blocks_field.ok()) return blocks_field.status();
    if (!blocks_field.value()->is_array()) {
      return Invalid("'node_blocks' must be an array");
    }
    artifact.payload.node_blocks.reserve(
        blocks_field.value()->array_items().size());
    for (const util::JsonValue& item : blocks_field.value()->array_items()) {
      uint32_t block = 0;
      if (!item.is_number() ||
          !util::JsonNumberToInteger(item.number_value(), &block)) {
        return Invalid("'node_blocks' entries must be uint32 integers");
      }
      artifact.payload.node_blocks.push_back(block);
    }
    if (auto st = read_doubles("block_edges", &artifact.payload.block_edges);
        !st.ok()) {
      return st;
    }
    if (auto st = read_doubles("block_attr", &artifact.payload.block_attr);
        !st.ok()) {
      return st;
    }
    auto k_anonymity =
        fields.RequireInteger<uint32_t>(*payload, "k_anonymity");
    if (!k_anonymity.ok()) return k_anonymity.status();
    artifact.payload.k_anonymity = k_anonymity.value();
    auto t_closeness = fields.RequireNumber(*payload, "t_closeness");
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
  return ReleaseKeyOfJson(ReleaseArtifactToJson(artifact));
}

uint64_t ReleaseKeyOfJson(const std::string& artifact_json) {
  // FNV-1a over the canonical JSON serialization: two artifacts are the
  // same *release* exactly when every fitted value matches bit for bit.
  // (config_fingerprint alone cannot tell releases apart — two fits of the
  // same config from different data or seeds share it.)
  uint64_t h = 1469598103934665603ULL;
  for (char c : artifact_json) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace agmdp::pipeline
