#include "src/server/protocol.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>
#include <vector>

#include "src/agm/agm_sampler.h"

namespace agmdp::server {

namespace {

using util::JsonValue;

/// Compact single-line JSON building. JsonWriter pretty-prints across
/// lines, which a newline-delimited protocol cannot carry, so the few flat
/// shapes the protocol needs are rendered by hand here.
void AppendString(std::string* out, const std::string& key,
                  const std::string& value, bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += util::JsonEscape(key);
  *out += "\":\"";
  *out += util::JsonEscape(value);
  *out += '"';
}

void AppendUint(std::string* out, const std::string& key, uint64_t value,
                bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += util::JsonEscape(key);
  *out += "\":";
  // The reader parses JSON numbers through a double, which is exact only
  // up to 2^53; bigger values (seeds, sequence offsets) travel as decimal
  // strings, which ReadUint64 accepts equally.
  if (value <= (uint64_t{1} << 53)) {
    *out += std::to_string(value);
  } else {
    *out += '"';
    *out += std::to_string(value);
    *out += '"';
  }
}

void AppendInt(std::string* out, const std::string& key, int64_t value,
               bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += util::JsonEscape(key);
  *out += "\":";
  *out += std::to_string(value);
}

void AppendBool(std::string* out, const std::string& key, bool value,
                bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += util::JsonEscape(key);
  *out += "\":";
  *out += value ? "true" : "false";
}

void AppendDouble(std::string* out, const std::string& key, double value,
                  bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += util::JsonEscape(key);
  *out += "\":";
  *out += util::JsonNumberExact(value);
}

util::Status Invalid(const std::string& what) {
  return util::Status::InvalidArgument("protocol: " + what);
}

/// Reads a non-negative integer member that may arrive as a JSON number
/// (when it fits a double exactly) or as a decimal string (always exact).
util::Status ReadUint64(const JsonValue& object, const std::string& key,
                        uint64_t* out) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr) return util::Status::OK();  // keep default
  if (member->is_string()) {
    const std::string& text = member->string_value();
    if (text.empty()) return Invalid("'" + key + "' must be an integer");
    uint64_t value = 0;
    for (char c : text) {
      if (c < '0' || c > '9') {
        return Invalid("'" + key + "' must be an integer");
      }
      const uint64_t digit = static_cast<uint64_t>(c - '0');
      if (value > (UINT64_MAX - digit) / 10) {
        return Invalid("'" + key + "' overflows uint64");
      }
      value = value * 10 + digit;
    }
    *out = value;
    return util::Status::OK();
  }
  if (member->is_number()) {
    const double v = member->number_value();
    if (v < 0 || v != static_cast<double>(static_cast<uint64_t>(v))) {
      return Invalid("'" + key + "' must be a non-negative integer");
    }
    *out = static_cast<uint64_t>(v);
    return util::Status::OK();
  }
  return Invalid("'" + key + "' must be an integer");
}

util::Status ReadInt(const JsonValue& object, const std::string& key,
                     int* out) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr) return util::Status::OK();
  if (!member->is_number() ||
      member->number_value() !=
          static_cast<double>(static_cast<int64_t>(member->number_value()))) {
    return Invalid("'" + key + "' must be an integer");
  }
  const double v = member->number_value();
  if (v < -2147483648.0 || v > 2147483647.0) {
    return Invalid("'" + key + "' is out of range");
  }
  *out = static_cast<int>(v);
  return util::Status::OK();
}

util::Status ReadString(const JsonValue& object, const std::string& key,
                        std::string* out) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr) return util::Status::OK();
  if (!member->is_string()) return Invalid("'" + key + "' must be a string");
  *out = member->string_value();
  return util::Status::OK();
}

}  // namespace

const char* RequestOpName(RequestOp op) {
  switch (op) {
    case RequestOp::kLoad: return "load";
    case RequestOp::kSample: return "sample";
    case RequestOp::kPin: return "pin";
    case RequestOp::kUnpin: return "unpin";
    case RequestOp::kUnload: return "unload";
    case RequestOp::kStats: return "stats";
    case RequestOp::kShutdown: return "shutdown";
  }
  return "unknown";
}

util::Result<Request> ParseRequest(const std::string& line) {
  util::JsonLimits limits;
  limits.max_bytes = kMaxRequestBytes;
  limits.max_depth = kMaxRequestDepth;
  auto parsed = JsonValue::Parse(line, limits);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& object = parsed.value();
  if (!object.is_object()) return Invalid("request must be a JSON object");

  Request request;
  std::string op;
  if (auto st = ReadString(object, "op", &op); !st.ok()) return st;
  bool known = false;
  for (RequestOp candidate :
       {RequestOp::kLoad, RequestOp::kSample, RequestOp::kPin,
        RequestOp::kUnpin, RequestOp::kUnload, RequestOp::kStats,
        RequestOp::kShutdown}) {
    if (op == RequestOpName(candidate)) {
      request.op = candidate;
      known = true;
      break;
    }
  }
  if (!known) return Invalid("unknown op '" + op + "'");

  if (auto st = ReadUint64(object, "id", &request.id); !st.ok()) return st;
  if (auto st = ReadString(object, "tenant", &request.tenant); !st.ok()) {
    return st;
  }
  if (auto st = ReadString(object, "name", &request.name); !st.ok()) return st;
  if (auto st = ReadString(object, "artifact", &request.artifact); !st.ok()) {
    return st;
  }
  if (auto st = ReadString(object, "dataset", &request.dataset); !st.ok()) {
    return st;
  }
  if (auto st = ReadUint64(object, "seed", &request.seed); !st.ok()) return st;
  if (auto st = ReadUint64(object, "sequence", &request.sequence); !st.ok()) {
    return st;
  }
  if (auto st = ReadInt(object, "count", &request.count); !st.ok()) return st;
  if (auto st = ReadInt(object, "refine", &request.refine_iterations);
      !st.ok()) {
    return st;
  }
  if (auto st = ReadString(object, "out", &request.out); !st.ok()) return st;

  switch (request.op) {
    case RequestOp::kLoad:
      if (request.name.empty()) return Invalid("load needs 'name'");
      if (request.artifact.empty() == request.dataset.empty()) {
        return Invalid(
            "load needs exactly one of 'artifact' (a file path) or "
            "'dataset' (a registry lookup)");
      }
      break;
    case RequestOp::kSample:
      if (request.name.empty()) return Invalid("sample needs 'name'");
      if (request.count < 1 || request.count > kMaxSampleCount) {
        return Invalid("'count' must be in [1, " +
                       std::to_string(kMaxSampleCount) + "]");
      }
      if (request.sequence >
          UINT64_MAX - static_cast<uint64_t>(request.count)) {
        return Invalid("'sequence' + 'count' overflows uint64");
      }
      if (request.refine_iterations < -1 ||
          request.refine_iterations > agm::kMaxAcceptanceIterations) {
        return Invalid("'refine' must be in [-1, " +
                       std::to_string(agm::kMaxAcceptanceIterations) + "]");
      }
      break;
    case RequestOp::kPin:
    case RequestOp::kUnpin:
    case RequestOp::kUnload:
      if (request.name.empty()) {
        return Invalid(std::string(RequestOpName(request.op)) +
                       " needs 'name'");
      }
      break;
    case RequestOp::kStats:
    case RequestOp::kShutdown:
      break;
  }
  return request;
}

std::string SerializeRequest(const Request& request) {
  std::string out = "{";
  bool first = true;
  AppendString(&out, "op", RequestOpName(request.op), &first);
  AppendUint(&out, "id", request.id, &first);
  if (!request.tenant.empty()) {
    AppendString(&out, "tenant", request.tenant, &first);
  }
  if (!request.name.empty()) AppendString(&out, "name", request.name, &first);
  if (!request.artifact.empty()) {
    AppendString(&out, "artifact", request.artifact, &first);
  }
  if (!request.dataset.empty()) {
    AppendString(&out, "dataset", request.dataset, &first);
  }
  if (request.op == RequestOp::kSample) {
    AppendUint(&out, "seed", request.seed, &first);
    AppendUint(&out, "sequence", request.sequence, &first);
    AppendInt(&out, "count", request.count, &first);
    if (request.refine_iterations >= 0) {
      AppendInt(&out, "refine", request.refine_iterations, &first);
    }
    if (!request.out.empty()) AppendString(&out, "out", request.out, &first);
  }
  out += '}';
  return out;
}

std::string SerializeResponse(const Response& response) {
  std::string out = "{";
  bool first = true;
  AppendUint(&out, "id", response.id, &first);
  AppendBool(&out, "ok", response.status.ok(), &first);
  if (!response.status.ok()) {
    AppendString(&out, "code", util::StatusCodeToString(response.status.code()),
                 &first);
    AppendString(&out, "error", response.status.message(), &first);
  }
  if (!response.graphs.empty()) {
    if (!first) out += ',';
    first = false;
    out += "\"graphs\":[";
    for (size_t i = 0; i < response.graphs.size(); ++i) {
      const GraphSummary& g = response.graphs[i];
      if (i > 0) out += ',';
      out += '{';
      bool inner = true;
      AppendUint(&out, "nodes", g.nodes, &inner);
      AppendUint(&out, "edges", g.edges, &inner);
      // Checksums exceed 2^53; a JSON number would corrupt them.
      AppendString(&out, "checksum", std::to_string(g.checksum), &inner);
      if (!g.path.empty()) AppendString(&out, "path", g.path, &inner);
      out += '}';
    }
    out += ']';
  }
  if (!response.stats.empty()) {
    if (!first) out += ',';
    first = false;
    out += "\"stats\":{";
    bool inner = true;
    for (const auto& [key, value] : response.stats) {
      AppendDouble(&out, key, value, &inner);
    }
    out += '}';
  }
  out += '}';
  return out;
}

util::Result<Response> ParseResponse(const std::string& line) {
  util::JsonLimits limits;
  limits.max_bytes = 0;  // responses can carry many graph summaries
  limits.max_depth = kMaxRequestDepth;
  auto parsed = JsonValue::Parse(line, limits);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& object = parsed.value();
  if (!object.is_object()) return Invalid("response must be a JSON object");

  Response response;
  if (auto st = ReadUint64(object, "id", &response.id); !st.ok()) return st;
  const JsonValue* ok = object.Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return Invalid("response needs a boolean 'ok'");
  }
  if (!ok->bool_value()) {
    std::string code = "Internal";
    std::string message;
    if (auto st = ReadString(object, "code", &code); !st.ok()) return st;
    if (auto st = ReadString(object, "error", &message); !st.ok()) return st;
    response.status = util::Status::FromCodeMessage(
        util::StatusCodeFromString(code), std::move(message));
  }
  if (const JsonValue* graphs = object.Find("graphs"); graphs != nullptr) {
    if (!graphs->is_array()) return Invalid("'graphs' must be an array");
    for (const JsonValue& item : graphs->array_items()) {
      if (!item.is_object()) return Invalid("graph summaries must be objects");
      GraphSummary summary;
      uint64_t nodes = 0;
      if (auto st = ReadUint64(item, "nodes", &nodes); !st.ok()) return st;
      if (nodes > UINT32_MAX) return Invalid("'nodes' is out of range");
      summary.nodes = static_cast<uint32_t>(nodes);
      if (auto st = ReadUint64(item, "edges", &summary.edges); !st.ok()) {
        return st;
      }
      if (auto st = ReadUint64(item, "checksum", &summary.checksum);
          !st.ok()) {
        return st;
      }
      if (auto st = ReadString(item, "path", &summary.path); !st.ok()) {
        return st;
      }
      response.graphs.push_back(std::move(summary));
    }
  }
  if (const JsonValue* stats = object.Find("stats"); stats != nullptr) {
    if (!stats->is_object()) return Invalid("'stats' must be an object");
    for (const auto& [key, value] : stats->members()) {
      if (!value.is_number()) return Invalid("stats values must be numbers");
      response.stats.emplace_back(key, value.number_value());
    }
  }
  return response;
}

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

constexpr uint64_t FnvPrimePower(int exponent) {
  uint64_t power = 1;
  for (int i = 0; i < exponent; ++i) power *= kFnvPrime;
  return power;
}

// FNV-1a's eight byte steps (h ^= byte; h *= kFnvPrime) over the
// little-endian bytes of x < 2^(8 * kBytes). Its high bytes are zero and
// h ^= 0 leaves h alone, so their steps and the last low byte's multiply
// fold into one multiply by kFnvPrime^(9 - kBytes).
template <int kBytes>
uint64_t MixNarrow(uint64_t h, uint32_t x) {
  for (int i = 0; i + 1 < kBytes; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  h ^= x >> (8 * (kBytes - 1));
  return h * FnvPrimePower(9 - kBytes);
}

// Calls fn(std::integral_constant<int, B>) with B the low bytes that hold
// every value up to `max_value`.
template <typename Fn>
uint64_t WithNarrowBytes(uint32_t max_value, const Fn& fn) {
  if (max_value < (1u << 8)) return fn(std::integral_constant<int, 1>{});
  if (max_value < (1u << 16)) return fn(std::integral_constant<int, 2>{});
  if (max_value < (1u << 24)) return fn(std::integral_constant<int, 3>{});
  return fn(std::integral_constant<int, 4>{});
}

}  // namespace

uint64_t GraphChecksum(const graph::AttributedGraph& g) {
  static_assert(sizeof(graph::NodeId) == 4 && sizeof(graph::AttrConfig) == 4,
                "node ids and attribute configurations are 32-bit values");
  uint64_t h = 1469598103934665603ULL;
  for (const uint64_t header :
       {uint64_t{g.num_nodes()}, static_cast<uint64_t>(g.num_attributes())}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (header >> (8 * i)) & 0xffu;
      h *= kFnvPrime;
    }
  }
  // The canonical edge list, node by node: u ascends, and each node's
  // neighbors above it are sorted in one reused buffer. Node ids are below
  // num_nodes(), so the narrowest mix that holds the largest id serves all.
  const graph::Graph& structure = g.structure();
  const graph::NodeId n = structure.num_nodes();
  h = WithNarrowBytes(n > 0 ? n - 1 : 0, [&](auto bytes) {
    std::vector<graph::NodeId> above;
    for (graph::NodeId u = 0; u < n; ++u) {
      above.clear();
      for (graph::NodeId v : structure.Neighbors(u)) {
        if (u < v) above.push_back(v);
      }
      std::sort(above.begin(), above.end());
      for (graph::NodeId v : above) {
        h = MixNarrow<bytes>(MixNarrow<bytes>(h, u), v);
      }
    }
    return h;
  });
  const std::vector<graph::AttrConfig>& attrs = g.attributes();
  const graph::AttrConfig max_attr =
      attrs.empty() ? 0 : *std::max_element(attrs.begin(), attrs.end());
  return WithNarrowBytes(max_attr, [&](auto bytes) {
    for (graph::AttrConfig a : attrs) h = MixNarrow<bytes>(h, a);
    return h;
  });
}

}  // namespace agmdp::server
