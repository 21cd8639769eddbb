// Minimal streaming JSON writer and recursive-descent reader for the
// machine-readable artifacts (BENCH_sweep.json, BENCH_mechanisms.json, and
// the release-artifact files the serving layer exchanges).
//
// The writer emits deterministically formatted output: keys appear in the
// order they are written and numbers are rendered with a fixed printf
// format, so two runs that produce the same values produce byte-identical
// documents — the property the sweep engine's determinism contract (and its
// tests) rely on. The reader parses any document the writer emits (plus
// ordinary hand-written JSON) into a JsonValue tree; ValueExact uses 17
// significant digits, so doubles written that way round-trip bit-exactly.
#pragma once

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace agmdp::util {

/// Escapes a string for use inside a JSON string literal (quotes are not
/// added).
std::string JsonEscape(const std::string& s);

/// Renders a double with a fixed "%.10g" format ("null" for non-finite
/// values, which JSON cannot represent).
std::string JsonNumber(double value);

/// Renders a double with 17 significant digits — enough that parsing the
/// text recovers the exact bit pattern (round-trip safe; used by the
/// release-artifact serialization).
std::string JsonNumberExact(double value);

/// \brief Builds a JSON document through nested containers.
///
/// Usage:
///   JsonWriter json;
///   json.BeginObject();
///   json.Key("cells").BeginArray();
///   ...
///   json.EndArray();
///   json.EndObject();
///   std::string doc = json.Finish();
class JsonWriter {
 public:
  /// With a `sink`, the document streams into it in chunks as it is built,
  /// so a large one never sits whole in memory; Finish() then returns "".
  explicit JsonWriter(std::ostream* sink = nullptr) : sink_(sink) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Writes an object key; must be followed by a value or container.
  JsonWriter& Key(const std::string& key);

  JsonWriter& Value(double v);
  /// Like Value(double) but with JsonNumberExact formatting (bit-exact
  /// round trip through the reader).
  JsonWriter& ValueExact(double v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(bool v);
  JsonWriter& Value(const std::string& v);
  JsonWriter& Value(const char* v) { return Value(std::string(v)); }

  /// The completed document (call once, after all containers are closed).
  std::string Finish();

 private:
  void BeforeValue();
  /// Hands the buffered text to the sink, if any.
  void Flush();

  std::ostream* sink_ = nullptr;
  std::string out_;
  /// One entry per open container: the number of elements written so far.
  std::vector<int> counts_;
  bool pending_key_ = false;
  int indent_ = 0;
};

/// \brief Resource caps applied while parsing untrusted JSON.
///
/// The reader is recursive-descent, so nesting consumes C++ stack — the
/// depth cap turns adversarial nesting into a typed InvalidArgument instead
/// of a stack overflow, and the byte cap rejects oversized documents before
/// any parsing work. The defaults suit trusted local artifacts; anything
/// that arrives over a socket must pass tighter limits (the server protocol
/// uses kMaxRequestBytes / kMaxRequestDepth from src/server/protocol.h).
struct JsonLimits {
  /// Maximum document size in bytes; 0 = unlimited.
  size_t max_bytes = 0;
  /// Maximum container nesting depth (a flat scalar is depth 0).
  int max_depth = 64;
};

/// \brief A parsed JSON document node.
///
/// Objects keep their members in document order (duplicate keys are
/// rejected at parse time); Find does a linear scan, which is fine for the
/// small artifact headers this reader serves.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses a complete JSON document (one top-level value, nothing but
  /// whitespace after it). Errors carry a byte offset. Every limit
  /// violation — depth, size, malformed or truncated UTF-8 — is a typed
  /// InvalidArgument, never a crash: this is the boundary where network
  /// input becomes data.
  static Result<JsonValue> Parse(const std::string& text);
  static Result<JsonValue> Parse(const std::string& text,
                                 const JsonLimits& limits);

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  /// Accessors trust the caller checked the kind (they return harmless
  /// defaults otherwise — fallible lookups go through Find + kind checks).
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Converts a JSON number to the integer type Int when it is an integer
/// inside Int's range; false otherwise (NaN and infinities included). The
/// range check comes before the cast, because converting a double outside
/// the target type's range is undefined behaviour.
template <typename Int>
bool JsonNumberToInteger(double v, Int* out) {
  // Int holds [min, max + 1); both bounds are powers of two (or 0), so
  // exact doubles.
  constexpr double min = static_cast<double>(std::numeric_limits<Int>::min());
  constexpr double end =
      2.0 * static_cast<double>(std::numeric_limits<Int>::max() / 2 + 1);
  if (!(v >= min && v < end) || v != std::trunc(v)) return false;
  *out = static_cast<Int>(v);
  return true;
}

/// \brief Typed member access for the decoders of untrusted JSON: the
/// release artifact, the registry journal and the daemon protocol. The
/// checks are shared; each decoder names the status code and message
/// prefix its errors carry.
class JsonFields {
 public:
  JsonFields(StatusCode code, std::string prefix)
      : code_(code), prefix_(std::move(prefix)) {}

  /// The decoder's error: its code, and `what` after its prefix.
  Status Error(const std::string& what) const;

  Result<const JsonValue*> Require(const JsonValue& object,
                                   const std::string& key) const;
  Result<std::string> RequireString(const JsonValue& object,
                                    const std::string& key) const;
  Result<double> RequireNumber(const JsonValue& object,
                               const std::string& key) const;
  /// A JSON number holding an integer in Int's range.
  template <typename Int>
  Result<Int> RequireInteger(const JsonValue& object,
                             const std::string& key) const {
    auto number = RequireNumber(object, key);
    if (!number.ok()) return number.status();
    Int value{};
    if (!JsonNumberToInteger(number.value(), &value)) {
      return Error("field '" + key + "' must be an integer in range");
    }
    return value;
  }
  /// A uint64 written as a decimal string: JSON numbers are doubles and
  /// lose integers above 2^53.
  Result<uint64_t> RequireUint64String(const JsonValue& object,
                                       const std::string& key) const;

 private:
  StatusCode code_;
  std::string prefix_;
};

}  // namespace agmdp::util
