#include "src/util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "src/util/check.h"

namespace agmdp::util {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string JsonNumberExact(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void JsonWriter::Flush() {
  if (sink_ == nullptr) return;
  sink_->write(out_.data(), static_cast<std::streamsize>(out_.size()));
  out_.clear();
}

void JsonWriter::BeforeValue() {
  if (out_.size() >= (size_t{1} << 16)) Flush();
  if (counts_.empty()) return;  // top-level value
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (counts_.back() > 0) out_ += ",";
  out_ += "\n";
  out_.append(static_cast<size_t>(2 * indent_), ' ');
  ++counts_.back();
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += "{";
  counts_.push_back(0);
  ++indent_;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  AGMDP_CHECK(!counts_.empty() && !pending_key_);
  const bool empty = counts_.back() == 0;
  counts_.pop_back();
  --indent_;
  if (!empty) {
    out_ += "\n";
    out_.append(static_cast<size_t>(2 * indent_), ' ');
  }
  out_ += "}";
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += "[";
  counts_.push_back(0);
  ++indent_;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  AGMDP_CHECK(!counts_.empty() && !pending_key_);
  const bool empty = counts_.back() == 0;
  counts_.pop_back();
  --indent_;
  if (!empty) {
    out_ += "\n";
    out_.append(static_cast<size_t>(2 * indent_), ' ');
  }
  out_ += "]";
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  AGMDP_CHECK(!counts_.empty() && !pending_key_);
  if (counts_.back() > 0) out_ += ",";
  out_ += "\n";
  out_.append(static_cast<size_t>(2 * indent_), ' ');
  ++counts_.back();
  out_ += "\"" + JsonEscape(key) + "\": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  BeforeValue();
  out_ += JsonNumber(v);
  return *this;
}

JsonWriter& JsonWriter::ValueExact(double v) {
  BeforeValue();
  out_ += JsonNumberExact(v);
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t v) {
  BeforeValue();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  BeforeValue();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& v) {
  BeforeValue();
  out_ += "\"" + JsonEscape(v) + "\"";
  return *this;
}

std::string JsonWriter::Finish() {
  AGMDP_CHECK(counts_.empty() && !pending_key_);
  out_ += "\n";
  Flush();
  return std::move(out_);
}

// ----------------------------------------------------------------- reader

/// Single-pass recursive-descent parser over the document text. Depth and
/// input size are bounded so a hostile document — adversarial nesting, a
/// multi-gigabyte body — fails with a typed error instead of blowing the
/// stack or the heap.
class JsonParser {
 public:
  JsonParser(const std::string& text, const JsonLimits& limits)
      : text_(text), limits_(limits) {}

  Result<JsonValue> Parse() {
    if (limits_.max_bytes > 0 && text_.size() > limits_.max_bytes) {
      return Status::InvalidArgument(
          "json: document of " + std::to_string(text_.size()) +
          " bytes exceeds the " + std::to_string(limits_.max_bytes) +
          "-byte limit");
    }
    JsonValue value;
    if (Status st = ParseValue(&value, 0); !st.ok()) return st;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after the top-level value");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at byte " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t n = std::string(literal).size();
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > limits_.max_depth) {
      return Error("nesting deeper than the " +
                   std::to_string(limits_.max_depth) + "-level limit");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of document");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->kind_ = JsonValue::Kind::kString;
      return ParseString(&out->string_);
    }
    if (ConsumeLiteral("true")) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = true;
      return Status::OK();
    }
    if (ConsumeLiteral("false")) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = false;
      return Status::OK();
    }
    if (ConsumeLiteral("null")) {
      out->kind_ = JsonValue::Kind::kNull;
      return Status::OK();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      if (Status st = ParseString(&key); !st.ok()) return st;
      for (const auto& [existing, value] : out->members_) {
        (void)value;
        if (existing == key) return Error("duplicate key '" + key + "'");
      }
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after key");
      JsonValue member;
      if (Status st = ParseValue(&member, depth + 1); !st.ok()) return st;
      out->members_.emplace_back(std::move(key), std::move(member));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue item;
      if (Status st = ParseValue(&item, depth + 1); !st.ok()) return st;
      out->items_.push_back(std::move(item));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (static_cast<unsigned char>(c) >= 0x80) {
        // Validate the multi-byte UTF-8 sequence in place: a truncated or
        // malformed sequence from the wire must be a typed error, not a
        // byte soup passed downstream.
        const auto lead = static_cast<unsigned char>(c);
        int continuation;
        if ((lead & 0xe0) == 0xc0 && lead >= 0xc2) continuation = 1;
        else if ((lead & 0xf0) == 0xe0) continuation = 2;
        else if ((lead & 0xf8) == 0xf0 && lead <= 0xf4) continuation = 3;
        else return Error("malformed UTF-8 lead byte in string");
        if (pos_ + static_cast<size_t>(continuation) > text_.size()) {
          return Error("truncated UTF-8 sequence in string");
        }
        *out += c;
        for (int i = 0; i < continuation; ++i) {
          const auto b = static_cast<unsigned char>(text_[pos_]);
          if ((b & 0xc0) != 0x80) {
            return Error("truncated UTF-8 sequence in string");
          }
          *out += text_[pos_++];
        }
        continue;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad hex digit in \\u escape");
          }
          if (code >= 0xd800 && code <= 0xdfff) {
            return Error("surrogate \\u escapes are not supported");
          }
          // UTF-8 encode the BMP codepoint.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xc0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            *out += static_cast<char>(0xe0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            *out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          return Error("unknown escape sequence");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
      return Error("bad number '" + token + "'");
    }
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = value;
    return Status::OK();
  }

  const std::string& text_;
  const JsonLimits limits_;
  size_t pos_ = 0;
};

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  return JsonParser(text, JsonLimits{}).Parse();
}

Result<JsonValue> JsonValue::Parse(const std::string& text,
                                   const JsonLimits& limits) {
  return JsonParser(text, limits).Parse();
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

Status JsonFields::Error(const std::string& what) const {
  return Status::FromCodeMessage(code_, prefix_ + what);
}

Result<const JsonValue*> JsonFields::Require(const JsonValue& object,
                                             const std::string& key) const {
  const JsonValue* field = object.Find(key);
  if (field == nullptr) return Error("missing field '" + key + "'");
  return field;
}

Result<std::string> JsonFields::RequireString(const JsonValue& object,
                                              const std::string& key) const {
  auto field = Require(object, key);
  if (!field.ok()) return field.status();
  if (!field.value()->is_string()) {
    return Error("field '" + key + "' must be a string");
  }
  return field.value()->string_value();
}

Result<double> JsonFields::RequireNumber(const JsonValue& object,
                                         const std::string& key) const {
  auto field = Require(object, key);
  if (!field.ok()) return field.status();
  if (!field.value()->is_number()) {
    return Error("field '" + key + "' must be a number");
  }
  return field.value()->number_value();
}

Result<uint64_t> JsonFields::RequireUint64String(
    const JsonValue& object, const std::string& key) const {
  auto text = RequireString(object, key);
  if (!text.ok()) return text.status();
  const std::string& s = text.value();
  if (s.empty()) {
    return Error("field '" + key + "' must be a decimal uint64 string");
  }
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Error("field '" + key + "' must be a decimal uint64 string");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return Error("field '" + key + "' overflows uint64");
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace agmdp::util
