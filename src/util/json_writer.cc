#include "util/json_writer.h"

#include <cmath>

#include "util/logging.h"
#include "util/strings.h"

namespace otif {

void JsonWriter::BeforeValue() {
  OTIF_CHECK(!done_) << "top-level JSON value already complete";
  if (scopes_.empty()) {
    // This value is the whole document.
    return;
  }
  if (scopes_.back() == Scope::kObject) {
    OTIF_CHECK(key_pending_) << "object member written without Key()";
    key_pending_ = false;
    return;
  }
  if (has_element_.back()) out_ += ", ";
  has_element_.back() = true;
}

void JsonWriter::AppendEscaped(std::string_view text) {
  out_ += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\r':
        out_ += "\\r";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_ += StrFormat("\\u%04x", c);
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  scopes_.push_back(Scope::kObject);
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  OTIF_CHECK(!scopes_.empty() && scopes_.back() == Scope::kObject);
  OTIF_CHECK(!key_pending_) << "Key() without a value";
  out_ += '}';
  scopes_.pop_back();
  has_element_.pop_back();
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  scopes_.push_back(Scope::kArray);
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  OTIF_CHECK(!scopes_.empty() && scopes_.back() == Scope::kArray);
  out_ += ']';
  scopes_.pop_back();
  has_element_.pop_back();
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  OTIF_CHECK(!scopes_.empty() && scopes_.back() == Scope::kObject)
      << "Key() outside an object";
  OTIF_CHECK(!key_pending_) << "Key() twice in a row";
  if (has_element_.back()) out_ += ", ";
  has_element_.back() = true;
  AppendEscaped(key);
  out_ += ": ";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  BeforeValue();
  AppendEscaped(value);
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  BeforeValue();
  if (std::isfinite(value)) {
    out_ += StrFormat("%.9g", value);
  } else {
    out_ += "null";
  }
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t value) {
  BeforeValue();
  out_ += StrFormat("%lld", static_cast<long long>(value));
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t value) {
  BeforeValue();
  out_ += StrFormat("%llu", static_cast<unsigned long long>(value));
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  if (scopes_.empty()) done_ = true;
  return *this;
}

}  // namespace otif
