#ifndef OTIF_UTIL_JSON_WRITER_H_
#define OTIF_UTIL_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace otif {

/// Minimal streaming JSON emitter shared by /statusz, the profiler, the
/// bench run reports (perfbench's included) and the timeline trace export —
/// one implementation of escaping, separators, and number formatting
/// instead of hand-rolled printf JSON per binary.
///
/// Output is single-line JSON with a space after every ':' and ',' (still
/// strictly valid; pretty-print with `python3 -m json.tool` when a human
/// needs to read it). Calls must describe a well-formed document: a value
/// inside an object must be preceded by Key(), containers must be closed in
/// order, and exactly one top-level value must be written. Misuse aborts
/// via OTIF_CHECK (these are programming errors, not data errors).
///
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("clips").Value(16);
///   w.Key("stages").BeginArray().Value("decode").Value("proxy").EndArray();
///   w.EndObject();
///   std::string json = std::move(w).TakeString();
class JsonWriter {
 public:
  JsonWriter() = default;

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key (escaped); the next call must write its value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(const char* value) {
    return Value(std::string_view(value));
  }
  JsonWriter& Value(const std::string& value) {
    return Value(std::string_view(value));
  }
  /// Doubles use %.9g (round-trips span totals); non-finite values are not
  /// representable in JSON and emit null instead.
  JsonWriter& Value(double value);
  JsonWriter& Value(int64_t value);
  JsonWriter& Value(uint64_t value);
  JsonWriter& Value(int value) { return Value(static_cast<int64_t>(value)); }
  JsonWriter& Value(bool value);

  /// The document so far (valid JSON once every container is closed).
  const std::string& str() const { return out_; }
  std::string TakeString() && { return std::move(out_); }

 private:
  enum class Scope : uint8_t { kObject, kArray };

  /// Emits the separator/validity bookkeeping common to every value.
  void BeforeValue();
  void AppendEscaped(std::string_view text);

  std::string out_;
  std::vector<Scope> scopes_;
  /// Whether the current container already holds an element (one flag per
  /// open scope, parallel to scopes_).
  std::vector<bool> has_element_;
  bool key_pending_ = false;
  bool done_ = false;  // A complete top-level value has been written.
};

}  // namespace otif

#endif  // OTIF_UTIL_JSON_WRITER_H_
