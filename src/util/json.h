// The project's one JSON module: a small parser for request lines and
// reports, and the one streaming writer every emitter goes through (serve
// responses and metrics, the CLI's result documents, micro_benchmarks'
// micro.json). No third-party dependencies.
//
// The writer has exactly one style: members separated by ", ", keys by
// ": ", no newlines, strings escaped by JsonEscapeText, and doubles at 17
// significant digits (`%.17g`, an exact IEEE-754 round trip, matching the
// artifact store's on-disk precision) or `null` when not finite — bare
// nan/inf is not JSON.
#ifndef GRGAD_UTIL_JSON_H_
#define GRGAD_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace grgad {

/// A parsed JSON value. Numbers are doubles (the wire format never needs
/// integers beyond 2^53); object members keep insertion order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The named object member, or nullptr (also for non-objects).
  const JsonValue* Find(const std::string& key) const;
};

/// Parses one complete JSON document (trailing garbage is an error).
/// InvalidArgument with position info on malformed input.
Result<JsonValue> ParseJsonText(const std::string& text);

/// Escapes `s` for embedding inside a JSON string literal (no quotes).
std::string JsonEscapeText(std::string_view s);

/// Streaming writer. Calls must nest properly (a Key before every object
/// member, every Begin matched by its End); the writer places separators
/// itself. Each call returns the writer, so members chain:
///
///   JsonWriter w;
///   w.BeginObject().Key("id").Int(1).Key("ok").Bool(true).EndObject();
///   w.str();  // {"id": 1, "ok": true}
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value) { return Literal(std::to_string(value)); }
  JsonWriter& Uint(uint64_t value) { return Literal(std::to_string(value)); }
  JsonWriter& Bool(bool value) { return Literal(value ? "true" : "false"); }
  JsonWriter& Null() { return Literal("null"); }
  /// `%.17g`, or null when `value` is not finite.
  JsonWriter& Double(double value);

  const std::string& str() const { return out_; }

 private:
  /// Writes the ", " owed before a value or key, unless it follows a key.
  void Separate();
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  /// One already-formatted value.
  JsonWriter& Literal(std::string_view text);

  std::string out_;
  std::vector<bool> first_;  ///< Per open container: nothing written yet.
  bool after_key_ = false;
};

}  // namespace grgad

#endif  // GRGAD_UTIL_JSON_H_
