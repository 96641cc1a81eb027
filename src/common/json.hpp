// Minimal JSON reading/writing shared by the exp result cache and the trace
// module's JSONL / Chrome trace-event emitters.
//
// Hand-rolled on purpose: the repo takes no external dependencies, and the
// callers only need the subset of JSON their serializations emit (objects,
// arrays, numbers, strings, booleans, null). Numbers are written with %.17g
// so IEEE doubles round-trip exactly — a cached result or an emitted trace
// must reproduce the original run byte-for-byte once formatted.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ones {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
};

/// Deepest array/object nesting parse_json accepts. The documents this
/// program writes nest a handful of levels; the cap keeps hostile input
/// from overflowing the recursive parser's stack.
inline constexpr int kMaxJsonDepth = 256;

/// Parse a complete JSON document; throws std::runtime_error on malformed
/// input, trailing garbage or nesting deeper than kMaxJsonDepth.
JsonValue parse_json(std::string_view text);

/// Exact round-trip rendering of a double (%.17g).
std::string json_double(double v);

/// Quote + escape a string for JSON output.
std::string json_quote(const std::string& s);

}  // namespace ones
