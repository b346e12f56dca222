// Minimal JSON support shared by every obs writer and reader.
//
// The repo deliberately carries no external JSON dependency; what it
// needs is small and stable: escape strings on the write side
// (manifests, NDJSON journal, Chrome trace) and parse its *own* output
// on the read side (JournalReader, ManifestReader, `mpinspect`). The
// parser is a strict recursive-descent one — it rejects trailing
// garbage and malformed escapes, which doubles as a syntax check on the
// writers — and preserves integer precision: a token without '.' or an
// exponent is stored as a 64-bit integer, so nanosecond timestamps
// (which exceed double's 2^53 exact-integer range on long-uptime hosts)
// round-trip bit-exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace marcopolo::obs {

/// Escape `text` for inclusion inside a JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view text);

namespace json {

/// Parse failure: `what()` describes the problem, `offset()` is the
/// byte position in the input where it was detected.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& why, std::size_t offset)
      : std::runtime_error("JSON error at byte " + std::to_string(offset) +
                           ": " + why),
        offset_(offset) {}

  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

struct Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// One parsed JSON value. Numbers keep their lexical class: integer
/// tokens parse to uint64/int64 (exact), everything else to double.
struct Value {
  std::variant<std::nullptr_t, bool, std::uint64_t, std::int64_t, double,
               std::string, std::shared_ptr<Array>, std::shared_ptr<Object>>
      v;

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(v);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(v);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<std::uint64_t>(v) ||
           std::holds_alternative<std::int64_t>(v) ||
           std::holds_alternative<double>(v);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(v);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<std::shared_ptr<Array>>(v);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<std::shared_ptr<Object>>(v);
  }

  /// Typed accessors; throw std::bad_variant_access on the wrong kind.
  [[nodiscard]] bool boolean() const { return std::get<bool>(v); }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] const Array& array() const {
    return *std::get<std::shared_ptr<Array>>(v);
  }
  [[nodiscard]] const Object& object() const {
    return *std::get<std::shared_ptr<Object>>(v);
  }

  /// Any number as double (integers converted).
  [[nodiscard]] double number() const;
  /// Any number as uint64: exact for integer tokens, truncated for
  /// doubles, 0 for negative values, UINT64_MAX from 2^64 up (+inf and
  /// integer literals too long for 64 bits included).
  [[nodiscard]] std::uint64_t u64() const;
  /// Any number as int64, the same way: truncated, and saturated at
  /// INT64_MIN / INT64_MAX outside that range.
  [[nodiscard]] std::int64_t i64() const;

  /// Object member access. at() throws std::out_of_range on a missing
  /// key; find() returns nullptr (the forward-compatible lookup: readers
  /// use it so unknown/missing fields degrade to defaults).
  [[nodiscard]] const Value& at(const std::string& key) const {
    return object().at(key);
  }
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// Convenience over find(): the member's value, or `fallback` when the
  /// key is absent or holds a different kind.
  [[nodiscard]] std::uint64_t u64_or(const std::string& key,
                                     std::uint64_t fallback) const;
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string fallback) const;
};

/// Parse one complete JSON document (throws ParseError). Input must be
/// exactly one value plus optional surrounding whitespace, nested at most
/// 64 arrays/objects deep ("nesting too deep" past that).
[[nodiscard]] Value parse(std::string_view text);

}  // namespace json
}  // namespace marcopolo::obs
