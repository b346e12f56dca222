#include "obs/json.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace marcopolo::obs {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace json {

double Value::number() const {
  if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    return static_cast<double>(*u);
  }
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  return std::get<double>(v);
}

// Casting a double outside the target range is undefined behaviour, so
// the double paths clamp first (2^64 and 2^63 are exact doubles).
std::uint64_t Value::u64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&v)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return *i < 0 ? 0 : static_cast<std::uint64_t>(*i);
  }
  const double d = std::get<double>(v);
  if (!(d > 0.0)) return 0;  // negative or NaN
  if (d >= 0x1p64) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(d);
}

std::int64_t Value::i64() const {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    return static_cast<std::int64_t>(
        std::min(*u, static_cast<std::uint64_t>(kMax)));
  }
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  const double d = std::get<double>(v);
  if (std::isnan(d)) return 0;
  if (d >= 0x1p63) return kMax;
  if (d < -0x1p63) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(d);
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Object& obj = object();
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

std::uint64_t Value::u64_or(const std::string& key,
                            std::uint64_t fallback) const {
  const Value* member = find(key);
  return member != nullptr && member->is_number() ? member->u64() : fallback;
}

double Value::number_or(const std::string& key, double fallback) const {
  const Value* member = find(key);
  return member != nullptr && member->is_number() ? member->number()
                                                  : fallback;
}

bool Value::bool_or(const std::string& key, bool fallback) const {
  const Value* member = find(key);
  return member != nullptr && member->is_bool() ? member->boolean()
                                                : fallback;
}

std::string Value::string_or(const std::string& key,
                             std::string fallback) const {
  const Value* member = find(key);
  return member != nullptr && member->is_string() ? member->str()
                                                  : std::move(fallback);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError(why, pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // The parser recurses once per level, so hostile nesting would
      // overflow the stack; the writers here nest at most 6 deep.
      if (++depth_ > kMaxDepth) fail("nesting too deep");
      Value nested = c == '{' ? parse_object() : parse_array();
      --depth_;
      return nested;
    }
    if (c == '"') return Value{parse_string()};
    if (consume_literal("true")) return Value{true};
    if (consume_literal("false")) return Value{false};
    if (consume_literal("null")) return Value{nullptr};
    return parse_number();
  }

  Value parse_object() {
    expect('{');
    auto obj = std::make_shared<Object>();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value{obj};
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      (*obj)[key] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value{obj};
    }
  }

  Value parse_array() {
    expect('[');
    auto arr = std::make_shared<Array>();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value{arr};
    }
    while (true) {
      arr->push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value{arr};
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit");
            }
          }
          pos_ += 4;
          append_utf8(out, code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  /// The writers only emit \uXXXX for control characters and BMP arrows
  /// (no surrogate pairs), so plain UTF-8 encoding of the code point is
  /// the complete inverse.
  static void append_utf8(std::string& out, unsigned code) {
    if (code <= 0x7F) {
      out += static_cast<char>(code);
    } else if (code <= 0x7FF) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    bool integral = true;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1)) {
      fail("expected value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      if (token[0] == '-') {
        const long long parsed = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && end != nullptr && *end == '\0') {
          return Value{static_cast<std::int64_t>(parsed)};
        }
      } else {
        const unsigned long long parsed =
            std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end != nullptr && *end == '\0') {
          return Value{static_cast<std::uint64_t>(parsed)};
        }
      }
      // Out-of-range integer literal: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number");
    return Value{parsed};
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< Open arrays and objects around pos_.
};

}  // namespace

Value parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace json
}  // namespace marcopolo::obs
