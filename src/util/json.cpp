#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>

namespace hoval {

namespace {

/// Parser recursion guard: scenario documents are shallow; anything deeper
/// is hostile or corrupt input, not data.
constexpr int kMaxDepth = 128;

[[noreturn]] void type_error(const char* want, Json::Type got) {
  static const char* const kNames[] = {"null",   "bool",  "int",   "uint",
                                       "double", "string", "array", "object"};
  throw JsonError(std::string("expected ") + want + ", got " +
                  kNames[static_cast<int>(got)]);
}

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (!needs_escape(c)) continue;
    out.append(s, run, i - run);
    run = i + 1;
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", u);
        out += buf;
    }
  }
  out.append(s, run, std::string::npos);
  out += '"';
}

/// Reads a complete decimal token as strtod would: std::from_chars rounds
/// the same way, and its range errors (where strtod would give 0 or
/// infinity) go to strtod itself.
double read_double(std::string_view token) {
  double v = 0.0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec == std::errc() && end == token.data() + token.size()) return v;
  return std::strtod(std::string(token).c_str(), nullptr);
}

template <typename Integer>
void append_integer(std::string& out, Integer v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Appends the shortest "%.*g" text of `v` that reads back to the same
/// bits (tried at increasing precision; 17 digits always suffices).
void append_double(std::string& out, double v) {
  if (!std::isfinite(v))
    throw JsonError("cannot serialise non-finite double to JSON");
  char buf[40];
  // The shortest round-trip form's digit count is a lower bound: no
  // shorter "%.*g" text can read back as v.
  char* end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific).ptr;
  int precision = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c)
    if (is_digit(*c)) ++precision;
  for (;; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        precision)
              .ptr;
    if (precision >= 17 ||
        read_double(std::string_view(buf, static_cast<std::size_t>(end - buf))) == v)
      break;
  }
  out.append(buf, end);
  // Keep the number recognisably a double so it round-trips to kDouble.
  if (std::find_if(buf, end, [](char c) {
        return c == '.' || c == 'e' || c == 'E';
      }) == end)
    out += ".0";
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("malformed JSON at offset " + std::to_string(pos_) + ": " +
                    what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting exceeds depth limit");
    skip_whitespace();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    const std::size_t mark = members_.size();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Json::object();
    }
    for (;;) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      members_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return Json::object(pop_since(members_, mark));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    const std::size_t mark = items_.size();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Json::array();
    }
    for (;;) {
      items_.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return Json::array(pop_since(items_, mark));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run of verbatim bytes up to the next quote, backslash or
      // control character in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && !needs_escape(text_[pos_])) ++pos_;
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail("unescaped control character in string");
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_codepoint(out); break;
        default: fail("invalid escape sequence");
      }
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    return value;
  }

  void append_codepoint(std::string& out) {
    std::uint32_t cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: pair required
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u')
        fail("unpaired surrogate in \\u escape");
      pos_ += 2;
      const std::uint32_t low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired surrogate in \\u escape");
    }
    // Encode as UTF-8.
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool at_digit() const { return pos_ < text_.size() && is_digit(text_[pos_]); }

  void skip_digits() {
    while (at_digit()) ++pos_;
  }

  /// Parses an integer token into `Integer`; false when out of its range.
  template <typename Integer>
  static bool read_integer(std::string_view token, Integer& v) {
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), v);
    return ec == std::errc() && end == token.data() + token.size();
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!at_digit()) fail("invalid number");
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        is_digit(text_[pos_ + 1]))
      fail("leading zeros are not allowed");
    skip_digits();
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (!at_digit()) fail("digits required after decimal point");
      skip_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!at_digit()) fail("digits required in exponent");
      skip_digits();
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      if (token[0] == '-') {
        std::int64_t v = 0;
        if (read_integer(token, v)) return Json(v);
      } else {
        std::uint64_t v = 0;
        if (read_integer(token, v)) return Json(v);
      }
      // Integer literal out of 64-bit range: fall through to double.
    }
    const double v = read_double(token);
    if (!std::isfinite(v)) fail("number out of range");
    return Json(v);
  }

  /// Moves the values pushed since `mark` into an exactly sized vector.
  template <typename T>
  static std::vector<T> pop_since(std::vector<T>& stack, std::size_t mark) {
    const auto first = stack.begin() + static_cast<std::ptrdiff_t>(mark);
    std::vector<T> out(std::make_move_iterator(first),
                       std::make_move_iterator(stack.end()));
    stack.erase(first, stack.end());
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  // Values of the arrays and objects still open, innermost last: every
  // container is built once at its final size instead of grown.
  std::vector<Json> items_;
  std::vector<Json::Member> members_;
};

}  // namespace

Json Json::array(Array items) {
  Json j;
  j.type_ = Type::kArray;
  new (&j.array_) Array(std::move(items));
  return j;
}

Json Json::object(Object members) {
  Json j;
  j.type_ = Type::kObject;
  new (&j.object_) Object(std::move(members));
  return j;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Json::as_double() const {
  switch (type_) {
    case Type::kInt: return static_cast<double>(int_);
    case Type::kUint: return static_cast<double>(uint_);
    case Type::kDouble: return double_;
    default: type_error("number", type_);
  }
}

std::int64_t Json::as_int64() const {
  if (type_ == Type::kInt) return int_;
  if (type_ == Type::kUint) {
    if (uint_ > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()))
      throw JsonError("integer out of int64 range");
    return static_cast<std::int64_t>(uint_);
  }
  type_error("integer", type_);
}

std::uint64_t Json::as_uint64() const {
  if (type_ == Type::kUint) return uint_;
  if (type_ == Type::kInt) throw JsonError("negative integer where unsigned expected");
  type_error("integer", type_);
}

int Json::as_int() const {
  const std::int64_t v = as_int64();
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
    throw JsonError("integer out of int range");
  return static_cast<int>(v);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const Json::Array& Json::items() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

Json::Array& Json::items() {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  type_error("array or object", type_);
}

const Json& Json::operator[](std::size_t index) const {
  const Array& a = items();
  if (index >= a.size()) throw JsonError("array index out of range");
  return a[index];
}

void Json::push_back(Json value) { items().push_back(std::move(value)); }

const Json::Object& Json::members() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

Json::Object& Json::members() {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

bool Json::contains(const std::string& key) const { return find(key) != nullptr; }

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& member : object_)
    if (member.first == key) return &member.second;
  return nullptr;
}

Json* Json::find(const std::string& key) {
  if (type_ != Type::kObject) return nullptr;
  for (Member& member : object_)
    if (member.first == key) return &member.second;
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  if (const Json* value = find(key)) return *value;
  if (type_ != Type::kObject) type_error("object", type_);
  throw JsonError("missing key \"" + key + "\"");
}

void Json::set(const std::string& key, Json value) {
  if (Json* existing = find(key)) {
    *existing = std::move(value);
    return;
  }
  members().emplace_back(key, std::move(value));
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int level) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(level), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: append_integer(out, int_); break;
    case Type::kUint: append_integer(out, uint_); break;
    case Type::kDouble: append_double(out, double_); break;
    case Type::kString: append_escaped(out, string_); break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        append_escaped(out, object_[i].first);
        out += indent < 0 ? ":" : ": ";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

bool operator==(const Json& a, const Json& b) {
  // kInt is always negative and kUint non-negative (constructor/parser
  // normalisation), so mixed int/uint pairs can never be equal and the
  // type tags themselves are comparable.
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull: return true;
    case Json::Type::kBool: return a.bool_ == b.bool_;
    case Json::Type::kInt: return a.int_ == b.int_;
    case Json::Type::kUint: return a.uint_ == b.uint_;
    case Json::Type::kDouble: return a.double_ == b.double_;
    case Json::Type::kString: return a.string_ == b.string_;
    case Json::Type::kArray: return a.array_ == b.array_;
    case Json::Type::kObject: return a.object_ == b.object_;
  }
  return false;
}

}  // namespace hoval
