#pragma once

/// \file json.hpp
/// A small, dependency-free JSON document model used by the declarative
/// scenario layer (scenario/spec.hpp).  Design constraints, in order:
///
///  * lossless round-trips — objects preserve insertion order, integers
///    are stored exactly (up to 64 bits) rather than as doubles, and
///    doubles serialise with the shortest representation that parses back
///    to the same value, so `parse(dump(j)) == j` always holds;
///  * diagnosable failures — parse errors throw JsonError with the byte
///    offset and what was expected, never a best-effort value;
///  * no surprises — this is a document model, not a serialisation
///    framework: the scenario layer maps specs to/from Json explicitly.
///
/// Representation: a type tag plus one anonymous union holding only the
/// active payload, so a node is 40 bytes with libstdc++'s 32-byte string.
/// A moved-from node keeps its type with an empty payload.
///
/// Numbers go through <charconv> and keep every byte printf/strtod gave:
/// std::to_chars(v, general, p) is specified as printf's "%.*g", so the
/// dump still emits the first precision whose text reads back as v
/// (starting at the shortest round-trip form's digit count, below which
/// none can).  std::from_chars rounds like strtod; on its range errors
/// the parser falls back to strtod, so `1e-400` still reads as 0.0 and
/// `1e400` is still "number out of range".

#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hoval {

/// Thrown on malformed JSON text and on type-mismatched accessor use.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// One JSON value: null, bool, integer (signed or unsigned 64-bit),
/// double, string, array or object.  Non-negative integers normalise to
/// the unsigned representation so equal numbers compare equal regardless
/// of how they were constructed.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  /// Insertion-ordered members (no hashing; scenario objects are small).
  using Object = std::vector<Member>;

  Json() noexcept {}  ///< null
  Json(std::nullptr_t) noexcept {}
  Json(bool b) noexcept : type_(Type::kBool), bool_(b) {}
  Json(int v) { assign_signed(v); }
  Json(long v) { assign_signed(v); }
  Json(long long v) { assign_signed(v); }
  Json(unsigned v) { assign_unsigned(v); }
  Json(unsigned long v) { assign_unsigned(v); }
  Json(unsigned long long v) { assign_unsigned(v); }
  Json(double v) noexcept : type_(Type::kDouble), double_(v) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::kString), string_(s) {}

  Json(const Json& other) { construct_from(other); }
  Json(Json&& other) noexcept { construct_from(std::move(other)); }
  Json& operator=(const Json& other) { return *this = Json(other); }
  Json& operator=(Json&& other) noexcept;
  ~Json() { destroy(); }

  static Json array(Array items = {});
  static Json object(Object members = {});

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept {
    return type_ == Type::kInt || type_ == Type::kUint || type_ == Type::kDouble;
  }
  bool is_integer() const noexcept {
    return type_ == Type::kInt || type_ == Type::kUint;
  }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed accessors; throw JsonError on type (or range) mismatch.
  bool as_bool() const;
  double as_double() const;  ///< any number
  std::int64_t as_int64() const;
  std::uint64_t as_uint64() const;
  int as_int() const;  ///< range-checked to int
  const std::string& as_string() const;

  // --- array interface -----------------------------------------------------
  const Array& items() const;
  Array& items();
  std::size_t size() const;  ///< array length or object member count
  const Json& operator[](std::size_t index) const;
  void push_back(Json value);

  // --- object interface ----------------------------------------------------
  const Object& members() const;
  Object& members();
  bool contains(const std::string& key) const;
  /// Pointer to the member value, or nullptr when absent (objects only).
  const Json* find(const std::string& key) const;
  Json* find(const std::string& key);
  /// Member lookup; throws JsonError when absent.
  const Json& at(const std::string& key) const;
  /// Replaces the member's value, or appends a new member.
  void set(const std::string& key, Json value);

  /// Serialises the document.  indent < 0 produces one compact line;
  /// indent >= 0 pretty-prints with that many spaces per level.  Object
  /// members appear in insertion order.  Throws JsonError on non-finite
  /// doubles (JSON cannot represent them).
  std::string dump(int indent = -1) const;

  /// Parses a complete JSON document; rejects trailing garbage.
  /// \throws JsonError with the byte offset on malformed input.
  static Json parse(std::string_view text);

  /// Deep structural equality.  Numbers compare by value within the
  /// integer types (kInt vs kUint with equal value are equal); doubles
  /// compare exactly and never equal an integer-typed number.
  friend bool operator==(const Json& a, const Json& b);
  friend bool operator!=(const Json& a, const Json& b) { return !(a == b); }

 private:
  void assign_signed(std::int64_t v) noexcept {
    if (v < 0) {
      type_ = Type::kInt;
      int_ = v;
    } else {
      type_ = Type::kUint;
      uint_ = static_cast<std::uint64_t>(v);
    }
  }
  void assign_unsigned(std::uint64_t v) noexcept {
    type_ = Type::kUint;
    uint_ = v;
  }

  /// Copies (const lvalue) or moves (rvalue) `other`'s payload into this
  /// node's uninitialised one.
  template <typename Source>
  void construct_from(Source&& other);
  /// Ends the active payload's lifetime (the tag is left as is).
  void destroy() noexcept;

  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  union {
    bool bool_;
    std::int64_t int_;  ///< kInt (always negative after normalisation)
    std::uint64_t uint_ = 0;  ///< kUint
    double double_;
    std::string string_;
    Array array_;
    Object object_;
  };
};

template <typename Source>
void Json::construct_from(Source&& other) {
  // A member of an rvalue is an rvalue, so forwarding `other` picks the
  // payload's copy or move constructor.
  type_ = other.type_;
  switch (type_) {
    case Type::kString:
      new (&string_) std::string(std::forward<Source>(other).string_);
      break;
    case Type::kArray: new (&array_) Array(std::forward<Source>(other).array_); break;
    case Type::kObject:
      new (&object_) Object(std::forward<Source>(other).object_);
      break;
    case Type::kBool: bool_ = other.bool_; break;
    case Type::kInt: int_ = other.int_; break;
    case Type::kUint: uint_ = other.uint_; break;
    case Type::kDouble: double_ = other.double_; break;
    case Type::kNull: break;
  }
}

inline void Json::destroy() noexcept {
  switch (type_) {
    case Type::kString: string_.~basic_string(); break;
    case Type::kArray: array_.~Array(); break;
    case Type::kObject: object_.~Object(); break;
    default: break;
  }
}

inline Json& Json::operator=(Json&& other) noexcept {
  // Detach first: `other` may live inside this node's own payload.
  Json detached(std::move(other));
  destroy();
  construct_from(std::move(detached));
  return *this;
}

}  // namespace hoval
