// SOAP value model: the typed data that crosses the wire as operation
// parameters and results. Mirrors SOAP 1.1 section-5 encoding's simple
// types plus arrays and (ordered) structs.
//
// Strings are immutable bytes behind a shared owner, so copying a Value
// never copies payload bytes: a copy takes one more reference. as_string()
// is a std::string_view of those bytes, valid while any Value holding them
// lives, and not NUL-terminated. A string decoded from a received message
// may share the whole message body (soap::read_value): keeping that one
// string keeps the body alive, so copy it out (std::string(as_string()))
// to keep it alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace spi::soap {

class Value;

using Array = std::vector<Value>;
/// Ordered name/value pairs — SOAP struct accessors are positional in
/// section-5 encoding, and order matters for deterministic round-trips.
using Struct = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kStruct };

  Value() : data_(std::monostate{}) {}
  Value(bool value) : data_(value) {}                      // NOLINT(implicit)
  Value(std::int64_t value) : data_(value) {}              // NOLINT(implicit)
  Value(int value) : data_(static_cast<std::int64_t>(value)) {}  // NOLINT
  Value(double value) : data_(value) {}                    // NOLINT(implicit)
  /// Takes over `value`'s bytes (no copy) behind a new shared owner.
  Value(std::string value);                                // NOLINT(implicit)
  Value(std::string_view value) : Value(std::string(value)) {}  // NOLINT
  Value(const char* value) : Value(std::string(value)) {}  // NOLINT(implicit)
  Value(Array value) : data_(std::move(value)) {}          // NOLINT(implicit)
  Value(Struct value) : data_(std::move(value)) {}         // NOLINT(implicit)

  /// A string Value whose bytes are `text`, shared with `owner` instead
  /// of copied: the Value keeps all of *owner alive. `text` must lie
  /// inside *owner.
  static Value shared_string(std::shared_ptr<const std::string> owner,
                             std::string_view text);

  Type type() const { return static_cast<Type>(data_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_struct() const { return type() == Type::kStruct; }

  /// Checked accessors; throw SpiError(kInvalidArgument) on a type
  /// mismatch (a caller bug, not a wire error).
  bool as_bool() const { return get<bool>("bool"); }
  std::int64_t as_int() const { return get<std::int64_t>("int"); }
  double as_double() const { return get<double>("double"); }
  /// A view of the string's bytes, valid while any Value holding them
  /// lives; not NUL-terminated.
  std::string_view as_string() const { return get<Text>("string").view; }
  /// The owner that keeps as_string()'s bytes alive (null for the empty
  /// string), for a writer that splices them instead of copying
  /// (xml::Writer::shared_text).
  const std::shared_ptr<const std::string>& string_owner() const {
    return get<Text>("string").owner;
  }
  const Array& as_array() const { return get<Array>("array"); }
  const Struct& as_struct() const { return get<Struct>("struct"); }
  Array& as_array() { return get_mut<Array>("array"); }
  Struct& as_struct() { return get_mut<Struct>("struct"); }

  /// Struct field lookup (first match), nullptr if absent or not a struct.
  const Value* field(std::string_view name) const;

  /// Human-readable type name for diagnostics.
  std::string_view type_name() const;

  /// Compact human-readable rendering for logs and test failures:
  /// {city: "Beijing", temps: [31, 28]}. Long strings are elided.
  std::string to_debug_string(size_t max_string = 32) const;

  /// Deep size in wire-relevant bytes (string payload accounting used by
  /// workload generators).
  size_t payload_bytes() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.data_ == b.data_;
  }

 private:
  /// The one string representation: `view` lies inside *owner (null only
  /// for the empty string), and equality compares the bytes.
  struct Text {
    std::shared_ptr<const std::string> owner;
    std::string_view view;
    friend bool operator==(const Text& a, const Text& b) {
      return a.view == b.view;
    }
  };

  template <typename T>
  const T& get(std::string_view what) const {
    if (const T* p = std::get_if<T>(&data_)) return *p;
    throw SpiError(ErrorCode::kInvalidArgument,
                   "Value is " + std::string(type_name()) + ", wanted " +
                       std::string(what));
  }
  template <typename T>
  T& get_mut(std::string_view what) {
    if (T* p = std::get_if<T>(&data_)) return *p;
    throw SpiError(ErrorCode::kInvalidArgument,
                   "Value is " + std::string(type_name()) + ", wanted " +
                       std::string(what));
  }

  std::variant<std::monostate, bool, std::int64_t, double, Text, Array, Struct>
      data_;
};

std::string_view value_type_name(Value::Type type);

}  // namespace spi::soap
