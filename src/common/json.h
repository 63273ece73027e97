// Self-contained JSON value model, parser, and writer.
//
// libei (Sec. III-D of the paper) exposes every resource over a RESTful API;
// responses and algorithm arguments are JSON.  This is a strict recursive-
// descent parser (UTF-8 pass-through, \uXXXX escapes for BMP code points) and
// a deterministic writer (object keys keep insertion order).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.h"

namespace openei::common {

class Json;

using JsonArray = std::vector<Json>;
/// Insertion-ordered object representation: deterministic serialization
/// matters for reproducible experiment logs.
using JsonObject = std::vector<std::pair<std::string, Json>>;

/// A JSON value: null, bool, number (double), string, array, or object.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool value) : value_(value) {}
  Json(double value) : value_(value) {}
  Json(int value) : value_(static_cast<double>(value)) {}
  Json(std::int64_t value) : value_(static_cast<double>(value)) {}
  Json(std::size_t value) : value_(static_cast<double>(value)) {}
  Json(const char* value) : value_(std::string(value)) {}
  Json(std::string value) : value_(std::move(value)) {}
  Json(JsonArray value) : value_(std::move(value)) {}
  Json(JsonObject value) : value_(std::move(value)) {}

  /// The variant's alternatives are listed in Type order.
  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw InvalidArgument on type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  JsonArray& as_array();
  const JsonObject& as_object() const;
  JsonObject& as_object();

  /// Object field lookup; throws NotFound if `key` is absent.
  const Json& at(std::string_view key) const;
  /// Object field lookup; returns nullptr if absent.
  const Json* find(std::string_view key) const;
  /// True if object has `key`.
  bool contains(std::string_view key) const { return find(key) != nullptr; }
  /// Inserts or replaces an object field (keeps insertion order on insert).
  void set(std::string key, Json value);

  /// Array element; throws InvalidArgument when out of range.
  const Json& at(std::size_t index) const;

  /// Serializes to compact JSON text.
  std::string dump() const;
  /// Serializes with 2-space indentation.
  std::string pretty() const;

  /// Parses strict JSON; throws ParseError with position info on failure.
  static Json parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  void write(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

}  // namespace openei::common
