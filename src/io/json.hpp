// Minimal JSON value builder, serializer, and parser (no external
// dependencies). Originally write-only for machine-readable kswsim
// output; the sweep-manifest subsystem added a strict recursive-descent
// reader (Json::parse) plus typed accessors.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace ksw::io {

/// A JSON value: null, bool, number, string, array, or object.
/// Objects keep insertion order.
class Json {
 public:
  Json() : value_(nullptr) {}                       // null
  Json(bool b) : value_(b) {}                       // NOLINT(runtime/explicit)
  Json(double d) : value_(d) {}                     // NOLINT
  Json(int i) : value_(static_cast<double>(i)) {}   // NOLINT
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}   // NOLINT
  Json(std::uint64_t u) : value_(static_cast<double>(u)) {}  // NOLINT
  Json(const char* s) : value_(std::string(s)) {}   // NOLINT
  Json(std::string s) : value_(std::move(s)) {}     // NOLINT

  static Json array();
  static Json object();

  /// Parse a complete JSON document. Strict: rejects trailing content,
  /// comments, duplicate object keys, and malformed literals. Throws
  /// std::invalid_argument with a character offset on error.
  static Json parse(const std::string& text);

  /// Append to an array (converts a null value to an array first).
  Json& push_back(Json v);

  /// Set an object key (converts a null value to an object first).
  Json& set(const std::string& key, Json v);

  [[nodiscard]] bool is_null() const noexcept;
  [[nodiscard]] bool is_bool() const noexcept;
  [[nodiscard]] bool is_number() const noexcept;
  [[nodiscard]] bool is_string() const noexcept;
  [[nodiscard]] bool is_array() const noexcept;
  [[nodiscard]] bool is_object() const noexcept;
  [[nodiscard]] std::size_t size() const;

  // Typed readers; each throws std::invalid_argument on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  /// as_double, but requires an integral value within int64 range.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Object member lookup. `contains` is false for non-objects; `at`
  /// throws std::invalid_argument when the key is missing. `get` returns
  /// null for a missing key.
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] Json get(const std::string& key) const;
  /// Object keys in insertion order (empty for non-objects).
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Array element access; throws std::invalid_argument out of range.
  [[nodiscard]] const Json& at(std::size_t index) const;

  /// Serialize. `indent` > 0 pretty-prints with that many spaces;
  /// `write` streams the bytes `to_string` returns.
  void write(std::ostream& os, int indent = 0) const;
  [[nodiscard]] std::string to_string(int indent = 0) const;

 private:
  struct Array;
  struct Object;
  using Value = std::variant<std::nullptr_t, bool, double, std::string,
                             std::shared_ptr<Array>, std::shared_ptr<Object>>;

  struct Array {
    std::vector<Json> items;
  };
  struct Object {
    std::vector<std::pair<std::string, Json>> members;
  };

  void write_impl(std::string& out, int indent, int depth) const;

  Value value_;
};

/// Escape a string for embedding in JSON (without surrounding quotes).
[[nodiscard]] std::string json_escape(const std::string& s);

/// Append the JSON text of a number, as Json(d) renders it: null for NaN
/// and infinities, integral magnitudes below 1e15 as integers, anything
/// else as printf "%.12g" in the C locale.
void append_number(std::string& out, double d);

namespace detail {

/// append_number's "%.12g" fast path: one 64x64 -> 128-bit multiply of
/// d's mantissa by a tabulated power of ten. Writes into `buf` (at least
/// 32 chars) and returns the end, or nullptr when d is zero or not
/// finite, too near a rounding tie to decide, or out of the table's
/// range; the caller then formats with std::to_chars.
[[nodiscard]] char* format_g12_fast(char* buf, double d) noexcept;

}  // namespace detail

}  // namespace ksw::io
