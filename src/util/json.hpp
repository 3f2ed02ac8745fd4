// Minimal JSON reader/writer backing the Study API's serializable surface
// (StudySpec/StudyResult documents, `mbcr report`).
//
// Values are a tagged union (null/bool/number/string/array/object). Objects
// preserve insertion order so emitted documents are stable and diffable.
// Numbers are doubles formatted with the shortest round-trippable
// representation (std::to_chars); non-finite doubles serialize as null,
// since JSON has no literal for them. The parser is strict RFC 8259 minus
// one liberty: a lone UTF-16 surrogate in a \u escape is encoded as-is
// rather than rejected.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace mbcr::json {

class Value;
using Array = std::vector<Value>;
using Member = std::pair<std::string, Value>;
/// Where GCC 12 at -O3 reports a false -Warray-bounds on the second
/// emplace_back into an empty Object, seed the Object from an initializer
/// list (`Object o{{"k", v}}`) and emplace_back after that.
using Object = std::vector<Member>;

class Value {
public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Value(T v) : data_(static_cast<double>(v)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(std::string_view s) : data_(std::string(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_number() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<Array>(data_); }
  bool is_object() const { return std::holds_alternative<Object>(data_); }

  /// Typed accessors; throw std::runtime_error on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// Object member access; throws std::runtime_error when absent.
  const Value& at(std::string_view key) const;
  /// Appends (or replaces) an object member; self must be an object or null
  /// (null promotes to an empty object).
  void set(std::string key, Value value);

  /// Serializes with `indent` spaces per level (indent <= 0: compact).
  /// All-number arrays render on one line regardless of indent.
  void write(std::ostream& os, int indent = 2) const;
  std::string dump(int indent = 2) const;

private:
  void write_impl(std::ostream& os, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Parses one JSON document (trailing whitespace only after it).
/// Throws std::invalid_argument with a byte offset on malformed input.
Value parse(std::string_view text);

}  // namespace mbcr::json
