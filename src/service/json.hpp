#pragma once
// Minimal JSON reader/escaper for the service's newline-delimited
// protocol (docs/service.md).
//
// The server only needs to *read* small request objects — responses are
// assembled by hand from already-formatted payloads, exactly like every
// other reporter in this codebase, so emission stays byte-deterministic.
// The parser covers the full JSON value grammar (objects, arrays,
// strings with escapes, numbers, booleans, null) but rejects anything a
// request line must not contain: trailing garbage, unterminated strings,
// depth bombs.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json_text.hpp"

namespace cwsp::service::json {

class Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

enum class Kind : std::uint8_t {
  kNull,
  kBool,
  kNumber,
  kString,
  kArray,
  kObject,
};

class Value {
 public:
  Value() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(const std::string& key) const;

  // Typed member accessors with fallbacks; throw cwsp::ParseError when the
  // member exists but has the wrong type (a malformed request should be
  // reported, not silently defaulted).
  [[nodiscard]] std::string text(const std::string& key,
                                 const std::string& fallback) const;
  [[nodiscard]] double number(const std::string& key, double fallback) const;
  [[nodiscard]] bool boolean(const std::string& key, bool fallback) const;
  /// The string member `key` without a copy: the pointer shares ownership
  /// of this object's members. nullptr when absent; throws like text().
  [[nodiscard]] std::shared_ptr<const std::string> shared_text(
      const std::string& key) const;

  static Value make_null() { return Value{}; }
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(Array a);
  static Value make_object(Object o);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses exactly one JSON value spanning the whole input (leading and
/// trailing whitespace allowed). Throws cwsp::ParseError on malformed
/// input.
[[nodiscard]] Value parse(const std::string& text);

/// Escapes `text` for embedding inside a JSON string literal (quotes not
/// included); the project's one escaper.
using json_text::escape;

}  // namespace cwsp::service::json
