#include "service/json.hpp"

#include <bit>
#include <cctype>
#include <cstdlib>
#include <cstring>

namespace cwsp::service::json {
namespace {

[[noreturn]] void fail(const std::string& what, std::size_t at) {
  throw ParseError("json: " + what + " at offset " + std::to_string(at));
}

/// Index of the first '"' or '\\' in text[from, end), or `end`. Tests
/// eight bytes at a time for a byte equal to either (SWAR zero-byte test,
/// exact for the word as a whole), then locates it within the word.
std::size_t find_quote_or_backslash(const char* text, std::size_t from,
                                    std::size_t end) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHighs = 0x8080808080808080ULL;
  std::size_t i = from;
  for (; i + 8 <= end; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, text + i, 8);
    const std::uint64_t quote = word ^ (kOnes * '"');
    const std::uint64_t slash = word ^ (kOnes * '\\');
    const std::uint64_t hit =
        (((quote - kOnes) & ~quote) | ((slash - kOnes) & ~slash)) & kHighs;
    if (hit != 0) {
      // The lowest flagged byte is always a true match, so on
      // little-endian targets it is the answer.
      if constexpr (std::endian::native == std::endian::little) {
        return i + static_cast<std::size_t>(std::countr_zero(hit)) / 8;
      }
      break;
    }
  }
  while (i < end && text[i] != '"' && text[i] != '\\') ++i;
  return i;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    const Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage", pos_);
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'", pos_);
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep", pos_);
    skip_ws();
    Value v;
    switch (peek()) {
      case '{':
        v = parse_object();
        break;
      case '[':
        v = parse_array();
        break;
      case '"':
        v = Value::make_string(parse_string());
        break;
      case 't':
        if (!consume_literal("true")) fail("bad literal", pos_);
        v = Value::make_bool(true);
        break;
      case 'f':
        if (!consume_literal("false")) fail("bad literal", pos_);
        v = Value::make_bool(false);
        break;
      case 'n':
        if (!consume_literal("null")) fail("bad literal", pos_);
        break;
      default:
        v = Value::make_number(parse_number());
    }
    --depth_;
    return v;
  }

  Value parse_object() {
    expect('{');
    Object object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(object));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      object[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value::make_object(std::move(object));
    }
  }

  Value parse_array() {
    expect('[');
    Array array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(array));
    }
    for (;;) {
      array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value::make_array(std::move(array));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Every byte but '"' and '\\' stands for itself (raw control bytes
      // included): append the run before the next of those in one call.
      const std::size_t stop =
          find_quote_or_backslash(text_.data(), pos_, text_.size());
      out.append(text_, pos_, stop - pos_);
      pos_ = stop;
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out += e;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape", pos_);
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape", pos_);
          }
          // The protocol's payloads are ASCII; encode BMP code points as
          // UTF-8 so escape()/parse() round-trip any payload byte.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          fail("bad escape", pos_);
      }
    }
  }

  double parse_number() {
    const std::size_t begin = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == begin) fail("expected a value", pos_);
    const std::string token = text_.substr(begin, pos_ - begin);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number", begin);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

[[noreturn]] void type_error(const char* want) {
  throw ParseError(std::string("json: value is not ") + want);
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) type_error("a boolean");
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::kNumber) type_error("a number");
  return number_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) type_error("a string");
  return string_;
}

const Array& Value::as_array() const {
  if (kind_ != Kind::kArray) type_error("an array");
  return *array_;
}

const Object& Value::as_object() const {
  if (kind_ != Kind::kObject) type_error("an object");
  return *object_;
}

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

std::string Value::text(const std::string& key,
                        const std::string& fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_string();
}

double Value::number(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_number();
}

bool Value::boolean(const std::string& key, bool fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_bool();
}

std::shared_ptr<const std::string> Value::shared_text(
    const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) return nullptr;
  return {object_, &v->as_string()};  // aliasing: owns the whole object
}

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(Array a) {
  Value v;
  v.kind_ = Kind::kArray;
  v.array_ = std::make_shared<Array>(std::move(a));
  return v;
}

Value Value::make_object(Object o) {
  Value v;
  v.kind_ = Kind::kObject;
  v.object_ = std::make_shared<Object>(std::move(o));
  return v;
}

Value parse(const std::string& text) { return Parser(text).parse_document(); }

}  // namespace cwsp::service::json
