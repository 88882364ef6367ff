#include "io/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ksw::io {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream os;
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c);
          out += os.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

Json Json::array() {
  Json j;
  j.value_ = std::make_shared<Array>();
  return j;
}

Json Json::object() {
  Json j;
  j.value_ = std::make_shared<Object>();
  return j;
}

Json& Json::push_back(Json v) {
  if (is_null()) value_ = std::make_shared<Array>();
  auto* arr = std::get_if<std::shared_ptr<Array>>(&value_);
  if (arr == nullptr)
    throw std::logic_error("Json::push_back: not an array");
  (*arr)->items.push_back(std::move(v));
  return *this;
}

Json& Json::set(const std::string& key, Json v) {
  if (is_null()) value_ = std::make_shared<Object>();
  auto* obj = std::get_if<std::shared_ptr<Object>>(&value_);
  if (obj == nullptr) throw std::logic_error("Json::set: not an object");
  for (auto& member : (*obj)->members) {
    if (member.first == key) {
      member.second = std::move(v);
      return *this;
    }
  }
  (*obj)->members.emplace_back(key, std::move(v));
  return *this;
}

bool Json::is_null() const noexcept {
  return std::holds_alternative<std::nullptr_t>(value_);
}

bool Json::is_bool() const noexcept {
  return std::holds_alternative<bool>(value_);
}

bool Json::is_number() const noexcept {
  return std::holds_alternative<double>(value_);
}

bool Json::is_string() const noexcept {
  return std::holds_alternative<std::string>(value_);
}

bool Json::as_bool() const {
  if (const auto* b = std::get_if<bool>(&value_)) return *b;
  throw std::invalid_argument("Json::as_bool: not a boolean");
}

double Json::as_double() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  throw std::invalid_argument("Json::as_double: not a number");
}

std::int64_t Json::as_int() const {
  const double d = as_double();
  if (d != std::floor(d) || std::abs(d) > 9.007199254740992e15)
    throw std::invalid_argument("Json::as_int: not an integer: " +
                                to_string());
  return static_cast<std::int64_t>(d);
}

const std::string& Json::as_string() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  throw std::invalid_argument("Json::as_string: not a string");
}

bool Json::contains(const std::string& key) const {
  const auto* obj = std::get_if<std::shared_ptr<Object>>(&value_);
  if (obj == nullptr) return false;
  for (const auto& member : (*obj)->members)
    if (member.first == key) return true;
  return false;
}

const Json& Json::at(const std::string& key) const {
  const auto* obj = std::get_if<std::shared_ptr<Object>>(&value_);
  if (obj == nullptr)
    throw std::invalid_argument("Json::at(\"" + key + "\"): not an object");
  for (const auto& member : (*obj)->members)
    if (member.first == key) return member.second;
  throw std::invalid_argument("Json::at: missing key \"" + key + "\"");
}

Json Json::get(const std::string& key) const {
  return contains(key) ? at(key) : Json();
}

std::vector<std::string> Json::keys() const {
  std::vector<std::string> out;
  if (const auto* obj = std::get_if<std::shared_ptr<Object>>(&value_))
    for (const auto& member : (*obj)->members) out.push_back(member.first);
  return out;
}

const Json& Json::at(std::size_t index) const {
  const auto* arr = std::get_if<std::shared_ptr<Array>>(&value_);
  if (arr == nullptr)
    throw std::invalid_argument("Json::at(index): not an array");
  if (index >= (*arr)->items.size())
    throw std::invalid_argument("Json::at: index " + std::to_string(index) +
                                " out of range");
  return (*arr)->items[index];
}

bool Json::is_array() const noexcept {
  return std::holds_alternative<std::shared_ptr<Array>>(value_);
}

bool Json::is_object() const noexcept {
  return std::holds_alternative<std::shared_ptr<Object>>(value_);
}

std::size_t Json::size() const {
  if (const auto* arr = std::get_if<std::shared_ptr<Array>>(&value_))
    return (*arr)->items.size();
  if (const auto* obj = std::get_if<std::shared_ptr<Object>>(&value_))
    return (*obj)->members.size();
  return 0;
}

namespace {

void write_number(std::ostream& os, double d) {
  if (!std::isfinite(d)) {
    os << "null";  // JSON has no NaN/inf
    return;
  }
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    os << static_cast<long long>(d);
    return;
  }
  // to_chars general format with a precision is printf "%.12g" in the C
  // locale — the bytes `os << std::setprecision(12) << d` produced — without
  // a stream per number. 12 significant digits fit in 32 chars.
  char buf[32];
  const auto res =
      std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 12);
  os.write(buf, res.ptr - buf);
}

void write_pad(std::ostream& os, int indent, int depth) {
  if (indent > 0) {
    os << '\n';
    for (int i = 0; i < indent * depth; ++i) os << ' ';
  }
}

}  // namespace

void Json::write_impl(std::ostream& os, int indent, int depth) const {
  if (std::holds_alternative<std::nullptr_t>(value_)) {
    os << "null";
  } else if (const auto* b = std::get_if<bool>(&value_)) {
    os << (*b ? "true" : "false");
  } else if (const auto* d = std::get_if<double>(&value_)) {
    write_number(os, *d);
  } else if (const auto* s = std::get_if<std::string>(&value_)) {
    os << '"' << json_escape(*s) << '"';
  } else if (const auto* arr = std::get_if<std::shared_ptr<Array>>(&value_)) {
    const auto& items = (*arr)->items;
    if (items.empty()) {
      os << "[]";
      return;
    }
    os << '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i) os << ',';
      write_pad(os, indent, depth + 1);
      items[i].write_impl(os, indent, depth + 1);
    }
    write_pad(os, indent, depth);
    os << ']';
  } else if (const auto* obj =
                 std::get_if<std::shared_ptr<Object>>(&value_)) {
    const auto& members = (*obj)->members;
    if (members.empty()) {
      os << "{}";
      return;
    }
    os << '{';
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i) os << ',';
      write_pad(os, indent, depth + 1);
      os << '"' << json_escape(members[i].first) << "\":";
      if (indent > 0) os << ' ';
      members[i].second.write_impl(os, indent, depth + 1);
    }
    write_pad(os, indent, depth);
    os << '}';
  }
}

void Json::write(std::ostream& os, int indent) const {
  write_impl(os, indent, 0);
}

std::string Json::to_string(int indent) const {
  std::ostringstream os;
  write(os, indent);
  return os.str();
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

/// Strict recursive-descent JSON reader over a string view of the input.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  Json parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("bad literal");
      default:
        return Json(parse_number());
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      if (peek() != '"') fail("expected object key string");
      const std::string key = parse_string();
      if (obj.contains(key)) fail("duplicate object key \"" + key + "\"");
      expect(':');
      obj.set(key, parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail(std::string("bad escape '\\") + esc + "'");
      }
    }
  }

  /// Decode \uXXXX to UTF-8 (basic multilingual plane only; surrogate
  /// pairs are rejected — the manifests this parser serves are ASCII).
  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    if (code >= 0xd800 && code <= 0xdfff)
      fail("surrogate \\u escapes are not supported");
    std::string out;
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
    return out;
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      const std::size_t first = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
      return pos_ > first;
    };
    const std::size_t int_start = pos_;
    if (!digits()) fail("bad number");
    if (text_[int_start] == '0' && pos_ - int_start > 1)
      fail("bad number: leading zero");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("bad number: digits required after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digits()) fail("bad number: digits required in exponent");
    }
    // strtod rather than stod: a finite underflow (a subnormal such as
    // 4.94065645841e-324, which long distributions print) is a value, not
    // an error. Only overflow to infinity is rejected.
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    const double value = std::strtod(token.c_str(), nullptr);
    if (errno == ERANGE && std::isinf(value)) fail("number out of range");
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace ksw::io
