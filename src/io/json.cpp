#include "io/json.hpp"

#include <array>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <stdexcept>

namespace ksw::io {

namespace {

void append_escaped(std::string& out, const std::string& s) {
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
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
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

// 10^p = mant * 2^exp with mant normalised to 64 bits (top bit set), for
// p from -323 to 335: the decade bounds 10^(q+1) and the scales 10^(11-q)
// of every decimal exponent q of a finite nonzero double (-324 to 308).
constexpr int kMinPow10 = -323;
constexpr int kMaxPow10 = 335;

struct Pow10 {
  std::uint64_t mant;
  int exp;
};

using Pow10Table = std::array<Pow10, kMaxPow10 - kMinPow10 + 1>;

/// The 64-bit mantissa nearest a 128-bit one (top bit set) times 2^exp.
constexpr Pow10 round_to_64(__uint128_t mant, int exp) {
  auto top = static_cast<std::uint64_t>(mant >> 64);
  const auto below = static_cast<std::uint64_t>(mant);
  if (below > (std::uint64_t{1} << 63) ||
      (below == (std::uint64_t{1} << 63) && (top & 1) != 0)) {
    if (++top == 0) return {std::uint64_t{1} << 63, exp + 65};
  }
  return {top, exp + 64};
}

/// Walks 128-bit mantissas up and down from 10^0 by exact steps of 10
/// that truncate below bit 127: after 335 steps the error is under
/// 2^-118 relative, so each 64-bit mantissa is within one unit of 10^p.
consteval Pow10Table make_pow10_table() {
  Pow10Table table{};
  constexpr __uint128_t kTop = static_cast<__uint128_t>(1) << 127;
  __uint128_t mant = kTop;
  int exp = -127;
  for (int p = 0; p <= kMaxPow10; ++p) {
    table[static_cast<std::size_t>(p - kMinPow10)] = round_to_64(mant, exp);
    // mant * 10 = mant * 8 + mant * 2, kept as (mant * 10) >> 4 (or >> 3).
    __uint128_t next = (mant >> 3) + (mant >> 1);
    exp += 4;
    if (next < kTop) {
      next = mant + (mant >> 2);
      exp -= 1;
    }
    mant = next;
  }
  mant = kTop;
  exp = -127;
  for (int p = -1; p >= kMinPow10; --p) {
    // mant / 10 lands in [2^123, 2^124]; shift it back up with the bits
    // of the remainder.
    const __uint128_t quotient = mant / 10;
    const __uint128_t remainder = mant % 10;
    const int shift = quotient >= (kTop >> 3) ? 3 : 4;
    mant = (quotient << shift) + (remainder << shift) / 10;
    exp -= shift;
    table[static_cast<std::size_t>(p - kMinPow10)] = round_to_64(mant, exp);
  }
  return table;
}

constexpr Pow10Table kPow10 = make_pow10_table();

const Pow10& pow10(int p) {
  return kPow10[static_cast<std::size_t>(p - kMinPow10)];
}

constexpr std::uint64_t kTen11 = 100000000000ull;
constexpr std::uint64_t kTen12 = 1000000000000ull;

/// JSON text of a number into `buf`; returns its end. Integral values
/// below 1e15 print as integers, the rest as printf "%.12g" in the C
/// locale (the bytes `os << std::setprecision(12) << d` produced). 12
/// significant digits fit in 32 chars.
char* format_number(char (&buf)[32], double d) {
  if (!std::isfinite(d)) {  // JSON has no NaN/inf
    std::memcpy(buf, "null", 4);
    return buf + 4;
  }
  if (std::abs(d) < 1e15) {
    const auto whole = static_cast<long long>(d);
    if (static_cast<double>(whole) == d)
      return std::to_chars(buf, buf + sizeof buf, whole).ptr;
  }
  if (char* end = detail::format_g12_fast(buf, d)) return end;
  return std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general,
                       12)
      .ptr;
}

/// The six decimal digits of x < 10^6, leading zeros included.
void write_six_digits(char* out, std::uint32_t x) {
  static constexpr char kPairs[] =
      "00010203040506070809101112131415161718192021222324252627282930313233"
      "34353637383940414243444546474849505152535455565758596061626364656667"
      "6869707172737475767778798081828384858687888990919293949596979899";
  std::memcpy(out, kPairs + 2 * (x / 10000), 2);
  std::memcpy(out + 2, kPairs + 2 * (x / 100 % 100), 2);
  std::memcpy(out + 4, kPairs + 2 * (x % 100), 2);
}

void append_pad(std::string& out, int indent, int depth) {
  if (indent > 0) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
  }
}

}  // namespace

char* detail::format_g12_fast(char* buf, double d) noexcept {
  // |d| = m * 2^e2 with the top bit of m set.
  const auto bits = std::bit_cast<std::uint64_t>(d);
  const std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  if (biased == 0x7ff || (biased == 0 && fraction == 0)) return nullptr;
  std::uint64_t m = 0;
  int e2 = 0;
  if (biased == 0) {  // subnormal
    const int lz = std::countl_zero(fraction);
    m = fraction << lz;
    e2 = -1074 - lz;
  } else {
    m = (fraction | (std::uint64_t{1} << 52)) << 11;
    e2 = biased - 1075 - 11;
  }
  // |d| lies in [2^b, 2^(b+1)), so its decimal exponent is
  // floor(b log10 2) or one more; (b * 78913) >> 18 is floor(b log10 2)
  // for 0 <= b <= 1650, and b log10 2 is irrational for b != 0. Where the
  // comparison with the table's 10^(q+1) errs (within 2^-63 of it), the
  // 12-digit rounding below still lands on the right decade.
  const int b = e2 + 63;
  int q = b >= 0 ? (b * 78913) >> 18 : -((-b * 78913) >> 18) - 1;
  if (q + 1 > kMaxPow10 || 11 - q > kMaxPow10) return nullptr;
  const Pow10& next = pow10(q + 1);
  if (e2 != next.exp ? e2 > next.exp : m >= next.mant) ++q;
  const Pow10& t = pow10(11 - q);

  // V = |d| * 10^(11-q) = prod * 2^-(64 + shift), about 10^11 <= V <
  // 10^12. The table's error moves prod by less than 2^64, a unit of its
  // high word.
  const __uint128_t prod = static_cast<__uint128_t>(m) * t.mant;
  const int shift = -(e2 + t.exp) - 64;
  if (shift < 16 || shift > 63) return nullptr;
  const auto high = static_cast<std::uint64_t>(prod >> 64);
  const std::uint64_t whole = high >> shift;
  const std::uint64_t rest = high & ((std::uint64_t{1} << shift) - 1);
  const std::uint64_t half = std::uint64_t{1} << (shift - 1);
  // Within two units (2^65 of prod) of a rounding tie the product cannot
  // decide it: the slow path rounds the exact value half to even.
  if (rest + 2 - half <= 4) return nullptr;
  std::uint64_t digits = whole + (rest > half ? 1 : 0);
  if (digits == kTen12) {  // rounding carried into the next decade
    digits = kTen11;
    ++q;
  }
  if (digits < kTen11 || digits >= kTen12) return nullptr;

  char text[12];
  write_six_digits(text, static_cast<std::uint32_t>(digits / 1000000));
  write_six_digits(text + 6, static_cast<std::uint32_t>(digits % 1000000));
  int len = 12;
  while (text[len - 1] == '0') --len;

  // printf %g layout: fixed when -4 <= q < 12, else d.ddde+XX; no
  // trailing zeros, no bare decimal point.
  char* out = buf;
  if (bits >> 63) *out++ = '-';
  if (q < -4 || q >= 12) {
    *out++ = text[0];
    if (len > 1) {
      *out++ = '.';
      std::memcpy(out, text + 1, static_cast<std::size_t>(len - 1));
      out += len - 1;
    }
    *out++ = 'e';
    *out++ = q < 0 ? '-' : '+';
    int x = q < 0 ? -q : q;
    if (x >= 100) {
      *out++ = static_cast<char>('0' + x / 100);
      x %= 100;
    }
    *out++ = static_cast<char>('0' + x / 10);
    *out++ = static_cast<char>('0' + x % 10);
  } else if (q >= 0) {
    const int whole_digits = q + 1;
    std::memcpy(out, text, static_cast<std::size_t>(whole_digits));
    out += whole_digits;
    if (len > whole_digits) {
      *out++ = '.';
      std::memcpy(out, text + whole_digits,
                  static_cast<std::size_t>(len - whole_digits));
      out += len - whole_digits;
    }
  } else {
    *out++ = '0';
    *out++ = '.';
    for (int i = -1; i > q; --i) *out++ = '0';
    std::memcpy(out, text, static_cast<std::size_t>(len));
    out += len;
  }
  return out;
}

void append_number(std::string& out, double d) {
  char buf[32];
  out.append(buf, format_number(buf, d));
}

void Json::write_impl(std::string& out, int indent, int depth) const {
  if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (const auto* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (const auto* d = std::get_if<double>(&value_)) {
    append_number(out, *d);
  } else if (const auto* s = std::get_if<std::string>(&value_)) {
    out += '"';
    append_escaped(out, *s);
    out += '"';
  } else if (const auto* arr = std::get_if<std::shared_ptr<Array>>(&value_)) {
    const auto& items = (*arr)->items;
    if (items.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i) out += ',';
      append_pad(out, indent, depth + 1);
      items[i].write_impl(out, indent, depth + 1);
    }
    append_pad(out, indent, depth);
    out += ']';
  } else if (const auto* obj =
                 std::get_if<std::shared_ptr<Object>>(&value_)) {
    const auto& members = (*obj)->members;
    if (members.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i) out += ',';
      append_pad(out, indent, depth + 1);
      out += '"';
      append_escaped(out, members[i].first);
      out += "\":";
      if (indent > 0) out += ' ';
      members[i].second.write_impl(out, indent, depth + 1);
    }
    append_pad(out, indent, depth);
    out += '}';
  }
}

void Json::write(std::ostream& os, int indent) const {
  const std::string text = to_string(indent);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string Json::to_string(int indent) const {
  std::string out;
  write_impl(out, indent, 0);
  return out;
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
