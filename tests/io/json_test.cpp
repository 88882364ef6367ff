#include "io/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace ksw::io {
namespace {

TEST(JsonEscape, ControlAndSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nfeed"), "line\\nfeed");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, Scalars) {
  EXPECT_EQ(Json().to_string(), "null");
  EXPECT_EQ(Json(true).to_string(), "true");
  EXPECT_EQ(Json(false).to_string(), "false");
  EXPECT_EQ(Json(42).to_string(), "42");
  EXPECT_EQ(Json(2.5).to_string(), "2.5");
  EXPECT_EQ(Json("text").to_string(), "\"text\"");
}

TEST(Json, IntegersRenderWithoutDecimalPoint) {
  EXPECT_EQ(Json(std::int64_t{1000000}).to_string(), "1000000");
  EXPECT_EQ(Json(-3.0).to_string(), "-3");
}

TEST(Json, NonFiniteBecomesNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).to_string(),
            "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).to_string(),
            "null");
}

/// The number rendering contract, written independently of the writer:
/// null for non-finite values, integral magnitudes below 1e15 as
/// integers, everything else printf "%.12g" (C locale).
std::string reference_number(double d) {
  if (!std::isfinite(d)) return "null";
  char buf[64];
  if (d == std::floor(d) && std::abs(d) < 1e15)
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
  else
    std::snprintf(buf, sizeof buf, "%.12g", d);
  return buf;
}

TEST(JsonNumber, MatchesPrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(12);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-40, 40);
  for (int i = 0; i < 200000; ++i) {
    const double raw = std::bit_cast<double>(rng());
    ASSERT_EQ(Json(raw).to_string(), reference_number(raw))
        << std::hexfloat << raw;
    // Probabilities and moments: the magnitudes responses actually carry.
    const double typical = std::ldexp(unit(rng), exponent(rng));
    ASSERT_EQ(Json(typical).to_string(), reference_number(typical))
        << std::hexfloat << typical;
  }
}

TEST(JsonNumber, EdgeCases) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json(-0.0).to_string(), "0");
  EXPECT_EQ(Json(1e15).to_string(), "1e+15");
  EXPECT_EQ(Json(-1e15).to_string(), "-1e+15");
  EXPECT_EQ(Json(999999999999999.0).to_string(), "999999999999999");
  EXPECT_EQ(Json(std::numeric_limits<double>::denorm_min()).to_string(),
            "4.94065645841e-324");
  EXPECT_EQ(Json(-std::numeric_limits<double>::denorm_min()).to_string(),
            "-4.94065645841e-324");
  EXPECT_EQ(Json(std::numeric_limits<double>::min()).to_string(),
            "2.22507385851e-308");
  EXPECT_EQ(Json(std::numeric_limits<double>::max()).to_string(),
            "1.79769313486e+308");
  EXPECT_EQ(Json(0.1).to_string(), "0.1");
  EXPECT_EQ(Json(1.0 / 3.0).to_string(), "0.333333333333");
  EXPECT_EQ(Json(1e-5).to_string(), "1e-05");
  EXPECT_EQ(Json(123456.5).to_string(), "123456.5");
  // Exact binary ties at the 12th digit round half to even, as printf.
  EXPECT_EQ(Json(100000000000.5).to_string(), "100000000000");
  EXPECT_EQ(Json(100000000001.5).to_string(), "100000000002");
  EXPECT_EQ(Json(inf).to_string(), "null");
  EXPECT_EQ(Json(-inf).to_string(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).to_string(),
            "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::quiet_NaN()).to_string(),
            "null");
  for (const double d : {-0.0, 1e15, -1e15, 100000000000.5, 2.5e-310})
    EXPECT_EQ(Json(d).to_string(), reference_number(d));
}

/// printf "%.12g" and std::to_chars(general, 12) of d, which must agree.
std::string printf_g12(double d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", d);
  return buf;
}

std::string to_chars_g12(double d) {
  char buf[64];
  const auto end =
      std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 12)
          .ptr;
  return std::string(buf, end);
}

/// append_number against both "%.12g" references, for values outside
/// the integer path (whose contract is "%lld").
::testing::AssertionResult renders_like_g12(double d) {
  std::string got;
  append_number(got, d);
  if (!std::isfinite(d) || (d == std::floor(d) && std::abs(d) < 1e15))
    return got == reference_number(d)
               ? ::testing::AssertionSuccess()
               : ::testing::AssertionFailure() << got << " for " << d;
  const std::string want = printf_g12(d);
  if (got == want && to_chars_g12(d) == want)
    return ::testing::AssertionSuccess();
  char hex[64];
  std::snprintf(hex, sizeof hex, "%a", d);
  return ::testing::AssertionFailure()
         << hex << ": append_number " << got << ", printf " << want
         << ", to_chars " << to_chars_g12(d);
}

/// d and its neighbours, one and two ulps away, with both signs.
template <typename Check>
void around(double d, Check&& check) {
  const double inf = std::numeric_limits<double>::infinity();
  double down = d, up = d;
  check(d);
  check(-d);
  for (int i = 0; i < 2; ++i) {
    down = std::nextafter(down, 0.0);
    up = std::nextafter(up, inf);
    for (const double v : {down, up, -down, -up}) check(v);
  }
}

double from_text(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

/// Whether d's exact decimal expansion has 13 significant digits ending
/// in 5: a tie that "%.12g" must round half to even.
bool is_exact_tie(double d) {
  char buf[1100];
  std::snprintf(buf, sizeof buf, "%.800e", std::abs(d));
  std::string digits;
  for (const char* c = buf; *c != 'e'; ++c)
    if (*c != '.') digits += *c;
  while (digits.back() == '0') digits.pop_back();
  return digits.size() == 13 && digits.back() == '5';
}

TEST(JsonNumber, MatchesPrintfAndToCharsNearPowersOfTenAndTwo) {
  for (int k = -323; k <= 308; ++k) {
    around(from_text("1e" + std::to_string(k)),
           [](double v) { ASSERT_TRUE(renders_like_g12(v)); });
    // Rounding to 12 digits lands exactly on the next decade or not.
    for (const char* mantissa : {"9.999999999995e", "1.0000000000005e",
                                 "9.99999999999949e", "9.99999999999951e"}) {
      const double v = from_text(mantissa + std::to_string(k));
      if (std::isfinite(v))
        around(v, [](double x) { ASSERT_TRUE(renders_like_g12(x)); });
    }
  }
  for (int e = -1074; e <= 1023; ++e)
    around(std::ldexp(1.0, e),
           [](double v) { ASSERT_TRUE(renders_like_g12(v)); });
}

TEST(JsonNumber, MatchesPrintfAndToCharsOnDecimalMidpoints) {
  // "d.ddddddddddd5eK": halfway between two 12-digit decimals, which
  // strtod rounds to a double just above or below the midpoint.
  std::mt19937_64 rng(19);
  std::uniform_int_distribution<std::uint64_t> twelve(100000000000ull,
                                                      999999999999ull);
  std::uniform_int_distribution<int> exponent(-323, 308);
  for (int i = 0; i < 100000; ++i) {
    const std::string n = std::to_string(twelve(rng));
    const double v = from_text(n.substr(0, 1) + "." + n.substr(1) + "5e" +
                               std::to_string(exponent(rng)));
    if (std::isfinite(v))
      around(v, [](double x) { ASSERT_TRUE(renders_like_g12(x)); });
  }
}

TEST(JsonNumber, MatchesPrintfAndToCharsOnBoundariesAndSubnormals) {
  const double kLimit = 1e15;
  around(kLimit, [](double v) { ASSERT_TRUE(renders_like_g12(v)); });
  // 0.0001220703125 = 2^-13: exact, 10 digits, no rounding at all.
  around(std::ldexp(1.0, -13),
         [](double v) { ASSERT_TRUE(renders_like_g12(v)); });
  around(999999999999.5, [](double v) { ASSERT_TRUE(renders_like_g12(v)); });
  around(std::numeric_limits<double>::max(),
         [](double v) { ASSERT_TRUE(renders_like_g12(v)); });
  around(std::numeric_limits<double>::min(),
         [](double v) { ASSERT_TRUE(renders_like_g12(v)); });
  std::mt19937_64 rng(20);
  for (int i = 0; i < 100000; ++i) {
    // Every subnormal width, from one fraction bit to all 52.
    const std::uint64_t fraction = rng() >> (12 + i % 52);
    const double v = std::bit_cast<double>(fraction);
    ASSERT_TRUE(renders_like_g12(v));
    ASSERT_TRUE(renders_like_g12(-v));
  }
}

TEST(JsonNumber, MatchesPrintfAndToCharsOnAMillionRandomBitPatterns) {
  std::mt19937_64 rng(21);
  for (int i = 0; i < 1000000; ++i) {
    const double v = std::bit_cast<double>(rng());
    ASSERT_TRUE(renders_like_g12(v));
  }
}

/// Exact binary ties: n + 1/2 for 12-digit n, I + f/2^j with j fraction
/// digits after a (13 - j)-digit integer part, 13-digit integers ending
/// in 5 times 1000, and 2^-18 = 3.814697265625e-06.
std::vector<double> exact_ties() {
  std::vector<double> ties{std::ldexp(1.0, -18), 100000000000.5,
                           100000000001.5, 999999999999.5};
  std::mt19937_64 rng(22);
  const auto uniform = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
  };
  std::uint64_t pow10[14] = {1};
  for (int i = 1; i < 14; ++i) pow10[i] = pow10[i - 1] * 10;
  for (int i = 0; i < 20000; ++i) {
    ties.push_back(static_cast<double>(uniform(pow10[11], pow10[12] - 1)) +
                   0.5);
    const int j = 1 + i % 12;
    const std::uint64_t whole = uniform(pow10[12 - j], pow10[13 - j] - 1);
    const std::uint64_t odd = 2 * uniform(0, (std::uint64_t{1} << (j - 1)) - 1) + 1;
    ties.push_back(std::ldexp(static_cast<double>((whole << j) + odd), -j));
    ties.push_back(
        static_cast<double>((10 * uniform(pow10[11], 900719925473ull) + 5) *
                            1000));
  }
  return ties;
}

TEST(JsonNumberFastPath, FallsBackOnEveryExactTie) {
  for (const double tie : exact_ties()) {
    ASSERT_TRUE(is_exact_tie(tie)) << std::hexfloat << tie;
    for (const double v : {tie, -tie}) {
      char buf[32];
      ASSERT_EQ(detail::format_g12_fast(buf, v), nullptr)
          << std::hexfloat << v;
      ASSERT_TRUE(renders_like_g12(v));
    }
  }
}

TEST(JsonNumberFastPath, TakesTheFastPathAlmostAlways) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-60, 10);
  const int kInputs = 1000000;
  int fallbacks = 0;
  for (int i = 0; i < kInputs; ++i) {
    // Random bit patterns, and the probabilities responses carry.
    double v = std::bit_cast<double>(rng());
    if (i % 2) v = std::ldexp(unit(rng), exponent(rng));
    if (!std::isfinite(v) || (v == std::floor(v) && std::abs(v) < 1e15))
      continue;
    char buf[32];
    char* end = detail::format_g12_fast(buf, v);
    if (end == nullptr) {
      ++fallbacks;
      continue;
    }
    ASSERT_EQ(std::string(buf, end), printf_g12(v)) << std::hexfloat << v;
  }
  EXPECT_LT(fallbacks, kInputs / 10000);
}

TEST(Json, ArraysAndObjects) {
  Json arr = Json::array();
  arr.push_back(1).push_back("two").push_back(Json());
  EXPECT_EQ(arr.to_string(), "[1,\"two\",null]");
  EXPECT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr.is_array());

  Json obj = Json::object();
  obj.set("a", 1).set("b", true);
  EXPECT_EQ(obj.to_string(), "{\"a\":1,\"b\":true}");
  EXPECT_TRUE(obj.is_object());
}

TEST(Json, SetOverwritesExistingKeyInPlace) {
  Json obj = Json::object();
  obj.set("x", 1).set("y", 2).set("x", 3);
  EXPECT_EQ(obj.to_string(), "{\"x\":3,\"y\":2}");
  EXPECT_EQ(obj.size(), 2u);
}

TEST(Json, NullPromotesOnMutation) {
  Json j;
  j.push_back(1);
  EXPECT_TRUE(j.is_array());
  Json k;
  k.set("key", "v");
  EXPECT_TRUE(k.is_object());
}

TEST(Json, MutatingWrongTypeThrows) {
  Json arr = Json::array();
  EXPECT_THROW(arr.set("k", 1), std::logic_error);
  Json obj = Json::object();
  EXPECT_THROW(obj.push_back(1), std::logic_error);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::array().to_string(), "[]");
  EXPECT_EQ(Json::object().to_string(), "{}");
  EXPECT_EQ(Json::array().to_string(2), "[]");
}

TEST(Json, PrettyPrinting) {
  Json obj = Json::object();
  obj.set("a", 1);
  Json nested = Json::array();
  nested.push_back(2);
  obj.set("b", std::move(nested));
  EXPECT_EQ(obj.to_string(2),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(Json, NestedStructure) {
  Json doc = Json::object();
  Json rows = Json::array();
  for (int i = 0; i < 3; ++i) {
    Json row = Json::object();
    row.set("i", i);
    rows.push_back(std::move(row));
  }
  doc.set("rows", std::move(rows));
  EXPECT_EQ(doc.to_string(),
            "{\"rows\":[{\"i\":0},{\"i\":1},{\"i\":2}]}");
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e1").as_double(), -25.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, RoundTripsItsOwnOutput) {
  Json doc = Json::object();
  doc.set("name", "sweep").set("n", 3).set("p", 0.125).set("on", true);
  Json arr = Json::array();
  arr.push_back(1).push_back("two").push_back(Json());
  doc.set("items", std::move(arr));
  const Json back = Json::parse(doc.to_string(2));
  EXPECT_EQ(back.to_string(), doc.to_string());
}

TEST(JsonParse, ObjectAccessors) {
  const Json doc = Json::parse(R"({"a": 1, "b": {"c": [10, 20]}})");
  EXPECT_TRUE(doc.contains("a"));
  EXPECT_FALSE(doc.contains("z"));
  EXPECT_EQ(doc.at("a").as_int(), 1);
  EXPECT_EQ(doc.at("b").at("c").at(1).as_int(), 20);
  EXPECT_TRUE(doc.get("missing").is_null());
  EXPECT_EQ(doc.keys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_THROW(doc.at("z"), std::invalid_argument);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\n")").as_string(), "a\"b\\c\n");
  EXPECT_EQ(Json::parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(JsonParse, TypeMismatchesThrow) {
  EXPECT_THROW(Json::parse("42").as_string(), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"x\"").as_double(), std::invalid_argument);
  EXPECT_THROW(Json::parse("2.5").as_int(), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1]").at("k"), std::invalid_argument);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
  EXPECT_THROW(Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\":1} extra"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{'a':1}"), std::invalid_argument);
  EXPECT_THROW(Json::parse("nul"), std::invalid_argument);
  EXPECT_THROW(Json::parse("01"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1."), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"bad\\x\""), std::invalid_argument);
}

TEST(JsonParse, AcceptsFiniteUnderflow) {
  // Long distributions print subnormal tails; the parser must read back
  // what the writer emits.
  EXPECT_EQ(Json::parse("4.94065645841e-324").as_double(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(Json::parse("[1e-320]").at(0).as_double(), 1e-320);
  const double flushed = Json::parse("-1e-400").as_double();
  EXPECT_EQ(flushed, 0.0);
  EXPECT_TRUE(std::signbit(flushed));
  const double tail = 2.5e-310;
  EXPECT_NEAR(Json::parse(Json(tail).to_string()).as_double(), tail, 1e-321);
}

TEST(JsonParse, RejectsOverflowAsParseError) {
  EXPECT_THROW(Json::parse("1e400"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[-1e999]"), std::invalid_argument);
}

TEST(JsonParse, RejectsDuplicateObjectKeys) {
  EXPECT_THROW(Json::parse(R"({"a": 1, "a": 2})"), std::invalid_argument);
}

}  // namespace
}  // namespace ksw::io
