// Request telemetry behind `kswsim serve --access-log`: row format,
// one-row-per-request coverage (including malformed lines), trace_id
// generation and echo, and cache/shard attribution.
#include "serve/access_log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "obs/span.hpp"
#include "serve/service.hpp"
#include "serve_pipe.hpp"
#include "support/error.hpp"

namespace ksw::serve {
namespace {

std::string temp_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + std::to_string(::getpid()) + ".jsonl"))
      .string();
}

std::vector<io::Json> read_jsonl(const std::string& path) {
  std::ifstream file(path);
  std::vector<io::Json> rows;
  std::string line;
  while (std::getline(file, line)) rows.push_back(io::Json::parse(line));
  return rows;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) out.push_back(line);
  return out;
}

/// Run the given JSONL request text through a telemetry-enabled service;
/// returns response lines and fills `rows` with the parsed access log.
std::vector<std::string> serve_with_log(const std::string& requests,
                                        std::vector<io::Json>* rows,
                                        obs::Tracer* tracer = nullptr) {
  const std::string path = temp_path("ksw_access_log_");
  ServeOptions opts;
  opts.threads = 2;
  opts.access_log = path;
  opts.tracer = tracer;
  Service service(opts);
  const std::string output = serve_through_pipes(service, requests).output;
  *rows = read_jsonl(path);
  std::filesystem::remove(path);
  return lines_of(output);
}

// ---------------------------------------------------------------------------
// Row rendering (pure)
// ---------------------------------------------------------------------------

TEST(AccessEntry, RendersSuccessRow) {
  AccessEntry entry;
  entry.trace_id = "00000000deadbeef";
  entry.id = io::Json(std::int64_t{7});
  entry.kernel = "first_stage";
  entry.ok = true;
  entry.cached = true;
  entry.shard = 3;
  entry.queue_us = 12.5;
  entry.eval_us = 340.25;
  EXPECT_EQ(render_access_entry(entry),
            R"({"trace_id":"00000000deadbeef","id":7,)"
            R"("kernel":"first_stage","ok":true,"cached":true,"shard":3,)"
            R"("queue_us":12.500,"eval_us":340.250})");
}

TEST(AccessEntry, RendersErrorRowWithNullKernelAndDeadline) {
  AccessEntry entry;
  entry.trace_id = "0000000000000001";
  entry.error_kind = "usage";
  entry.deadline_ms = 50;
  EXPECT_EQ(render_access_entry(entry),
            R"({"trace_id":"0000000000000001","id":null,"kernel":null,)"
            R"("ok":false,"error_kind":"usage","cached":false,"shard":-1,)"
            R"("queue_us":0.000,"eval_us":0.000,"deadline_ms":50})");
}

// The timing fields are printf "%.3f" bytes, ties and large values
// included.
TEST(AccessEntry, RendersTimesAsPrintfFixedThree) {
  for (const double us : {0.0, 0.0005, 0.0015, 0.0625, 1.0 / 3.0, 2.675,
                          12.3456789, 999999.9995, 1e15, -4.0}) {
    AccessEntry entry;
    entry.queue_us = us;
    entry.eval_us = us * 7.0;
    char want[128];
    std::snprintf(want, sizeof want, R"("queue_us":%.3f,"eval_us":%.3f})",
                  us < 0.0 ? 0.0 : us, us < 0.0 ? 0.0 : us * 7.0);
    const std::string row = render_access_entry(entry);
    EXPECT_EQ(row.substr(row.find("\"queue_us\"")), want) << us;
  }
}

TEST(AccessLog, ThrowsIoErrorOnUnwritablePath) {
  EXPECT_THROW(AccessLog("/nonexistent-dir/x/y.jsonl"), Error);
}

// ---------------------------------------------------------------------------
// End-to-end through the service
// ---------------------------------------------------------------------------

TEST(AccessLogE2E, OneRowPerRequestIncludingMalformed) {
  std::vector<io::Json> rows;
  const auto responses = serve_with_log(
      R"({"id":1,"kernel":"first_stage","params":{"p":0.5}})"
      "\n"
      "this is not json\n"
      R"({"id":3,"kernel":"nope"})"
      "\n",
      &rows);
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_EQ(rows.size(), 3u);

  EXPECT_TRUE(rows[0].at("ok").as_bool());
  EXPECT_EQ(rows[0].at("kernel").as_string(), "first_stage");
  EXPECT_EQ(rows[0].at("id").as_int(), 1);

  // The unparseable line still gets a row — null id/kernel, usage kind.
  EXPECT_FALSE(rows[1].at("ok").as_bool());
  EXPECT_TRUE(rows[1].at("id").is_null());
  EXPECT_TRUE(rows[1].at("kernel").is_null());
  EXPECT_EQ(rows[1].at("error_kind").as_string(), "usage");

  EXPECT_FALSE(rows[2].at("ok").as_bool());
  EXPECT_EQ(rows[2].at("id").as_int(), 3);

  for (const auto& row : rows) {
    // Generated ids are 16-char hex; timing fields are non-negative.
    EXPECT_EQ(row.at("trace_id").as_string().size(), 16u);
    EXPECT_NE(obs::parse_hex_id(row.at("trace_id").as_string()), 0u);
    EXPECT_GE(row.at("queue_us").as_double(), 0.0);
    EXPECT_GE(row.at("eval_us").as_double(), 0.0);
  }
}

TEST(AccessLogE2E, ClientTraceIdIsEchoedInRowAndResponse) {
  std::vector<io::Json> rows;
  const auto responses = serve_with_log(
      R"({"id":1,"kernel":"first_stage","params":{"p":0.5},)"
      R"("trace_id":"00000000deadbeef"})"
      "\n",
      &rows);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("trace_id").as_string(), "00000000deadbeef");
  EXPECT_NE(responses[0].find(R"("trace_id":"00000000deadbeef")"),
            std::string::npos);
}

TEST(AccessLogE2E, GeneratedTraceIdsAreDistinctAndEchoed) {
  std::vector<io::Json> rows;
  const auto responses = serve_with_log(
      R"({"id":1,"kernel":"first_stage","params":{"p":0.5}})"
      "\n"
      R"({"id":2,"kernel":"first_stage","params":{"p":0.6}})"
      "\n",
      &rows);
  ASSERT_EQ(rows.size(), 2u);
  const std::string a = rows[0].at("trace_id").as_string();
  const std::string b = rows[1].at("trace_id").as_string();
  EXPECT_NE(a, b);
  // The generated id is also echoed in the response envelope, so a
  // client can join its responses to the server-side log.
  EXPECT_NE(responses[0].find("\"trace_id\":\"" + a + "\""),
            std::string::npos);
  EXPECT_NE(responses[1].find("\"trace_id\":\"" + b + "\""),
            std::string::npos);
}

TEST(AccessLogE2E, RepeatedTupleIsMarkedCachedWithItsShard) {
  std::vector<io::Json> rows;
  serve_with_log(
      R"({"id":1,"kernel":"first_stage","params":{"p":0.5}})"
      "\n"
      R"({"id":2,"kernel":"first_stage","params":{"p":0.5}})"
      "\n",
      &rows);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[0].at("cached").as_bool());
  EXPECT_TRUE(rows[1].at("cached").as_bool());
  // Identical tuples hash to the same shard, and a consulted shard is
  // always reported.
  EXPECT_GE(rows[0].at("shard").as_int(), 0);
  EXPECT_EQ(rows[0].at("shard").as_int(), rows[1].at("shard").as_int());
}

TEST(AccessLogE2E, SpansShareTheRowsTraceId) {
  obs::Tracer tracer;
  std::vector<io::Json> rows;
  serve_with_log(
      R"({"id":1,"kernel":"first_stage","params":{"p":0.5},)"
      R"("trace_id":"00000000deadbeef"})"
      "\n",
      &rows, &tracer);
  ASSERT_EQ(rows.size(), 1u);
  bool found = false;
  for (const auto& rec : tracer.snapshot())
    if (rec.name == "serve.request") {
      EXPECT_EQ(rec.trace_id, 0xdeadbeefu);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(AccessLogE2E, ResponsesCarryNoTraceIdWhenTelemetryIsOff) {
  // The historic wire format is pinned: without --access-log or a
  // tracer, no trace_id is generated or echoed.
  ServeOptions opts;
  Service service(opts);
  const std::string output =
      serve_through_pipes(
          service, R"({"id":1,"kernel":"first_stage","params":{"p":0.5}})"
                   "\n")
          .output;
  EXPECT_EQ(output.find("trace_id"), std::string::npos);
}

}  // namespace
}  // namespace ksw::serve
