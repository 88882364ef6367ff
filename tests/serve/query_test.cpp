// ksw.query/v1 wire model: strict parsing, canonicalization, rendering.
#include "serve/query.hpp"

#include <gtest/gtest.h>

#include "io/json.hpp"

namespace ksw::serve {
namespace {

TEST(QueryParse, MinimalRequestFillsDefaults) {
  const Request req = Request::parse(R"({"kernel":"first_stage"})");
  ASSERT_TRUE(req.valid()) << req.error_message;
  EXPECT_TRUE(req.id.is_null());
  EXPECT_EQ(req.query.kernel, Kernel::kFirstStage);
  EXPECT_EQ(req.query.k, 2u);
  EXPECT_EQ(req.query.s, 2u);
  EXPECT_DOUBLE_EQ(req.query.p, 0.5);
  EXPECT_EQ(req.query.bulk, 1u);
  EXPECT_DOUBLE_EQ(req.query.q, 0.0);
  EXPECT_EQ(req.query.service, "det:1");
  EXPECT_EQ(req.deadline_ms, 0);
}

TEST(QueryParse, SDefaultsToK) {
  const Request req =
      Request::parse(R"({"kernel":"first_stage","params":{"k":4}})");
  ASSERT_TRUE(req.valid());
  EXPECT_EQ(req.query.k, 4u);
  EXPECT_EQ(req.query.s, 4u);
}

TEST(QueryParse, SchemaFieldAcceptedWhenCorrect) {
  const Request req = Request::parse(
      R"({"schema":"ksw.query/v1","kernel":"later_stages"})");
  EXPECT_TRUE(req.valid());
}

TEST(QueryParse, WrongSchemaIsUsage) {
  const Request req =
      Request::parse(R"({"schema":"ksw.query/v2","kernel":"later_stages"})");
  EXPECT_EQ(req.error_kind, wire::kUsage);
}

TEST(QueryParse, MalformedJsonIsUsage) {
  const Request req = Request::parse("{not json");
  EXPECT_EQ(req.error_kind, wire::kUsage);
}

TEST(QueryParse, MissingKernelIsUsage) {
  const Request req = Request::parse(R"({"id":1})");
  EXPECT_EQ(req.error_kind, wire::kUsage);
}

TEST(QueryParse, UnknownKernelIsUsage) {
  const Request req = Request::parse(R"({"kernel":"warp_drive"})");
  EXPECT_EQ(req.error_kind, wire::kUsage);
}

TEST(QueryParse, UnknownTopLevelFieldIsUsage) {
  const Request req =
      Request::parse(R"({"kernel":"first_stage","extra":true})");
  EXPECT_EQ(req.error_kind, wire::kUsage);
}

TEST(QueryParse, UnknownParamIsUsage) {
  const Request req =
      Request::parse(R"({"kernel":"first_stage","params":{"kk":2}})");
  EXPECT_EQ(req.error_kind, wire::kUsage);
}

TEST(QueryParse, ParamFromAnotherKernelIsUsage) {
  // "stages" belongs to total_delay, not later_stages.
  const Request req =
      Request::parse(R"({"kernel":"later_stages","params":{"stages":8}})");
  EXPECT_EQ(req.error_kind, wire::kUsage);
}

TEST(QueryParse, OutOfDomainProbabilityIsUsage) {
  const Request req =
      Request::parse(R"({"kernel":"first_stage","params":{"p":1.5}})");
  EXPECT_EQ(req.error_kind, wire::kUsage);
}

TEST(QueryParse, OutOfRangeNumbersAreUsage) {
  // Subnormals parse as JSON but are no model input; overflow is a JSON
  // error. Neither may escape Request::parse as an exception.
  for (const char* line :
       {R"({"kernel":"first_stage","params":{"p":1e-320}})",
        R"({"kernel":"first_stage","params":{"q":-4.9e-324}})",
        R"({"kernel":"total_delay","params":{"quantiles":[0.5,1e-310]}})",
        R"({"kernel":"first_stage","params":{"p":1e999}})"}) {
    const Request req = Request::parse(line);
    EXPECT_EQ(req.error_kind, wire::kUsage) << line;
  }
  // An underflow to zero is just zero.
  const Request zero =
      Request::parse(R"({"kernel":"first_stage","params":{"q":1e-400}})");
  EXPECT_TRUE(zero.valid()) << zero.error_message;
}

TEST(QueryParse, FavoriteOutputRequiresSquareSwitch) {
  const Request req = Request::parse(
      R"({"kernel":"first_stage","params":{"k":2,"s":4,"q":0.2}})");
  EXPECT_EQ(req.error_kind, wire::kUsage);
}

TEST(QueryParse, BadServiceSpecIsUsage) {
  const Request req = Request::parse(
      R"({"kernel":"first_stage","params":{"service":"warp:1"}})");
  EXPECT_EQ(req.error_kind, wire::kUsage);
}

TEST(QueryParse, QuantilesMustLieInOpenUnitInterval) {
  EXPECT_EQ(Request::parse(
                R"({"kernel":"total_delay","params":{"quantiles":[1.0]}})")
                .error_kind,
            wire::kUsage);
  EXPECT_EQ(Request::parse(
                R"({"kernel":"total_delay","params":{"quantiles":[]}})")
                .error_kind,
            wire::kUsage);
  EXPECT_TRUE(Request::parse(
                  R"({"kernel":"total_delay","params":{"quantiles":[0.25]}})")
                  .valid());
}

TEST(QueryParse, ClosedFormRequiresKnownFamily) {
  EXPECT_EQ(Request::parse(R"({"kernel":"closed_form"})").error_kind,
            wire::kUsage);
  EXPECT_EQ(Request::parse(
                R"({"kernel":"closed_form","params":{"family":"weird"}})")
                .error_kind,
            wire::kUsage);
  EXPECT_TRUE(Request::parse(
                  R"({"kernel":"closed_form","params":{"family":"uniform"}})")
                  .valid());
}

TEST(QueryParse, ClosedFormFamilyKeySetsAreDisjoint) {
  // mu belongs to geometric only.
  EXPECT_EQ(Request::parse(
                R"({"kernel":"closed_form",)"
                R"("params":{"family":"uniform","mu":0.5}})")
                .error_kind,
            wire::kUsage);
}

TEST(QueryParse, IdMustBeScalar) {
  EXPECT_EQ(Request::parse(R"({"kernel":"first_stage","id":{"a":1}})")
                .error_kind,
            wire::kUsage);
  EXPECT_EQ(Request::parse(R"({"kernel":"first_stage","id":[1]})").error_kind,
            wire::kUsage);
  const Request req =
      Request::parse(R"({"kernel":"first_stage","id":"abc"})");
  ASSERT_TRUE(req.valid());
  EXPECT_EQ(req.id.as_string(), "abc");
}

TEST(QueryParse, DeadlineDefaultsAndOverrides) {
  EXPECT_EQ(Request::parse(R"({"kernel":"first_stage"})", 250).deadline_ms,
            250);
  EXPECT_EQ(
      Request::parse(R"({"kernel":"first_stage","deadline_ms":5})", 250)
          .deadline_ms,
      5);
  EXPECT_EQ(
      Request::parse(R"({"kernel":"first_stage","deadline_ms":-1})")
          .error_kind,
      wire::kUsage);
}

TEST(QueryParse, ExplicitZeroDeadlineKeepsServerDefault) {
  // "deadline_ms": 0 means "no per-request override", exactly like an
  // absent field — it must not grant an immortal request on a server
  // whose --deadline-ms default is finite.
  EXPECT_EQ(Request::parse(R"({"kernel":"first_stage","deadline_ms":0})", 250)
                .deadline_ms,
            250);
  EXPECT_EQ(Request::parse(R"({"kernel":"first_stage","deadline_ms":0})")
                .deadline_ms,
            0);
}

TEST(QueryParse, FiniteBufferDefaultsAndDomain) {
  const Request req = Request::parse(R"({"kernel":"finite_buffer"})");
  ASSERT_TRUE(req.valid()) << req.error_message;
  EXPECT_EQ(req.query.kernel, Kernel::kFiniteBuffer);
  EXPECT_EQ(req.query.stages, 3u);
  EXPECT_EQ(req.query.depth, 4u);
  EXPECT_EQ(req.query.flow, "vct");
  EXPECT_EQ(req.query.replicates, 1u);
  // Domain errors are usage, not internal.
  EXPECT_EQ(Request::parse(
                R"({"kernel":"finite_buffer","params":{"depth":0}})")
                .error_kind,
            wire::kUsage);
  EXPECT_EQ(Request::parse(
                R"({"kernel":"finite_buffer","params":{"depth":2000}})")
                .error_kind,
            wire::kUsage);
  EXPECT_EQ(Request::parse(
                R"({"kernel":"finite_buffer","params":{"flow":"wormhole"}})")
                .error_kind,
            wire::kUsage);
}

TEST(QueryParse, FiniteBufferEnforcesCostCaps) {
  // The serve loop runs simulations synchronously; parse rejects tuples
  // whose cost is unbounded instead of letting a request wedge a worker.
  EXPECT_EQ(Request::parse(
                R"({"kernel":"finite_buffer","params":{"cycles":300000}})")
                .error_kind,
            wire::kUsage);
  EXPECT_EQ(Request::parse(
                R"({"kernel":"finite_buffer","params":{"replicates":9}})")
                .error_kind,
            wire::kUsage);
  // k^stages caps the port count at 4096.
  EXPECT_EQ(Request::parse(
                R"({"kernel":"finite_buffer","params":{"k":4,"stages":7}})")
                .error_kind,
            wire::kUsage);
  EXPECT_TRUE(Request::parse(
                  R"({"kernel":"finite_buffer","params":{"k":4,"stages":6}})")
                  .valid());
}

TEST(QueryParse, CreditLatencyRequiresCreditFlow) {
  EXPECT_EQ(Request::parse(R"({"kernel":"finite_buffer",)"
                           R"("params":{"credit_latency":2}})")
                .error_kind,
            wire::kUsage);
  EXPECT_EQ(Request::parse(R"({"kernel":"finite_buffer",)"
                           R"("params":{"flow":"credit","credit_latency":0}})")
                .error_kind,
            wire::kUsage);
  const Request req = Request::parse(
      R"({"kernel":"finite_buffer",)"
      R"("params":{"flow":"credit","credit_latency":3}})");
  ASSERT_TRUE(req.valid()) << req.error_message;
  EXPECT_EQ(req.query.credit_latency, 3u);
}

TEST(QueryParse, BufferSweepDepthsMustAscend) {
  EXPECT_TRUE(Request::parse(R"({"kernel":"buffer_sweep",)"
                             R"("params":{"depths":[1,4,32]}})")
                  .valid());
  EXPECT_EQ(Request::parse(R"({"kernel":"buffer_sweep",)"
                           R"("params":{"depths":[]}})")
                .error_kind,
            wire::kUsage);
  EXPECT_EQ(Request::parse(R"({"kernel":"buffer_sweep",)"
                           R"("params":{"depths":[4,2]}})")
                .error_kind,
            wire::kUsage);
  EXPECT_EQ(Request::parse(R"({"kernel":"buffer_sweep",)"
                           R"("params":{"depths":[2,2]}})")
                .error_kind,
            wire::kUsage);
  // depth belongs to finite_buffer, depths to buffer_sweep.
  EXPECT_EQ(Request::parse(R"({"kernel":"buffer_sweep",)"
                           R"("params":{"depth":4}})")
                .error_kind,
            wire::kUsage);
  EXPECT_EQ(Request::parse(R"({"kernel":"finite_buffer",)"
                           R"("params":{"depths":[1,2]}})")
                .error_kind,
            wire::kUsage);
}

TEST(QueryCanonical, SimTupleSpellingInvariant) {
  const Request a = Request::parse(
      R"({"kernel":"finite_buffer","params":{"depth":8,"seed":2}})");
  const Request b = Request::parse(
      R"({"kernel":"finite_buffer",)"
      R"("params":{"seed":2,"depth":8,"flow":"vct","cycles":20000}})");
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(a.query.canonical(), b.query.canonical());
  // Seed is part of the result, so it must be part of the cache key.
  const Request c = Request::parse(
      R"({"kernel":"finite_buffer","params":{"depth":8,"seed":3}})");
  EXPECT_NE(a.query.canonical(), c.query.canonical());
}

TEST(QueryCanonical, SpellingInvariant) {
  const Request a =
      Request::parse(R"({"kernel":"first_stage","params":{"p":0.5}})");
  const Request b = Request::parse(
      R"({"schema":"ksw.query/v1","params":{"p":5e-1},"id":7,)"
      R"("kernel":"first_stage"})");
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(a.query.canonical(), b.query.canonical());
}

TEST(QueryCanonical, DistinguishesParameterValues) {
  const Request a =
      Request::parse(R"({"kernel":"first_stage","params":{"p":0.5}})");
  const Request b =
      Request::parse(R"({"kernel":"first_stage","params":{"p":0.6}})");
  EXPECT_NE(a.query.canonical(), b.query.canonical());
}

TEST(QueryCanonical, DistinguishesKernels) {
  const Request a = Request::parse(R"({"kernel":"later_stages"})");
  const Request b = Request::parse(R"({"kernel":"total_delay"})");
  EXPECT_NE(a.query.canonical(), b.query.canonical());
}

TEST(QueryCanonical, DeadlineAndIdAreNotPartOfTheKey) {
  const Request a = Request::parse(
      R"({"kernel":"first_stage","id":1,"deadline_ms":100})");
  const Request b = Request::parse(R"({"kernel":"first_stage","id":2})");
  EXPECT_EQ(a.query.canonical(), b.query.canonical());
}

TEST(Fnv1a, KnownVectors) {
  // Reference values for the 64-bit FNV-1a offset basis and "a".
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

TEST(Render, OkEnvelopeSplicesResultBytesVerbatim) {
  const std::string line =
      render_ok(io::Json("x"), Kernel::kFirstStage, true, R"({"a":1})");
  EXPECT_EQ(line,
            R"({"id":"x","ok":true,"kernel":"first_stage",)"
            R"("cached":true,"result":{"a":1}})");
}

TEST(Render, ErrorEnvelopeEscapesMessage) {
  const std::string line =
      render_error(io::Json(), wire::kUsage, "bad \"value\"");
  EXPECT_EQ(line,
            R"({"id":null,"ok":false,"error":{"kind":"usage",)"
            R"("message":"bad \"value\""}})");
  // Every response line is itself valid JSON.
  EXPECT_NO_THROW(io::Json::parse(line));
}

}  // namespace
}  // namespace ksw::serve
