// Shard routing: the fleet invariant is "same canonical cache key ->
// same worker", which is what makes per-shard caches as effective as one
// shared cache and fleet responses bit-identical to single-process serve.
#include "fleet/routing.hpp"

#include <gtest/gtest.h>

#include "serve/query.hpp"

namespace ksw::fleet {
namespace {

serve::Query parse_query(const std::string& line) {
  const serve::Request req = serve::Request::parse(line);
  EXPECT_TRUE(req.valid()) << req.error_message;
  return req.query;
}

TEST(ShardHash, EquivalentRequestsHashIdentically) {
  // Key order, whitespace, explicit defaults, and request-envelope
  // fields (id, deadline) must not affect the shard: the hash is over
  // the canonical query, not the raw line.
  const auto a = parse_query(
      R"({"kernel":"first_stage","params":{"k":2,"s":2,"p":0.5}})");
  const auto b = parse_query(
      R"({"id":42,"params":{"p":0.5,"s":2,"k":2},"kernel":"first_stage"})");
  const auto c = parse_query(
      R"({"kernel":"first_stage","deadline_ms":500,)"
      R"("params":{"k":2,"s":2,"p":0.5,"bulk":1,"q":0}})");
  EXPECT_EQ(shard_hash(a), shard_hash(b));
  EXPECT_EQ(shard_hash(a), shard_hash(c));
}

TEST(ShardHash, DifferentQueriesHashDifferently) {
  const auto a = parse_query(
      R"({"kernel":"first_stage","params":{"k":2,"s":2,"p":0.5}})");
  const auto b = parse_query(
      R"({"kernel":"first_stage","params":{"k":2,"s":2,"p":0.25}})");
  const auto c = parse_query(
      R"({"kernel":"later_stages","params":{"k":2,"p":0.5}})");
  EXPECT_NE(shard_hash(a), shard_hash(b));
  EXPECT_NE(shard_hash(a), shard_hash(c));
}

TEST(Route, IsDeterministicAndInRange) {
  for (std::uint64_t h : {0ull, 1ull, 12345ull, ~0ull}) {
    for (std::size_t n : {1u, 2u, 7u, 8u}) {
      const std::size_t w = route(h, n);
      EXPECT_LT(w, n);
      EXPECT_EQ(w, route(h, n));  // stable
    }
  }
}

}  // namespace
}  // namespace ksw::fleet
