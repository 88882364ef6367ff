// Wire-byte golden: the exact result bytes of a fixed set of first_stage
// queries. Theorem 1 distributions are rendered as hundreds of %.12g
// numbers each, so any change in the series algebra's rounding or in
// number rendering moves this hash. The expected value was recorded
// before the series product skipped zero terms and before numbers were
// formatted with std::to_chars; both changes must keep it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "serve/kernels.hpp"
#include "serve/query.hpp"

namespace ksw::serve {
namespace {

constexpr std::uint64_t kGoldenHash = 0xa4587584745cbd86ull;
constexpr std::size_t kGoldenBytes = 2720661;

TEST(ServeGolden, FirstStageResultBytesAreUnchanged) {
  struct Service {
    const char* spec;
    double mean;
  };
  const Service services[] = {{"det:1", 1.0}, {"det:2", 2.0},
                              {"det:3", 3.0}, {"det:4", 4.0},
                              {"det:8", 8.0}, {"geo:0.5", 2.0},
                              {"multi:1@0.5,3@0.5", 2.0}};
  std::string all;
  int queries = 0;
  for (const unsigned length : {16u, 256u, 2048u})
    for (const Service& service : services)
      for (const unsigned k : {2u, 4u, 8u})
        for (const double rho : {0.3, 0.6, 0.85}) {
          char line[256];
          std::snprintf(line, sizeof line,
                        R"({"kernel":"first_stage","params":{"k":%u,)"
                        R"("p":%.6f,"service":"%s","distribution":%u}})",
                        k, rho / service.mean, service.spec, length);
          const Request req = Request::parse(line);
          ASSERT_TRUE(req.valid()) << line << ": " << req.error_message;
          all += evaluate_bytes(req.query);
          all += '\n';
          ++queries;
        }
  EXPECT_EQ(queries, 189);
  EXPECT_EQ(all.size(), kGoldenBytes);
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(fnv1a64(all)));
  EXPECT_EQ(fnv1a64(all), kGoldenHash) << "hash " << hex;
}

}  // namespace
}  // namespace ksw::serve
