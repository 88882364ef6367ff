#include "rng/philox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

namespace ksw::rng {
namespace {

using Counter = Philox4x32::Counter;
using Key = Philox4x32::Key;

TEST(SplitMix64, KnownAnswerSequence) {
  // Reference values for seed 1234567 from the public-domain SplitMix64
  // reference implementation.
  SplitMix64 sm(1234567);
  EXPECT_EQ(sm.next(), 6457827717110365317ULL);
  EXPECT_EQ(sm.next(), 3203168211198807973ULL);
  EXPECT_EQ(sm.next(), 9817491932198370423ULL);
}

TEST(SplitMix64, ZeroSeedIsFine) {
  SplitMix64 sm(0);
  EXPECT_NE(sm.next(), 0ULL);
}

// ---- Known-answer tests ----------------------------------------------
// Published Philox4x32-10 vectors (Random123 distribution, kat_vectors):
// any deviation means this is not Philox and every downstream stream
// changes silently.

TEST(Philox, KnownAnswerZeros) {
  const Counter out = Philox4x32::block({0, 0, 0, 0}, {0, 0});
  EXPECT_EQ(out[0], 0x6627e8d5u);
  EXPECT_EQ(out[1], 0xe169c58du);
  EXPECT_EQ(out[2], 0xbc57ac4cu);
  EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(Philox, KnownAnswerAllOnes) {
  const Counter out =
      Philox4x32::block({0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
                        {0xffffffffu, 0xffffffffu});
  EXPECT_EQ(out[0], 0x408f276du);
  EXPECT_EQ(out[1], 0x41c83b0eu);
  EXPECT_EQ(out[2], 0xa20bc7c6u);
  EXPECT_EQ(out[3], 0x6d5451fdu);
}

TEST(Philox, KnownAnswerPiDigits) {
  const Counter out =
      Philox4x32::block({0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u},
                        {0xa4093822u, 0x299f31d0u});
  EXPECT_EQ(out[0], 0xd16cfe09u);
  EXPECT_EQ(out[1], 0x94fdccebu);
  EXPECT_EQ(out[2], 0x5001e420u);
  EXPECT_EQ(out[3], 0x24126ea1u);
}

// ---- Stream splittability --------------------------------------------
// The property the whole design rests on: a draw is addressed by
// coordinate, so the value at (cycle, port, site, seq) cannot depend on
// what else was drawn, or in what order.

TEST(Philox, DrawsAreVisitOrderIndependent) {
  const Key key = philox_key(42);
  struct Coord {
    std::int64_t cycle;
    std::uint32_t port;
    Site site;
    std::uint32_t seq;
  };
  std::vector<Coord> coords;
  for (std::int64_t cycle : {0, 7, 1 << 20})
    for (std::uint32_t port : {0u, 3u, 255u})
      for (Site site : {Site::kInject, Site::kService})
        for (std::uint32_t seq : {0u, 1u}) coords.push_back({cycle, port, site, seq});

  std::vector<Counter> forward;
  for (const Coord& c : coords)
    forward.push_back(
        Philox4x32::block(philox_counter(c.cycle, c.port, c.site, c.seq), key));

  std::vector<Counter> backward(coords.size());
  for (std::size_t i = coords.size(); i-- > 0;) {
    const Coord& c = coords[i];
    backward[i] =
        Philox4x32::block(philox_counter(c.cycle, c.port, c.site, c.seq), key);
  }
  EXPECT_EQ(forward, backward);
}

TEST(Philox, CounterPackingSeparatesCoordinates) {
  // Distinct (cycle, port, site, seq) tuples must map to distinct
  // counters — including cycles past 2^32, whose high bits share word 3
  // with the site tag.
  std::set<Counter> seen;
  std::size_t total = 0;
  for (std::int64_t cycle :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{1} << 33,
        (std::int64_t{1} << 33) + 1})
    for (std::uint32_t port : {0u, 1u})
      for (Site site : {Site::kInject, Site::kService, Site::kFsInject,
                        Site::kFsService})
        for (std::uint32_t seq : {0u, 9u}) {
          seen.insert(philox_counter(cycle, port, site, seq));
          ++total;
        }
  EXPECT_EQ(seen.size(), total);
}

TEST(Philox, CounterPacksCycleHighBitsBesideSiteTag) {
  const std::int64_t cycle = (std::int64_t{5} << 32) + 123;
  const Counter c = philox_counter(cycle, 7, Site::kService, 2);
  EXPECT_EQ(c[0], 2u);
  EXPECT_EQ(c[1], 7u);
  EXPECT_EQ(c[2], 123u);
  EXPECT_EQ(c[3], 5u | (1u << 24));
}

TEST(Philox, KeyDerivationSeparatesSeeds) {
  const Key a = philox_key(1);
  const Key b = philox_key(2);
  EXPECT_TRUE(a != b);
  EXPECT_TRUE(philox_key(1) == a);  // deterministic
  // Seed 0 must not yield the all-zero key (SplitMix64 scrambles it).
  const Key zero = philox_key(0);
  EXPECT_FALSE(zero[0] == 0 && zero[1] == 0);
}

TEST(Philox, LaneSeqReadsLanesOfConsecutiveBlocks) {
  const Key key = philox_key(7);
  LaneSeq seq(key, 11, 3, Site::kService);
  const Counter b0 =
      Philox4x32::block(philox_counter(11, 3, Site::kService, 0), key);
  const Counter b1 =
      Philox4x32::block(philox_counter(11, 3, Site::kService, 1), key);
  for (int lane = 0; lane < 4; ++lane) EXPECT_EQ(seq.next_u32(), b0[lane]);
  for (int lane = 0; lane < 4; ++lane) EXPECT_EQ(seq.next_u32(), b1[lane]);
}

TEST(Philox, LaneSeqStreamsAreMutuallyIndependent) {
  // Interleaving reads from two sites produces exactly the same values as
  // reading each alone — nothing is "consumed" across streams.
  const Key key = philox_key(9);
  LaneSeq alone(key, 4, 2, Site::kFsService);
  std::vector<std::uint32_t> expected;
  for (int i = 0; i < 6; ++i) expected.push_back(alone.next_u32());

  LaneSeq a(key, 4, 2, Site::kFsService);
  LaneSeq other(key, 4, 2, Site::kFsInject);
  std::vector<std::uint32_t> interleaved;
  for (int i = 0; i < 6; ++i) {
    interleaved.push_back(a.next_u32());
    (void)other.next_u32();
  }
  EXPECT_EQ(interleaved, expected);
}

// ---- Draw helpers ----------------------------------------------------

TEST(Philox, BernoulliThresholdEndpoints) {
  EXPECT_EQ(bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(bernoulli_threshold(1.0), std::uint64_t{1} << 32);
  // p = 1: every draw passes, including the maximum.
  EXPECT_LT(static_cast<std::uint64_t>(0xffffffffu), bernoulli_threshold(1.0));
  // p = 0.5 splits the 32-bit range exactly.
  EXPECT_EQ(bernoulli_threshold(0.5), std::uint64_t{1} << 31);
  EXPECT_LE(bernoulli_threshold(0.25), bernoulli_threshold(0.75));
}

TEST(Philox, UniformBelowStaysInRangeAndCoversIt) {
  for (const std::uint32_t n : {1u, 2u, 5u, 1024u}) {
    EXPECT_EQ(uniform_below(0, n), 0u);
    EXPECT_EQ(uniform_below(0xffffffffu, n), n - 1);
  }
  // Equal-width buckets: draw k*2^32/n lands in bucket k.
  EXPECT_EQ(uniform_below(0x40000000u, 4), 1u);
  EXPECT_EQ(uniform_below(0xC0000000u, 4), 3u);
}

TEST(Philox, UnitOpenNeverHitsTheEndpoints) {
  EXPECT_GT(unit_open(0), 0.0);
  EXPECT_LT(unit_open(0xffffffffu), 1.0);
  EXPECT_LT(unit_open(0), unit_open(0xffffffffu));
}

}  // namespace
}  // namespace ksw::rng
