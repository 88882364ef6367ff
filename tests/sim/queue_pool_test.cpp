// Unit tests for the flat arena-backed queue pool and the active-set
// scheduler backing the network hot path.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <stdexcept>
#include <vector>

#include "sim/active_set.hpp"
#include "sim/queue_pool.hpp"

namespace ksw::sim {
namespace {

TEST(QueuePool, FifoPerQueue) {
  QueuePool<int> pool(3);
  pool.push(1, 10);
  pool.push(1, 11);
  pool.push(1, 12);
  EXPECT_TRUE(pool.empty(0));
  EXPECT_EQ(pool.size(1), 3u);
  EXPECT_EQ(pool.front(1), 10);
  pool.pop(1);
  EXPECT_EQ(pool.front(1), 11);
  pool.pop(1);
  pool.push(1, 13);
  EXPECT_EQ(pool.front(1), 12);
  pool.pop(1);
  EXPECT_EQ(pool.front(1), 13);
  pool.pop(1);
  EXPECT_TRUE(pool.empty(1));
}

TEST(QueuePool, GrowthPreservesOrderAcrossWrap) {
  // Push/pop interleaving forces the ring head away from slot 0, then a
  // burst forces capacity doubling while the ring is wrapped.
  QueuePool<std::uint64_t> pool(1, 4);
  for (std::uint64_t i = 0; i < 3; ++i) pool.push(0, i);
  pool.pop(0);
  pool.pop(0);  // head is now mid-ring
  for (std::uint64_t i = 3; i < 40; ++i) pool.push(0, i);
  EXPECT_EQ(pool.size(0), 38u);
  for (std::uint64_t want = 2; want < 40; ++want) {
    EXPECT_EQ(pool.front(0), want);
    pool.pop(0);
  }
  EXPECT_TRUE(pool.empty(0));
}

TEST(QueuePool, ManyQueuesInterleavedMatchDeque) {
  // Randomized differential test against std::deque on 17 queues.
  constexpr std::size_t kQueues = 17;
  QueuePool<std::uint32_t> pool(kQueues);
  std::vector<std::deque<std::uint32_t>> ref(kQueues);
  std::mt19937_64 gen(7);
  std::uniform_int_distribution<std::size_t> pick(0, kQueues - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::uint32_t step = 0; step < 20'000; ++step) {
    const std::size_t q = pick(gen);
    if (unit(gen) < 0.55 || ref[q].empty()) {
      pool.push(q, step);
      ref[q].push_back(step);
    } else {
      ASSERT_EQ(pool.front(q), ref[q].front());
      pool.pop(q);
      ref[q].pop_front();
    }
  }
  for (std::size_t q = 0; q < kQueues; ++q) {
    ASSERT_EQ(pool.size(q), ref[q].size());
    for (std::size_t i = 0; i < ref[q].size(); ++i)
      EXPECT_EQ(pool.at(q, i), ref[q][i]);
  }
}

TEST(QueuePool, AtIndexesFromHead) {
  QueuePool<int> pool(2, 4);
  for (int i = 0; i < 6; ++i) pool.push(0, i);
  pool.pop(0);
  ASSERT_EQ(pool.size(0), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(pool.at(0, i), static_cast<int>(i) + 1);
}

TEST(QueuePool, FixedModeWrapsWithinCapacity) {
  // Fixed pools never reallocate; the ring must still wrap cleanly when
  // the head circles the full capacity many times.
  QueuePool<int> pool(2, 4, /*fixed=*/true);
  int next = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 4; ++i) pool.push(1, next + i);
    ASSERT_EQ(pool.size(1), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(pool.front(1), next + i);
      pool.pop(1);
    }
    next += 4;
  }
  EXPECT_TRUE(pool.empty(1));
  EXPECT_EQ(pool.capacity(1), 4u);
}

TEST(QueuePool, FixedModePushBeyondCapacityThrows) {
  // An overflow in fixed mode is a flow-control bug, not a resize: the
  // pool must fail loudly instead of silently doubling.
  QueuePool<int> pool(1, 4, /*fixed=*/true);
  for (int i = 0; i < 4; ++i) pool.push(0, i);
  EXPECT_THROW(pool.push(0, 99), std::logic_error);
  // The ring is unchanged after the rejected push.
  EXPECT_EQ(pool.size(0), 4u);
  EXPECT_EQ(pool.front(0), 0);
}

std::vector<std::uint32_t> candidates(ActiveSet& set) {
  std::vector<std::uint32_t> out;
  set.for_each_candidate([&](std::uint32_t a) { out.push_back(a); });
  return out;
}

TEST(ActiveSet, YieldsOccupiedInAscendingOrder) {
  // Ascending order is load-bearing: the stats accumulators are
  // order-sensitive, so the scan must visit ports exactly like the full
  // sweep the seed engine used.
  ActiveSet set(130);  // spans three 64-bit words
  for (std::uint32_t a : {129u, 0u, 64u, 63u, 5u, 128u}) set.mark_occupied(a);
  EXPECT_EQ(candidates(set),
            (std::vector<std::uint32_t>{0, 5, 63, 64, 128, 129}));
}

TEST(ActiveSet, BusyPortsAreSkippedUntilExpiry) {
  TimedActiveSet set(8);
  set.mark_occupied(2);
  set.mark_occupied(5);
  set.mark_busy(2, /*clear_at=*/10);
  set.expire(9);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{5}));
  set.expire(10);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{2, 5}));
}

// Call expire once per cycle for cycles [from, to], as the engine does.
void expire_through(TimedActiveSet& set, std::int64_t from, std::int64_t to) {
  for (std::int64_t t = from; t <= to; ++t) set.expire(t);
}

TEST(ActiveSet, BusyPeriodLongerThanTheWheelSurvivesEarlierVisits) {
  // End cycle 150 files port 70 in slot 150 mod 64 = 22, which is visited
  // at cycles 22 and 86 before the port is due.
  TimedActiveSet set(130);
  set.mark_occupied(70);
  set.mark_occupied(3);
  set.expire(0);
  set.mark_busy(70, 150);
  expire_through(set, 1, 22);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{3}));
  expire_through(set, 23, 86);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{3}));
  expire_through(set, 87, 149);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{3}));
  set.expire(150);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{3, 70}));
}

TEST(ActiveSet, PortsInOneSlotOneRoundApartReleaseOnTheirOwnCycles) {
  // Ends 30 and 94 share slot 30.
  TimedActiveSet set(130);
  for (std::uint32_t a : {1u, 65u}) set.mark_occupied(a);
  set.expire(0);
  set.mark_busy(1, 30);
  set.mark_busy(65, 94);
  expire_through(set, 1, 29);
  EXPECT_TRUE(candidates(set).empty());
  set.expire(30);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{1}));
  expire_through(set, 31, 93);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{1}));
  set.expire(94);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{1, 65}));
}

TEST(ActiveSet, PortReleasedAndRemarkedInTheSameCycle) {
  // The engine releases a port, then restarts it in the same cycle: a new
  // end one round later lands in the slot just visited and must wait for
  // its own visit; a shorter one lands in another slot.
  TimedActiveSet set(8);
  set.mark_occupied(4);
  set.expire(0);
  set.mark_busy(4, 20);
  expire_through(set, 1, 20);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{4}));
  set.mark_busy(4, 84);  // slot 20 again
  EXPECT_TRUE(candidates(set).empty());
  expire_through(set, 21, 83);
  EXPECT_TRUE(candidates(set).empty());
  set.expire(84);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{4}));
  set.mark_busy(4, 86);
  set.expire(85);
  EXPECT_TRUE(candidates(set).empty());
  set.expire(86);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{4}));
}

TEST(ActiveSet, ClearOccupiedRemovesCandidate) {
  ActiveSet set(8);
  set.mark_occupied(1);
  set.mark_occupied(6);
  set.clear_occupied(6);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{1}));
}

}  // namespace
}  // namespace ksw::sim
