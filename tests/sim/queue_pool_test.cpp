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
  ActiveSet set(8);
  set.mark_occupied(2);
  set.mark_occupied(5);
  set.mark_busy(2, /*clear_at=*/10);
  set.expire(9);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{5}));
  set.expire(10);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{2, 5}));
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
