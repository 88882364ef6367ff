#include "par/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/registry.hpp"
#include "par/cancel.hpp"
#include "support/error.hpp"

namespace ksw::par {
namespace {

TEST(ThreadPool, SpawnsRequestedThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  ThreadPool def(0);
  EXPECT_GE(def.thread_count(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(pool, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, MoreTasksThanThreads) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  parallel_for(pool, 10000,
               [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 10000L * 9999L / 2L);
}

TEST(ParallelForChunks, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{7}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for_chunks(pool, n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelForChunks, ZeroCountIsNoop) {
  ThreadPool pool(2);
  parallel_for_chunks(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ParallelForChunks, SingleThreadRunsAscending) {
  // With one worker there is one chunk, so indices arrive in order — the
  // property replicate sharding leans on for reproducible chunk walks.
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  parallel_for_chunks(pool, 64, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForChunks, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_chunks(pool, 100,
                                   [](std::size_t i) {
                                     if (i == 61)
                                       throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  std::atomic<int> counter{0};
  parallel_for_chunks(pool, 10, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 100,
                            [](std::size_t i) {
                              if (i == 37) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // Pool remains usable afterwards.
  std::atomic<int> counter{0};
  parallel_for(pool, 10, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelMap, CollectsInIndexOrder) {
  ThreadPool pool(4);
  const auto out = parallel_map<std::size_t>(
      pool, 256, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 256u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, AttachMetricsRecordsTaskTelemetry) {
  obs::Registry reg;
  ThreadPool pool(2);
  pool.attach_metrics(&reg);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i)
    pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
  EXPECT_EQ(reg.counter("pool.tasks").value(), 20u);
  EXPECT_DOUBLE_EQ(reg.gauge("pool.workers").value(), 2.0);
  EXPECT_EQ(reg.timer("pool.task_run").calls(), 20u);
  EXPECT_EQ(reg.timer("pool.task_wait").calls(), 20u);
  // Detach: later tasks leave the registry untouched.
  pool.attach_metrics(nullptr);
  pool.submit([] {});
  pool.wait_idle();
  EXPECT_EQ(reg.counter("pool.tasks").value(), 20u);
}

TEST(ParallelFor, AbortOnErrorSkipsPendingIndices) {
  // One worker drains indices strictly in order, so everything after the
  // throwing index must be skipped, not executed.
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  EXPECT_THROW(parallel_for(pool, 1000,
                            [&](std::size_t i) {
                              executed.fetch_add(1);
                              if (i == 4) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  EXPECT_LT(executed.load(), 1000);
}

TEST(ParallelFor, CancelTokenThrowsTypedInterruptedError) {
  ThreadPool pool(2);
  CancelToken cancel;
  cancel.request();
  std::atomic<int> executed{0};
  try {
    parallel_for(pool, 100, [&](std::size_t) { executed.fetch_add(1); },
                 &cancel);
    FAIL() << "expected ksw::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInterrupted);
  }
  // Pre-cancelled token: no index ever runs.
  EXPECT_EQ(executed.load(), 0);
}

TEST(ParallelForChunks, CancelTokenThrowsTypedInterruptedError) {
  ThreadPool pool(2);
  CancelToken cancel;
  cancel.request();
  std::atomic<int> executed{0};
  try {
    parallel_for_chunks(pool, 100,
                        [&](std::size_t) { executed.fetch_add(1); }, &cancel);
    FAIL() << "expected ksw::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInterrupted);
  }
  EXPECT_EQ(executed.load(), 0);
}

TEST(ParallelForChunks, BodyExceptionWinsOverCancellation) {
  // When a body throws and cancellation is also requested, the body's
  // exception is the root cause and must be the one rethrown.
  ThreadPool pool(1);
  CancelToken cancel;
  try {
    parallel_for_chunks(pool, 10,
                        [&](std::size_t i) {
                          if (i == 2) {
                            cancel.request();
                            throw std::runtime_error("root-cause");
                          }
                        },
                        &cancel);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "root-cause");
  }
}

TEST(ParallelFor, ReusablePoolAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> counter{0};
    parallel_for(pool, 50, [&](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 50);
  }
}

}  // namespace
}  // namespace ksw::par
