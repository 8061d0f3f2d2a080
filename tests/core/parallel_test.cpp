// ThreadPool: coverage, reuse, exception propagation, env-driven sizing and
// the size cap.
#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace ppsim::core {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.for_index(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> out(37, 0);
    pool.for_index(out.size(), [&](std::size_t i) {
      out[i] = static_cast<int>(i) + round;
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i) + round);
    }
  }
}

TEST(ThreadPool, EmptyBatchIsNoop) {
  ThreadPool pool(2);
  pool.for_index(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.for_index(100,
                     [&](std::size_t i) {
                       if (i == 13) throw std::runtime_error("boom");
                       ++completed;
                     }),
      std::runtime_error);
  // All other indices still ran; the pool stays usable afterwards.
  EXPECT_EQ(completed.load(), 99);
  std::atomic<int> count{0};
  pool.for_index(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::default_threads(), 1);
  ThreadPool pool;  // default-sized pool constructs and tears down cleanly
  std::atomic<int> count{0};
  pool.for_index(5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPool, ExplicitSizeAboveCapThrowsBeforeStartingWorkers) {
  // The refusal happens before any worker is spawned: no pool of this size
  // ever starts a thread.
  EXPECT_THROW({ ThreadPool pool(ThreadPool::kMaxThreads + 1); },
               std::invalid_argument);
}

TEST(ThreadPool, EnvAboveCapIsAHardError) {
  // PPSIM_THREADS above the cap takes the strict-knob exit-2 path before
  // the pool starts a worker (set inside the child only). The threadsafe
  // style re-executes the binary instead of forking a threaded process.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string over = std::to_string(ThreadPool::kMaxThreads + 1);
  EXPECT_EXIT(
      {
        ::setenv("PPSIM_THREADS", over.c_str(), 1);
        ThreadPool pool;
      },
      testing::ExitedWithCode(2), "PPSIM_THREADS");
  EXPECT_EXIT(
      {
        ::setenv("PPSIM_THREADS", "100000", 1);
        (void)ThreadPool::default_threads();
      },
      testing::ExitedWithCode(2), "exceeds the thread cap");
}

}  // namespace
}  // namespace ppsim::core
