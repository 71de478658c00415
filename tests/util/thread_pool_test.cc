#include "util/thread_pool.h"

#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#endif

#include <atomic>
#include <string>
#include <vector>

namespace otif {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(1000, [&](int64_t i) {
    counts[static_cast<size_t>(i)].fetch_add(1);
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.ParallelFor(8, [&](int64_t i) {
    seen[static_cast<size_t>(i)] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(4);
  const std::vector<int64_t> squares =
      ParallelMap(&pool, 100, [](int64_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(squares[static_cast<size_t>(i)], i * i);
  }
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // Each outer task fans out again on the same pool; caller participation
  // guarantees progress even when all workers are busy with outer tasks.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](int64_t) {
    pool.ParallelFor(8, [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, ZeroAndEmptyBatches) {
  ThreadPool pool(3);
  int ran = 0;
  pool.ParallelFor(0, [&](int64_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  pool.ParallelFor(1, [&](int64_t) { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(ParseWorkerEnvTest, AcceptsPositiveIntegers) {
  EXPECT_EQ(ThreadPool::ParseWorkerEnv("1", 8), 1);
  EXPECT_EQ(ThreadPool::ParseWorkerEnv("4", 8), 4);
  EXPECT_EQ(ThreadPool::ParseWorkerEnv("64", 8), 64);
}

TEST(ParseWorkerEnvTest, RejectsInvalidValuesWithWarning) {
  // Each rejected value falls back and logs a warning naming the value.
  for (const char* bad : {"", "abc", "4x", "0", "-2", "1e3"}) {
    testing::internal::CaptureStderr();
    EXPECT_EQ(ThreadPool::ParseWorkerEnv(bad, 6), 6) << "value \"" << bad
                                                     << "\"";
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("OTIF_WORKERS"), std::string::npos) << log;
    EXPECT_NE(log.find(bad), std::string::npos) << log;
    EXPECT_NE(log.find("6"), std::string::npos) << log;  // Names the fallback.
  }
  testing::internal::CaptureStderr();
  EXPECT_EQ(ThreadPool::ParseWorkerEnv(nullptr, 3), 3);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("OTIF_WORKERS"),
            std::string::npos);
}

TEST(ThreadPoolTest, DefaultPoolIsReplaceable) {
  ThreadPool::SetDefaultThreads(2);
  EXPECT_EQ(ThreadPool::Default()->num_threads(), 2);
  std::atomic<int> total{0};
  ThreadPool::Default()->ParallelFor(16, [&](int64_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 16);
  ThreadPool::SetDefaultThreads(1);
  EXPECT_EQ(ThreadPool::Default()->num_threads(), 1);
}

#ifdef __linux__
TEST(ThreadPoolTest, AvailableCpusFollowsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  const int all = CPU_COUNT(&saved);
  EXPECT_EQ(ThreadPool::AvailableCpus(), all);

  // Pin this thread to the first CPU it may run on, as `taskset -c` pins
  // a process: one CPU, so one lane.
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = ThreadPool::AvailableCpus();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1);
  EXPECT_EQ(ThreadPool::AvailableCpus(), all);
}
#endif

}  // namespace
}  // namespace otif
