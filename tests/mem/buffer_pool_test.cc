#include "mem/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <type_traits>
#include <vector>

#include "nn/arena.h"
#include "util/fault_injection.h"
#include "util/telemetry.h"

namespace otif::mem {
namespace {

// A handle is the array's only owner: it can be moved, never copied.
static_assert(!std::is_copy_constructible_v<PooledBuffer>);
static_assert(!std::is_copy_assignable_v<PooledBuffer>);
static_assert(std::is_nothrow_move_constructible_v<PooledBuffer>);
static_assert(std::is_nothrow_move_assignable_v<PooledBuffer>);

TEST(BufferPoolTest, AcquireRoundsUpToSizeClass) {
  BufferPool pool;
  PooledBuffer a = pool.Acquire(1024);
  EXPECT_EQ(a.capacity(), 1024u);  // Min class; exact boundary stays in it.
  PooledBuffer b = pool.Acquire(3000);
  EXPECT_EQ(b.capacity(), 4096u);
  PooledBuffer c = pool.Acquire(4097);
  EXPECT_EQ(c.capacity(), 8192u);  // Next class.
  PooledBuffer d = pool.Acquire(100000);
  EXPECT_EQ(d.capacity(), size_t{1} << 17);  // 131072.
}

TEST(BufferPoolTest, AcquireZeroReturnsNullHandle) {
  BufferPool pool;
  PooledBuffer b = pool.Acquire(0);
  EXPECT_FALSE(static_cast<bool>(b));
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(b.capacity(), 0u);
  EXPECT_EQ(pool.GetStats().misses, 0);
}

TEST(BufferPoolTest, ReleaseThenAcquireReusesBlock) {
  BufferPool pool;
  float* first = nullptr;
  {
    PooledBuffer b = pool.Acquire(16000);
    first = b.data();
    b.data()[0] = 42.0f;
  }  // Released to the freelist.
  EXPECT_EQ(pool.GetStats().misses, 1);
  EXPECT_EQ(pool.GetStats().hits, 0);
  PooledBuffer again = pool.Acquire(9000);  // Same class (16384).
  EXPECT_EQ(again.data(), first);          // LIFO reuse, same storage.
  EXPECT_EQ(pool.GetStats().hits, 1);
  EXPECT_EQ(pool.GetStats().misses, 1);
}

TEST(BufferPoolTest, MoveTransfersOwnershipWithoutRefcountChurn) {
  BufferPool pool;
  PooledBuffer a = pool.Acquire(3000);
  float* p = a.data();
  PooledBuffer b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.capacity(), 4096u);
  // NOLINTBEGIN(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.capacity(), 0u);
  // NOLINTEND(bugprone-use-after-move)
  PooledBuffer c = pool.Acquire(16);
  c = std::move(b);  // Drops c's own array, takes b's.
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c.capacity(), 4096u);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  // Moving handles moved no pooled bytes in or out of flight.
  EXPECT_EQ(pool.GetStats().bytes_in_flight, 4096 * int64_t{sizeof(float)});
  c.reset();
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_EQ(pool.GetStats().bytes_in_flight, 0);
}

TEST(BufferPoolTest, BytesInFlightAndRetainedAccounting) {
  BufferPool pool;
  EXPECT_EQ(pool.GetStats().bytes_in_flight, 0);
  {
    PooledBuffer a = pool.Acquire(1024);  // 4 KiB class.
    EXPECT_EQ(pool.GetStats().bytes_in_flight, 4096);
    EXPECT_EQ(pool.GetStats().bytes_retained, 0);
  }
  EXPECT_EQ(pool.GetStats().bytes_in_flight, 0);
  EXPECT_EQ(pool.GetStats().bytes_retained, 4096);
  pool.TrimAll();
  EXPECT_EQ(pool.GetStats().bytes_retained, 0);
}

TEST(BufferPoolTest, RetentionIsCappedByBytesPerClass) {
  BufferPool pool;
  // Hold more bytes of one class than the 32 MiB retention cap, then drop
  // them all: the freelist must cap (excess blocks are freed, not parked),
  // and in-flight must return to zero. 4 MiB blocks -> the cap admits 8.
  constexpr size_t kBlockFloats = size_t{1} << 20;  // 4 MiB per block.
  constexpr int kBlocks = 12;
  std::vector<PooledBuffer> live;
  live.reserve(kBlocks);
  for (int i = 0; i < kBlocks; ++i) live.push_back(pool.Acquire(kBlockFloats));
  EXPECT_EQ(pool.GetStats().bytes_in_flight,
            int64_t{kBlocks} * kBlockFloats * sizeof(float));
  live.clear();
  const BufferPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.bytes_in_flight, 0);
  EXPECT_EQ(stats.bytes_retained, int64_t{32} << 20);
}

TEST(BufferPoolTest, OversizeClassStillParksAFewBlocks) {
  BufferPool pool;
  // A block bigger than the per-class byte cap must still park (two deep) so
  // repeated large acquires recycle instead of thrashing the heap.
  constexpr size_t kHugeFloats = size_t{1} << 24;  // 64 MiB per block.
  { PooledBuffer b = pool.Acquire(kHugeFloats); }
  EXPECT_EQ(pool.GetStats().bytes_retained, int64_t{64} << 20);
  PooledBuffer again = pool.Acquire(kHugeFloats);
  EXPECT_EQ(pool.GetStats().hits, 1);
}

TEST(BufferPoolTest, PublishTelemetryExportsGauges) {
  BufferPool pool;
  { PooledBuffer b = pool.Acquire(2048); }
  PooledBuffer live = pool.Acquire(2048);
  pool.PublishTelemetry();
  telemetry::TelemetrySnapshot snapshot =
      telemetry::MetricsRegistry::Global().Snapshot();
  const telemetry::GaugeSample* in_flight =
      telemetry::FindGauge(snapshot, "mem.pool.bytes_in_flight");
  ASSERT_NE(in_flight, nullptr);
  EXPECT_GT(in_flight->value, 0.0);
  EXPECT_NE(telemetry::FindGauge(snapshot, "mem.pool.hit_rate"), nullptr);
  EXPECT_NE(telemetry::FindGauge(snapshot, "mem.arena.bytes_reserved"),
            nullptr);
}

TEST(BufferPoolTest, ArenaChunkGrowthIsCounted) {
  const BufferPool::Stats before = BufferPool::Global().GetStats();
  // A fresh thread gets a fresh thread_local arena, so its first Alloc must
  // reserve a chunk and report it to the global pool.
  std::thread t([] {
    nn::ScratchArena& arena = nn::ScratchArena::ThreadLocal();
    nn::ScratchScope scope(arena);
    float* p = arena.Alloc(1024);
    p[0] = 1.0f;
  });
  t.join();
  const BufferPool::Stats after = BufferPool::Global().GetStats();
  EXPECT_GT(after.arena_allocs, before.arena_allocs);
  EXPECT_GT(after.arena_bytes_reserved, before.arena_bytes_reserved);
}

TEST(BufferPoolTest, SteadyStateLoopIsAllocationFree) {
  BufferPool pool;
  // Warm every size the loop uses, then assert zero misses afterwards.
  for (const size_t n : {1500, 5000, 20000}) {
    PooledBuffer warm = pool.Acquire(n);
  }
  const int64_t warm_misses = pool.GetStats().misses;
  for (int iter = 0; iter < 100; ++iter) {
    for (const size_t n : {1500, 5000, 20000}) {
      PooledBuffer b = pool.Acquire(n);
      b.data()[0] = static_cast<float>(iter);
    }
  }
  const BufferPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.misses, warm_misses) << "steady-state loop allocated";
  EXPECT_EQ(stats.hits, 300);
  EXPECT_GE(stats.hit_rate(), 0.99);
}

// Concurrency: many threads acquiring, writing, and releasing buffers of
// overlapping size classes. Run under TSan via check.sh/ci.
TEST(BufferPoolTest, ConcurrentAcquireReleaseIsSafe) {
  BufferPool pool;
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::atomic<int64_t> checksum{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &checksum, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const size_t n = 1024 + static_cast<size_t>((t * 37 + i * 11) % 4000);
        PooledBuffer b = pool.Acquire(n);
        // Write the whole requested range: overlapping writes from two
        // threads on one array would be a TSan hit and an ownership bug.
        for (size_t k = 0; k < n; ++k) {
          b.data()[k] = static_cast<float>(t + 1);
        }
        checksum.fetch_add(static_cast<int64_t>(b.data()[n - 1]),
                           std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const BufferPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kItersPerThread);
  EXPECT_EQ(stats.bytes_in_flight, 0);
  EXPECT_GT(checksum.load(), 0);
}

// Cross-thread handoff: the main thread fills a buffer and moves the handle
// into a reader thread, which reads it and drops it; the main thread then
// reacquires the same array and overwrites it. The only ordering between
// the reader's reads and those writes is the size-class mutex (the flag is
// relaxed), so TSan validates that the freelist orders the handoff.
TEST(BufferPoolTest, ConcurrentSharedHandleHandoff) {
  BufferPool pool;
  for (int round = 0; round < 50; ++round) {
    PooledBuffer owned = pool.Acquire(1024);
    float* const array = owned.data();
    for (size_t i = 0; i < 1024; ++i) array[i] = static_cast<float>(round);
    std::atomic<bool> dropped{false};
    std::thread reader([handle = std::move(owned), &dropped, round]() mutable {
      float sum = 0.0f;
      for (size_t i = 0; i < 1024; ++i) sum += handle.data()[i];
      EXPECT_EQ(sum, 1024.0f * static_cast<float>(round));
      handle.reset();
      dropped.store(true, std::memory_order_relaxed);
    });
    while (!dropped.load(std::memory_order_relaxed)) std::this_thread::yield();
    PooledBuffer again = pool.Acquire(1024);
    EXPECT_EQ(again.data(), array);
    for (size_t i = 0; i < 1024; ++i) again.data()[i] = -1.0f;
    reader.join();
  }
  EXPECT_EQ(pool.GetStats().bytes_in_flight, 0);
  EXPECT_EQ(pool.GetStats().misses, 1);
}

TEST(BufferPoolTest, InjectedDenyForcesHeapMissButValidBuffer) {
  // The "mem.acquire" deny fault skips the freelist: a warm pool still
  // allocates fresh blocks (a miss), but the returned buffer is fully
  // usable — allocation denial degrades stats, never correctness.
  BufferPool pool;
  { PooledBuffer warm = pool.Acquire(4000); }  // Park a block.
  ASSERT_TRUE(fault::ConfigureFaults("mem.acquire:deny:1:3").ok());
  PooledBuffer denied = pool.Acquire(3000);  // Same class; freelist skipped.
  ASSERT_NE(denied.data(), nullptr);
  denied.data()[0] = 1.0f;
  EXPECT_EQ(pool.GetStats().hits, 0);
  EXPECT_EQ(pool.GetStats().misses, 2);

  fault::ClearFaults();
  denied.reset();
  PooledBuffer reused = pool.Acquire(3000);  // Freelist works again.
  EXPECT_EQ(pool.GetStats().hits, 1);
}

TEST(BufferPoolTest, SmallRequestsBypassFreelistsStatsAndDenySite) {
  // A request below 4 KiB is an exact-size heap block: it takes no parked
  // block, moves no counter, and never consults the "mem.acquire" site.
  // Frame-sized requests keep recycling around it.
  BufferPool pool;
  float* parked = nullptr;
  {
    PooledBuffer warm = pool.Acquire(1024);
    parked = warm.data();
  }  // Parks one 4 KiB block.
  const BufferPool::Stats before = pool.GetStats();
  const auto expect_untouched = [&] {
    const BufferPool::Stats now = pool.GetStats();
    EXPECT_EQ(now.hits, before.hits);
    EXPECT_EQ(now.misses, before.misses);
    EXPECT_EQ(now.bytes_in_flight, before.bytes_in_flight);
    EXPECT_EQ(now.bytes_retained, before.bytes_retained);
  };
  {
    PooledBuffer small = pool.Acquire(1023);
    ASSERT_NE(small.data(), nullptr);
    EXPECT_NE(small.data(), parked);
    EXPECT_EQ(small.capacity(), 1023u);  // No size-class rounding.
    small.data()[1022] = 1.0f;
    expect_untouched();
  }
  expect_untouched();

  const telemetry::Counter* injected =
      telemetry::MetricsRegistry::Global().GetCounter(
          "fault.injected.mem.acquire");
  const int64_t injected_before = injected->value();
  ASSERT_TRUE(fault::ConfigureFaults("mem.acquire:deny:1:3").ok());
  { PooledBuffer tiny = pool.Acquire(16); }
  fault::ClearFaults();
  EXPECT_EQ(injected->value(), injected_before);
  expect_untouched();

  PooledBuffer frame = pool.Acquire(1024);
  EXPECT_EQ(frame.data(), parked);
  EXPECT_EQ(pool.GetStats().hits, before.hits + 1);
}

}  // namespace
}  // namespace otif::mem
