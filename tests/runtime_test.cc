// Unit tests for the thread pool: batch dispatch and dynamic-chunk range loops.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/runtime/thread_pool.h"

namespace cgraph {
namespace {

TEST(ThreadPoolTest, ZeroWorkersClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.lanes(), 1u);
  EXPECT_FALSE(pool.CanRunConcurrently());
  std::atomic<int> counter{0};
  pool.RunBatch(3, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

// The caller is a lane: a 1-worker pool starts no thread, so every batch and every
// chunked range runs on the calling thread.
TEST(ThreadPoolTest, OneWorkerPoolRunsEverythingOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.lanes(), 1u);
  EXPECT_FALSE(pool.CanRunConcurrently());
  const std::thread::id caller = std::this_thread::get_id();
  size_t tasks = 0;
  pool.RunBatch(64, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++tasks;
  });
  EXPECT_EQ(tasks, 64u);
  size_t chunks = 0;
  pool.ForEachChunk(100000, 64, [&](size_t begin, size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 100000u);
    ++chunks;
  });
  EXPECT_EQ(chunks, 1u);
}

TEST(ThreadPoolTest, LanesAreCappedAtHardwareConcurrency) {
  ThreadPool pool(4);
  const size_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(pool.lanes(), hw > 0 ? std::min<size_t>(4, hw) : 4u);
  EXPECT_EQ(pool.CanRunConcurrently(), pool.lanes() > 1);
}

TEST(ThreadPoolTest, RunBatchCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.RunBatch(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, RunBatchZeroAndOneTasks) {
  ThreadPool pool(2);
  pool.RunBatch(0, [](size_t) { FAIL() << "no task should run"; });
  int calls = 0;
  size_t seen = 99;
  pool.RunBatch(1, [&](size_t i) {
    ++calls;
    seen = i;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, 0u);
}

TEST(ThreadPoolTest, RunBatchSequentialBatchesDoNotInterfere) {
  // Back-to-back batches through the same cursor: a straggling claimer of batch k must
  // never consume an index of batch k+1.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> counter{0};
    const size_t n = 1 + static_cast<size_t>(round % 7);
    pool.RunBatch(n, [&](size_t) { counter.fetch_add(1); });
    ASSERT_EQ(counter.load(), static_cast<int>(n)) << "round " << round;
  }
}

TEST(ThreadPoolTest, RunBatchManyMoreTasksThanWorkers) {
  ThreadPool pool(2);
  std::atomic<uint64_t> sum{0};
  const size_t n = 10000;
  pool.RunBatch(n, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), static_cast<uint64_t>(n) * (n - 1) / 2);
}

TEST(ForEachChunkTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ForEachChunk(hits.size(), 64, [&](size_t begin, size_t end) {
    EXPECT_LE(end - begin, 64u);
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ForEachChunkTest, ZeroElements) {
  ThreadPool pool(2);
  bool called = false;
  pool.ForEachChunk(0, 1024, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ForEachChunkTest, SumMatchesSerial) {
  ThreadPool pool(8);
  const size_t n = 100000;
  std::atomic<uint64_t> total{0};
  pool.ForEachChunk(n, 1024, [&](size_t begin, size_t end) {
    uint64_t local = 0;
    for (size_t i = begin; i < end; ++i) {
      local += i;
    }
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

// A range that does not cover two grains is one inline call: dispatch would cost more
// than the work.
TEST(ForEachChunkTest, RangeBelowTwoGrainsRunsInline) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (const size_t n : {size_t{10}, size_t{1024}, size_t{2047}}) {
    int calls = 0;
    pool.ForEachChunk(n, 1024, [&](size_t begin, size_t end) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(begin, 0u);
      EXPECT_EQ(end, n);
      ++calls;
    });
    EXPECT_EQ(calls, 1) << n;
  }
}

// From two grains on, a multi-lane pool cuts the range into grain-sized chunks (the
// last one short).
TEST(ForEachChunkTest, TwoGrainsOrMoreAreChunked) {
  ThreadPool pool(4);
  if (!pool.CanRunConcurrently()) {
    GTEST_SKIP() << "single-core host: every range runs inline";
  }
  std::atomic<int> calls{0};
  std::atomic<int> short_chunks{0};
  pool.ForEachChunk(2 * 1024 + 1, 1024, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin % 1024, 0u);
    if (end - begin < 1024) {
      EXPECT_EQ(end - begin, 1u);
      short_chunks.fetch_add(1);
    }
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(short_chunks.load(), 1);
}

}  // namespace
}  // namespace cgraph
