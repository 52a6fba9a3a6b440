// The process-wide buffer pool (common/buffer_pool.hpp): best fit among
// idle buffers, the floor below which nothing is kept, the idle bound,
// and counts that stay consistent under concurrent takes and gives. The
// pool is shared by the whole process, so each test first empties it and
// then reads deltas.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer_pool.hpp"

namespace spi {
namespace {

using buffer_pool::kFloorBytes;
using buffer_pool::kIdleBoundBytes;

/// Takes every idle buffer out of the pool and frees it; returns how many.
size_t drain() {
  std::vector<std::string> held;
  while (buffer_pool::stats().idle_bytes > 0) {
    held.push_back(buffer_pool::take(kFloorBytes));
  }
  return held.size();
}

std::string buffer_of(size_t capacity) {
  std::string buffer;
  buffer.reserve(capacity);
  buffer.assign(100, 'x');
  return buffer;
}

TEST(BufferPoolTest, TakenBufferIsEmptyWithTheAskedCapacity) {
  drain();
  for (size_t capacity : {size_t{100}, kFloorBytes - 1, kFloorBytes,
                          3 * kFloorBytes}) {
    std::string buffer = buffer_pool::take(capacity);
    EXPECT_TRUE(buffer.empty()) << capacity;
    EXPECT_GE(buffer.capacity(), capacity);
  }

  // A reused buffer comes back emptied, whatever it held when given.
  std::string given = buffer_of(2 * kFloorBytes);
  buffer_pool::give(std::move(given));
  EXPECT_TRUE(given.empty());
  std::string reused = buffer_pool::take(2 * kFloorBytes);
  EXPECT_TRUE(reused.empty());
  EXPECT_GE(reused.capacity(), 2 * kFloorBytes);
}

TEST(BufferPoolTest, TakeReturnsTheBestFittingIdleBuffer) {
  drain();
  std::vector<const char*> data;
  for (size_t capacity : {5 * kFloorBytes, 2 * kFloorBytes, 3 * kFloorBytes}) {
    std::string buffer = buffer_of(capacity);
    data.push_back(buffer.data());
    buffer_pool::give(std::move(buffer));
  }
  const buffer_pool::Stats before = buffer_pool::stats();
  EXPECT_EQ(before.idle_bytes, 10 * kFloorBytes);

  // 2.5 floors: the 3-floor buffer fits best, the 2-floor one is too small.
  std::string middle = buffer_pool::take(2 * kFloorBytes + kFloorBytes / 2);
  EXPECT_EQ(middle.data(), data[2]);
  std::string small = buffer_pool::take(kFloorBytes);
  EXPECT_EQ(small.data(), data[1]);
  // Nothing idle fits six floors: a fresh buffer, the 5-floor one stays.
  std::string large = buffer_pool::take(6 * kFloorBytes);
  EXPECT_GE(large.capacity(), 6 * kFloorBytes);
  EXPECT_NE(large.data(), data[0]);

  const buffer_pool::Stats after = buffer_pool::stats();
  EXPECT_EQ(after.reused - before.reused, 2u);
  EXPECT_EQ(after.fresh - before.fresh, 1u);
  EXPECT_EQ(after.idle_bytes, 5 * kFloorBytes);
}

// take_for_overwrite() hands a reused buffer out at the asked length
// without writing the bytes it already held: only bytes past the length
// it was given back with are zero-filled. With none idle it only
// reserves, so no fresh page is touched.
TEST(BufferPoolTest, TakeForOverwriteWritesOnlyPastTheGivenLength) {
  drain();
  std::string given;
  given.reserve(3 * kFloorBytes);
  given.assign(2 * kFloorBytes, 'x');
  const char* data = given.data();
  buffer_pool::give(std::move(given));

  std::string shorter = buffer_pool::take_for_overwrite(2 * kFloorBytes - 10);
  ASSERT_EQ(shorter.data(), data);
  EXPECT_EQ(shorter.size(), 2 * kFloorBytes - 10);
  EXPECT_EQ(shorter.find_first_not_of('x'), std::string::npos);
  buffer_pool::give(std::move(shorter));

  std::string longer = buffer_pool::take_for_overwrite(3 * kFloorBytes);
  ASSERT_EQ(longer.data(), data);
  ASSERT_EQ(longer.size(), 3 * kFloorBytes);
  EXPECT_EQ(longer.find_first_not_of('x'), 2 * kFloorBytes - 10);
  EXPECT_EQ(longer.find_first_not_of('\0', 2 * kFloorBytes - 10),
            std::string::npos);

  // Fresh, or below the floor: empty, with the asked capacity.
  drain();
  for (size_t size : {size_t{100}, 4 * kFloorBytes}) {
    std::string fresh = buffer_pool::take_for_overwrite(size);
    EXPECT_TRUE(fresh.empty());
    EXPECT_GE(fresh.capacity(), size);
  }
}

// share() gives the buffer back once the last reference lets go.
TEST(BufferPoolTest, SharedBufferGoesBackWhenTheLastReferenceLetsGo) {
  drain();
  const buffer_pool::Stats before = buffer_pool::stats();
  std::shared_ptr<const std::string> owner =
      buffer_pool::share(buffer_of(2 * kFloorBytes));
  std::shared_ptr<const std::string> second = owner;
  EXPECT_EQ(*owner, std::string(100, 'x'));
  owner.reset();
  EXPECT_EQ(buffer_pool::stats().kept, before.kept);
  second.reset();
  EXPECT_EQ(buffer_pool::stats().kept - before.kept, 1u);
  EXPECT_EQ(drain(), 1u);
}

TEST(BufferPoolTest, BufferBelowTheFloorIsNeverKept) {
  drain();
  const buffer_pool::Stats before = buffer_pool::stats();
  for (size_t capacity : {size_t{64}, size_t{4096}, kFloorBytes - 1}) {
    buffer_pool::give(buffer_of(capacity));
    std::string taken = buffer_pool::take(capacity);
    EXPECT_GE(taken.capacity(), capacity);
  }
  const buffer_pool::Stats after = buffer_pool::stats();
  EXPECT_EQ(after.kept, before.kept);
  EXPECT_EQ(after.freed, before.freed);
  EXPECT_EQ(after.reused, before.reused);
  EXPECT_EQ(after.fresh, before.fresh);
  EXPECT_EQ(after.idle_bytes, 0u);
}

TEST(BufferPoolTest, IdleBoundFreesTheBufferThatWouldExceedIt) {
  drain();
  const size_t capacity = kIdleBoundBytes / 4;
  const buffer_pool::Stats before = buffer_pool::stats();
  for (int i = 0; i < 4; ++i) buffer_pool::give(buffer_of(capacity));
  EXPECT_EQ(buffer_pool::stats().idle_bytes, kIdleBoundBytes);

  std::string over = buffer_of(kFloorBytes);
  const char* over_data = over.data();
  buffer_pool::give(std::move(over));
  const buffer_pool::Stats after = buffer_pool::stats();
  EXPECT_EQ(after.kept - before.kept, 4u);
  EXPECT_EQ(after.freed - before.freed, 1u);
  EXPECT_EQ(after.idle_bytes, kIdleBoundBytes);
  // The refused buffer is not among the idle ones.
  std::string taken = buffer_pool::take(kFloorBytes);
  EXPECT_NE(taken.data(), over_data);
  EXPECT_EQ(drain(), 3u);
}

TEST(BufferPoolTest, ConcurrentTakesAndGivesKeepConsistentCounts) {
  drain();
  constexpr int kThreads = 4;
  constexpr int kRounds = 10000;
  // Each thread takes eight buffers of 1-4 MiB (20 MiB) before giving
  // them back, more than the idle bound, so some gives are refused even
  // when the threads happen to run one after another.
  constexpr size_t kMiB = 1024 * 1024;
  const buffer_pool::Stats before = buffer_pool::stats();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      std::vector<std::string> held;
      for (int i = 0; i < kRounds; ++i) {
        const size_t capacity = (1 + (i + t) % 4) * kMiB;
        held.push_back(buffer_pool::take(capacity));
        held.back().push_back(static_cast<char>('a' + t));
        if (held.size() == 8) {
          for (std::string& buffer : held) buffer_pool::give(std::move(buffer));
          held.clear();
        }
      }
      for (std::string& buffer : held) buffer_pool::give(std::move(buffer));
    });
  }
  for (std::thread& thread : threads) thread.join();

  const buffer_pool::Stats after = buffer_pool::stats();
  const std::uint64_t takes = kThreads * kRounds;
  EXPECT_EQ((after.reused - before.reused) + (after.fresh - before.fresh),
            takes);
  EXPECT_EQ((after.kept - before.kept) + (after.freed - before.freed), takes);
  EXPECT_GT(after.reused - before.reused, 0u);
  EXPECT_GT(after.freed - before.freed, 0u);
  EXPECT_LE(after.idle_bytes, kIdleBoundBytes);
  // Every buffer kept and not taken again is still idle.
  EXPECT_EQ(drain(), (after.kept - before.kept) - (after.reused - before.reused));
}

}  // namespace
}  // namespace spi
