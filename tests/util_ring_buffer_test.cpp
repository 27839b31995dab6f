// BoundedRing: FIFO order, lossless fill-to-capacity behaviour (push()
// blocks), the half-drain wake of a blocked producer, the pop count,
// close() semantics, and cross-thread per-stream sequence monotonicity
// under a multi-producer load.
#include "util/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace hdc::util {
namespace {

TEST(BoundedRing, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedRing<int>(0), std::invalid_argument);
}

TEST(BoundedRing, FifoOrderSingleThread) {
  BoundedRing<int> ring(4);
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(ring.push(v), PushOutcome::kEnqueued);
  }
  EXPECT_EQ(ring.size(), 4u);
  int out = -1;
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, v);
  }
  EXPECT_EQ(ring.size(), 0u);
}

TEST(BoundedRing, WrapAroundKeepsFifoOrder) {
  BoundedRing<int> ring(3);
  int out = -1;
  // Push/pop interleaved so head/tail wrap several times.
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(ring.push(2 * round), PushOutcome::kEnqueued);
    EXPECT_EQ(ring.push(2 * round + 1), PushOutcome::kEnqueued);
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, 2 * round);
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, 2 * round + 1);
  }
}

TEST(BoundedRing, PoppedCountAdvancesOnBothPopPaths) {
  // popped_count() is the stalled-shard watchdog's liveness signal: it
  // must advance once per successful pop(), before and after close(), and
  // never on the final closed-and-drained pop.
  BoundedRing<int> ring(4);
  EXPECT_EQ(ring.popped_count(), 0u);
  for (int v = 0; v < 4; ++v) ring.push(v);
  int out = -1;
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(ring.popped_count(), 1u);
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(ring.popped_count(), 2u);
  ring.push(4);
  ring.push(5);
  const std::uint64_t before = ring.popped_count();
  EXPECT_EQ(before, 2u);
  // Drain a closed ring; every success counts once, the final failed pop
  // does not.
  ring.close();
  while (ring.pop(out)) {
  }
  EXPECT_EQ(ring.popped_count(), before + 4);
  EXPECT_FALSE(ring.pop(out));
  EXPECT_EQ(ring.popped_count(), before + 4);
}

TEST(BoundedRing, BlockPolicyWaitsForSpace) {
  BoundedRing<int> ring(1);
  EXPECT_EQ(ring.push(1), PushOutcome::kEnqueued);
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(ring.push(2), PushOutcome::kEnqueued);  // blocks until pop
    second_pushed.store(true);
  });
  // The producer cannot complete until the consumer frees the slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  int out = -1;
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 2);
}

TEST(BoundedRing, BlockedProducerWakesAtHalfEmpty) {
  // A producer that finds the ring full sleeps until the consumer has
  // drained it to capacity / 2, not until the first free slot: one wake
  // per half-ring drain instead of one per pop.
  BoundedRing<int> ring(8);
  for (int v = 0; v < 8; ++v) ASSERT_EQ(ring.push(v), PushOutcome::kEnqueued);
  std::atomic<bool> started{false};
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    started.store(true);
    EXPECT_EQ(ring.push(8), PushOutcome::kEnqueued);  // ring full: sleeps
    pushed.store(true);
  });
  // The producer must be asleep on the full ring before the pops start;
  // one that arrived at a 5-item ring would push at once.
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  int out = -1;
  for (int v = 0; v < 3; ++v) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, v);
  }
  // Five items left, above half: the producer is still asleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_FALSE(pushed.load());
  // The fourth pop leaves four (half of eight) and wakes it.
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 3);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(ring.size(), 5u);
  for (int v = 4; v <= 8; ++v) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, v);
  }
}

TEST(BoundedRing, CloseWakesBlockedProducerWithClosed) {
  BoundedRing<int> ring(1);
  EXPECT_EQ(ring.push(1), PushOutcome::kEnqueued);
  std::atomic<bool> woke{false};
  std::thread producer([&] {
    EXPECT_EQ(ring.push(2), PushOutcome::kClosed);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ring.close();
  producer.join();
  EXPECT_TRUE(woke.load());
  // The consumer still drains what was queued before close...
  int out = -1;
  EXPECT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 1);
  // ...then pop reports closed-and-empty.
  EXPECT_FALSE(ring.pop(out));
  // And any further push is refused.
  EXPECT_EQ(ring.push(9), PushOutcome::kClosed);
}

TEST(BoundedRing, CrossThreadPerStreamSequenceMonotonicity) {
  // 4 producers, one stream each, pushing numbered items through a small
  // ring (lossless: push() blocks). The single consumer must observe every
  // stream's sequence strictly increasing and contiguous — FIFO admission
  // plus per-producer program order is exactly the guarantee the
  // PerceptionService ordering contract builds on.
  struct Item {
    std::uint32_t stream{0};
    std::uint64_t sequence{0};
  };
  constexpr std::size_t kStreams = 4;
  constexpr std::uint64_t kPerStream = 500;
  BoundedRing<Item> ring(8);

  std::vector<std::thread> producers;
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    producers.emplace_back([&ring, s] {
      for (std::uint64_t i = 0; i < kPerStream; ++i) {
        EXPECT_EQ(ring.push({s, i}), PushOutcome::kEnqueued);
      }
    });
  }

  std::vector<std::uint64_t> next_expected(kStreams, 0);
  Item item;
  for (std::uint64_t n = 0; n < kStreams * kPerStream; ++n) {
    ASSERT_TRUE(ring.pop(item));
    ASSERT_LT(item.stream, kStreams);
    EXPECT_EQ(item.sequence, next_expected[item.stream])
        << "stream " << item.stream << " out of order";
    ++next_expected[item.stream];
  }
  for (std::thread& t : producers) t.join();
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(next_expected[s], kPerStream);
  }
  EXPECT_EQ(ring.size(), 0u);
}

}  // namespace
}  // namespace hdc::util
