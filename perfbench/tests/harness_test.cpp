// Tests of the benchmark's own harness: the percentile sample-count rule,
// the open-loop generator's timing (no coordinated omission), the backlog
// guard and bit-exact payload comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

TEST(Percentile, SamplesBeyondFollowNearestRank) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(20, 50.0), 10u);
  EXPECT_EQ(samples_beyond(1, 50.0), 0u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(Percentile, HighestSupportedNeedsTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_FALSE(percentile_supported(999, 99.0));
  EXPECT_TRUE(percentile_supported(200, 99.0, 2));
}

TEST(Percentile, NearestRankValues) {
  std::vector<double> values(100);
  std::iota(values.begin(), values.end(), 1.0);
  std::reverse(values.begin(), values.end());
  EXPECT_EQ(percentile(values, 50.0), 50.0);
  EXPECT_EQ(percentile(values, 90.0), 90.0);
  EXPECT_EQ(percentile(values, 99.0), 99.0);
  EXPECT_EQ(percentile(values, 100.0), 100.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(percentile({}, 99.0), 0.0);
}

// A consumer that stalls once, synchronously, the way a full kBlock ring
// stalls submit(). Every frame due during the stall is sent late; latency
// measured from the due time must carry that wait, and the lateness the
// generator records must show it.
TEST(OpenLoop, StalledConsumerShowsInLatencyFromDueTime) {
  constexpr std::uint64_t kPeriod = 2'000'000;  // 2 ms
  constexpr std::uint64_t kFrames = 30;
  constexpr auto kStall = std::chrono::milliseconds(30);
  OpenLoopGenerator generator({0, 1'000'000}, kPeriod, kFrames);

  struct Sent {
    std::uint64_t due, started, completed;
  };
  std::vector<Sent> sent;
  const std::uint64_t start = now_ns() + 1'000'000;
  generator.run(start, [&](std::size_t source, std::uint64_t index, std::uint64_t due) {
    const std::uint64_t started = now_ns();
    EXPECT_EQ(due, generator.due_ns(start, source, index));
    if (source == 0 && index == 5) std::this_thread::sleep_for(kStall);
    sent.push_back({due, started, now_ns()});
  });

  ASSERT_EQ(sent.size(), 2 * kFrames);  // nothing skipped, even after the stall
  for (std::size_t i = 1; i < sent.size(); ++i) EXPECT_LE(sent[i - 1].due, sent[i].due);

  std::vector<double> from_due, from_send;
  for (const Sent& s : sent) {
    from_due.push_back(ns_to_ms(static_cast<std::int64_t>(s.completed - s.due)));
    from_send.push_back(ns_to_ms(static_cast<std::int64_t>(s.completed - s.started)));
  }
  // ~15 frames were due inside the 30 ms stall; each waited for it.
  const auto delayed = std::count_if(from_due.begin(), from_due.end(),
                                     [](double ms) { return ms > 5.0; });
  EXPECT_GE(delayed, 10);
  EXPECT_GE(*std::max_element(from_due.begin(), from_due.end()), 25.0);
  // Timed from the actual send, only the stalled frame looks slow: that is
  // the coordinated omission measuring from the due time avoids.
  const auto slow_from_send = std::count_if(from_send.begin(), from_send.end(),
                                            [](double ms) { return ms > 5.0; });
  EXPECT_EQ(slow_from_send, 1);

  std::vector<double> lateness_ms;
  for (const std::uint64_t ns : generator.lateness_ns()) {
    lateness_ms.push_back(ns_to_ms(static_cast<std::int64_t>(ns)));
  }
  ASSERT_EQ(lateness_ms.size(), sent.size());
  EXPECT_GE(percentile(lateness_ms, 99.0), 20.0);
  EXPECT_LT(percentile(lateness_ms, 50.0), 5.0);
}

TEST(OpenLoop, PunctualConsumerIsNeverLateByMuch) {
  OpenLoopGenerator generator({0, 500'000, 1'000'000}, 3'000'000, 20);
  generator.run(now_ns() + 1'000'000, [](std::size_t, std::uint64_t, std::uint64_t) {});
  std::vector<double> lateness_ms;
  for (const std::uint64_t ns : generator.lateness_ns()) {
    lateness_ms.push_back(ns_to_ms(static_cast<std::int64_t>(ns)));
  }
  ASSERT_EQ(lateness_ms.size(), 60u);
  EXPECT_LT(percentile(lateness_ms, 50.0), 2.0);
}

TEST(OpenLoop, RejectsPhaseOutsideThePeriod) {
  EXPECT_THROW(OpenLoopGenerator({0, 10}, 10, 1), std::invalid_argument);
  EXPECT_THROW(OpenLoopGenerator({0}, 0, 1), std::invalid_argument);
}

TEST(SteadyState, KeepsRisingOnlyWhenMonotoneAndLarge) {
  EXPECT_TRUE(keeps_rising(1.0, 2.0, 3.0, 0.5, 0.0));
  EXPECT_FALSE(keeps_rising(1.0, 1.1, 1.2, 0.5, 0.0));  // rises, but within the slack
  EXPECT_FALSE(keeps_rising(1.0, 3.0, 2.0, 0.5, 0.0));  // falls in the last third
  EXPECT_FALSE(keeps_rising(3.0, 2.0, 1.0, 0.5, 0.0));
  EXPECT_FALSE(keeps_rising(0.0, 1.0, 3.0, 1.0, 4.0));  // absolute slack
}

TEST(PayloadCheck, ComparesEveryBit) {
  hdc::recognition::RecognitionResult a;
  a.accepted = true;
  a.distance = 1.25;
  a.margin = 0.5;
  a.sax_word = "abcdefghabcdefgh";
  hdc::recognition::RecognitionResult b = a;
  b.total_ms = 99.0;  // timing is not payload
  EXPECT_TRUE(Payload::of(a).same_as(Payload::of(b)));
  b.distance = std::nextafter(a.distance, 2.0);
  EXPECT_FALSE(Payload::of(a).same_as(Payload::of(b)));
  b = a;
  b.sax_word = "abcdefghabcdefgi";
  EXPECT_FALSE(Payload::of(a).same_as(Payload::of(b)));
  a.margin = 0.0;
  b = a;
  b.margin = -0.0;
  EXPECT_FALSE(Payload::of(a).same_as(Payload::of(b)));
}

}  // namespace
}  // namespace perfbench
