// Telemetry registry tests: bucket geometry (index/lower-bound inverses,
// exact unit buckets, the <= 12.5% width bound), the nearest-rank
// percentile on exact unit buckets, percentile error against exact sorted
// samples, concurrent multi-thread recording vs a serial
// ground truth, snapshot-during-write consistency (monotonic, never torn
// below the field level), the pinned render_text() exposition format, the
// disarmed-handle no-op contract, and counter collectors: same-name sums,
// and no snapshot reads an owner that is gone or going.
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/flight_recorder.hpp"

namespace hdc::telemetry {
namespace {

// ------------------------------------------------------ bucket geometry --

TEST(HistogramBuckets, UnitBucketsBelowEightAreExact) {
  for (std::uint64_t v = 0; v < kSubBuckets; ++v) {
    EXPECT_EQ(bucket_index(v), v);
    EXPECT_EQ(bucket_lower_bound(v), v);
    EXPECT_EQ(bucket_representative(v), v);
  }
}

TEST(HistogramBuckets, LowerBoundIsTheInverseOfIndexAtEveryBoundary) {
  // Every bucket's lower bound maps back to that bucket, and the value one
  // below it maps to the previous bucket (no gaps, no overlaps).
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    const std::uint64_t lower = bucket_lower_bound(i);
    EXPECT_EQ(bucket_index(lower), i) << "bucket " << i;
    if (i > 0) {
      EXPECT_EQ(bucket_index(lower - 1), i - 1) << "bucket " << i;
    }
  }
  EXPECT_EQ(bucket_index(~std::uint64_t{0}), kBucketCount - 1);
}

TEST(HistogramBuckets, BucketWidthIsAtMostAnEighthOfItsLowerBound) {
  // The percentile error bound rests on this: midpoint reporting is off by
  // at most half a width (6.25%), never more than a full width (12.5%).
  for (std::size_t i = kSubBuckets; i + 1 < kBucketCount; ++i) {
    const std::uint64_t lower = bucket_lower_bound(i);
    const std::uint64_t width = bucket_lower_bound(i + 1) - lower;
    EXPECT_LE(width, lower / kSubBuckets) << "bucket " << i;
    const std::uint64_t representative = bucket_representative(i);
    EXPECT_GE(representative, lower);
    EXPECT_LT(representative, lower + width);
  }
}

// ---------------------------------------------------------- percentiles --

TEST(Histogram, PercentilesStayWithinTheBucketWidthOfExactSortedSamples) {
  std::mt19937_64 rng(0xC0FFEEu);
  // Log-uniform nanosecond-scale samples: exercises many octaves.
  std::uniform_real_distribution<double> log_range(0.0, 30.0);
  MetricsRegistry registry;
  Histogram histogram = registry.histogram("latency_ns");
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t value =
        static_cast<std::uint64_t>(std::exp2(log_range(rng)));
    samples.push_back(value);
    histogram.record(value);
  }
  std::sort(samples.begin(), samples.end());

  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSnapshot* snap = snapshot.find_histogram("latency_ns");
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->count, samples.size());

  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    // The same rank convention percentile() uses, ceil(q * n), against the
    // exact sort (every q * n here is an exact product).
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    rank = std::clamp<std::uint64_t>(rank, 1, samples.size());
    const double exact = static_cast<double>(samples[rank - 1]);
    const double reported = static_cast<double>(snap->percentile(q));
    EXPECT_LE(std::abs(reported - exact), exact * 0.125 + 1.0)
        << "q=" << q << " exact=" << exact << " reported=" << reported;
  }
}

TEST(Histogram, PercentileIsTheNearestRankSampleOnUnitBuckets) {
  // Values below 8 land in exact unit buckets, so percentile(q) must be
  // exactly the ceil(q * n)-th smallest sample.
  const auto percentile_of = [](const std::vector<std::uint64_t>& values,
                                double q) {
    MetricsRegistry registry;
    Histogram histogram = registry.histogram("unit_ns");
    for (const std::uint64_t value : values) histogram.record(value);
    const MetricsSnapshot snapshot = registry.snapshot();
    return snapshot.find_histogram("unit_ns")->percentile(q);
  };
  // {4, 6, 6}: the median is the 2nd sample.
  EXPECT_EQ(percentile_of({4, 6, 6}, 0.5), 6u);
  EXPECT_EQ(percentile_of({4, 6, 6}, 0.9), 6u);
  // 1..7: p50 is the 4th sample, p99 the 7th (the maximum).
  const std::vector<std::uint64_t> one_to_seven = {1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(percentile_of(one_to_seven, 0.01), 1u);
  EXPECT_EQ(percentile_of(one_to_seven, 0.5), 4u);
  EXPECT_EQ(percentile_of(one_to_seven, 0.99), 7u);
  EXPECT_EQ(percentile_of(one_to_seven, 1.0), 7u);
  // An exact product is not bumped to the next rank: 0.5 * 4 is rank 2,
  // and 0.07 * 100 (7.000000000000001 in doubles) is rank 7.
  EXPECT_EQ(percentile_of({1, 2, 3, 4}, 0.5), 2u);
  EXPECT_EQ(percentile_of({1, 2, 3, 4}, 0.25), 1u);
  std::vector<std::uint64_t> hundred(7, 1);
  hundred.resize(100, 2);
  EXPECT_EQ(percentile_of(hundred, 0.07), 1u);
  EXPECT_EQ(percentile_of(hundred, 0.08), 2u);
}

TEST(Histogram, PercentileOfEmptyHistogramIsZero) {
  MetricsRegistry registry;
  (void)registry.histogram("empty_ns");
  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSnapshot* snap = snapshot.find_histogram("empty_ns");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->count, 0u);
  EXPECT_EQ(snap->percentile(0.5), 0u);
  EXPECT_EQ(snap->percentile(0.99), 0u);
}

// ----------------------------------------------- concurrent aggregation --

TEST(Registry, ConcurrentRecordingMatchesSerialGroundTruth) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;

  MetricsRegistry registry;
  std::atomic<std::uint64_t> recorded{0};
  const CollectorHandle collector = registry.collect(
      [&recorded](CounterSink& report) { report("ops_total", recorded.load()); });
  Histogram histogram = registry.histogram("work_ns");

  // Serial ground truth over the same deterministic per-thread sequences.
  std::vector<std::uint64_t> expected_buckets(kBucketCount, 0);
  std::uint64_t expected_sum = 0, expected_max = 0, expected_count = 0;
  for (int t = 0; t < kThreads; ++t) {
    std::mt19937_64 rng(1000 + t);
    for (int i = 0; i < kPerThread; ++i) {
      const std::uint64_t value = rng() % 1'000'000;
      ++expected_buckets[bucket_index(value)];
      expected_sum += value;
      expected_max = std::max(expected_max, value);
      ++expected_count;
    }
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t value = rng() % 1'000'000;
        histogram.record(value);
        recorded.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSnapshot* snap = snapshot.find_histogram("work_ns");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->count, expected_count);
  EXPECT_EQ(snap->sum, expected_sum);
  EXPECT_EQ(snap->max, expected_max);
  EXPECT_EQ(snap->buckets, expected_buckets);

  const CounterSnapshot* ops = snapshot.find_counter("ops_total");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->value, expected_count);
}

TEST(Registry, SnapshotDuringWritesIsMonotonicAndInternallyConsistent) {
  MetricsRegistry registry;
  std::atomic<std::uint64_t> events{0};
  const CollectorHandle collector = registry.collect(
      [&events](CounterSink& report) { report("events_total", events.load()); });
  Histogram histogram = registry.histogram("tick_ns");

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      events.fetch_add(1, std::memory_order_relaxed);
      histogram.record(i++ % 4096);
    }
  });

  std::uint64_t last_counter = 0, last_count = 0, last_sum = 0;
  for (int i = 0; i < 200; ++i) {
    const MetricsSnapshot snapshot = registry.snapshot();
    const CounterSnapshot* events = snapshot.find_counter("events_total");
    const HistogramSnapshot* ticks = snapshot.find_histogram("tick_ns");
    ASSERT_NE(events, nullptr);
    ASSERT_NE(ticks, nullptr);
    // Monotonic across snapshots; count always equals the bucket sum (the
    // snapshot derives it that way, so they can never disagree mid-write).
    EXPECT_GE(events->value, last_counter);
    EXPECT_GE(ticks->count, last_count);
    EXPECT_GE(ticks->sum, last_sum);
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t bucket : ticks->buckets) bucket_total += bucket;
    EXPECT_EQ(ticks->count, bucket_total);
    last_counter = events->value;
    last_count = ticks->count;
    last_sum = ticks->sum;
  }
  // The snapshot loop can outrun thread startup: wait for the writer to
  // make progress before stopping it, so the final check is not a race.
  const auto events_total = [&registry] {
    const MetricsSnapshot snapshot = registry.snapshot();
    return snapshot.find_counter("events_total")->value;
  };
  while (events_total() == 0) std::this_thread::yield();
  stop.store(true);
  writer.join();
  EXPECT_GT(events_total(), 0u);
}

// ------------------------------------------------------------- handles --

// Snapshot lookups return pointers into the snapshot, so calling them on a
// temporary (which dies at the end of the full-expression) must not compile.
template <typename Snapshot>
concept LookupCompiles = requires(Snapshot&& snapshot) {
  std::forward<Snapshot>(snapshot).find_counter("x");
  std::forward<Snapshot>(snapshot).find_histogram("x");
};
static_assert(LookupCompiles<const MetricsSnapshot&>);
static_assert(LookupCompiles<MetricsSnapshot&>);
static_assert(!LookupCompiles<MetricsSnapshot>);
static_assert(!LookupCompiles<const MetricsSnapshot>);


TEST(Registry, DisarmedHandlesAreNoOps) {
  Histogram histogram;
  EXPECT_FALSE(histogram.armed());
  histogram.record(42);
  { TracedSpan span(histogram); }  // must not crash or record
  { CollectorHandle collector; }   // registered nowhere, deregisters nothing
}

TEST(Registry, SameNameReturnsTheSameMetric) {
  // Two collectors reporting one name (two services wired into one
  // registry) are one counter holding the sum.
  MetricsRegistry registry;
  const CollectorHandle a = registry.collect(
      [](CounterSink& report) { report("shared_total", 2); });
  const CollectorHandle b = registry.collect(
      [](CounterSink& report) { report("shared_total", 3); });
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.find_counter("shared_total")->value, 5u);
}

/// A collector's owner as every service lays it out: the state the
/// collector reads, then the handle as the last member, so the handle
/// deregisters before the state is freed. The collector yields before it
/// reads, as one that waits for its owner's lock would.
struct CountingOwner {
  explicit CountingOwner(MetricsRegistry& registry)
      : count(std::make_unique<std::uint64_t>(7)),
        collector(registry.collect([this](CounterSink& report) {
          std::this_thread::yield();
          report("owned_total", *count);
        })) {}
  std::unique_ptr<std::uint64_t> count;
  CollectorHandle collector;
};

TEST(Registry, ASnapshotAfterTheOwnerIsGoneHasNoEntryFromIt) {
  MetricsRegistry registry;
  auto owner = std::make_unique<CountingOwner>(registry);
  {
    const MetricsSnapshot snapshot = registry.snapshot();
    ASSERT_NE(snapshot.find_counter("owned_total"), nullptr);
    EXPECT_EQ(snapshot.find_counter("owned_total")->value, 7u);
  }
  owner.reset();
  EXPECT_TRUE(registry.snapshot().counters.empty());

  // A moved-from handle deregisters nothing; the handle it moved into
  // keeps the collector until it dies.
  CollectorHandle first =
      registry.collect([](CounterSink& report) { report("kept_total", 1); });
  CollectorHandle second = std::move(first);
  first = CollectorHandle();
  EXPECT_EQ(registry.snapshot().counters.size(), 1u);
  second = CollectorHandle();
  EXPECT_TRUE(registry.snapshot().counters.empty());
}

TEST(Registry, SnapshotsRunWhileOwnersAreDestroyed) {
  // A reader snapshots while owners come and go. Destruction waits for a
  // running collection, so no collector reads freed state (ASan and TSan
  // check it): each snapshot sees an owner whole or not at all.
  MetricsRegistry registry;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> seen{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const MetricsSnapshot snapshot = registry.snapshot();
      if (const CounterSnapshot* owned = snapshot.find_counter("owned_total")) {
        EXPECT_EQ(owned->value % 7, 0u);
        seen.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Owners come and go until the reader has seen 2,000 snapshots with one.
  while (seen.load(std::memory_order_relaxed) < 2'000) {
    const CountingOwner first(registry);
    const auto second = std::make_unique<CountingOwner>(registry);
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(registry.snapshot().counters.empty());
}

TEST(Span, RecordsElapsedTimeOncePerScope) {
  MetricsRegistry registry;
  Histogram histogram = registry.histogram("span_ns");
  const auto span_count = [&registry] {
    const MetricsSnapshot snapshot = registry.snapshot();
    return snapshot.find_histogram("span_ns")->count;
  };
  { TracedSpan span(histogram); }
  EXPECT_EQ(span_count(), 1u);

  { TracedSpan span(histogram); }
  EXPECT_EQ(span_count(), 2u);
}

// ----------------------------------------------------------- exposition --

TEST(RenderText, PinnedExpositionFormat) {
  MetricsRegistry registry;
  const CollectorHandle collector = registry.collect([](CounterSink& report) {
    report("alpha_total", 3);
    report.gauge("queue_depth", -2);
  });
  Histogram histogram = registry.histogram("stage_ns");
  histogram.record(4);
  histogram.record(6);
  histogram.record(6);

  // The format is part of the public surface (docs/OBSERVABILITY.md):
  // changing it breaks downstream scrapers, so it is pinned verbatim.
  const std::string expected =
      "# TYPE alpha_total counter\n"
      "alpha_total 3\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth -2\n"
      "# TYPE stage_ns summary\n"
      "stage_ns{quantile=\"0.5\"} 6\n"
      "stage_ns{quantile=\"0.9\"} 6\n"
      "stage_ns{quantile=\"0.99\"} 6\n"
      "stage_ns_count 3\n"
      "stage_ns_sum 16\n"
      "stage_ns_max 6\n";
  EXPECT_EQ(registry.render_text(), expected);
}

TEST(RenderText, EntriesAreSortedByName) {
  MetricsRegistry registry;
  const CollectorHandle collector = registry.collect([](CounterSink& report) {
    report("zeta_total", 0);
    report("alpha_total", 0);
  });
  const std::string text = registry.render_text();
  EXPECT_LT(text.find("alpha_total"), text.find("zeta_total"));
}

}  // namespace
}  // namespace hdc::telemetry
