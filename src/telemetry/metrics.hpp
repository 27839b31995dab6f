// Process-wide metrics registry: named counters, gauges and log-bucketed
// latency histograms for the recognition -> dialogue -> coordination
// pipeline.
//
// Hot-path contract (the whole point of this layer):
//   - Recording through a handle is WAIT-FREE: one relaxed fetch_add into a
//     per-thread stripe (plus a relaxed CAS loop for the histogram max).
//     No locks, no allocation, no stores shared between writer threads —
//     each thread owns a cache-line-aligned stripe, so shards never
//     contend on a metric cell.
//   - Aggregation happens ONLY at snapshot time: `snapshot()` sums the
//     stripes. Totals are exact (every increment lands in exactly one
//     stripe); a snapshot taken mid-write is consistent in the seqlock
//     sense — monotonic, never torn below the field level.
//   - Handle creation (`counter()/gauge()/histogram()`) is the COLD path:
//     it takes a mutex and may allocate. Services create handles at
//     construction and keep them; frames never look a name up.
//
// A default-constructed handle is disarmed: every record is a no-op branch.
// Services accept an optional `MetricsRegistry*` and wire handles only when
// one is supplied, so the un-instrumented build path stays untouched.
// `bench/bench_telemetry_overhead.cpp` gates the instrumented recognition
// path within the 3% noise floor of docs/PERFORMANCE.md.
//
// Exposition: `render_text()` emits Prometheus-style text (summary
// quantiles from the histogram buckets); `docs/OBSERVABILITY.md` is the
// naming scheme + format spec, pinned by tests/telemetry_metrics_test.cpp.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/histogram_buckets.hpp"

namespace hdc::telemetry {

namespace detail {

inline constexpr std::size_t kStripes = 8;  // power of two

/// Stable per-thread stripe slot; threads round-robin over the stripes so
/// K shard workers land on K distinct cache lines (for K <= kStripes).
[[nodiscard]] inline std::size_t thread_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) & (kStripes - 1);
  return slot;
}

struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct CounterNode {
  std::string name;
  std::array<CounterCell, kStripes> cells{};
};

struct alignas(64) GaugeCell {
  std::atomic<std::int64_t> value{0};
};

struct GaugeNode {
  std::string name;
  std::array<GaugeCell, kStripes> cells{};
};

struct alignas(64) HistogramStripe {
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets{};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max{0};
};

struct HistogramNode {
  std::string name;
  std::array<HistogramStripe, kStripes> stripes{};
};

}  // namespace detail

/// Monotonic counter handle. Copyable, trivially destructible; the node it
/// points at lives as long as the owning registry.
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t delta = 1) noexcept {
    if (node_ == nullptr) return;
    node_->cells[detail::thread_stripe()].value.fetch_add(delta,
                                                          std::memory_order_relaxed);
  }

  [[nodiscard]] bool armed() const noexcept { return node_ != nullptr; }

  /// Exact aggregate across stripes (snapshot-time read; not for hot paths).
  [[nodiscard]] std::uint64_t total() const noexcept {
    if (node_ == nullptr) return 0;
    std::uint64_t sum = 0;
    for (const auto& cell : node_->cells) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterNode* node) noexcept : node_(node) {}
  detail::CounterNode* node_{nullptr};
};

/// Signed up/down gauge (queue depths). The value is the exact sum of the
/// striped deltas, so +1 at push / -1 at pop from different threads still
/// aggregates exactly.
class Gauge {
 public:
  Gauge() = default;

  void add(std::int64_t delta) noexcept {
    if (node_ == nullptr) return;
    node_->cells[detail::thread_stripe()].value.fetch_add(delta,
                                                          std::memory_order_relaxed);
  }

  [[nodiscard]] bool armed() const noexcept { return node_ != nullptr; }

  [[nodiscard]] std::int64_t value() const noexcept {
    if (node_ == nullptr) return 0;
    std::int64_t sum = 0;
    for (const auto& cell : node_->cells) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeNode* node) noexcept : node_(node) {}
  detail::GaugeNode* node_{nullptr};
};

/// Fixed-size log-bucketed latency histogram (nanosecond domain). See
/// telemetry/histogram_buckets.hpp for the bucket geometry and the <= 12.5%
/// percentile error bound.
class Histogram {
 public:
  Histogram() = default;

  void record(std::uint64_t value) noexcept {
    if (node_ == nullptr) return;
    detail::HistogramStripe& stripe = node_->stripes[detail::thread_stripe()];
    stripe.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    stripe.sum.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = stripe.max.load(std::memory_order_relaxed);
    while (value > seen &&
           !stripe.max.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] bool armed() const noexcept { return node_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramNode* node) noexcept : node_(node) {}
  detail::HistogramNode* node_{nullptr};
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value{0};
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value{0};
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count{0};
  std::uint64_t sum{0};
  std::uint64_t max{0};
  std::vector<std::uint64_t> buckets;  ///< kBucketCount entries, stripe-summed

  /// Percentile (q in [0, 1]) as the midpoint representative of the bucket
  /// holding the ceil(q * count)-th sample. 0 for an empty histogram.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;
};

/// One consistent view of every metric in a registry, aggregated across
/// stripes. Entries are sorted by name (the canonical exposition order).
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Lookups return pointers INTO this snapshot, so they only exist on
  /// lvalues: a lookup on a temporary (`registry.snapshot().find_...`)
  /// would dangle at the end of the full-expression and does not compile.
  /// Bind the snapshot to a named variable first.
  [[nodiscard]] const CounterSnapshot* find_counter(std::string_view name) const& noexcept;
  [[nodiscard]] const HistogramSnapshot* find_histogram(
      std::string_view name) const& noexcept;
  const CounterSnapshot* find_counter(std::string_view name) const&& = delete;
  const HistogramSnapshot* find_histogram(std::string_view name) const&& = delete;
};

/// Named-metric registry. Get-or-create by name is mutex-guarded (cold
/// path); recording through the returned handles is wait-free. Nodes have
/// stable addresses for the registry's lifetime (deque storage), so handles
/// stay valid across later registrations.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Prometheus-style text exposition of a fresh snapshot: counters and
  /// gauges as single samples, histograms as summaries with
  /// quantile="0.5|0.9|0.99" plus _count/_sum/_max. Format pinned by
  /// tests/telemetry_metrics_test.cpp; spec in docs/OBSERVABILITY.md.
  [[nodiscard]] std::string render_text() const;
  [[nodiscard]] static std::string render_text(const MetricsSnapshot& snapshot);

 private:
  mutable std::mutex mutex_;
  std::deque<detail::CounterNode> counters_;
  std::deque<detail::GaugeNode> gauges_;
  std::deque<detail::HistogramNode> histograms_;
};

}  // namespace hdc::telemetry
