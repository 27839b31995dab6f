// Process-wide metrics registry: counters, gauges and log-bucketed latency
// histograms for the recognition -> dialogue -> coordination pipeline.
//
// Counters and gauges are READ, not pushed (the pull model of Prometheus
// collectors): a counter is a plain count in its service's stats struct and
// a gauge is a level the service already keeps (a ring's size()), both
// reported by the collector the service registers (`collect()`) when
// `snapshot()` runs it. Histograms are the one pushed kind, through
// handles, WAIT-FREE: one relaxed fetch_add into a per-thread
// cache-line-aligned stripe (plus a relaxed CAS loop for the max); no
// locks, no allocation, no shared stores. `snapshot()` sums the stripes:
// totals are exact, and a snapshot taken mid-write is monotonic, never torn
// below the field level.
//
// Handle creation and collector registration are the COLD path, under the
// registry mutex; services do both at construction, and only when given a
// registry (a default-constructed handle is disarmed: a no-op branch).
// `snapshot()` runs the collectors under that mutex, so a dying
// CollectorHandle waits for a running snapshot. A collector takes only its
// owner's locks, and no owner (de)registers while holding one of them.
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
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
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

class MetricsRegistry;

/// One counter a stats struct publishes: its name and the count it reads.
/// Each service keeps one table of these beside its stats struct.
template <typename Stats>
struct CounterField {
  std::string_view name;
  std::uint64_t Stats::*count;
};

/// Where a collector reports what it reads: counts, as one (name, value)
/// pair or a whole CounterField table, and gauges, as a level read now.
/// Values reported under one name sum.
class CounterSink {
 public:
  void operator()(std::string_view name, std::uint64_t value);
  template <typename Stats, std::size_t N>
  void operator()(const CounterField<Stats> (&table)[N], const Stats& stats) {
    for (const auto& [name, count] : table) (*this)(name, stats.*count);
  }
  void gauge(std::string_view name, std::int64_t value);

 private:
  friend class MetricsRegistry;
  explicit CounterSink(MetricsSnapshot& out) noexcept : out_(&out) {}
  MetricsSnapshot* out_;
};

/// Keeps one collector registered; move-only. The destructor deregisters,
/// waiting for a snapshot that is running the collector, so an owner
/// declares its handle LAST: it dies before anything the collector reads.
class CollectorHandle {
 public:
  CollectorHandle() = default;
  CollectorHandle(CollectorHandle&& other) noexcept
      : registry_(std::exchange(other.registry_, nullptr)), id_(other.id_) {}
  CollectorHandle& operator=(CollectorHandle other) noexcept {
    std::swap(registry_, other.registry_);  // `other` deregisters the old one
    std::swap(id_, other.id_);
    return *this;
  }
  ~CollectorHandle();

 private:
  friend class MetricsRegistry;
  CollectorHandle(MetricsRegistry* registry, std::uint64_t id) noexcept
      : registry_(registry), id_(id) {}
  MetricsRegistry* registry_{nullptr};
  std::uint64_t id_{0};
};

/// Named-metric registry. Histogram get-or-create by name is mutex-guarded
/// (cold path); recording through the returned handles is wait-free. Nodes
/// have stable addresses for the registry's lifetime (deque storage), so
/// handles stay valid across later registrations.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Histogram histogram(std::string_view name);

  /// Registers `collector`, which every snapshot() runs under the registry
  /// mutex until the returned handle dies. It only reads.
  [[nodiscard]] CollectorHandle collect(std::function<void(CounterSink&)> collector);

  /// Runs the collectors and sums the histogram stripes. Entries are
  /// sorted by name.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Prometheus-style text exposition of a fresh snapshot: counters and
  /// gauges as single samples, histograms as summaries with
  /// quantile="0.5|0.9|0.99" plus _count/_sum/_max. Format pinned by
  /// tests/telemetry_metrics_test.cpp; spec in docs/OBSERVABILITY.md.
  [[nodiscard]] std::string render_text() const;
  [[nodiscard]] static std::string render_text(const MetricsSnapshot& snapshot);

 private:
  friend class CollectorHandle;

  mutable std::mutex mutex_;
  std::vector<std::pair<std::uint64_t, std::function<void(CounterSink&)>>> collectors_;
  std::uint64_t next_collector_id_{0};
  std::deque<detail::HistogramNode> histograms_;
};

}  // namespace hdc::telemetry
