#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <sstream>

namespace hdc::telemetry {

std::uint64_t HistogramSnapshot::percentile(double q) const noexcept {
  if (count == 0 || buckets.empty()) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest rank ceil(q * count). The product is shrunk by a few ulps
  // first, so rounding error cannot lift an exact product (0.07 * 100
  // evaluates to 7.000000000000001) to the next rank.
  const double product = q * static_cast<double>(count);
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(product * (1.0 - 4 * DBL_EPSILON)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return bucket_representative(i);
  }
  return bucket_representative(buckets.size() - 1);
}

const CounterSnapshot* MetricsSnapshot::find_counter(
    std::string_view name) const& noexcept {
  for (const CounterSnapshot& entry : counters) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    std::string_view name) const& noexcept {
  for (const HistogramSnapshot& entry : histograms) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

Histogram MetricsRegistry::histogram(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  for (detail::HistogramNode& node : histograms_) {
    if (node.name == name) return Histogram(&node);
  }
  detail::HistogramNode& node = histograms_.emplace_back();
  node.name.assign(name);
  return Histogram(&node);
}

CollectorHandle MetricsRegistry::collect(std::function<void(CounterSink&)> collector) {
  const std::scoped_lock lock(mutex_);
  const std::uint64_t id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(collector));
  return CollectorHandle(this, id);
}

namespace {

template <typename Entry, typename Value>
void add_named(std::vector<Entry>& entries, std::string_view name, Value value) {
  for (Entry& entry : entries) {
    if (entry.name == name) {
      entry.value += value;
      return;
    }
  }
  entries.push_back({std::string(name), value});
}

}  // namespace

void CounterSink::operator()(std::string_view name, std::uint64_t value) {
  add_named(out_->counters, name, value);
}

void CounterSink::gauge(std::string_view name, std::int64_t value) {
  add_named(out_->gauges, name, value);
}

CollectorHandle::~CollectorHandle() {
  if (registry_ == nullptr) return;
  const std::scoped_lock lock(registry_->mutex_);
  std::erase_if(registry_->collectors_,
                [this](const auto& entry) { return entry.first == id_; });
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  {
    const std::scoped_lock lock(mutex_);
    CounterSink sink(out);
    for (const auto& [id, collector] : collectors_) collector(sink);
    out.histograms.reserve(histograms_.size());
    for (const detail::HistogramNode& node : histograms_) {
      HistogramSnapshot snap;
      snap.name = node.name;
      snap.buckets.assign(kBucketCount, 0);
      for (const detail::HistogramStripe& stripe : node.stripes) {
        for (std::size_t i = 0; i < kBucketCount; ++i) {
          snap.buckets[i] += stripe.buckets[i].load(std::memory_order_relaxed);
        }
        snap.sum += stripe.sum.load(std::memory_order_relaxed);
        snap.max = std::max(snap.max, stripe.max.load(std::memory_order_relaxed));
      }
      // The authoritative count is the bucket sum: count and buckets can
      // never disagree within one snapshot, even when taken mid-write.
      for (const std::uint64_t bucket : snap.buckets) snap.count += bucket;
      out.histograms.push_back(std::move(snap));
    }
  }
  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

std::string MetricsRegistry::render_text() const { return render_text(snapshot()); }

std::string MetricsRegistry::render_text(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const CounterSnapshot& entry : snapshot.counters) {
    out << "# TYPE " << entry.name << " counter\n";
    out << entry.name << ' ' << entry.value << '\n';
  }
  for (const GaugeSnapshot& entry : snapshot.gauges) {
    out << "# TYPE " << entry.name << " gauge\n";
    out << entry.name << ' ' << entry.value << '\n';
  }
  for (const HistogramSnapshot& entry : snapshot.histograms) {
    out << "# TYPE " << entry.name << " summary\n";
    out << entry.name << "{quantile=\"0.5\"} " << entry.percentile(0.50) << '\n';
    out << entry.name << "{quantile=\"0.9\"} " << entry.percentile(0.90) << '\n';
    out << entry.name << "{quantile=\"0.99\"} " << entry.percentile(0.99) << '\n';
    out << entry.name << "_count " << entry.count << '\n';
    out << entry.name << "_sum " << entry.sum << '\n';
    out << entry.name << "_max " << entry.max << '\n';
  }
  return out.str();
}

}  // namespace hdc::telemetry
