// Shared machinery of the repository benchmark: clocks, percentiles with a
// sample-count rule, the open-loop generator, process CPU/RSS readings,
// payload snapshots for the correctness oracle, and the result report.
//
// Nothing here reaches into the library's internals: workloads drive the
// public service APIs and time the calls from the outside.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <thread>
#include <vector>

#include "recognition/recognizer.hpp"

namespace perfbench {

// ------------------------------------------------------------------ clocks --

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double ns_to_ms(std::int64_t ns) noexcept {
  return static_cast<double>(ns) / 1e6;
}

/// User + system CPU seconds of the whole process (getrusage).
[[nodiscard]] double process_cpu_seconds();
/// CPU seconds of the calling thread only.
[[nodiscard]] double thread_cpu_seconds();
/// Host-wide CPU time counters from /proc/stat, in clock ticks: the time the
/// hypervisor gave other guests while this one wanted to run (steal), and
/// the total across all states. Zeros when /proc/stat cannot be read.
struct HostTicks {
  std::uint64_t steal{0};
  std::uint64_t total{0};
};
[[nodiscard]] HostTicks host_ticks();
/// Steal as a percentage of all host CPU time between two readings.
[[nodiscard]] double steal_pct(const HostTicks& from, const HostTicks& to) noexcept;

/// Peak resident set size of the process in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------------------- percentiles --

/// Samples strictly above the nearest-rank `pct` percentile of `n` samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double pct) noexcept;

/// True when `n` samples leave at least `min_beyond` samples above the
/// `pct` percentile — the rule for which tail percentile a sample supports.
[[nodiscard]] bool percentile_supported(std::size_t n, double pct,
                                        std::size_t min_beyond = 10) noexcept;

/// The highest of 99.9 / 99 / 90 / 50 that `n` samples support with at least
/// `min_beyond` samples beyond it; 0 when not even the median is supported.
[[nodiscard]] double highest_supported_percentile(std::size_t n,
                                                  std::size_t min_beyond = 10) noexcept;

/// Nearest-rank percentile (the ceil(pct/100 * n)-th smallest sample); 0 for
/// an empty sample. Takes a copy because it sorts.
[[nodiscard]] double percentile(std::vector<double> values, double pct);

[[nodiscard]] double median(std::vector<double> values);

/// Backlog guard for open-loop runs: a level measured over the first, middle
/// and last third of a window "keeps rising" when it never falls from one
/// third to the next and the last third exceeds the first by more than
/// `relative` of it plus `absolute`.
[[nodiscard]] bool keeps_rising(double first, double middle, double last,
                                double relative, double absolute) noexcept;

/// Throughput and CPU cost over consecutive one-second sub-windows of a
/// measured window. A run reports the median sub-window: a burst of
/// interference from outside the process slows a few sub-windows and barely
/// moves it.
class SubWindows {
 public:
  /// Opens the first sub-window: `count` items done and `cpu_s` CPU seconds
  /// spent so far.
  void start(std::uint64_t at_ns, std::uint64_t count, double cpu_s) noexcept {
    start_ns_ = at_ns;
    start_count_ = count;
    start_cpu_s_ = cpu_s;
  }
  /// True once the open sub-window is a second wide; close() it then.
  [[nodiscard]] bool due(std::uint64_t at_ns) const noexcept {
    return at_ns - start_ns_ >= kWidthNs;
  }
  void close(std::uint64_t at_ns, std::uint64_t count, double cpu_s) {
    if (count > start_count_) {
      const auto items = static_cast<double>(count - start_count_);
      rates_.push_back(items * 1e9 / static_cast<double>(at_ns - start_ns_));
      cpu_ms_per_item_.push_back((cpu_s - start_cpu_s_) * 1e3 / items);
    }
    start(at_ns, count, cpu_s);
  }
  /// Items per second, one entry per closed sub-window.
  [[nodiscard]] const std::vector<double>& rates() const noexcept { return rates_; }
  /// CPU milliseconds per item, one entry per closed sub-window.
  [[nodiscard]] const std::vector<double>& cpu_ms_per_item() const noexcept {
    return cpu_ms_per_item_;
  }

 private:
  static constexpr std::uint64_t kWidthNs = 1'000'000'000;
  std::uint64_t start_ns_{0};
  std::uint64_t start_count_{0};
  double start_cpu_s_{0.0};
  std::vector<double> rates_;
  std::vector<double> cpu_ms_per_item_;
};

// -------------------------------------------------------------- open loop --

/// Open-loop load generator: `sources` independent senders at one fixed
/// period, each offset by its own phase. Events are issued in due order from
/// the calling thread, each as soon as its due time has come; a send that
/// blocks delays the sends behind it, but never moves their due times —
/// latency measured from due_ns() therefore includes the wait a stall
/// imposed on later requests (no coordinated omission), and the delay shows
/// as send lateness.
class OpenLoopGenerator {
 public:
  OpenLoopGenerator(std::vector<std::uint64_t> phase_ns, std::uint64_t period_ns,
                    std::uint64_t frames_per_source);

  /// Due time of frame `index` of `source` for a run started at `start_ns`.
  [[nodiscard]] std::uint64_t due_ns(std::uint64_t start_ns, std::size_t source,
                                     std::uint64_t index) const noexcept {
    return start_ns + phase_ns_[source] + index * period_ns_;
  }

  /// Runs the whole schedule from `start_ns`: sleeps until each event is
  /// due, then calls send(source, index, due_ns). Records each event's
  /// lateness (send start - due) in due order.
  template <typename Send>
  void run(std::uint64_t start_ns, Send&& send) {
    lateness_ns_.clear();
    lateness_ns_.reserve(static_cast<std::size_t>(frames_) * order_.size());
    for (std::uint64_t k = 0; k < frames_; ++k) {
      for (const std::size_t s : order_) {
        const std::uint64_t due = due_ns(start_ns, s, k);
        std::uint64_t now = now_ns();
        while (now < due) {
          // Sleep only while the due time is far off, then poll: waking from
          // a sleep on an idle (or virtualised) core can take milliseconds,
          // which would be the generator's lateness, not the program's.
          if (due - now > kPollNs) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kPollNs));
          } else {
            std::this_thread::yield();
          }
          now = now_ns();
        }
        lateness_ns_.push_back(now > due ? now - due : 0);
        send(s, k, due);
      }
    }
  }

  /// How long before a due time the generator stops sleeping and polls.
  static constexpr std::uint64_t kPollNs = 2'000'000;

  /// Lateness of every issued event, nanoseconds, in due order.
  [[nodiscard]] const std::vector<std::uint64_t>& lateness_ns() const noexcept {
    return lateness_ns_;
  }

 private:
  std::vector<std::uint64_t> phase_ns_;
  std::uint64_t period_ns_;
  std::uint64_t frames_;
  std::vector<std::size_t> order_;  ///< sources sorted by phase (due order)
  std::vector<std::uint64_t> lateness_ns_;
};

// ---------------------------------------------------------------- payloads --

/// The payload fields of one RecognitionResult (everything but timing),
/// stored without allocation so a shard callback can snapshot it.
struct Payload {
  bool accepted{false};
  std::uint8_t sign{0};
  std::uint8_t reject_reason{0};
  std::uint8_t word_length{0};
  double distance{0.0};
  double margin{0.0};
  char word[32]{};

  [[nodiscard]] static Payload of(const hdc::recognition::RecognitionResult& result);
  /// Bit-for-bit equality (doubles compared by representation).
  [[nodiscard]] bool same_as(const Payload& other) const noexcept;
};

// ------------------------------------------------------------------ report --

/// One reported number. `samples` is the count behind a timing (0 when the
/// value is a count or ratio); `note` says why a metric is absent.
struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
  std::size_t samples{0};
  std::string note;
};

/// What a workload run hands back to main().
struct WorkloadResult {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;  ///< first few violations, for the log
  std::vector<Metric> end_to_end;     ///< filled by an untraced run
  std::vector<Metric> per_layer;      ///< filled by a traced run
  std::string chrome_trace;           ///< traced run: Chrome/Perfetto JSON

  void fail(std::uint64_t count, const std::string& why);
};

/// Options every workload receives.
struct RunOptions {
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 7;

/// Makes the allocator keep freed memory for reuse instead of returning it
/// to the OS (glibc; a no-op elsewhere). Call once at start-up. Otherwise
/// whether a set-up, or a frame, pays fresh page faults depends on what the
/// allocator trimmed before it, and page-fault cost swings with the host.
void retain_freed_memory();

/// Prints `value` with every digit a double carries.
[[nodiscard]] std::string format_number(double value);
[[nodiscard]] std::string json_escape(const std::string& text);

/// Human-readable table of metrics (name, value, unit, samples, note).
void print_metrics(std::ostream& out, const std::vector<Metric>& metrics);

}  // namespace perfbench
