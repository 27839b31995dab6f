#include "harness.hpp"

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cmath>
#include <ctime>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <ostream>
#include <stdexcept>

namespace perfbench {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

HostTicks host_ticks() {
  HostTicks ticks;
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return ticks;
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  unsigned long long field[8] = {};
  const int read = std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &field[0],
                               &field[1], &field[2], &field[3], &field[4], &field[5],
                               &field[6], &field[7]);
  std::fclose(stat);
  if (read != 8) return ticks;
  ticks.steal = field[7];
  for (const unsigned long long f : field) ticks.total += f;
  return ticks;
}

double steal_pct(const HostTicks& from, const HostTicks& to) noexcept {
  if (to.total <= from.total) return 0.0;
  return 100.0 * static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

void retain_freed_memory() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // frame buffers come from the heap
  mallopt(M_TRIM_THRESHOLD, 1 << 30);   // and stay there once freed
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t samples_beyond(std::size_t n, double pct) noexcept {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(std::max<std::size_t>(rank, 1), n);
}

bool percentile_supported(std::size_t n, double pct, std::size_t min_beyond) noexcept {
  return n > 0 && samples_beyond(n, pct) >= min_beyond;
}

double highest_supported_percentile(std::size_t n, std::size_t min_beyond) noexcept {
  for (const double pct : {99.9, 99.0, 90.0, 50.0}) {
    if (percentile_supported(n, pct, min_beyond)) return pct;
  }
  return 0.0;
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  if (pct < 0.0 || pct > 100.0) throw std::invalid_argument("percentile: pct out of range");
  const std::size_t n = values.size();
  const std::size_t rank = n - samples_beyond(n, pct);  // 1-based nearest rank
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

bool keeps_rising(double first, double middle, double last, double relative,
                  double absolute) noexcept {
  return middle >= first && last >= middle && last > first * (1.0 + relative) + absolute;
}

OpenLoopGenerator::OpenLoopGenerator(std::vector<std::uint64_t> phase_ns,
                                     std::uint64_t period_ns,
                                     std::uint64_t frames_per_source)
    : phase_ns_(std::move(phase_ns)), period_ns_(period_ns), frames_(frames_per_source) {
  if (period_ns_ == 0) throw std::invalid_argument("OpenLoopGenerator: zero period");
  for (const std::uint64_t phase : phase_ns_) {
    if (phase >= period_ns_) {
      throw std::invalid_argument("OpenLoopGenerator: phase must be below the period");
    }
  }
  order_.resize(phase_ns_.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::stable_sort(order_.begin(), order_.end(), [this](std::size_t a, std::size_t b) {
    return phase_ns_[a] < phase_ns_[b];
  });
}

Payload Payload::of(const hdc::recognition::RecognitionResult& result) {
  Payload p;
  p.accepted = result.accepted;
  p.sign = static_cast<std::uint8_t>(result.sign);
  p.reject_reason = static_cast<std::uint8_t>(result.reject_reason);
  p.distance = result.distance;
  p.margin = result.margin;
  // A word that does not fit is marked so it can never compare equal.
  if (result.sax_word.size() < sizeof(p.word)) {
    p.word_length = static_cast<std::uint8_t>(result.sax_word.size());
    std::memcpy(p.word, result.sax_word.data(), result.sax_word.size());
  } else {
    p.word_length = 0xFF;
  }
  return p;
}

bool Payload::same_as(const Payload& other) const noexcept {
  return word_length != 0xFF && accepted == other.accepted && sign == other.sign &&
         reject_reason == other.reject_reason && word_length == other.word_length &&
         std::memcmp(&distance, &other.distance, sizeof(double)) == 0 &&
         std::memcmp(&margin, &other.margin, sizeof(double)) == 0 &&
         std::memcmp(word, other.word, word_length) == 0;
}

void WorkloadResult::fail(std::uint64_t count, const std::string& why) {
  if (count == 0) return;
  correct = false;
  failed += count;
  if (failures.size() < 8) failures.push_back(why);
}

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_metrics(std::ostream& out, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-40s %14.6g %-8s", m.name.c_str(), m.value,
                  m.unit.c_str());
    out << line;
    if (m.samples > 0) out << " n=" << m.samples;
    if (!m.note.empty()) out << "  (" << m.note << ")";
    out << "\n";
  }
}

}  // namespace perfbench
