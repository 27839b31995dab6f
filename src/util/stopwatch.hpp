// Wall-clock stopwatch for benches, examples and RecognitionResult::total_ms.
// Per-stage pipeline timing is telemetry::TracedSpan into a MetricsRegistry.
#pragma once

#include <chrono>

namespace hdc::util {

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  [[nodiscard]] double elapsed_ms() const { return elapsed_seconds() * 1e3; }
  [[nodiscard]] double elapsed_us() const { return elapsed_seconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace hdc::util
