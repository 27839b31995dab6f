// Tracing spans: RAII stage timers recording steady-clock elapsed
// nanoseconds into a telemetry::Histogram.
//
//   telemetry::Histogram recognize_ns = registry.histogram(
//       telemetry::kPerceptionRecognize);
//   ...
//   {
//     TELEMETRY_SPAN(recognize_ns);
//     recognize_frame_into(...);
//   }  // elapsed ns recorded here
//
// Cost model: a span against a disarmed handle (no registry wired) or with
// telemetry::set_enabled(false) is two predictable branches and zero clock
// reads. Armed and enabled, it is two steady_clock reads plus one wait-free
// histogram record. The span inventory for the pipeline lives in
// docs/OBSERVABILITY.md.
#pragma once

#include <chrono>
#include <cstdint>

#include "telemetry/metrics.hpp"

namespace hdc::telemetry {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanTimer {
 public:
  explicit SpanTimer(Histogram histogram) noexcept {
    if (histogram.armed() && enabled()) {
      histogram_ = histogram;
      start_ns_ = now_ns();
    }
  }

  ~SpanTimer() {
    if (histogram_.armed()) {
      const std::uint64_t end_ns = now_ns();
      histogram_.record(end_ns > start_ns_ ? end_ns - start_ns_ : 0);
    }
  }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  Histogram histogram_{};
  std::uint64_t start_ns_{0};
};

}  // namespace hdc::telemetry

#define HDC_TELEMETRY_CONCAT_INNER(a, b) a##b
#define HDC_TELEMETRY_CONCAT(a, b) HDC_TELEMETRY_CONCAT_INNER(a, b)

/// Times the enclosing scope into `histogram` (a telemetry::Histogram
/// handle). No-op when the handle is disarmed or telemetry is disabled.
#define TELEMETRY_SPAN(histogram)                                          \
  ::hdc::telemetry::SpanTimer HDC_TELEMETRY_CONCAT(telemetry_span_,        \
                                                   __COUNTER__)(histogram)
