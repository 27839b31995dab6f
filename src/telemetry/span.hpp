// The one steady-clock reading every telemetry timer shares. Scoped stage
// timing is telemetry::TracedSpan (telemetry/flight_recorder.hpp); the span
// inventory for the pipeline lives in docs/OBSERVABILITY.md.
#pragma once

#include <chrono>
#include <cstdint>

namespace hdc::telemetry {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace hdc::telemetry
