// Fleet health monitor: per-stream SLO evaluation over the flight
// recorder's causal traces plus shard-queue samples.
//
// Two SLO dimensions per HealthSloConfig:
//   - frame->completion p99 budget, computed from trace envelope totals
//     (closed/errored traces excluded — they never completed);
//   - stalled-shard watchdog: a shard whose queue shows depth but whose
//     pop counter has not advanced across N observe_queues() calls is
//     stalled (the gauge is "stale" — depth without progress).
//
// Admission is lossless (util::BoundedRing blocks when full), so there is
// no frame-loss rate to bound.
//
// The monitor is deliberately a pull-model evaluator: it holds no locks
// the pipeline touches and is fed collected traces + gauge snapshots at
// whatever cadence the operator samples. evaluate() is const and
// deterministic for fixed inputs; only the watchdog (observe_queues) is
// stateful. Enforced by tests/telemetry_health_test.cpp, and evaluated
// on a live three-service run by tests/telemetry_pipeline_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/trace.hpp"

namespace hdc::telemetry {

struct HealthSloConfig {
  /// p99 budget for a frame's end-to-end trace envelope.
  std::uint64_t frame_latency_p99_budget_ns = 50'000'000;
  /// Consecutive observe_queues() calls with depth > 0 and no pop
  /// progress before a shard is declared stalled.
  std::size_t stall_observations = 3;
};

enum class HealthStatus : std::uint8_t { kOk = 0, kCritical };

[[nodiscard]] constexpr const char* to_string(HealthStatus status) noexcept {
  switch (status) {
    case HealthStatus::kOk: return "ok";
    case HealthStatus::kCritical: return "critical";
  }
  return "?";
}

/// One shard-queue sample for the stalled-shard watchdog: current depth
/// plus the monotonic count of frames ever popped from that shard's ring.
struct QueueObservation {
  std::size_t shard{0};
  std::size_t depth{0};
  std::uint64_t popped{0};
};

struct StreamHealth {
  std::uint32_t stream_id{0};
  std::uint64_t frames{0};      ///< completed traces evaluated
  std::uint64_t p99_ns{0};      ///< envelope-total p99 (0 when no frames)
  bool latency_violation{false};
  HealthStatus status{HealthStatus::kOk};
};

struct ShardHealth {
  std::size_t shard{0};
  std::size_t depth{0};
  bool stalled{false};
};

struct HealthReport {
  HealthStatus status{HealthStatus::kOk};
  std::vector<StreamHealth> streams;  ///< sorted by stream_id
  std::vector<ShardHealth> shards;    ///< sorted by shard

  [[nodiscard]] std::string render_text() const;
  [[nodiscard]] std::string render_json() const;
};

class FleetHealthMonitor {
 public:
  explicit FleetHealthMonitor(HealthSloConfig config = {}) : config_(config) {}

  /// Feeds one round of shard-queue samples to the watchdog. A shard with
  /// depth > 0 whose popped counter matches the previous round's is stale;
  /// config.stall_observations consecutive stale rounds mark it stalled.
  /// Progress (or an empty queue) resets the count.
  void observe_queues(const std::vector<QueueObservation>& queues);

  /// Evaluates per-stream SLOs over collected trace events for each of
  /// `stream_ids`, folding in the watchdog's current stall verdicts. Pure
  /// with respect to the inputs; deterministic ordering in the report.
  [[nodiscard]] HealthReport evaluate(
      const std::vector<TraceEvent>& events,
      std::vector<std::uint32_t> stream_ids) const;

  [[nodiscard]] const HealthSloConfig& config() const noexcept {
    return config_;
  }

 private:
  struct ShardWatch {
    std::uint64_t last_popped{0};
    std::size_t last_depth{0};
    std::size_t stale_rounds{0};
    bool seen{false};
  };

  HealthSloConfig config_;
  std::map<std::size_t, ShardWatch> watch_;  ///< ordered: deterministic report
};

}  // namespace hdc::telemetry
