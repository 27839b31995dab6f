// The benchmark's three workloads and the helpers their traced runs share.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "imaging/image.hpp"
#include "recognition/recognizer.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

/// 16 drones at 30 fps each, open loop, full perception -> interaction ->
/// coordination stack on 2 perception shards.
WorkloadResult run_paced_fleet(const RunOptions& options);

/// 12 noisy camera streams round-robined into 3 kBlock shards as fast as
/// the rings admit; perception only.
WorkloadResult run_saturate_noisy(const RunOptions& options);

/// The committed 8-drone contention journal replayed back to back.
WorkloadResult run_replay_fixture(const RunOptions& options);

/// Offline imaging pass over a workload's own frames: calls the imaging
/// stage functions the recogniser's per-frame pipeline calls, in the same
/// order, timing each, and checks that the signature it ends with is
/// bit-equal to SaxSignRecognizer::extract_signature. Appends the imaging.*
/// and recognition.query_us metrics. Returns the number of frames whose
/// signature differed (a correctness failure).
std::uint64_t run_imaging_pass(const hdc::recognition::SaxSignRecognizer& reference,
                               const std::vector<const hdc::imaging::GrayImage*>& frames,
                               std::vector<Metric>& out);

/// Appends `name` = 0 with `why` as the note, for a per-layer metric the
/// workload has no layer for.
void absent(std::vector<Metric>& out, std::string name, std::string unit,
            std::string why);

/// Percentile of a registry histogram in microseconds (buckets are ns), with
/// the histogram's sample count; absent when the histogram does not exist.
void histogram_metric(std::vector<Metric>& out, const hdc::telemetry::MetricsSnapshot& snap,
                      std::string_view histogram, std::string name, double quantile);

/// perception.frames_per_window (frames delivered per recognize call) and
/// perception.shard_frames_max_over_min (frames popped per shard).
void add_perception_shape(std::vector<Metric>& out, const hdc::telemetry::MetricsSnapshot& snap,
                          std::uint64_t delivered, const std::vector<std::uint64_t>& shard_popped);

/// telemetry.trace_overhead_pct (CPU per item) and
/// telemetry.trace_overhead_p50_pct (median latency), traced against untraced;
/// a plain_p50 of 0 marks the latency comparison absent.
void add_trace_overhead(std::vector<Metric>& out, double plain_cpu, double traced_cpu,
                        double plain_p50, double traced_p50);

/// setup_s: the median of a run's set-ups, each timed in process CPU seconds
/// (hypervisor steal and wake-up delays do not inflate CPU time).
[[nodiscard]] Metric setup_metric(const std::vector<double>& samples);

/// Nearest-rank percentile of `values` as a metric carrying its sample count.
[[nodiscard]] Metric sample_metric(std::string name, const std::vector<double>& values,
                                   double pct, std::string unit);

/// Per-stage durations (microseconds) of the given trace stage, from a
/// flight-recorder event dump.
[[nodiscard]] std::vector<double> stage_durations_us(
    const std::vector<hdc::telemetry::TraceEvent>& events, hdc::telemetry::TraceStage stage);

/// Keeps the events that started inside the last `window_ns` of the dump,
/// so the exported trace stays a loadable size.
[[nodiscard]] std::vector<hdc::telemetry::TraceEvent> last_window(
    std::vector<hdc::telemetry::TraceEvent> events, std::uint64_t window_ns);

}  // namespace perfbench
