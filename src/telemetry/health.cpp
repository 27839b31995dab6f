#include "telemetry/health.hpp"

#include <algorithm>
#include <sstream>

namespace hdc::telemetry {

void FleetHealthMonitor::observe_queues(
    const std::vector<QueueObservation>& queues) {
  for (const QueueObservation& queue : queues) {
    ShardWatch& watch = watch_[queue.shard];
    const bool stale =
        watch.seen && queue.depth > 0 && queue.popped == watch.last_popped;
    watch.stale_rounds = stale ? watch.stale_rounds + 1 : 0;
    watch.last_popped = queue.popped;
    watch.last_depth = queue.depth;
    watch.seen = true;
  }
}

HealthReport FleetHealthMonitor::evaluate(
    const std::vector<TraceEvent>& events,
    std::vector<std::uint32_t> stream_ids) const {
  HealthReport report;

  // Envelope totals of completed traces, bucketed per stream.
  std::map<std::uint32_t, std::vector<std::uint64_t>> totals;
  for (const FrameTrace& frame : assemble_frames(events)) {
    if (is_terminal(frame.terminal)) continue;
    totals[frame.stream_id].push_back(frame.total_ns());
  }

  std::sort(stream_ids.begin(), stream_ids.end());
  for (const std::uint32_t stream_id : stream_ids) {
    StreamHealth health;
    health.stream_id = stream_id;

    if (auto it = totals.find(stream_id); it != totals.end()) {
      std::vector<std::uint64_t>& samples = it->second;
      std::sort(samples.begin(), samples.end());
      health.frames = samples.size();
      // Nearest-rank p99: rank ceil(0.99 * n), 1-based.
      const std::size_t rank = (samples.size() * 99 + 99) / 100;
      health.p99_ns = samples[std::min(rank, samples.size()) - 1];
    }

    health.latency_violation =
        health.frames > 0 && health.p99_ns > config_.frame_latency_p99_budget_ns;
    if (health.latency_violation) health.status = HealthStatus::kCritical;
    report.streams.push_back(health);
  }

  for (const auto& [shard, watch] : watch_) {
    ShardHealth health;
    health.shard = shard;
    health.depth = watch.last_depth;
    health.stalled = watch.stale_rounds >= config_.stall_observations;
    report.shards.push_back(health);
  }

  for (const StreamHealth& stream : report.streams) {
    report.status = std::max(report.status, stream.status);
  }
  for (const ShardHealth& shard : report.shards) {
    if (shard.stalled) report.status = HealthStatus::kCritical;
  }
  return report;
}

std::string HealthReport::render_text() const {
  std::ostringstream out;
  out << "fleet_health " << to_string(status) << "\n";
  for (const StreamHealth& stream : streams) {
    out << "stream " << stream.stream_id << " " << to_string(stream.status)
        << " frames=" << stream.frames << " p99_ns=" << stream.p99_ns;
    if (stream.latency_violation) out << " [latency over budget]";
    out << "\n";
  }
  for (const ShardHealth& shard : shards) {
    out << "shard " << shard.shard << " depth=" << shard.depth
        << (shard.stalled ? " STALLED\n" : " ok\n");
  }
  return out.str();
}

std::string HealthReport::render_json() const {
  std::ostringstream out;
  out << "{\"status\": \"" << to_string(status) << "\", \"streams\": [";
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const StreamHealth& stream = streams[i];
    if (i != 0) out << ", ";
    out << "{\"stream\": " << stream.stream_id << ", \"status\": \""
        << to_string(stream.status) << "\", \"frames\": " << stream.frames
        << ", \"p99_ns\": " << stream.p99_ns
        << ", \"latency_violation\": "
        << (stream.latency_violation ? "true" : "false") << "}";
  }
  out << "], \"shards\": [";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardHealth& shard = shards[i];
    if (i != 0) out << ", ";
    out << "{\"shard\": " << shard.shard << ", \"depth\": " << shard.depth
        << ", \"stalled\": " << (shard.stalled ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace hdc::telemetry
