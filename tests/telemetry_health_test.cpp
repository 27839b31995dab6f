// FleetHealthMonitor: per-stream SLO evaluation (latency p99 budget), the
// stalled-shard watchdog's stale-round counting, and the deterministic
// text/JSON renderings.
#include "telemetry/health.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace hdc::telemetry {
namespace {

TraceEvent completed(std::uint32_t stream, std::uint64_t seq,
                     std::uint64_t total_ns) {
  return {make_trace_id(stream, seq), stream,  seq, TraceStage::kRecognize,
          TraceOutcome::kAccepted,    1000,    1000 + total_ns};
}

TEST(FleetHealth, AllGreenWhenWithinBudgets) {
  FleetHealthMonitor monitor;
  std::vector<TraceEvent> events;
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    events.push_back(completed(0, seq, 1'000'000));  // 1 ms, budget 50 ms
  }
  const HealthReport report = monitor.evaluate(events, {0});
  EXPECT_EQ(report.status, HealthStatus::kOk);
  ASSERT_EQ(report.streams.size(), 1u);
  EXPECT_EQ(report.streams[0].frames, 10u);
  EXPECT_EQ(report.streams[0].p99_ns, 1'000'000u);
  EXPECT_FALSE(report.streams[0].latency_violation);
}

TEST(FleetHealth, ReportsEveryNamedStreamInIdOrder) {
  // Streams come back sorted by id; a named stream with no completed
  // trace is reported with zero frames and no violation.
  FleetHealthMonitor monitor;
  const std::vector<TraceEvent> events = {completed(4, 0, 1'000'000)};
  const HealthReport report = monitor.evaluate(events, {4, 1});
  ASSERT_EQ(report.streams.size(), 2u);
  EXPECT_EQ(report.streams[0].stream_id, 1u);
  EXPECT_EQ(report.streams[0].frames, 0u);
  EXPECT_EQ(report.streams[0].status, HealthStatus::kOk);
  EXPECT_EQ(report.streams[1].stream_id, 4u);
  EXPECT_EQ(report.streams[1].frames, 1u);
  EXPECT_EQ(report.status, HealthStatus::kOk);
}

TEST(FleetHealth, LatencyBudgetViolationIsCritical) {
  HealthSloConfig config;
  config.frame_latency_p99_budget_ns = 2'000'000;  // 2 ms
  FleetHealthMonitor monitor(config);
  std::vector<TraceEvent> events;
  // 99 fast frames and one 10 ms outlier: nearest-rank p99 of 100 samples
  // is the 99th sorted value — still fast — so ONE outlier in 100 does
  // not trip the gate...
  for (std::uint64_t seq = 0; seq < 99; ++seq) {
    events.push_back(completed(0, seq, 1'000'000));
  }
  events.push_back(completed(0, 99, 10'000'000));
  EXPECT_EQ(monitor.evaluate(events, {0}).status, HealthStatus::kOk);

  // ...but two outliers push the p99 sample itself over budget.
  events.push_back(completed(0, 100, 10'000'000));
  const HealthReport report = monitor.evaluate(events, {0});
  EXPECT_EQ(report.status, HealthStatus::kCritical);
  EXPECT_TRUE(report.streams[0].latency_violation);
  EXPECT_EQ(report.streams[0].p99_ns, 10'000'000u);
}

TEST(FleetHealth, TerminatedTracesAreExcludedFromLatency) {
  HealthSloConfig config;
  config.frame_latency_p99_budget_ns = 2'000'000;
  FleetHealthMonitor monitor(config);
  std::vector<TraceEvent> events = {completed(0, 0, 1'000'000)};
  // A frame whose trace closed after 100 ms without completing must not
  // count against the completion-latency budget.
  events.push_back({make_trace_id(0, 1), 0, 1, TraceStage::kQueueWait,
                    TraceOutcome::kClosed, 1000, 100'001'000});
  const HealthReport report = monitor.evaluate(events, {0});
  EXPECT_EQ(report.streams[0].frames, 1u);
  EXPECT_FALSE(report.streams[0].latency_violation);
}

TEST(FleetHealth, WatchdogMarksStalledAfterConsecutiveStaleRounds) {
  FleetHealthMonitor monitor;  // stall_observations = 3
  // Shard 0 makes progress every round; shard 1 shows depth but its pop
  // counter never moves. The first round only establishes the baseline —
  // "no progress" needs a previous popped value to compare against — so
  // stalling takes baseline + 3 stale rounds.
  for (int round = 0; round < 3; ++round) {
    monitor.observe_queues({{0, 4, static_cast<std::uint64_t>(10 + round)},
                            {1, 4, 10}});
  }
  HealthReport report = monitor.evaluate({}, {});
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_FALSE(report.shards[1].stalled);  // only 2 stale rounds so far

  monitor.observe_queues({{0, 4, 13}, {1, 4, 10}});  // 3rd stale round
  report = monitor.evaluate({}, {});
  EXPECT_FALSE(report.shards[0].stalled);
  EXPECT_TRUE(report.shards[1].stalled);
  EXPECT_EQ(report.status, HealthStatus::kCritical);
}

TEST(FleetHealth, WatchdogResetOnProgressOrEmptyQueue) {
  FleetHealthMonitor monitor;
  monitor.observe_queues({{0, 4, 10}});
  monitor.observe_queues({{0, 4, 10}});
  monitor.observe_queues({{0, 4, 11}});  // progress: stale count resets
  monitor.observe_queues({{0, 4, 11}});
  monitor.observe_queues({{0, 4, 11}});
  EXPECT_FALSE(monitor.evaluate({}, {}).shards[0].stalled);

  // An empty queue is never stalled no matter how long pops idle.
  FleetHealthMonitor idle;
  for (int round = 0; round < 5; ++round) idle.observe_queues({{0, 0, 10}});
  const HealthReport report = idle.evaluate({}, {});
  EXPECT_FALSE(report.shards[0].stalled);
  EXPECT_EQ(report.status, HealthStatus::kOk);
}

TEST(FleetHealth, RenderTextShape) {
  FleetHealthMonitor monitor;
  monitor.observe_queues({{0, 0, 5}});
  const std::vector<TraceEvent> events = {completed(2, 0, 1'000'000)};
  const std::string text = monitor.evaluate(events, {2}).render_text();
  EXPECT_NE(text.find("fleet_health ok"), std::string::npos);
  EXPECT_NE(text.find("stream 2 ok"), std::string::npos);
  EXPECT_NE(text.find("shard 0"), std::string::npos);
}

TEST(FleetHealth, RenderJsonShape) {
  FleetHealthMonitor monitor;
  const std::vector<TraceEvent> events = {completed(1, 0, 3'000'000)};
  const std::string json = monitor.evaluate(events, {1}).render_json();
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"stream\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\": 3000000"), std::string::npos);
}

}  // namespace
}  // namespace hdc::telemetry
