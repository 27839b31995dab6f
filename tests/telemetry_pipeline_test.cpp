// Full-stack telemetry test: drive the scripted contention fleet through
// perception -> interaction -> coordination with one shared registry and a
// recording journal, then assert every instrumented stage actually
// reported — each span histogram has samples (no empty histograms), the
// stage counters moved, and render_text() exposes p50/p99 for all of them.
// This is the guarantee docs/OBSERVABILITY.md makes: a live run's stats
// endpoint answers for the whole pipeline, not just the stages a
// particular scenario happened to touch. The traced run's events then go
// through the Chrome exporter, the tail report and the health monitor, and
// each artefact is checked for what a reader of it relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coordination/coordination_service.hpp"
#include "coordination/fleet_scenario.hpp"
#include "interaction/interaction_service.hpp"
#include "protocol/journal.hpp"
#include "protocol/wire.hpp"
#include "recognition/perception_service.hpp"
#include "signs/multi_drone_feed.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/health.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/stage_names.hpp"
#include "telemetry/trace.hpp"

namespace hdc {
namespace {

/// Every span histogram the pipeline owns (docs/OBSERVABILITY.md).
constexpr std::string_view kAllStageHistograms[] = {
    telemetry::kPerceptionSubmit,       telemetry::kPerceptionRingWait,
    telemetry::kPerceptionRecognize,    telemetry::kRecognitionPreprocess,
    telemetry::kRecognitionThreshold,   telemetry::kRecognitionMorphology,
    telemetry::kRecognitionComponents,  telemetry::kRecognitionContour,
    telemetry::kRecognitionSignature,   telemetry::kRecognitionMatch,
    telemetry::kInteractionFuse,        telemetry::kInteractionTransition,
    telemetry::kCoordinationArbitrate,  telemetry::kCoordinationGrantSpan,
    telemetry::kCoordinationRenewSpan,  telemetry::kCoordinationExpireSpan,
    telemetry::kJournalAppend,
};

/// One async record of an exported Chrome trace, read back from its text.
struct ExportedEvent {
  std::string ph;
  std::string cat;
  std::string id;
  std::string pid;
  std::uint64_t ts_ns{0};
};

/// Value of `"key":` in one exported event line: a quoted string without
/// its quotes, or the bare token up to the next ',' or '}'.
std::string field_of(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  std::size_t begin = at + tag.size();
  if (line[begin] == '"') {
    ++begin;
    return line.substr(begin, line.find('"', begin) - begin);
  }
  return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

/// The exporter writes microseconds with exactly three decimals
/// ("12.345"); read them back as integer nanoseconds so comparisons are
/// exact.
std::uint64_t ns_of(const std::string& ts) {
  const std::size_t dot = ts.find('.');
  return std::stoull(ts.substr(0, dot)) * 1000 + std::stoull(ts.substr(dot + 1));
}

/// The exporter writes one event per line between the header line and the
/// closing "]}"; returns every event except the process-name metadata.
std::vector<ExportedEvent> read_async_events(const std::string& json) {
  std::vector<ExportedEvent> events;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"ph\":", 0) != 0) continue;
    ExportedEvent event;
    event.ph = field_of(line, "ph");
    if (event.ph == "M") continue;
    event.cat = field_of(line, "cat");
    event.id = field_of(line, "id");
    event.pid = field_of(line, "pid");
    event.ts_ns = ns_of(field_of(line, "ts"));
    events.push_back(std::move(event));
  }
  return events;
}

/// What a Perfetto reader of the exported trace relies on: every "b" is
/// closed by one "e" of the same (cat, id), no slice has a negative
/// duration, each async id stays in one process (stream), and every stage
/// slice begins inside its frame envelope. Returns one line per violation.
std::vector<std::string> trace_violations(const std::vector<ExportedEvent>& events) {
  std::vector<std::string> failures;
  std::map<std::pair<std::string, std::string>, const ExportedEvent*> open;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> envelopes;
  std::map<std::string, std::string> pid_of_id;
  for (const ExportedEvent& event : events) {
    const auto key = std::make_pair(event.cat, event.id);
    if (event.ph == "b") {
      if (open.count(key) != 0) {
        failures.push_back("second b for " + event.cat + "/" + event.id);
      }
      open[key] = &event;
      const auto [it, fresh] = pid_of_id.emplace(event.id, event.pid);
      if (!fresh && it->second != event.pid) {
        failures.push_back("id " + event.id + " spans pids " + it->second +
                           " and " + event.pid);
      }
    } else if (event.ph == "e") {
      const auto it = open.find(key);
      if (it == open.end()) {
        failures.push_back("e without b for " + event.cat + "/" + event.id);
        continue;
      }
      const ExportedEvent& begin = *it->second;
      open.erase(it);
      if (event.ts_ns < begin.ts_ns) {
        failures.push_back("negative duration for " + event.cat + "/" + event.id);
      }
      if (event.cat == "frame") envelopes[event.id] = {begin.ts_ns, event.ts_ns};
    } else {
      failures.push_back("unexpected phase " + event.ph);
    }
  }
  for (const auto& [key, begin] : open) {
    failures.push_back("b never closed for " + key.first + "/" + key.second);
  }
  for (const ExportedEvent& event : events) {
    if (event.ph != "b" || event.cat == "frame") continue;
    const auto it = envelopes.find(event.id);
    if (it == envelopes.end()) {
      failures.push_back("stage slice " + event.cat + "/" + event.id +
                         " has no frame envelope");
    } else if (event.ts_ns < it->second.first || event.ts_ns > it->second.second) {
      failures.push_back("stage slice " + event.cat + "/" + event.id +
                         " starts outside its envelope");
    }
  }
  return failures;
}

TEST(TelemetryPipeline, EveryInstrumentedStageReportsFromALiveRun) {
  const recognition::SaxSignRecognizer reference(
      recognition::RecognizerConfig{}, recognition::DatabaseBuildOptions{});
  const interaction::CommandGrammar grammar =
      interaction::CommandGrammar::standard();
  const coordination::ContentionFleet fleet =
      coordination::make_contention_fleet(4, grammar);

  telemetry::MetricsRegistry metrics;

  coordination::CoordinationConfig coordination_config;
  coordination_config.cells = fleet.pairs.size();
  coordination_config.grant_ttl = 1'000'000;
  coordination_config.metrics = &metrics;
  interaction::InteractionServiceConfig dialogue_config;
  dialogue_config.fusion =
      interaction::FusionPolicy::matching(reference.config());
  dialogue_config.metrics = &metrics;

  protocol::EventJournal journal;
  journal.instrument(metrics);
  protocol::JournalRecorder recorder(journal);
  recorder.set_counter_snapshot(true);
  recorder.record_config(
      protocol::make_run_config(dialogue_config, coordination_config));

  coordination::CoordinationService coordinator(coordination_config);
  interaction::InteractionService dialogue(
      dialogue_config, interaction::CommandGrammar(grammar.rules()));
  recorder.attach_interaction(dialogue, &coordinator);
  recorder.attach_coordination(coordinator);
  for (const coordination::DroneDescriptor& descriptor : fleet.drones) {
    coordinator.register_drone(descriptor);
  }

  const signs::MultiDroneFeed feed(make_fleet_feed_config(fleet));
  recognition::PerceptionServiceConfig perception_config;
  perception_config.shards = 2;
  perception_config.metrics = &metrics;
  recognition::PerceptionService perception(
      reference.config(), reference.database_ptr(), dialogue.callback(),
      perception_config);

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < fleet.scripts.size(); ++s) {
    producers.emplace_back([&, s] {
      const std::uint64_t period = feed.script_period(s);
      for (std::uint64_t t = 0; t < period; ++t) {
        perception.submit(static_cast<std::uint32_t>(s),
                          feed.render_frame(s, t));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  for (int round = 0; round < 3; ++round) {
    perception.drain();
    dialogue.drain();
  }

  // Tail: walk a winner through a fresh grant, a Yes-begin renewal, then a
  // tick past the TTL — the renew/expire paths a pure contention run may
  // leave cold.
  const std::uint32_t winner = fleet.pairs.front().winner;
  const std::uint64_t base = 10'000'000;
  coordinator.admit_outcome({protocol::Outcome::kGranted, winner, base});
  coordinator.admit_sign_event(
      {winner, interaction::SignEventKind::kBegin, signs::HumanSign::kYes,
       base + 10, base + 10, 0.9});
  coordinator.tick(base + coordination_config.grant_ttl + 200);

  perception.stop();
  dialogue.stop();
  coordinator.stop();
  std::vector<std::uint32_t> stream_ids;
  for (std::size_t s = 0; s < fleet.scripts.size(); ++s) {
    stream_ids.push_back(static_cast<std::uint32_t>(s));
  }
  recorder.finalize(dialogue, std::move(stream_ids), coordinator);

  // --- the observability guarantee -------------------------------------
  const telemetry::MetricsSnapshot snapshot = metrics.snapshot();
  for (const std::string_view name : kAllStageHistograms) {
    const telemetry::HistogramSnapshot* histogram =
        snapshot.find_histogram(name);
    ASSERT_NE(histogram, nullptr) << name;
    EXPECT_GT(histogram->count, 0u) << name << " histogram is empty";
    EXPECT_GT(histogram->max, 0u) << name;
  }

  for (const std::string_view name :
       {telemetry::kPerceptionFramesSubmitted, telemetry::kInteractionObservations,
        telemetry::kInteractionEvents, telemetry::kInteractionOutcomes,
        telemetry::kCoordinationEvents, telemetry::kCoordinationArbitrations,
        telemetry::kCoordinationGrants, telemetry::kCoordinationRenewals,
        telemetry::kCoordinationExpiries, telemetry::kJournalRecords}) {
    const telemetry::CounterSnapshot* counter = snapshot.find_counter(name);
    ASSERT_NE(counter, nullptr) << name;
    EXPECT_GT(counter->value, 0u) << name << " never incremented";
  }

  // The counter counts the records the journal's bytes hold: read back
  // through the parser, not from the count the counter itself reports.
  std::vector<protocol::wire::AnyRecord> journaled;
  protocol::wire::WireError error;
  ASSERT_TRUE(protocol::wire::parse_all(journal.bytes(), journaled, error))
      << error.message;
  EXPECT_EQ(snapshot.find_counter(telemetry::kJournalRecords)->value,
            journaled.size());

  // Queue-depth gauges return to zero once everything is drained/stopped.
  for (const telemetry::GaugeSnapshot& gauge : snapshot.gauges) {
    EXPECT_EQ(gauge.value, 0) << gauge.name;
  }

  // The stats endpoint reports p50/p99 for every stage.
  const std::string text = telemetry::MetricsRegistry::render_text(snapshot);
  for (const std::string_view name : kAllStageHistograms) {
    const std::string quantile_50 =
        std::string(name) + "{quantile=\"0.5\"} ";
    const std::string quantile_99 =
        std::string(name) + "{quantile=\"0.99\"} ";
    EXPECT_NE(text.find(quantile_50), std::string::npos) << name;
    EXPECT_NE(text.find(quantile_99), std::string::npos) << name;
    // A reported stage must not expose an all-zero summary.
    EXPECT_EQ(text.find(quantile_50 + "0\n"), std::string::npos)
        << name << " reports p50 = 0";
  }
}

TEST(TelemetryPipeline, TraceContextPropagatesAcrossAllThreeServices) {
  // Same contention fleet, now with a flight recorder wired into every
  // service: the causal story of a frame must span perception (submit /
  // queue_wait / recognize), interaction (fuse / transition / ack /
  // outcome) and coordination (arbitrate / grant_update) — and because
  // trace ids are pure functions of (stream, sequence), a fused frame's
  // interaction events carry the SAME trace_id its recognition events do.
  // The same events then feed the three artefacts an operator reads: the
  // Perfetto export, the tail report and the health verdict.
  const recognition::SaxSignRecognizer reference(
      recognition::RecognizerConfig{}, recognition::DatabaseBuildOptions{});
  const interaction::CommandGrammar grammar =
      interaction::CommandGrammar::standard();
  const coordination::ContentionFleet fleet =
      coordination::make_contention_fleet(4, grammar);

  telemetry::FlightRecorder flight(1 << 15);
  telemetry::MetricsRegistry metrics;

  coordination::CoordinationConfig coordination_config;
  coordination_config.cells = fleet.pairs.size();
  coordination_config.grant_ttl = 1'000'000;
  coordination_config.metrics = &metrics;
  coordination_config.recorder = &flight;
  interaction::InteractionServiceConfig dialogue_config;
  dialogue_config.fusion =
      interaction::FusionPolicy::matching(reference.config());
  dialogue_config.metrics = &metrics;
  dialogue_config.recorder = &flight;

  protocol::EventJournal journal;
  protocol::JournalRecorder recorder(journal);
  recorder.record_config(
      protocol::make_run_config(dialogue_config, coordination_config));

  coordination::CoordinationService coordinator(coordination_config);
  interaction::InteractionService dialogue(
      dialogue_config, interaction::CommandGrammar(grammar.rules()));
  recorder.attach_interaction(dialogue, &coordinator);
  recorder.attach_coordination(coordinator);
  for (const coordination::DroneDescriptor& descriptor : fleet.drones) {
    coordinator.register_drone(descriptor);
  }

  const signs::MultiDroneFeed feed(make_fleet_feed_config(fleet));
  recognition::PerceptionServiceConfig perception_config;
  perception_config.shards = 2;
  perception_config.metrics = &metrics;
  perception_config.recorder = &flight;
  recognition::PerceptionService perception(
      reference.config(), reference.database_ptr(), dialogue.callback(),
      perception_config);

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < fleet.scripts.size(); ++s) {
    producers.emplace_back([&, s] {
      const std::uint64_t period = feed.script_period(s);
      for (std::uint64_t t = 0; t < period; ++t) {
        perception.submit(static_cast<std::uint32_t>(s),
                          feed.render_frame(s, t));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  for (int round = 0; round < 3; ++round) {
    perception.drain();
    dialogue.drain();
  }
  // The run's own accounting and one drained shard-queue sample, for the
  // health verdict below.
  std::vector<std::uint32_t> stream_ids;
  std::vector<recognition::StreamStats> accounting;
  for (std::size_t s = 0; s < fleet.scripts.size(); ++s) {
    stream_ids.push_back(static_cast<std::uint32_t>(s));
    accounting.push_back(perception.stream_stats(stream_ids.back()));
  }
  telemetry::FleetHealthMonitor monitor;
  std::vector<telemetry::QueueObservation> queues;
  const std::vector<recognition::ShardGauge> gauges = perception.shard_gauges();
  for (std::size_t k = 0; k < gauges.size(); ++k) {
    queues.push_back({k, gauges[k].depth, gauges[k].popped});
  }
  monitor.observe_queues(queues);
  perception.stop();
  dialogue.stop();
  coordinator.stop();

  // Every event survives in the recorder, so each artefact below sees the
  // whole run.
  ASSERT_EQ(flight.overwritten(), 0u);
  const std::vector<telemetry::TraceEvent> events = flight.collect();
  ASSERT_FALSE(events.empty());

  // Every layer's stages are present in the one recorder.
  std::set<telemetry::TraceStage> stages;
  for (const telemetry::TraceEvent& event : events) {
    EXPECT_NE(event.trace_id, 0u);
    stages.insert(event.stage);
  }
  for (const telemetry::TraceStage stage :
       {telemetry::TraceStage::kSubmit, telemetry::TraceStage::kQueueWait,
        telemetry::TraceStage::kRecognize, telemetry::TraceStage::kFuse,
        telemetry::TraceStage::kTransition, telemetry::TraceStage::kAck,
        telemetry::TraceStage::kOutcome, telemetry::TraceStage::kArbitrate,
        telemetry::TraceStage::kGrantUpdate}) {
    EXPECT_TRUE(stages.count(stage))
        << "no " << to_string(stage) << " events recorded";
  }

  // The join: every fused frame's trace_id must also appear on recognition
  // events — the context crossed the perception -> interaction boundary
  // intact (carried by StreamResult, reconstituted from the same identity).
  std::set<std::uint64_t> recognized;
  for (const telemetry::TraceEvent& event : events) {
    if (event.stage == telemetry::TraceStage::kRecognize) {
      recognized.insert(event.trace_id);
    }
  }
  std::size_t fused = 0;
  for (const telemetry::TraceEvent& event : events) {
    if (event.stage != telemetry::TraceStage::kFuse) continue;
    ++fused;
    EXPECT_TRUE(recognized.count(event.trace_id))
        << "fuse event for stream " << event.stream_id << " seq "
        << event.sequence << " has no matching recognize event";
  }
  EXPECT_GT(fused, 0u);

  // Arbitration events reconstitute identity from FleetEvent fields —
  // their stream must be a registered drone.
  for (const telemetry::TraceEvent& event : events) {
    if (event.stage != telemetry::TraceStage::kArbitrate) continue;
    EXPECT_LT(event.stream_id, fleet.drones.size());
    EXPECT_EQ(event.trace_id,
              telemetry::make_trace_id(event.stream_id, event.sequence));
  }

  const std::vector<telemetry::FrameTrace> frames =
      telemetry::assemble_frames(events);

  // --- the exported Perfetto trace ---------------------------------------
  const std::string json = telemetry::export_chrome_trace(events);
  ASSERT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", 0), 0u);
  ASSERT_TRUE(json.ends_with("\n]}\n"));
  const std::vector<ExportedEvent> exported = read_async_events(json);
  // One envelope pair per frame plus one pair per stage event.
  EXPECT_EQ(exported.size(), 2 * (frames.size() + events.size()));
  const std::vector<std::string> failures = trace_violations(exported);
  for (std::size_t i = 0; i < std::min<std::size_t>(failures.size(), 10); ++i) {
    ADD_FAILURE() << failures[i];
  }
  EXPECT_TRUE(failures.empty()) << failures.size() << " trace violations";
  EXPECT_EQ(std::count_if(exported.begin(), exported.end(),
                          [](const ExportedEvent& e) {
                            return e.ph == "b" && e.cat == "frame";
                          }),
            static_cast<std::ptrdiff_t>(frames.size()));

  // --- tail attribution ---------------------------------------------------
  std::uint64_t completed = 0;
  std::uint64_t slowest_ns = 0;
  for (const telemetry::FrameTrace& frame : frames) {
    if (telemetry::is_terminal(frame.terminal)) continue;
    ++completed;
    slowest_ns = std::max(slowest_ns, frame.total_ns());
  }
  ASSERT_GT(completed, 0u);
  const telemetry::TailReport tail = telemetry::build_tail_report(events, 8);
  EXPECT_EQ(tail.frames_seen, completed);
  ASSERT_EQ(tail.worst.size(), std::min<std::uint64_t>(8, completed));
  EXPECT_EQ(tail.worst.front().total_ns, slowest_ns);
  for (std::size_t i = 0; i < tail.worst.size(); ++i) {
    const telemetry::TailFrame& frame = tail.worst[i];
    if (i > 0) {
      EXPECT_LE(frame.total_ns, tail.worst[i - 1].total_ns);
    }
    EXPECT_EQ(frame.trace_id,
              telemetry::make_trace_id(frame.stream_id, frame.sequence));
    // The report names the stage that ate the frame's time.
    ASSERT_FALSE(frame.breakdown.empty()) << "worst frame " << i;
    EXPECT_EQ(frame.dominant_stage, frame.breakdown.front().stage);
    EXPECT_EQ(frame.dominant_ns, frame.breakdown.front().ns);
    EXPECT_GT(frame.dominant_ns, 0u) << "worst frame " << i;
    EXPECT_LE(frame.dominant_ns, frame.total_ns) << "worst frame " << i;
    for (const telemetry::StageShare& share : frame.breakdown) {
      EXPECT_LE(share.ns, frame.dominant_ns);
    }
  }

  // --- health verdict -----------------------------------------------------
  std::map<std::uint32_t, std::uint64_t> completed_per_stream;
  for (const telemetry::FrameTrace& frame : frames) {
    if (!telemetry::is_terminal(frame.terminal)) ++completed_per_stream[frame.stream_id];
  }
  const telemetry::HealthReport health = monitor.evaluate(events, stream_ids);
  ASSERT_EQ(health.streams.size(), fleet.scripts.size());
  for (std::size_t s = 0; s < health.streams.size(); ++s) {
    const telemetry::StreamHealth& stream = health.streams[s];
    const recognition::StreamStats& run = accounting[s];
    EXPECT_EQ(stream.stream_id, stream_ids[s]);
    // A lossless run: every submitted frame was delivered and traced.
    EXPECT_EQ(run.submitted, feed.script_period(s)) << "stream " << s;
    EXPECT_EQ(run.delivered, run.submitted) << "stream " << s;
    EXPECT_EQ(stream.frames, run.delivered) << "stream " << s;
    EXPECT_EQ(stream.frames, completed_per_stream[stream_ids[s]]) << "stream " << s;
    EXPECT_GT(stream.p99_ns, 0u) << "stream " << s;
  }
  ASSERT_EQ(health.shards.size(), perception_config.shards);
  for (const telemetry::ShardHealth& shard : health.shards) {
    EXPECT_EQ(shard.depth, 0u) << "shard " << shard.shard;
    EXPECT_FALSE(shard.stalled) << "shard " << shard.shard;
  }
}

}  // namespace
}  // namespace hdc
