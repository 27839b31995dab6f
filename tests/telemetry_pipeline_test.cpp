// Full-stack telemetry test: drive the scripted contention fleet through
// perception -> interaction -> coordination with one shared registry and a
// recording journal, then assert every instrumented stage actually
// reported — each span histogram has samples (no empty histograms), the
// stage counters moved, and render_text() exposes p50/p99 for all of them.
// This is the guarantee ISSUE/docs/OBSERVABILITY.md makes: a live run's
// stats endpoint answers for the whole pipeline, not just the stages a
// particular scenario happened to touch.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "coordination/coordination_service.hpp"
#include "coordination/fleet_scenario.hpp"
#include "interaction/interaction_service.hpp"
#include "protocol/journal.hpp"
#include "recognition/perception_service.hpp"
#include "signs/multi_drone_feed.hpp"
#include "telemetry/flight_recorder.hpp"
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
  recorder.set_metrics(&metrics);
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
    coordinator.drain();
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
  coordinator.drain();

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

  // The journal's own bookkeeping agrees with its counter.
  EXPECT_EQ(snapshot.find_counter(telemetry::kJournalRecords)->value,
            journal.record_count());

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
    coordinator.drain();
  }
  perception.stop();
  dialogue.stop();
  coordinator.stop();

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
}

}  // namespace
}  // namespace hdc
