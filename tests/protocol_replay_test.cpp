// Record/replay tests: journal a run of the live services, replay it
// through fresh services with the ReplayDriver, and assert bit-identical
// reproduction — plus the rejection paths (corrupt / truncated /
// future-versioned journals) and the committed 8-drone contention
// fixture CI replays twice (the determinism gate).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "coordination/coordination_service.hpp"
#include "coordination/fleet_scenario.hpp"
#include "interaction/interaction_service.hpp"
#include "protocol/journal.hpp"
#include "protocol/replay_driver.hpp"
#include "protocol/wire.hpp"
#include "recognition/perception_service.hpp"
#include "signs/multi_drone_feed.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/stage_names.hpp"

namespace hdc::protocol {
namespace {

namespace wire = hdc::protocol::wire;

const char* fixture_path() {
  return HDC_SOURCE_DIR "/tests/data/fleet_contention_8.journal";
}

/// Oracle for the journal's MetricSnapshotRecord, which finalize() builds
/// from the services' own counts: the same record built from a telemetry
/// registry's counters (the replay-deterministic ones, sorted by name, 0
/// for a counter the snapshot lacks). With one registry wired into both
/// services of a run, the two must agree entry for entry.
wire::MetricSnapshotRecord registry_snapshot_record(
    const telemetry::MetricsSnapshot& snapshot) {
  wire::MetricSnapshotRecord record;
  for (std::string_view name : replay_deterministic_counters()) {
    wire::MetricSnapshotEntry entry;
    entry.name = std::string(name);
    const telemetry::CounterSnapshot* counter = snapshot.find_counter(name);
    entry.value = counter != nullptr ? counter->value : 0;
    record.entries.push_back(std::move(entry));
  }
  std::sort(record.entries.begin(), record.entries.end(),
            [](const wire::MetricSnapshotEntry& a,
               const wire::MetricSnapshotEntry& b) { return a.name < b.name; });
  return record;
}

/// 64-bit FNV-1a of a byte string (pins a journal's exact bytes).
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// ------------------------------------------ direct-admission recording ---

/// Records a small deterministic run via direct admission (no rendering):
/// drone 0 walks through enough held Attention/Yes frames to fuse events,
/// the coordination side sees registrations, outcomes, a renewal and a
/// tick past the TTL. Exercises every journal hook without perception.
/// With `instrumented` the run carries a telemetry registry and the journal
/// ends with a MetricSnapshotRecord; without, it is a pre-telemetry-style
/// journal (no snapshot record) — replay must handle both.
std::vector<std::uint8_t> record_direct_run(bool instrumented = true) {
  telemetry::MetricsRegistry metrics_storage;
  telemetry::MetricsRegistry* metrics = &metrics_storage;

  interaction::InteractionServiceConfig dialogue_config;
  coordination::CoordinationConfig coordination_config;
  coordination_config.cells = 4;
  coordination_config.grant_ttl = 500;
  if (instrumented) {
    dialogue_config.metrics = metrics;
    coordination_config.metrics = metrics;
  }

  EventJournal journal;
  JournalRecorder recorder(journal);
  recorder.set_counter_snapshot(instrumented);
  recorder.record_config(
      make_run_config(dialogue_config, coordination_config));

  coordination::CoordinationService coordinator(coordination_config);
  interaction::InteractionService dialogue(dialogue_config);
  recorder.attach_interaction(dialogue, &coordinator);
  recorder.attach_coordination(coordinator);

  coordinator.register_drone({0, 0, 0, 0.9});
  coordinator.register_drone({1, 1, 0, 0.4});
  coordinator.update_battery(0, 0.85);

  std::uint64_t seq = 0;
  const auto feed = [&](std::uint32_t stream, signs::HumanSign sign,
                        double confidence, int frames) {
    for (int i = 0; i < frames; ++i) {
      dialogue.inject_observation(stream, ++seq, sign, confidence);
    }
  };
  feed(0, signs::HumanSign::kAttentionGained, 0.9, 8);
  feed(0, signs::HumanSign::kNeutral, 0.05, 4);
  feed(0, signs::HumanSign::kYes, 0.85, 8);
  feed(0, signs::HumanSign::kNeutral, 0.05, 4);
  feed(1, signs::HumanSign::kAttentionGained, 0.9, 6);
  dialogue.abort_stream(1);
  dialogue.drain();

  coordinator.admit_outcome({Outcome::kGranted, 0, 100});
  coordinator.admit_sign_event(
      {0, interaction::SignEventKind::kBegin, signs::HumanSign::kYes,
       200, 200, 0.9});
  coordinator.tick(700);  // lease born at 100 expires at 600

  dialogue.stop();
  coordinator.stop();
  recorder.finalize(dialogue, {0, 1}, coordinator);
  return journal.bytes();
}

/// A direct-admission run that moves all twelve replay-deterministic
/// counters: a dialogue on an unregistered stream (observations, events,
/// actions, an aborted outcome), then an arbitration and a deferred retry,
/// three grants, a denial, a renewal, two revocations and the expiry of
/// every lease. A registry is wired into both services and the journal;
/// `registry_out` receives its snapshot after finalize().
std::vector<std::uint8_t> record_every_counter_run(
    telemetry::MetricsSnapshot& registry_out) {
  telemetry::MetricsRegistry metrics;
  interaction::InteractionServiceConfig dialogue_config;
  dialogue_config.metrics = &metrics;
  coordination::CoordinationConfig coordination_config;
  coordination_config.cells = 4;
  coordination_config.grant_ttl = 500;
  coordination_config.metrics = &metrics;

  EventJournal journal;
  journal.instrument(metrics);
  JournalRecorder recorder(journal);
  recorder.set_counter_snapshot(true);
  recorder.record_config(
      make_run_config(dialogue_config, coordination_config));
  coordination::CoordinationService coordinator(coordination_config);
  interaction::InteractionService dialogue(dialogue_config);
  recorder.attach_interaction(dialogue, &coordinator);
  recorder.attach_coordination(coordinator);

  std::uint64_t seq = 0;
  for (const auto& [sign, confidence, frames] :
       {std::tuple{signs::HumanSign::kAttentionGained, 0.9, 8},
        std::tuple{signs::HumanSign::kNeutral, 0.05, 4},
        std::tuple{signs::HumanSign::kYes, 0.85, 8}}) {
    for (int i = 0; i < frames; ++i) {
      dialogue.inject_observation(9, ++seq, sign, confidence);
    }
  }
  dialogue.abort_stream(9);

  // Drones 0 and 1 face human 0: 1 loses at 12, retries inside its
  // backoff at 30 and is deferred.
  coordinator.register_drone({0, 0, 0, 0.9});
  coordinator.register_drone({1, 1, 0, 0.2});
  coordinator.register_drone({2, 2, 1, 0.5});
  coordinator.register_drone({3, 3, 2, 0.5});
  const auto transition = [&](std::uint32_t drone,
                              interaction::DialogueState to,
                              std::uint64_t tick) {
    interaction::AckAction action;
    action.stream_id = drone;
    action.to = to;
    action.tick = tick;
    coordinator.admit_transition(nullptr, action);
  };
  const auto sign_begin = [&](std::uint32_t drone, signs::HumanSign label,
                              std::uint64_t at) {
    coordinator.admit_sign_event(
        {drone, interaction::SignEventKind::kBegin, label, at, at, 0.9});
  };
  transition(0, interaction::DialogueState::kAttending, 10);
  transition(1, interaction::DialogueState::kAttending, 12);
  coordinator.admit_outcome({Outcome::kGranted, 0, 20});
  transition(1, interaction::DialogueState::kIdle, 22);
  transition(1, interaction::DialogueState::kAttending, 30);
  coordinator.admit_outcome({Outcome::kDenied, 1, 40});
  coordinator.admit_outcome({Outcome::kGranted, 2, 50});
  sign_begin(2, signs::HumanSign::kYes, 60);  // renewal
  sign_begin(2, signs::HumanSign::kNo, 65);   // revocation
  coordinator.admit_outcome({Outcome::kGranted, 3, 70});
  sign_begin(3, signs::HumanSign::kNo, 80);   // revocation
  coordinator.tick(2'000);                    // every lease runs out

  dialogue.stop();
  coordinator.stop();
  recorder.finalize(dialogue, {9}, coordinator);
  registry_out = metrics.snapshot();
  return journal.bytes();
}

// --------------------------------------------- full-stack 8-drone run ----

class ReplayEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    reference_ = new recognition::SaxSignRecognizer(
        recognition::RecognizerConfig{}, recognition::DatabaseBuildOptions{});
  }
  static void TearDownTestSuite() {
    delete reference_;
    reference_ = nullptr;
  }

  static recognition::SaxSignRecognizer* reference_;
};

recognition::SaxSignRecognizer* ReplayEndToEnd::reference_ = nullptr;

/// The scripted 8-drone contention scenario (4 pairs, 4 cells) through the
/// full perception -> interaction -> coordination stack, with the journal
/// recorder spliced in where CoordinationService::bind() would sit.
/// Mirrors coordination_test.cpp's run_fleet(). `registry_out`, when set,
/// receives the run's registry snapshot after finalize().
std::vector<std::uint8_t> record_contention_run(
    const recognition::SaxSignRecognizer& reference,
    telemetry::MetricsSnapshot* registry_out = nullptr) {
  const interaction::CommandGrammar grammar =
      interaction::CommandGrammar::standard();
  const coordination::ContentionFleet fleet =
      coordination::make_contention_fleet(8, grammar);

  telemetry::MetricsRegistry metrics;
  coordination::CoordinationConfig coordination_config;
  coordination_config.cells = fleet.pairs.size();
  coordination_config.grant_ttl = 1'000'000;
  coordination_config.metrics = &metrics;
  interaction::InteractionServiceConfig dialogue_config;
  dialogue_config.fusion =
      interaction::FusionPolicy::matching(reference.config());
  dialogue_config.metrics = &metrics;

  EventJournal journal;
  journal.instrument(metrics);
  JournalRecorder recorder(journal);
  recorder.set_counter_snapshot(true);
  recorder.record_config(
      make_run_config(dialogue_config, coordination_config));

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
  perception.stop();
  dialogue.stop();
  coordinator.stop();

  std::vector<std::uint32_t> stream_ids;
  for (std::size_t s = 0; s < fleet.scripts.size(); ++s) {
    stream_ids.push_back(static_cast<std::uint32_t>(s));
  }
  recorder.finalize(dialogue, std::move(stream_ids), coordinator);
  if (registry_out != nullptr) *registry_out = metrics.snapshot();
  return journal.bytes();
}

/// The journal's one MetricSnapshotRecord (asserts exactly one exists).
wire::MetricSnapshotRecord snapshot_of(const std::vector<std::uint8_t>& bytes) {
  std::vector<wire::AnyRecord> records;
  wire::WireError error;
  EXPECT_TRUE(wire::parse_all(bytes, records, error)) << error.message;
  std::vector<wire::MetricSnapshotRecord> found;
  for (const wire::AnyRecord& record : records) {
    if (wire::record_type(record) == wire::RecordType::kMetricSnapshot) {
      found.push_back(std::get<wire::MetricSnapshotRecord>(record));
    }
  }
  EXPECT_EQ(found.size(), 1u);
  return found.empty() ? wire::MetricSnapshotRecord{} : found.front();
}

std::uint64_t value_of(const wire::MetricSnapshotRecord& snapshot,
                       std::string_view name) {
  for (const wire::MetricSnapshotEntry& entry : snapshot.entries) {
    if (entry.name == name) return entry.value;
  }
  ADD_FAILURE() << "snapshot has no entry named " << name;
  return 0;
}

// -------------------------------------------------------------- tests ----

TEST(Replay, DirectAdmissionRunReplaysBitIdentically) {
  const std::vector<std::uint8_t> recorded = record_direct_run();
  ASSERT_FALSE(recorded.empty());

  const ReplayDriver driver;
  const ReplayReport first = driver.replay(recorded);
  EXPECT_TRUE(first.parsed) << first.mismatch;
  EXPECT_TRUE(first.ok) << first.mismatch;
  EXPECT_GT(first.observations_fed, 0u);
  EXPECT_GT(first.fleet_events_fed, 0u);

  // The determinism gate in miniature: two replays, byte-for-byte equal.
  const ReplayReport second = driver.replay(recorded);
  ASSERT_TRUE(second.ok) << second.mismatch;
  EXPECT_EQ(first.journal_bytes, second.journal_bytes);
}

TEST(Replay, MetricSnapshotCounterTotalsReplayBitExactly) {
  const std::vector<std::uint8_t> recorded = record_direct_run();
  const wire::MetricSnapshotRecord recorded_snapshot = snapshot_of(recorded);

  // One entry per replay-deterministic counter, sorted by name (the
  // canonical wire layout metric_snapshot_record() promises).
  const std::vector<std::string_view>& names = replay_deterministic_counters();
  ASSERT_EQ(recorded_snapshot.entries.size(), names.size());
  for (std::size_t i = 1; i < recorded_snapshot.entries.size(); ++i) {
    EXPECT_LT(recorded_snapshot.entries[i - 1].name,
              recorded_snapshot.entries[i].name);
  }
  for (std::string_view name : names) {
    (void)value_of(recorded_snapshot, name);  // fails if absent
  }

  // The run demonstrably moved the workers' counters — an all-zero
  // snapshot would make the bit-exactness assertion below vacuous.
  EXPECT_GT(value_of(recorded_snapshot, telemetry::kInteractionObservations), 0u);
  EXPECT_GT(value_of(recorded_snapshot, telemetry::kInteractionEvents), 0u);
  EXPECT_GT(value_of(recorded_snapshot, telemetry::kInteractionOutcomes), 0u);
  EXPECT_GT(value_of(recorded_snapshot, telemetry::kCoordinationEvents), 0u);
  EXPECT_GT(value_of(recorded_snapshot, telemetry::kCoordinationGrants), 0u);
  EXPECT_GT(value_of(recorded_snapshot, telemetry::kCoordinationExpiries), 0u);

  // Replaying the journal re-derives every counter total bit-exactly from
  // fresh services (the driver also compares the records itself — this
  // pins the guarantee independently).
  const ReplayReport report = ReplayDriver().replay(recorded);
  ASSERT_TRUE(report.ok) << report.mismatch;
  EXPECT_EQ(snapshot_of(report.journal_bytes), recorded_snapshot);
}

TEST(Replay, UninstrumentedJournalReplaysWithoutASnapshotRecord) {
  // A journal recorded with no telemetry registry has no snapshot record;
  // the replay must not invent one (that would be a per-type divergence).
  const std::vector<std::uint8_t> recorded =
      record_direct_run(/*instrumented=*/false);
  std::vector<wire::AnyRecord> records;
  wire::WireError error;
  ASSERT_TRUE(wire::parse_all(recorded, records, error));
  for (const wire::AnyRecord& record : records) {
    EXPECT_NE(wire::record_type(record), wire::RecordType::kMetricSnapshot);
  }

  const ReplayReport report = ReplayDriver().replay(recorded);
  EXPECT_TRUE(report.ok) << report.mismatch;
}

TEST(Replay, RecordingIsItselfReplayableAsAJournal) {
  // A replay's own journal is a valid journal: replaying it succeeds too
  // (the replay fixed point — sequential stages are self-reproducing).
  const ReplayDriver driver;
  const ReplayReport first = driver.replay(record_direct_run());
  ASSERT_TRUE(first.ok) << first.mismatch;
  const ReplayReport again = driver.replay(first.journal_bytes);
  EXPECT_TRUE(again.ok) << again.mismatch;
  EXPECT_EQ(again.journal_bytes, first.journal_bytes);
}

TEST(Replay, AdmitRecordedAcceptsEveryParsedBoundaryFleetEvent) {
  // CoordinationService refuses trace-aliasing drone ids and sequences at
  // admission, and the wire parser refuses the same values, so a parsed
  // journal always replays: every event kind at the last drone id (65534)
  // and the last sequence (2^48 - 1) goes through admit_recorded.
  constexpr std::uint32_t kLastDrone = telemetry::kMaxTraceStreamId;
  constexpr std::uint64_t kLastSequence = telemetry::kMaxTraceSequence;
  coordination::CoordinationConfig config;
  config.cells = 2;
  coordination::CoordinationService service(config);
  constexpr std::uint8_t kKinds = 6;  // kRegister .. kTick
  for (std::uint8_t kind = 0; kind < kKinds; ++kind) {
    const wire::FleetEventRecord record{kind, kLastDrone, kLastSequence, 0, 0, 0, 0,
                                        kLastDrone, 0, 0, 0.5, 0.5};
    std::vector<wire::AnyRecord> parsed;
    wire::WireError error;
    ASSERT_TRUE(wire::parse_all(wire::encode_one(record), parsed, error)) << error.message;
    ASSERT_EQ(parsed.size(), 1u);
    service.admit_recorded(from_wire(std::get<wire::FleetEventRecord>(parsed[0])));
  }
  EXPECT_EQ(service.stats().events, kKinds);
  EXPECT_EQ(service.fleet_clock(), kLastSequence);
  service.stop();
}

TEST(Replay, JournalSaveLoadRoundTrip) {
  EventJournal journal;
  journal.append(wire::ObservationRecord{1, 2, 1, 0, 0.5});
  journal.append(wire::JournalEndRecord{1});

  const std::string path = "replay_roundtrip.journal.tmp";
  ASSERT_TRUE(journal.save(path));
  std::vector<std::uint8_t> loaded;
  ASSERT_TRUE(EventJournal::load(path, loaded));
  EXPECT_EQ(loaded, journal.bytes());
  std::remove(path.c_str());

  std::vector<std::uint8_t> missing;
  EXPECT_FALSE(EventJournal::load("does_not_exist.journal.tmp", missing));
  // A directory is not a journal: refused, not a huge allocation.
  EXPECT_FALSE(EventJournal::load(HDC_SOURCE_DIR "/tests", missing));
}

TEST(Replay, CorruptedJournalIsRejectedWithPreciseOffset) {
  std::vector<std::uint8_t> bytes = record_direct_run();
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0x01;  // one flipped bit mid-journal

  const ReplayReport report = ReplayDriver().replay(bytes);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.parsed);
  EXPECT_NE(report.error.code, wire::WireErrorCode::kNone);
  EXPECT_NE(report.mismatch.find("journal rejected at offset"),
            std::string::npos)
      << report.mismatch;
  EXPECT_EQ(report.observations_fed, 0u);  // rejected before any replay
}

TEST(Replay, FutureVersionedJournalIsRejected) {
  std::vector<std::uint8_t> bytes = record_direct_run();
  bytes[1] = wire::kWireVersion + 1;  // first record claims a v2 layout

  const ReplayReport report = ReplayDriver().replay(bytes);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.parsed);
  EXPECT_EQ(report.error.code, wire::WireErrorCode::kBadVersion);
  EXPECT_EQ(report.error.offset, 1u);
  EXPECT_NE(report.mismatch.find("future"), std::string::npos)
      << report.mismatch;
}

TEST(Replay, JournalWithoutEndTrailerIsRejected) {
  // Cut at the last record boundary: the bytes still parse, but the
  // JournalEnd trailer is gone — the structural check must catch it.
  const std::vector<std::uint8_t> bytes = record_direct_run();
  const std::vector<std::uint8_t> end =
    wire::encode_one(wire::JournalEndRecord{0});
  // Every JournalEnd payload is 8 bytes, so the trailer envelope size is
  // fixed; the recorded trailer is the journal's final record.
  ASSERT_GT(bytes.size(), end.size());
  const std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.end() - end.size());

  const ReplayReport report = ReplayDriver().replay(cut);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.parsed);
  EXPECT_NE(report.mismatch.find("JournalEnd"), std::string::npos)
      << report.mismatch;
}

TEST(Replay, JournalEndCountMismatchIsRejected) {
  EventJournal journal;
  JournalRecorder recorder(journal);
  recorder.record_config(make_run_config({}, {}));
  journal.append(wire::JournalEndRecord{5});  // lies: only 1 record before

  const ReplayReport report = ReplayDriver().replay(journal.bytes());
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.parsed);
  EXPECT_NE(report.mismatch.find("record count"), std::string::npos)
      << report.mismatch;
}

// A CRC-valid journal of a RunConfig header and its trailer. Replay must
// refuse a header the services would throw on, naming the field.
ReplayReport replay_config(const wire::RunConfigRecord& config) {
  EventJournal journal;
  journal.append(config);
  journal.append(wire::JournalEndRecord{1});
  return ReplayDriver().replay(journal.bytes());
}

void expect_refused(const ReplayReport& report, const std::string& field) {
  EXPECT_TRUE(report.parsed);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.mismatch.find("RunConfig " + field + " = "),
            std::string::npos)
      << report.mismatch;
  EXPECT_EQ(report.observations_fed, 0u);
}

TEST(Replay, ZeroFusionWindowIsRefusedNotThrown) {
  wire::RunConfigRecord config;
  config.fusion_window = 0;
  expect_refused(replay_config(config), "fusion_window");
}

TEST(Replay, ZeroObservationQueueIsRefusedNotThrown) {
  wire::RunConfigRecord config;
  config.observation_queue = 0;
  expect_refused(replay_config(config), "observation_queue");
}

TEST(Replay, ZeroCellsIsRefusedNotThrown) {
  wire::RunConfigRecord config;
  config.cells = 0;
  expect_refused(replay_config(config), "cells");
}

TEST(Replay, ZeroGrantTtlIsRefusedNotThrown) {
  wire::RunConfigRecord config;
  config.grant_ttl = 0;
  expect_refused(replay_config(config), "grant_ttl");
}

TEST(Replay, RegisteredCellOutsideTheGridIsRefusedNotThrown) {
  // A drone registered in cell 9 of a 4-cell grid, then a sign event for
  // it: the registry would throw on the cell lookup.
  wire::RunConfigRecord config;
  config.cells = 4;
  wire::FleetEventRecord registration;
  registration.kind = 0;  // kRegister
  registration.descriptor_cell = 9;
  wire::FleetEventRecord sign = registration;
  sign.kind = 4;  // kSignEvent
  sign.sequence = 2;
  EventJournal journal;
  journal.append(config);
  journal.append(registration);
  journal.append(sign);
  journal.append(wire::JournalEndRecord{3});
  const ReplayReport report = ReplayDriver().replay(journal.bytes());
  EXPECT_TRUE(report.parsed);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.mismatch.find("FleetEvent 0 descriptor_cell = 9"),
            std::string::npos)
      << report.mismatch;
  EXPECT_EQ(report.fleet_events_fed, 0u);
}

TEST(Replay, QueuesAboveTheReplayCapacityAreRefused) {
  wire::RunConfigRecord config;
  config.observation_queue = 0xFFFFFFFFU;
  expect_refused(replay_config(config), "observation_queue");
  config.observation_queue = kMaxReplayCapacity;
  config.fleet_queue = kMaxReplayCapacity + 1;
  expect_refused(replay_config(config), "fleet_queue");
  // At the limit every size is accepted; the bare journal then replays.
  config.fleet_queue = kMaxReplayCapacity;
  const ReplayReport report = replay_config(config);
  EXPECT_TRUE(report.parsed);
  EXPECT_EQ(report.mismatch.find("RunConfig"), std::string::npos)
      << report.mismatch;
}

// ------------------------------------- envelope bytes, then records ----

/// `bytes` parsed, changed by `edit`, and re-encoded with valid CRCs.
template <class Edit>
std::vector<std::uint8_t> reencoded(const std::vector<std::uint8_t>& bytes,
                                    Edit edit) {
  std::vector<wire::AnyRecord> records;
  wire::WireError error;
  EXPECT_TRUE(wire::parse_all(bytes, records, error)) << error.message;
  edit(records);
  std::vector<std::uint8_t> out;
  for (const wire::AnyRecord& record : records) wire::encode(out, record);
  return out;
}

/// The first ObservationRecord of `records` whose abort flag is `abort`.
wire::ObservationRecord& first_observation(std::vector<wire::AnyRecord>& records,
                                           bool abort) {
  for (wire::AnyRecord& record : records) {
    auto* observation = std::get_if<wire::ObservationRecord>(&record);
    if (observation != nullptr && (observation->abort != 0) == abort) {
      return *observation;
    }
  }
  ADD_FAILURE() << "no observation with abort = " << abort;
  static wire::ObservationRecord none;
  return none;
}

TEST(Replay, AJournalCarryingANaNConfidenceReplaysToAVerifiedFixedPoint) {
  // A NaN confidence is journaled and replayed as the same IEEE-754 bits,
  // so the replay of a replay journal that carries one reproduces it byte
  // for byte. Replay compares envelope bytes, so NaN != NaN between two
  // decoded records cannot fail it.
  std::vector<std::uint8_t> fixture;
  ASSERT_TRUE(EventJournal::load(fixture_path(), fixture));
  const std::vector<std::uint8_t> with_nan =
      reencoded(fixture, [](std::vector<wire::AnyRecord>& records) {
        first_observation(records, false).confidence =
            std::numeric_limits<double>::quiet_NaN();
      });

  const ReplayDriver driver;
  const ReplayReport first = driver.replay(with_nan);
  ASSERT_TRUE(first.parsed) << first.mismatch;
  ASSERT_FALSE(first.journal_bytes.empty());
  const ReplayReport again = driver.replay(first.journal_bytes);
  EXPECT_TRUE(again.ok) << again.mismatch;
  EXPECT_EQ(again.journal_bytes, first.journal_bytes);
}

TEST(Replay, EnvelopesThatDifferAreComparedAsRecords) {
  // An abort observation's confidence is not replay input: replay
  // re-issues the abort, which journals +0.0. A recording carrying -0.0
  // there differs from its replay in bytes, not as a record, so it still
  // replays ok; any other value is a divergence.
  const std::vector<std::uint8_t> recorded = record_direct_run();
  const auto with_abort_confidence = [&recorded](double confidence) {
    return reencoded(recorded, [confidence](std::vector<wire::AnyRecord>& records) {
      first_observation(records, true).confidence = confidence;
    });
  };

  const ReplayDriver driver;
  const std::vector<std::uint8_t> negative_zero = with_abort_confidence(-0.0);
  ASSERT_NE(negative_zero, recorded);
  const ReplayReport equal = driver.replay(negative_zero);
  EXPECT_TRUE(equal.ok) << equal.mismatch;
  EXPECT_NE(equal.journal_bytes, negative_zero);

  const ReplayReport diverged = driver.replay(with_abort_confidence(0.5));
  EXPECT_TRUE(diverged.parsed);
  EXPECT_FALSE(diverged.ok);
  EXPECT_NE(diverged.mismatch.find("Observation record "), std::string::npos)
      << diverged.mismatch;
  EXPECT_NE(diverged.mismatch.find(" diverged between recording and replay"),
            std::string::npos)
      << diverged.mismatch;
}

TEST_F(ReplayEndToEnd, RecordedContentionRunReplaysBitIdentically) {
  const std::vector<std::uint8_t> recorded =
      record_contention_run(*reference_);
  ASSERT_FALSE(recorded.empty());

  // Regeneration path for the committed fixture (run once, then commit):
  //   HDC_WRITE_FIXTURE=1 ./protocol_replay_test
  //     --gtest_filter='*RecordedContentionRun*'
  if (std::getenv("HDC_WRITE_FIXTURE") != nullptr) {
    std::FILE* file = std::fopen(fixture_path(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(recorded.data(), 1, recorded.size(), file),
              recorded.size());
    std::fclose(file);
  }

  const ReplayDriver driver;
  const ReplayReport first = driver.replay(recorded);
  EXPECT_TRUE(first.parsed) << first.mismatch;
  EXPECT_TRUE(first.ok) << first.mismatch;
  EXPECT_GT(first.observations_fed, 0u);
  EXPECT_GT(first.fleet_events_fed, 0u);

  const ReplayReport second = driver.replay(recorded);
  ASSERT_TRUE(second.ok) << second.mismatch;
  EXPECT_EQ(first.journal_bytes, second.journal_bytes);
}

TEST_F(ReplayEndToEnd, CommittedContentionFixtureReplaysTwiceIdentically) {
  // The CI determinism gate in test form: the committed journal of the
  // scripted 8-drone contention run must replay cleanly, twice, with
  // byte-identical replay journals.
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(EventJournal::load(fixture_path(), bytes))
      << "missing fixture " << fixture_path()
      << " — regenerate with HDC_WRITE_FIXTURE=1 (see "
         "RecordedContentionRunReplaysBitIdentically)";

  const ReplayDriver driver;
  const ReplayReport first = driver.replay(bytes);
  EXPECT_TRUE(first.parsed) << first.mismatch;
  EXPECT_TRUE(first.ok) << first.mismatch;

  const ReplayReport second = driver.replay(bytes);
  ASSERT_TRUE(second.ok) << second.mismatch;
  EXPECT_EQ(first.journal_bytes, second.journal_bytes);
  // ...and the replay journal's exact bytes are pinned (58,504 bytes,
  // SHA-256 216528c3...): a change to the replayed services, the recorder
  // or the encoder that moves one byte of it fails here.
  EXPECT_EQ(first.journal_bytes.size(), 58'504u);
  EXPECT_EQ(fnv1a(first.journal_bytes), 0xf7d8925f8ed1ec20ULL);

  // The committed fixture carries the run's replay-deterministic counter
  // totals, and the fresh-service replay re-derived them bit-exactly.
  const wire::MetricSnapshotRecord snapshot = snapshot_of(bytes);
  EXPECT_GT(value_of(snapshot, telemetry::kInteractionObservations), 0u);
  EXPECT_GT(value_of(snapshot, telemetry::kInteractionEvents), 0u);
  EXPECT_GT(value_of(snapshot, telemetry::kCoordinationArbitrations), 0u);
  EXPECT_GT(value_of(snapshot, telemetry::kCoordinationGrants), 0u);
  EXPECT_EQ(snapshot_of(first.journal_bytes), snapshot);

  // The scripted ground truth still holds through the wire: every pair
  // produced one arbitration decision, and the winner holds its cell.
  const interaction::CommandGrammar grammar =
      interaction::CommandGrammar::standard();
  const coordination::ContentionFleet fleet =
      coordination::make_contention_fleet(8, grammar);
  std::vector<wire::AnyRecord> records;
  wire::WireError error;
  ASSERT_TRUE(wire::parse_all(bytes, records, error));
  std::size_t arbitrations = 0;
  std::vector<wire::GrantSlotRecord> slots;
  for (const wire::AnyRecord& record : records) {
    if (wire::record_type(record) == wire::RecordType::kArbitration) {
      ++arbitrations;
    } else if (wire::record_type(record) == wire::RecordType::kGrantSlot) {
      slots.push_back(std::get<wire::GrantSlotRecord>(record));
    }
  }
  EXPECT_EQ(arbitrations, fleet.pairs.size());
  ASSERT_EQ(slots.size(), fleet.pairs.size());
  for (const coordination::PairExpectation& pair : fleet.pairs) {
    const wire::GrantSlotRecord& slot = slots[pair.cell];
    EXPECT_EQ(slot.cell, pair.cell);
    EXPECT_EQ(slot.holder, pair.winner) << "cell " << pair.cell;
    EXPECT_EQ(slot.state,
              static_cast<std::uint8_t>(coordination::GrantState::kGranted))
        << "cell " << pair.cell;
  }
}

TEST_F(ReplayEndToEnd, CounterSnapshotMatchesTheRegistryOracle) {
  // finalize() reads the counter totals from the services' own counts; a
  // registry wired into the same services counts the same inputs. A live
  // 2-shard run (dialogue on two perception shards at once) and a direct
  // run that moves all twelve counters must journal exactly the
  // registry's totals.
  telemetry::MetricsSnapshot live_registry;
  const wire::MetricSnapshotRecord live =
      snapshot_of(record_contention_run(*reference_, &live_registry));
  EXPECT_EQ(live, registry_snapshot_record(live_registry));
  EXPECT_GT(value_of(live, telemetry::kInteractionActions), 0u);
  EXPECT_GT(value_of(live, telemetry::kCoordinationArbitrations), 0u);

  telemetry::MetricsSnapshot every_registry;
  const std::vector<std::uint8_t> recorded =
      record_every_counter_run(every_registry);
  const wire::MetricSnapshotRecord every = snapshot_of(recorded);
  EXPECT_EQ(every, registry_snapshot_record(every_registry));
  for (const wire::MetricSnapshotEntry& entry : every.entries) {
    EXPECT_GT(entry.value, 0u) << entry.name << " never moved";
  }
  // The registry-free replay re-derives all twelve totals.
  const ReplayReport report = ReplayDriver().replay(recorded);
  ASSERT_TRUE(report.ok) << report.mismatch;
  EXPECT_EQ(snapshot_of(report.journal_bytes), every);
}

TEST(Replay, EveryCounterRunExposesThePinnedCounterLines) {
  // The counter lines of render_text() for the direct run, pinned: names,
  // order and values. Each is read from its owner's own count when the
  // snapshot is taken.
  telemetry::MetricsSnapshot snapshot;
  (void)record_every_counter_run(snapshot);
  telemetry::MetricsSnapshot counters;
  counters.counters = snapshot.counters;
  const std::string expected =
      "# TYPE coordination_arbitrations_total counter\n"
      "coordination_arbitrations_total 1\n"
      "# TYPE coordination_deferrals_total counter\n"
      "coordination_deferrals_total 1\n"
      "# TYPE coordination_denials_total counter\n"
      "coordination_denials_total 1\n"
      "# TYPE coordination_events_total counter\n"
      "coordination_events_total 23\n"
      "# TYPE coordination_expiries_total counter\n"
      "coordination_expiries_total 4\n"
      "# TYPE coordination_grants_total counter\n"
      "coordination_grants_total 3\n"
      "# TYPE coordination_renewals_total counter\n"
      "coordination_renewals_total 1\n"
      "# TYPE coordination_revocations_total counter\n"
      "coordination_revocations_total 2\n"
      "# TYPE interaction_actions_total counter\n"
      "interaction_actions_total 3\n"
      "# TYPE interaction_events_total counter\n"
      "interaction_events_total 3\n"
      "# TYPE interaction_observations_total counter\n"
      "interaction_observations_total 21\n"
      "# TYPE interaction_outcomes_total counter\n"
      "interaction_outcomes_total 1\n"
      "# TYPE journal_records_total counter\n"
      "journal_records_total 70\n";
  EXPECT_EQ(telemetry::MetricsRegistry::render_text(counters), expected);
}

TEST_F(ReplayEndToEnd, TracingTheReplayDoesNotPerturbItsBytes) {
  // The acceptance criterion for causal tracing under replay: replaying
  // the committed 8-drone fixture with a flight recorder wired must (a)
  // still verify bit-exactly, (b) produce journal bytes identical to an
  // UNTRACED replay of the same fixture, and (c) actually record the
  // replayed frames' causal events — with ids minted purely from the
  // (stream, sequence) identities the journal already carries.
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(EventJournal::load(fixture_path(), bytes));

  const ReplayReport untraced = ReplayDriver().replay(bytes);
  ASSERT_TRUE(untraced.ok) << untraced.mismatch;

  telemetry::FlightRecorder flight(1 << 15);
  ReplayOptions options;
  options.recorder = &flight;
  const ReplayReport traced = ReplayDriver(std::move(options)).replay(bytes);
  EXPECT_TRUE(traced.ok) << traced.mismatch;
  EXPECT_EQ(traced.journal_bytes, untraced.journal_bytes);

  const std::vector<telemetry::TraceEvent> events = flight.collect();
  ASSERT_FALSE(events.empty());
  for (const telemetry::TraceEvent& event : events) {
    EXPECT_EQ(event.trace_id,
              telemetry::make_trace_id(event.stream_id, event.sequence));
  }
  // Both replayed layers traced: interaction stages and coordination
  // stages are present.
  bool saw_interaction = false;
  bool saw_coordination = false;
  for (const telemetry::TraceEvent& event : events) {
    if (event.stage == telemetry::TraceStage::kFuse ||
        event.stage == telemetry::TraceStage::kTransition) {
      saw_interaction = true;
    }
    if (event.stage == telemetry::TraceStage::kArbitrate ||
        event.stage == telemetry::TraceStage::kGrantUpdate) {
      saw_coordination = true;
    }
  }
  EXPECT_TRUE(saw_interaction);
  EXPECT_TRUE(saw_coordination);
}

}  // namespace
}  // namespace hdc::protocol
