#include "protocol/journal.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/stage_names.hpp"

namespace hdc::protocol {

void EventJournal::Batch::append(const wire::AnyRecord& record) {
  telemetry::TracedSpan span(journal_->append_ns_);
  wire::encode(journal_->buffer_, record);
  ++journal_->records_;
}

void EventJournal::instrument(telemetry::MetricsRegistry& metrics) {
  append_ns_ = metrics.histogram(telemetry::kJournalAppend);
  counters_ = metrics.collect([this](telemetry::CounterSink& report) {
    report(telemetry::kJournalRecords, record_count());
  });
}

std::vector<std::uint8_t> EventJournal::bytes() const& {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_;
}

std::vector<std::uint8_t> EventJournal::bytes() && {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(buffer_);
}

std::uint64_t EventJournal::record_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

bool EventJournal::save(const std::string& path) const {
  const std::vector<std::uint8_t> snapshot = bytes();
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file.write(reinterpret_cast<const char*>(snapshot.data()),
             static_cast<std::streamsize>(snapshot.size()));
  return static_cast<bool>(file);
}

bool EventJournal::load(const std::string& path,
                        std::vector<std::uint8_t>& out) {
  // A directory opens as an input stream on Linux and tellg() reports a
  // huge size, so only a regular file whose size reads back is loaded.
  std::error_code error;
  if (!std::filesystem::is_regular_file(path, error)) return false;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) return false;
  std::ifstream file(path, std::ios::binary);
  if (!file) return false;
  out.resize(static_cast<std::size_t>(size));
  file.read(reinterpret_cast<char*>(out.data()),
            static_cast<std::streamsize>(size));
  return static_cast<bool>(file);
}

// -------------------------------------------- live <-> wire conversions --

wire::ObservationRecord to_wire(
    const interaction::InteractionService::ObservationSample& sample) {
  wire::ObservationRecord record;
  record.stream_id = sample.stream_id;
  record.sequence = sample.sequence;
  record.sign = static_cast<std::uint8_t>(sample.sign);
  record.abort = sample.abort ? 1 : 0;
  record.confidence = sample.confidence;
  return record;
}

wire::SignEventRecord to_wire(const interaction::SignEvent& event) {
  wire::SignEventRecord record;
  record.stream_id = event.stream_id;
  record.kind = static_cast<std::uint8_t>(event.kind);
  record.label = static_cast<std::uint8_t>(event.label);
  record.onset_seq = event.onset_seq;
  record.end_seq = event.end_seq;
  record.confidence = event.confidence;
  return record;
}

wire::TransitionRecord to_wire(const interaction::AckAction& action) {
  wire::TransitionRecord record;
  record.stream_id = action.stream_id;
  record.from = static_cast<std::uint8_t>(action.from);
  record.to = static_cast<std::uint8_t>(action.to);
  record.set_ring = action.set_ring ? 1 : 0;
  record.ring = static_cast<std::uint8_t>(action.ring);
  record.fly_pattern = action.fly_pattern ? 1 : 0;
  record.pattern = static_cast<std::uint8_t>(action.pattern);
  record.command = static_cast<std::uint8_t>(action.command);
  record.tick = action.tick;
  record.event = action.event;
  return record;
}

wire::OutcomeRecordWire to_wire(const OutcomeRecord& record) {
  wire::OutcomeRecordWire out;
  out.outcome = static_cast<std::uint8_t>(record.outcome);
  out.stream_id = record.stream_id;
  out.final_sequence = record.final_sequence;
  return out;
}

wire::FleetEventRecord to_wire(
    const coordination::CoordinationService::FleetEvent& event) {
  wire::FleetEventRecord record;
  record.kind = static_cast<std::uint8_t>(event.kind);
  record.drone_id = event.drone_id;
  record.sequence = event.sequence;
  record.to = static_cast<std::uint8_t>(event.to);
  record.outcome = static_cast<std::uint8_t>(event.outcome);
  record.label = static_cast<std::uint8_t>(event.label);
  record.event_kind = static_cast<std::uint8_t>(event.event_kind);
  record.descriptor_drone_id = event.descriptor.drone_id;
  record.descriptor_cell = event.descriptor.cell;
  record.descriptor_human_id = event.descriptor.human_id;
  record.descriptor_battery_soc = event.descriptor.battery_soc;
  record.battery_soc = event.battery_soc;
  return record;
}

wire::GrantUpdateRecord to_wire(const coordination::GrantUpdate& update) {
  wire::GrantUpdateRecord record;
  record.cell = update.cell;
  record.state = static_cast<std::uint8_t>(update.record.state);
  record.holder = update.record.holder;
  record.granted_seq = update.record.granted_seq;
  record.expires_seq = update.record.expires_seq;
  record.renewals = update.record.renewals;
  record.conflict = update.conflict ? 1 : 0;
  return record;
}

wire::ArbitrationRecord to_wire(
    const coordination::ArbitrationDecision& decision) {
  wire::ArbitrationRecord record;
  record.loser = decision.loser;
  record.winner = decision.winner;
  record.human_id = decision.human_id;
  record.sequence = decision.sequence;
  record.retry_at = decision.retry_at;
  record.reason = static_cast<std::uint8_t>(decision.reason);
  return record;
}

wire::GrantSlotRecord to_wire(int cell,
                              const coordination::GrantRecord& record) {
  wire::GrantSlotRecord slot;
  slot.cell = cell;
  slot.state = static_cast<std::uint8_t>(record.state);
  slot.holder = record.holder;
  slot.granted_seq = record.granted_seq;
  slot.expires_seq = record.expires_seq;
  slot.renewals = record.renewals;
  return slot;
}

wire::PlanHintRecord to_wire(std::uint32_t drone_id,
                             const orchard::PlanHint& hint) {
  wire::PlanHintRecord record;
  record.drone_id = drone_id;
  record.granted_cells.assign(hint.granted_cells.begin(),
                              hint.granted_cells.end());
  record.blocked_cells.assign(hint.blocked_cells.begin(),
                              hint.blocked_cells.end());
  return record;
}

coordination::CoordinationService::FleetEvent from_wire(
    const wire::FleetEventRecord& record) {
  coordination::CoordinationService::FleetEvent event;
  event.kind =
      static_cast<coordination::CoordinationService::EventKind>(record.kind);
  event.drone_id = record.drone_id;
  event.sequence = record.sequence;
  event.source = nullptr;
  event.to = static_cast<interaction::DialogueState>(record.to);
  event.outcome = static_cast<Outcome>(record.outcome);
  event.label = static_cast<signs::HumanSign>(record.label);
  event.event_kind = static_cast<interaction::SignEventKind>(record.event_kind);
  event.descriptor.drone_id = record.descriptor_drone_id;
  event.descriptor.cell = record.descriptor_cell;
  event.descriptor.human_id = record.descriptor_human_id;
  event.descriptor.battery_soc = record.descriptor_battery_soc;
  event.battery_soc = record.battery_soc;
  return event;
}

wire::RunConfigRecord make_run_config(
    const interaction::InteractionServiceConfig& interaction_config,
    const coordination::CoordinationConfig& coordination_config) {
  wire::RunConfigRecord config;
  const interaction::FusionPolicy& fusion = interaction_config.fusion;
  config.fusion_window = static_cast<std::uint32_t>(fusion.window);
  config.fusion_majority = static_cast<std::uint32_t>(fusion.majority);
  config.onset_confidence = fusion.onset_confidence;
  config.release_confidence = fusion.release_confidence;
  config.min_hold = static_cast<std::uint32_t>(fusion.min_hold);
  config.release_misses = static_cast<std::uint32_t>(fusion.release_misses);
  config.reference_distance = fusion.reference_distance;
  const interaction::DialogueConfig& dialogue = interaction_config.dialogue;
  config.attending_timeout = dialogue.attending_timeout;
  config.sequence_gap = dialogue.sequence_gap;
  config.confirm_timeout = dialogue.confirm_timeout;
  config.execute_ticks = dialogue.execute_ticks;
  config.abort_ticks = dialogue.abort_ticks;
  // observation_queue and fleet_queue keep the record's defaults, 256 and
  // 1024 (see wire.hpp).
  config.cells = static_cast<std::uint32_t>(coordination_config.cells);
  config.grant_ttl = coordination_config.grant_ttl;
  const coordination::ArbitrationPolicy& arbitration =
      coordination_config.arbitration;
  config.retry_backoff = arbitration.retry_backoff;
  config.retry_backoff_max = arbitration.retry_backoff_max;
  config.fairness_boost_per_loss =
      static_cast<std::uint32_t>(arbitration.fairness_boost_per_loss);
  config.fairness_boost_cap =
      static_cast<std::uint32_t>(arbitration.fairness_boost_cap);
  return config;
}

interaction::InteractionServiceConfig interaction_config_of(
    const wire::RunConfigRecord& config) {
  interaction::InteractionServiceConfig out;
  out.fusion.window = config.fusion_window;
  out.fusion.majority = config.fusion_majority;
  out.fusion.onset_confidence = config.onset_confidence;
  out.fusion.release_confidence = config.release_confidence;
  out.fusion.min_hold = config.min_hold;
  out.fusion.release_misses = config.release_misses;
  out.fusion.reference_distance = config.reference_distance;
  out.dialogue.attending_timeout = config.attending_timeout;
  out.dialogue.sequence_gap = config.sequence_gap;
  out.dialogue.confirm_timeout = config.confirm_timeout;
  out.dialogue.execute_ticks = config.execute_ticks;
  out.dialogue.abort_ticks = config.abort_ticks;
  return out;
}

coordination::CoordinationConfig coordination_config_of(
    const wire::RunConfigRecord& config) {
  coordination::CoordinationConfig out;
  out.cells = config.cells;
  out.grant_ttl = config.grant_ttl;
  out.arbitration.retry_backoff = config.retry_backoff;
  out.arbitration.retry_backoff_max = config.retry_backoff_max;
  out.arbitration.fairness_boost_per_loss =
      static_cast<int>(config.fairness_boost_per_loss);
  out.arbitration.fairness_boost_cap =
      static_cast<int>(config.fairness_boost_cap);
  return out;
}

// ------------------------------------------------- metric snapshots ------

namespace {

/// The replay-deterministic counters' totals as the canonical
/// MetricSnapshotRecord, sorted by name, read through the services' own
/// counter tables. Explicit list of tables, NOT a name-prefix filter: a
/// counter incremented on admission depends on live queue depths, so a new
/// interaction_ or coordination_ counter joins the journal only once it is
/// shown to count processed inputs alone — a prefix rule would silently
/// journal a nondeterministic counter and break the replay gate.
wire::MetricSnapshotRecord counter_snapshot(
    const interaction::InteractionStats& dialogue,
    const coordination::CoordinationStats& coordination,
    const coordination::RegistryStats& registry) {
  wire::MetricSnapshotRecord record;
  const auto read = [&record](const auto& table, const auto& stats) {
    for (const auto& [name, count] : table) {
      record.entries.push_back({std::string(name), stats.*count});
    }
  };
  read(interaction::kInteractionCounters, dialogue);
  read(coordination::kCoordinationCounters, coordination);
  read(coordination::kRegistryCounters, registry);
  std::sort(record.entries.begin(), record.entries.end(),
            [](const wire::MetricSnapshotEntry& a,
               const wire::MetricSnapshotEntry& b) { return a.name < b.name; });
  return record;
}

}  // namespace

const std::vector<std::string_view>& replay_deterministic_counters() {
  static const wire::MetricSnapshotRecord kZeros = counter_snapshot({}, {}, {});
  static const std::vector<std::string_view> kNames = [] {
    std::vector<std::string_view> names;
    for (const auto& entry : kZeros.entries) names.push_back(entry.name);
    return names;
  }();
  return kNames;
}

// ---------------------------------------------------------- recorder -----

void JournalRecorder::record_config(const wire::RunConfigRecord& config) {
  journal_->append(config);
}

void JournalRecorder::attach_interaction(
    interaction::InteractionService& dialogue,
    coordination::CoordinationService* coordinator) {
  EventJournal* journal = journal_;
  interaction::InteractionService* source = &dialogue;
  dialogue.set_dialogue_listener(
      [journal, coordinator,
       source](const interaction::InteractionService::DialogueStep& step) {
        {
          EventJournal::Batch batch = journal->batch();
          batch.append(to_wire(step.sample));
          for (const interaction::SignEvent& event : step.events) {
            batch.append(to_wire(event));
          }
          for (const interaction::AckAction& action : step.actions) {
            batch.append(to_wire(action));
          }
          if (step.outcome) batch.append(to_wire(*step.outcome));
        }
        // Forwarded after the batch releases the journal: the lock order
        // is coordinator mutex, then journal lock, and the coordinator
        // appends its own records under its mutex.
        if (coordinator != nullptr) coordinator->admit_step(source, step);
      });
}

void JournalRecorder::attach_coordination(
    coordination::CoordinationService& coordinator) {
  EventJournal* journal = journal_;
  coordinator.set_event_tap(
      [journal](const coordination::CoordinationService::FleetEvent& event) {
        journal->append(to_wire(event));
      });
  coordinator.set_registry_observer(
      [journal](const coordination::GrantUpdate& update) {
        journal->append(to_wire(update));
      });
}

void JournalRecorder::finalize(interaction::InteractionService& dialogue,
                               std::vector<std::uint32_t> stream_ids,
                               coordination::CoordinationService& coordinator) {
  std::sort(stream_ids.begin(), stream_ids.end());
  stream_ids.erase(std::unique(stream_ids.begin(), stream_ids.end()),
                   stream_ids.end());
  for (std::uint32_t stream_id : stream_ids) {
    const TranscriptDigest digest = dialogue.transcript_digest(stream_id);
    journal_->append(wire::TranscriptDigestRecord{stream_id, digest.entries(),
                                                  digest.value()});
    journal_->append(to_wire(dialogue.outcome_record(stream_id)));
  }
  for (const coordination::ArbitrationDecision& decision :
       coordinator.arbitration_log()) {
    journal_->append(to_wire(decision));
  }
  const std::size_t cells = coordinator.config().cells;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    journal_->append(
        to_wire(static_cast<int>(cell), coordinator.grant(static_cast<int>(cell))));
  }
  for (std::uint32_t stream_id : stream_ids) {
    journal_->append(to_wire(stream_id, coordinator.plan_hint(stream_id)));
  }
  // The run's one deterministic counter checkpoint: services are drained,
  // so the replay-deterministic counts have their final totals.
  if (counter_snapshot_) {
    journal_->append(counter_snapshot(dialogue.stats(), coordinator.stats(),
                                      coordinator.registry_stats()));
  }
  wire::JournalEndRecord end;
  end.record_count = journal_->record_count();
  journal_->append(end);
}

}  // namespace hdc::protocol
