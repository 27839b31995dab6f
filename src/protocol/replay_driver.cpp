#include "protocol/replay_driver.hpp"

#include <array>
#include <sstream>
#include <utility>
#include <variant>

#include "protocol/journal.hpp"

namespace hdc::protocol {

namespace {

using RecordRefs = std::vector<const wire::AnyRecord*>;

/// Records of one journal, bucketed by type (bucket order == append order,
/// which per type is a deterministic order: see journal.hpp). The buckets
/// point into the parsed records, which must outlive them.
struct Buckets {
  std::array<RecordRefs, std::variant_size_v<wire::AnyRecord>> by_type;

  explicit Buckets(const std::vector<wire::AnyRecord>& records) {
    for (const wire::AnyRecord& record : records) {
      by_type[record.index()].push_back(&record);
    }
  }
  [[nodiscard]] const RecordRefs& of(wire::RecordType type) const {
    return by_type[static_cast<std::size_t>(type) - 1];
  }
};

/// First per-type divergence between the recorded and replayed journals,
/// or "" when they agree everywhere.
std::string first_mismatch(const Buckets& recorded, const Buckets& replayed) {
  for (std::uint8_t t = static_cast<std::uint8_t>(wire::RecordType::kRunConfig);
       t <= static_cast<std::uint8_t>(wire::RecordType::kMetricSnapshot); ++t) {
    const auto type = static_cast<wire::RecordType>(t);
    const RecordRefs& a = recorded.of(type);
    const RecordRefs& b = replayed.of(type);
    if (a.size() != b.size()) {
      std::ostringstream out;
      out << wire::to_string(type) << " count diverged: recorded " << a.size()
          << ", replayed " << b.size();
      return out.str();
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!(*a[i] == *b[i])) {
        std::ostringstream out;
        out << wire::to_string(type) << " record " << i
            << " diverged between recording and replay";
        return out.str();
      }
    }
  }
  return "";
}

/// Why the replayed services would refuse `config` or one of the recorded
/// `fleet_events`, naming the first bad field, or "" when they accept all
/// of it. Checked here, once, so a CRC-valid journal with a hostile header
/// is a mismatch instead of a throw from a service constructor, a giant
/// allocation, or a grant on a cell the registry does not have.
std::string refused_input(const wire::RunConfigRecord& config,
                          const RecordRefs& fleet_events) {
  std::ostringstream out;
  const std::pair<const char*, std::uint32_t> sizes[] = {
      {"fusion_window", config.fusion_window},
      {"observation_queue", config.observation_queue},
      {"cells", config.cells},
      {"fleet_queue", config.fleet_queue},
  };
  for (const auto& [name, value] : sizes) {
    if (value == 0 || value > kMaxReplayCapacity) {
      out << "RunConfig " << name << " = " << value << " is outside [1, "
          << kMaxReplayCapacity << "]";
      return out.str();
    }
  }
  if (config.fusion_majority == 0 ||
      config.fusion_majority > config.fusion_window) {
    out << "RunConfig fusion_majority = " << config.fusion_majority
        << " is outside [1, fusion_window]";
    return out.str();
  }
  if (config.release_misses == 0) {
    return "RunConfig release_misses = 0 must be positive";
  }
  if (config.grant_ttl == 0) return "RunConfig grant_ttl = 0 must be positive";
  constexpr auto kRegister = static_cast<std::uint8_t>(
      coordination::CoordinationService::EventKind::kRegister);
  for (std::size_t i = 0; i < fleet_events.size(); ++i) {
    const auto& event = std::get<wire::FleetEventRecord>(*fleet_events[i]);
    if (event.kind == kRegister &&
        (event.descriptor_cell < 0 ||
         static_cast<std::uint32_t>(event.descriptor_cell) >= config.cells)) {
      out << "FleetEvent " << i << " descriptor_cell = "
          << event.descriptor_cell << " is outside [0, RunConfig cells = "
          << config.cells << ")";
      return out.str();
    }
  }
  return "";
}

}  // namespace

ReplayDriver::ReplayDriver(ReplayOptions options)
    : options_(std::move(options)) {}

ReplayReport ReplayDriver::replay(std::span<const std::uint8_t> journal) const {
  ReplayReport report;

  std::vector<wire::AnyRecord> records;
  if (!wire::parse_all(journal, records, report.error)) {
    std::ostringstream out;
    out << "journal rejected at offset " << report.error.offset << ": "
        << wire::to_string(report.error.code) << " (" << report.error.message
        << ")";
    report.mismatch = out.str();
    return report;
  }

  // Structural checks before any replay work: a journal must open with its
  // RunConfig header and close with a JournalEnd whose count covers every
  // record before it — otherwise the file was cut short mid-run.
  if (records.empty() ||
      wire::record_type(records.front()) != wire::RecordType::kRunConfig) {
    report.mismatch = "journal does not start with a RunConfig header";
    return report;
  }
  if (wire::record_type(records.back()) != wire::RecordType::kJournalEnd) {
    report.mismatch = "journal truncated: missing the JournalEnd trailer";
    return report;
  }
  const auto& end = std::get<wire::JournalEndRecord>(records.back());
  if (end.record_count != records.size() - 1) {
    std::ostringstream out;
    out << "JournalEnd record count " << end.record_count
        << " does not match the " << (records.size() - 1)
        << " records before it";
    report.mismatch = out.str();
    return report;
  }
  report.parsed = true;

  const Buckets recorded(records);

  const auto& run_config = std::get<wire::RunConfigRecord>(
      *recorded.of(wire::RecordType::kRunConfig).front());
  report.mismatch =
      refused_input(run_config, recorded.of(wire::RecordType::kFleetEvent));
  if (!report.mismatch.empty()) return report;

  EventJournal replay_journal;
  JournalRecorder recorder(replay_journal);
  recorder.record_config(run_config);

  // The fresh services count from zero, so the replayed run re-derives the
  // replay-deterministic counter totals from their own counts; no telemetry
  // registry is wired. The recorder publishes a MetricSnapshotRecord only
  // when the RECORDING has one — appending a record the recording lacks
  // would itself be a (false) per-type divergence.
  recorder.set_counter_snapshot(
      !recorded.of(wire::RecordType::kMetricSnapshot).empty());

  // Stage 1: the interaction layer, fed on this thread in recorded order
  // (record-only wiring — stage 2 gets the RECORDED fleet events, so the
  // replayed dialogue outputs must not reach the coordinator too).
  interaction::InteractionServiceConfig dialogue_config =
      interaction_config_of(run_config);
  dialogue_config.recorder = options_.recorder;
  interaction::InteractionService dialogue(dialogue_config, options_.grammar);
  recorder.attach_interaction(dialogue, nullptr);
  for (const wire::AnyRecord* any :
       recorded.of(wire::RecordType::kObservation)) {
    const auto& observation = std::get<wire::ObservationRecord>(*any);
    if (observation.abort != 0) {
      dialogue.abort_stream(observation.stream_id);
    } else {
      dialogue.inject_observation(
          observation.stream_id, observation.sequence,
          static_cast<signs::HumanSign>(observation.sign),
          observation.confidence);
    }
    ++report.observations_fed;
  }

  // Stage 2: the coordination layer, fed the recorded fleet events.
  coordination::CoordinationConfig coordination_config =
      coordination_config_of(run_config);
  coordination_config.recorder = options_.recorder;
  coordination::CoordinationService coordinator(coordination_config);
  recorder.attach_coordination(coordinator);
  for (const wire::AnyRecord* any :
       recorded.of(wire::RecordType::kFleetEvent)) {
    coordinator.admit_recorded(
        from_wire(std::get<wire::FleetEventRecord>(*any)));
    ++report.fleet_events_fed;
  }
  coordinator.stop();

  // Finalize over the same stream ids the recording finalized over.
  std::vector<std::uint32_t> stream_ids;
  for (const wire::AnyRecord* any :
       recorded.of(wire::RecordType::kTranscriptDigest)) {
    stream_ids.push_back(
        std::get<wire::TranscriptDigestRecord>(*any).stream_id);
  }
  recorder.finalize(dialogue, std::move(stream_ids), coordinator);

  report.journal_bytes = replay_journal.bytes();

  // Re-parsing the replay's own bytes is the encoder's round-trip check.
  std::vector<wire::AnyRecord> replay_records;
  wire::WireError replay_error;
  if (!wire::parse_all(report.journal_bytes, replay_records, replay_error)) {
    report.mismatch = "internal: replay journal failed to re-parse";
    return report;
  }

  report.mismatch = first_mismatch(recorded, Buckets(replay_records));
  report.ok = report.mismatch.empty();
  return report;
}

}  // namespace hdc::protocol
