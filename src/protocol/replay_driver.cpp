#include "protocol/replay_driver.hpp"

#include <array>
#include <cstring>
#include <sstream>
#include <utility>
#include <variant>

#include "protocol/journal.hpp"

namespace hdc::protocol {

namespace {

constexpr std::size_t kRecordTypes = std::variant_size_v<wire::AnyRecord>;
constexpr std::size_t kNone = ~std::size_t{0};
using Indices = std::vector<std::size_t>;

/// A parsed journal: its records, the envelope each was parsed from
/// (`envelopes[i]` holds `records[i]`), and each type's record indices in
/// append order, which per type is a deterministic order (journal.hpp).
/// Each bucket is reserved from its type's count before it is filled. The
/// envelopes point into the journal's bytes, which must outlive them.
struct Buckets {
  const std::vector<wire::AnyRecord>& records;
  const std::vector<wire::Envelope>& envelopes;
  std::array<Indices, kRecordTypes> by_type;

  Buckets(const std::vector<wire::AnyRecord>& parsed,
          const std::vector<wire::Envelope>& parsed_from)
      : records(parsed), envelopes(parsed_from) {
    std::array<std::size_t, kRecordTypes> counts{};
    for (const wire::AnyRecord& record : records) ++counts[record.index()];
    for (std::size_t t = 0; t < kRecordTypes; ++t) by_type[t].reserve(counts[t]);
    for (std::size_t i = 0; i < records.size(); ++i) {
      by_type[records[i].index()].push_back(i);
    }
  }
  [[nodiscard]] const Indices& of(wire::RecordType type) const {
    return by_type[static_cast<std::size_t>(type) - 1];
  }
  template <class Record>
  [[nodiscard]] const Record& get(std::size_t index) const {
    return std::get<Record>(records[index]);
  }
};

/// First per-type divergence between the recorded journal and the replay's
/// own bytes, or "" when they agree everywhere. The replay journal is the
/// encoder's own output, so one walk over its envelope headers pairs each
/// envelope with the recording's envelope of the same type and index, and
/// the two must be equal byte for byte. Only a replayed envelope whose
/// bytes differ is decoded (its CRC and payload checked for the first
/// time), and it diverges when its record differs from the recorded one:
/// bytes that differ can still hold equal records (-0.0 == +0.0). The walk
/// notes each type's count and first divergence; they are reported in type
/// order, a type's count before its records, so the verdict does not
/// depend on how the live run interleaved the types.
std::string first_mismatch(const Buckets& recorded,
                           std::span<const std::uint8_t> replayed) {
  std::array<std::size_t, kRecordTypes> count{};
  std::array<std::size_t, kRecordTypes> diverged;
  diverged.fill(kNone);
  std::size_t offset = 0;
  wire::Envelope envelope;
  wire::WireError error;
  for (;;) {
    const wire::ParseResult step =
        wire::next_envelope(replayed, offset, envelope, error);
    if (step == wire::ParseResult::kEnd) break;
    if (step == wire::ParseResult::kError) {
      return "internal: replay journal failed to re-parse";
    }
    const std::size_t t = static_cast<std::size_t>(wire::envelope_type(envelope)) - 1;
    const std::size_t i = count[t]++;
    const Indices& twins = recorded.by_type[t];
    if (i >= twins.size() || diverged[t] != kNone) continue;
    const wire::Envelope twin = recorded.envelopes[twins[i]];
    if (twin.size() == envelope.size() &&
        std::memcmp(twin.data(), envelope.data(), twin.size()) == 0) {
      continue;
    }
    wire::AnyRecord record;
    std::size_t at = 0;
    if (wire::parse_record(envelope, at, record, error) != wire::ParseResult::kOk) {
      return "internal: replay journal failed to re-parse";
    }
    if (record != recorded.records[twins[i]]) diverged[t] = i;
  }

  for (std::size_t t = 0; t < kRecordTypes; ++t) {
    const auto type = static_cast<wire::RecordType>(t + 1);
    if (count[t] != recorded.by_type[t].size()) {
      std::ostringstream out;
      out << wire::to_string(type) << " count diverged: recorded "
          << recorded.by_type[t].size() << ", replayed " << count[t];
      return out.str();
    }
    if (diverged[t] != kNone) {
      std::ostringstream out;
      out << wire::to_string(type) << " record " << diverged[t]
          << " diverged between recording and replay";
      return out.str();
    }
  }
  return "";
}

/// Why the replayed services would refuse `config` or one of the recorded
/// fleet events, naming the first bad field, or "" when they accept all
/// of it. Checked here, once, so a CRC-valid journal with a hostile header
/// is a mismatch instead of a throw from a service constructor, a giant
/// allocation, or a grant on a cell the registry does not have.
std::string refused_input(const wire::RunConfigRecord& config,
                          const Buckets& recorded) {
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
  const Indices& fleet_events = recorded.of(wire::RecordType::kFleetEvent);
  for (std::size_t i = 0; i < fleet_events.size(); ++i) {
    const auto& event = recorded.get<wire::FleetEventRecord>(fleet_events[i]);
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
  std::vector<wire::Envelope> envelopes;
  if (!wire::parse_all(journal, records, envelopes, report.error)) {
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

  const Buckets recorded(records, envelopes);

  const auto& run_config = std::get<wire::RunConfigRecord>(records.front());
  report.mismatch = refused_input(run_config, recorded);
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
  for (const std::size_t i : recorded.of(wire::RecordType::kObservation)) {
    const auto& observation = recorded.get<wire::ObservationRecord>(i);
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
  for (const std::size_t i : recorded.of(wire::RecordType::kFleetEvent)) {
    coordinator.admit_recorded(
        from_wire(recorded.get<wire::FleetEventRecord>(i)));
    ++report.fleet_events_fed;
  }
  coordinator.stop();

  // Finalize over the same stream ids the recording finalized over.
  const Indices& digests = recorded.of(wire::RecordType::kTranscriptDigest);
  std::vector<std::uint32_t> stream_ids;
  stream_ids.reserve(digests.size());
  for (const std::size_t i : digests) {
    stream_ids.push_back(recorded.get<wire::TranscriptDigestRecord>(i).stream_id);
  }
  recorder.finalize(dialogue, std::move(stream_ids), coordinator);

  report.journal_bytes = std::move(replay_journal).bytes();

  // Verified by envelope bytes, type by type: identical bytes are valid
  // because the recorded ones parsed, so the replay's journal is walked
  // once by its headers and never decoded a second time; a recorded NaN
  // replays to the same bits and matches (docs/WIRE_FORMAT.md).
  report.mismatch = first_mismatch(recorded, report.journal_bytes);
  report.ok = report.mismatch.empty();
  return report;
}

}  // namespace hdc::protocol
