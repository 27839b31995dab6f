// EventJournal + JournalRecorder — the append-only per-run record of a
// fleet run, in the versioned wire format (protocol/wire.hpp), and the
// hooks that fill it from the live services.
//
// What gets recorded, and why replay works (see ARCHITECTURE.md):
//   - The interaction layer's INPUTS (every ObservationSample) and OUTPUTS
//     (sign events, transitions, outcomes), one DialogueStep at a time, in
//     processing order. Observations are the interaction layer's
//     replayable input unit: re-feeding them from one thread in recorded
//     order reproduces every output bit-identically.
//   - The coordination worker's INPUTS (every FleetEvent, via the event
//     tap, in the exact order the single worker consumed them) and
//     OUTPUTS (grant updates via the registry observer). Cross-thread
//     interleavings that are nondeterministic live become explicit data.
//   - A finalize() section: arbitration log, final grant slots, final plan
//     hints, per-stream transcript digests + outcomes, and a JournalEnd
//     trailer — the expected end state a replay must reproduce.
//
// Threading: EventJournal is mutex-guarded — K perception shards (running
// dialogue) and the coordination worker all append. The recorder appends
// each DialogueStep's records under ONE lock (EventJournal::Batch), so every
// interaction record type's global order is the order of the Observation
// records — exactly what a single-threaded replay of those observations
// produces — however the shards interleave. Coordination record types have
// a single writer. Only the interleaving BETWEEN the two groups is
// nondeterministic live, so the replay driver compares per type, and full
// bytes only between two sequential replays.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "coordination/coordination_service.hpp"
#include "interaction/interaction_service.hpp"
#include "protocol/wire.hpp"
#include "telemetry/metrics.hpp"

namespace hdc::protocol {

/// Append-only journal buffer: wire-enveloped records, in append order.
class EventJournal {
 public:
  /// Holds the journal lock: records appended through one Batch are
  /// contiguous, with no other writer's record between them.
  class Batch {
   public:
    void append(const wire::AnyRecord& record);

   private:
    friend class EventJournal;
    explicit Batch(EventJournal& journal)
        : journal_(&journal), lock_(journal.mutex_) {}
    EventJournal* journal_;
    std::lock_guard<std::mutex> lock_;
  };

  [[nodiscard]] Batch batch() { return Batch(*this); }
  void append(const wire::AnyRecord& record) { batch().append(record); }

  /// Arms the append-latency span + record counter (disarmed by default;
  /// `metrics` must outlive this journal). Call before streaming.
  void instrument(telemetry::MetricsRegistry& metrics);

  /// Snapshot of the journal bytes so far (copy under the mutex).
  [[nodiscard]] std::vector<std::uint8_t> bytes() const;
  /// Records appended so far (JournalEnd's record_count input).
  [[nodiscard]] std::uint64_t record_count() const;
  void clear();

  /// Whole-journal file I/O (binary). Both return false on I/O failure.
  [[nodiscard]] bool save(const std::string& path) const;
  [[nodiscard]] static bool load(const std::string& path,
                                 std::vector<std::uint8_t>& out);

 private:
  mutable std::mutex mutex_;
  std::vector<std::uint8_t> buffer_;
  std::uint64_t records_{0};
  telemetry::Histogram append_ns_;
  telemetry::Counter records_counter_;
};

/// The counter names whose totals are a pure function of a run's recorded
/// input sequence (incremented only while the interaction layer or the
/// coordination worker processes an admitted input — never on admission,
/// never dependent on queue timing). These, and only these, go into a journal's
/// MetricSnapshotRecord: replaying the journal must reproduce every total
/// bit-exactly. Notably absent: all perception metrics (producer-side,
/// they depend on live queue depths).
[[nodiscard]] const std::vector<std::string_view>& replay_deterministic_counters();

/// Filters a telemetry snapshot down to the replay-deterministic counters,
/// sorted by name (canonical wire layout). Counters the snapshot lacks are
/// recorded as 0, so the record's shape is independent of which services
/// happened to touch the registry.
[[nodiscard]] wire::MetricSnapshotRecord metric_snapshot_record(
    const telemetry::MetricsSnapshot& snapshot);

// -------------------------------------------- live <-> wire conversions --
// Public because the replay driver and tests use them too.

[[nodiscard]] wire::ObservationRecord to_wire(
    const interaction::InteractionService::ObservationSample& sample);
[[nodiscard]] wire::SignEventRecord to_wire(const interaction::SignEvent& event);
[[nodiscard]] wire::TransitionRecord to_wire(const interaction::AckAction& action);
[[nodiscard]] wire::OutcomeRecordWire to_wire(const OutcomeRecord& record);
[[nodiscard]] wire::FleetEventRecord to_wire(
    const coordination::CoordinationService::FleetEvent& event);
[[nodiscard]] wire::GrantUpdateRecord to_wire(
    const coordination::GrantUpdate& update);
[[nodiscard]] wire::ArbitrationRecord to_wire(
    const coordination::ArbitrationDecision& decision);
[[nodiscard]] wire::GrantSlotRecord to_wire(
    int cell, const coordination::GrantRecord& record);
[[nodiscard]] wire::PlanHintRecord to_wire(std::uint32_t drone_id,
                                           const orchard::PlanHint& hint);

/// Reconstructs a coordination input event from the wire (source is null —
/// replay aborts arrive as recorded abort observations instead).
[[nodiscard]] coordination::CoordinationService::FleetEvent from_wire(
    const wire::FleetEventRecord& record);

/// The run-config header a journal starts with, from the live configs.
[[nodiscard]] wire::RunConfigRecord make_run_config(
    const interaction::InteractionServiceConfig& interaction_config,
    const coordination::CoordinationConfig& coordination_config);
/// Rebuilds the service configs a replay must construct from the header.
[[nodiscard]] interaction::InteractionServiceConfig interaction_config_of(
    const wire::RunConfigRecord& config);
[[nodiscard]] coordination::CoordinationConfig coordination_config_of(
    const wire::RunConfigRecord& config);

/// FNV-1a 64 over a transcript (timestamps as IEEE-754 bit patterns, then
/// each string with a terminator) — "bit-identical transcripts" is
/// asserted by digest equality.
[[nodiscard]] std::uint64_t transcript_digest(const Transcript& transcript);
[[nodiscard]] wire::TranscriptDigestRecord digest_record(
    std::uint32_t stream_id, const Transcript& transcript);

// ---------------------------------------------------------- recorder -----

/// Hooks an EventJournal into the live services. One recorder per run;
/// install the hooks BEFORE streaming (they take the services' listener /
/// tap slots). finalize() also journals one MetricSnapshotRecord, at the
/// run's deterministic checkpoint, when set_metrics() wired a registry.
class JournalRecorder {
 public:
  explicit JournalRecorder(EventJournal& journal) : journal_(&journal) {}

  /// Writes the journal header. Call first, before streaming.
  void record_config(const wire::RunConfigRecord& config);

  /// Installs a recording DialogueListener on `dialogue`. Each step's
  /// observation/events/transitions/outcome are journaled as one Batch, then
  /// forwarded to `coordinator` (exactly what CoordinationService::bind()
  /// would have received). Pass nullptr for record-only wiring — the replay driver
  /// does, because during replay the coordination layer is fed from the
  /// recorded FleetEvents, not from the re-run dialogues.
  void attach_interaction(interaction::InteractionService& dialogue,
                          coordination::CoordinationService* coordinator);

  /// Installs the event tap + registry observer on `coordinator` (takes
  /// both observer slots).
  void attach_coordination(coordination::CoordinationService& coordinator);

  /// Wires the run's telemetry registry so finalize() also appends a
  /// MetricSnapshotRecord (replay-deterministic counter totals, sorted by
  /// name) right before the JournalEnd trailer. finalize() is the one
  /// deterministic checkpoint of a run — a wall-clock-driven snapshot
  /// would not replay bit-identically. `registry` must outlive finalize();
  /// pass nullptr (the default state) to record no snapshot.
  void set_metrics(telemetry::MetricsRegistry* registry) { metrics_ = registry; }

  /// Writes the end-state section: per-stream transcript digests and final
  /// outcomes (ids deduplicated + sorted for a deterministic layout),
  /// the arbitration log, every grant slot, per-drone plan hints, then the
  /// JournalEnd trailer. Call after the services are drained/stopped.
  void finalize(interaction::InteractionService& dialogue,
                std::vector<std::uint32_t> stream_ids,
                coordination::CoordinationService& coordinator);

 private:
  EventJournal* journal_;
  telemetry::MetricsRegistry* metrics_{nullptr};
};

}  // namespace hdc::protocol
