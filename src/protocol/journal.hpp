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
//   - The coordination layer's INPUTS (every FleetEvent, via the event
//     tap, in the exact order the service processed them) and OUTPUTS
//     (grant updates via the registry observer). Cross-thread
//     interleavings that are nondeterministic live become explicit data.
//   - A finalize() section: arbitration log, final grant slots, final plan
//     hints, per-stream transcript digests + outcomes, and a JournalEnd
//     trailer — the expected end state a replay must reproduce.
//
// Threading: EventJournal is mutex-guarded — K perception shards append,
// running dialogue and then, inside its listener, coordination. The
// recorder appends each DialogueStep's records under ONE lock
// (EventJournal::Batch), so every interaction record type's global order
// is the order of the Observation records — exactly what a single-threaded
// replay of those observations produces — however the shards interleave.
// Coordination records are appended under the coordinator's mutex (lock
// order: coordinator, then journal), so their order is the processing
// order. Only the interleaving BETWEEN the two groups is nondeterministic
// live, so the replay driver compares per type, and full bytes only between
// two sequential replays.
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

  /// Arms the append-latency span and the record_count() collector
  /// (disarmed by default; `metrics` must outlive this journal).
  void instrument(telemetry::MetricsRegistry& metrics);

  /// Snapshot of the journal bytes so far (copy under the mutex); on an
  /// expiring journal, the buffer itself (moved out, no copy).
  [[nodiscard]] std::vector<std::uint8_t> bytes() const&;
  [[nodiscard]] std::vector<std::uint8_t> bytes() &&;
  /// Records appended so far (JournalEnd's record_count input).
  [[nodiscard]] std::uint64_t record_count() const;

  /// Whole-journal file I/O (binary). Both return false on I/O failure.
  [[nodiscard]] bool save(const std::string& path) const;
  [[nodiscard]] static bool load(const std::string& path,
                                 std::vector<std::uint8_t>& out);

 private:
  mutable std::mutex mutex_;
  std::vector<std::uint8_t> buffer_;
  std::uint64_t records_{0};
  telemetry::Histogram append_ns_;
  telemetry::CollectorHandle counters_;  ///< reads record_count(); last member
};

/// The counter names whose totals are a pure function of a run's recorded
/// input sequence (incremented only while the interaction or coordination
/// layer processes an admitted input — never on admission, never dependent
/// on queue timing). These, and only these, go into a journal's
/// MetricSnapshotRecord: replaying the journal must reproduce every total
/// bit-exactly. Notably absent: all perception metrics (producer-side,
/// they depend on live queue depths). Each is a plain count in
/// InteractionStats, CoordinationStats or RegistryStats, named by that
/// struct's counter table, and the record is built from those, so a
/// journal needs no telemetry registry.
[[nodiscard]] const std::vector<std::string_view>& replay_deterministic_counters();

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

// ---------------------------------------------------------- recorder -----

/// Hooks an EventJournal into the live services. One recorder per run;
/// install the hooks BEFORE streaming (they take the services' listener /
/// tap slots). finalize() also journals one MetricSnapshotRecord, at the
/// run's deterministic checkpoint, when set_counter_snapshot(true) asked
/// for it.
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

  /// Whether finalize() also appends a MetricSnapshotRecord (the
  /// replay-deterministic counter totals, sorted by name) right before the
  /// JournalEnd trailer. The totals are read from the services' own counts
  /// (InteractionService::stats(), CoordinationService::stats() and
  /// registry_stats()), so they are true whether or not a telemetry
  /// registry is wired. finalize() is the one deterministic checkpoint of
  /// a run — a wall-clock-driven snapshot would not replay bit-identically.
  /// Off by default: no snapshot record.
  void set_counter_snapshot(bool enabled) { counter_snapshot_ = enabled; }

  /// Writes the end-state section: per-stream transcript digests and final
  /// outcomes (ids deduplicated + sorted for a deterministic layout),
  /// the arbitration log, every grant slot, per-drone plan hints, then the
  /// JournalEnd trailer. Call after the services are drained/stopped.
  void finalize(interaction::InteractionService& dialogue,
                std::vector<std::uint32_t> stream_ids,
                coordination::CoordinationService& coordinator);

 private:
  EventJournal* journal_;
  bool counter_snapshot_{false};
};

}  // namespace hdc::protocol
