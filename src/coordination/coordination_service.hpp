// CoordinationService — fleet-level arbitration of dialogue outcomes and
// the granted-space hand-off to the orchard mission planner.
//
//   InteractionService 0 ─┐ DialogueListener (one step per processed input)
//   InteractionService 1 ─┤
//          ...            │ admit() on the caller's thread, under ONE mutex
//   InteractionService N ─┘                       │
//                                                 ├─ SessionArbiter: who keeps
//                                                 │  a contended human; losers
//                                                 │  get request_abort() +
//                                                 │  retry backoff
//                                                 ├─ GrantRegistry: per-cell
//                                                 │  space-grant leases
//                                                 v
//                      plan_hint(drone) ──> orchard::MissionController
//                      (under the same mutex: one moment between events)
//
// This closes the last vertical gap of the stack: perceive -> decide ->
// acknowledge -> COORDINATE -> plan. Design points, mirroring how
// InteractionService layered on PerceptionService:
//   - Fleet events run on the thread that admits them, with no queue or
//     thread of their own: a perception shard inside the dialogue
//     listener, the replay thread, or a mission/test thread calling
//     register_drone / update_battery / tick. One mutex serializes them, so
//     arbiter and registry see one event at a time, and the order events
//     take that mutex is the order they are processed in.
//   - Time is the fleet clock: the max frame sequence observed across all
//     streams (streams advance in near-lockstep; grant TTLs and retry
//     backoffs live in this domain, no wall clock anywhere).
//   - Lock order: a dialogue session mutex, then this service's mutex, then
//     the journal lock. Aborts issued to losing drones go through the
//     owning InteractionService's request_abort(), which only counts the
//     abort and takes no session lock; the loser's next input applies it.
//     So a shard holding its own session and this mutex never waits on
//     another session, and two shards cannot deadlock.
//   - Every reader (plan_hint, grant, fleet_clock, stats, registry_stats,
//     arbitration_log, and the counter collector a metrics snapshot runs)
//     takes the same mutex, so fleet clock, registry and counts are plain
//     state and each read sees whole events only. No shard reads while it
//     admits: readers are mission planners, tests and snapshots.
//
// Shutdown order: stop the PerceptionService(s) first (no new frames),
// then the InteractionService(s) (they apply pending aborts, then send no
// new listener steps), then this service. A checkpoint that must settle
// aborts drains perception and dialogue in rounds: an abort requested in
// one round is applied by the next round's dialogue drain. stop() is
// idempotent; with all three layers stopped, destruction order is free.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "coordination/fleet_types.hpp"
#include "coordination/grant_registry.hpp"
#include "coordination/session_arbiter.hpp"
#include "interaction/interaction_service.hpp"
#include "orchard/mission.hpp"

namespace hdc::coordination {

struct CoordinationConfig {
  std::size_t cells{64};            ///< orchard cell count (tree ids 0..cells-1)
  std::uint64_t grant_ttl{600};     ///< lease length, fleet-clock frames
  ArbitrationPolicy arbitration{};
  /// Optional telemetry registry (must outlive the service). When set, the
  /// service records the arbitrate and grant/renew/expire spans, and
  /// snapshots read CoordinationStats and RegistryStats as counters.
  telemetry::MetricsRegistry* metrics{nullptr};
  /// Optional causal tracing (must outlive the service). When set, the
  /// service emits arbitrate spans and grant-update events carrying the
  /// triggering (drone_id, sequence) trace identity. Null = disarmed.
  telemetry::FlightRecorder* recorder{nullptr};
};

/// Aggregate counters, as of the last processed event.
struct CoordinationStats {
  std::uint64_t events{0};           ///< fleet events processed
  std::uint64_t arbitrations{0};     ///< contention decisions made
  std::uint64_t deferrals{0};        ///< retries refused inside a backoff
  std::uint64_t aborts_issued{0};    ///< aborts requested of losing streams
  /// Always 0: an abort request cannot be refused. Kept only because the
  /// benchmark still reads it.
  std::uint64_t aborts_deferred{0};
  std::uint64_t unknown_drone_events{0};  ///< outcomes/events from unregistered drones
};

/// CoordinationStats' counters (kRegistryCounters has the registry's).
inline constexpr telemetry::CounterField<CoordinationStats> kCoordinationCounters[] = {
    {telemetry::kCoordinationEvents, &CoordinationStats::events},
    {telemetry::kCoordinationArbitrations, &CoordinationStats::arbitrations},
    {telemetry::kCoordinationDeferrals, &CoordinationStats::deferrals},
};

class CoordinationService {
 public:
  enum class EventKind : std::uint8_t {
    kRegister = 0,
    kBattery,
    kTransition,
    kOutcome,
    kSignEvent,
    kTick,
  };

  /// One fleet event. Small tagged struct instead of a variant: every field
  /// is trivially copyable. Public (with EventKind) because the event
  /// journal records these verbatim — a FleetEvent IS the coordination
  /// layer's replayable input unit.
  struct FleetEvent {
    EventKind kind{EventKind::kTransition};
    std::uint32_t drone_id{0};
    std::uint64_t sequence{0};
    interaction::InteractionService* source{nullptr};  ///< kTransition only
    interaction::DialogueState to{interaction::DialogueState::kIdle};
    protocol::Outcome outcome{protocol::Outcome::kPending};
    signs::HumanSign label{signs::HumanSign::kNeutral};
    interaction::SignEventKind event_kind{interaction::SignEventKind::kBegin};
    DroneDescriptor descriptor{};  ///< kRegister only
    double battery_soc{1.0};       ///< kBattery only
  };

  /// Observes every registry mutation (grant/deny/revoke/renew + refused
  /// conflicting grants), on the admitting thread under the service mutex.
  /// Benches timestamp outcome -> grant-visible with this. Must not
  /// re-enter the service.
  using RegistryObserver = std::function<void(const GrantUpdate&)>;

  /// Observes every fleet event at the head of process(), under the
  /// service mutex — i.e. in the exact order the events were processed,
  /// which is the order a replay must re-feed them in. The journal
  /// recorder hangs off this. Must not re-enter the service.
  using EventTap = std::function<void(const FleetEvent&)>;

  explicit CoordinationService(CoordinationConfig config = {});

  CoordinationService(const CoordinationService&) = delete;
  CoordinationService& operator=(const CoordinationService&) = delete;

  /// Installs this service as `dialogue`'s DialogueListener and remembers
  /// the service for abort routing. Call once per InteractionService,
  /// before streaming. The InteractionService must outlive streaming (see
  /// the shutdown order in the header comment).
  void bind(interaction::InteractionService& dialogue);

  /// Registers a drone (ordered with the event stream; a drone may be
  /// registered before or during streaming, and re-registered to move
  /// cell/human). Grants key on descriptor.cell; contention keys on
  /// descriptor.human_id.
  ///
  /// Every admission entry point (register_drone, update_battery, tick,
  /// the admit_* wrappers and admit_recorded) throws std::invalid_argument
  /// for a drone_id above telemetry::kMaxTraceStreamId or a sequence above
  /// telemetry::kMaxTraceSequence: either would alias trace ids. The wire
  /// parser refuses the same values, so admit_recorded accepts every
  /// parsed FleetEvent. Each processes the event before it returns; an
  /// exception thrown while processing (say, by the registry observer)
  /// propagates to the caller, and the service takes the next event.
  void register_drone(const DroneDescriptor& descriptor);

  /// Battery update (arbitration input), ordered with the event stream.
  void update_battery(std::uint32_t drone_id, double soc);

  /// Advances the fleet clock to at least `sequence` (ordered with the
  /// event stream). The clock normally rides the frame sequences carried
  /// by events, but a quiet fleet (granted space, everyone idle) emits no
  /// events — mission drivers pump this so grant TTLs still run out.
  void tick(std::uint64_t sequence);

  // --- direct admission (what bind()'s wrappers call; public so tests
  // and exotic wirings can feed events without an InteractionService) ---
  void admit_transition(interaction::InteractionService* source,
                        const interaction::AckAction& action);
  void admit_outcome(const protocol::OutcomeRecord& record);
  void admit_sign_event(const interaction::SignEvent& event);
  /// One dialogue step as bind()'s listener forwards it: its sign events,
  /// then its transitions (aborts routed back to `source`), then its
  /// decided outcome.
  void admit_step(interaction::InteractionService* source,
                  const interaction::InteractionService::DialogueStep& step);

  void set_registry_observer(RegistryObserver observer);  ///< set before streaming
  void set_event_tap(EventTap tap);  ///< set before streaming

  /// Admits a recorded fleet event verbatim (the replay path). kTransition
  /// events are admitted without a source — arbitration aborts are logged
  /// but not delivered, because during replay abort EFFECTS arrive as the
  /// recorded abort observations of the interaction layer.
  void admit_recorded(const FleetEvent& event);

  /// Every admission is processed before it returns, so there is nothing
  /// to wait for. Kept only because the benchmark still calls it.
  void drain() {}

  /// Shutdown: every event admitted after it is ignored. Idempotent.
  void stop() noexcept;

  // --- read side ---------------------------------------------------------

  // Every reader takes the service mutex, so it never sees half an event.
  // Must not be called from the registry observer or the event tap.

  /// The mission planner's view for one drone: cells it currently holds a
  /// live grant on, and cells every drone must keep clear of (denied or
  /// revoked), all as of one fleet-clock value.
  [[nodiscard]] orchard::PlanHint plan_hint(std::uint32_t drone_id) const;

  /// One cell's grant slot (throws std::out_of_range).
  [[nodiscard]] GrantRecord grant(int cell) const;

  [[nodiscard]] std::uint64_t fleet_clock() const;
  [[nodiscard]] CoordinationStats stats() const;
  [[nodiscard]] RegistryStats registry_stats() const;
  /// Every arbitration decision so far, in decision order (the scripted
  /// scenarios assert exact expected outcomes on this).
  [[nodiscard]] std::vector<ArbitrationDecision> arbitration_log() const;
  [[nodiscard]] const CoordinationConfig& config() const noexcept {
    return config_;
  }

 private:
  /// The one admission funnel: rejects trace-aliasing ids, then processes
  /// `event` under mutex_ unless stop() ran.
  void admit(const FleetEvent& event);
  void process(const FleetEvent& event);
  void handle_transition(const FleetEvent& event);
  void handle_outcome(const FleetEvent& event, std::uint64_t now);
  void handle_sign_event(const FleetEvent& event, std::uint64_t now);
  /// One registry mutation made visible: a kGrantUpdate instant on the
  /// triggering event's trace (kConflict when refused), then the observer.
  void report_grant_update(const FleetEvent& event, int cell, bool accepted);

  CoordinationConfig config_;

  /// Serializes processing and every reader; guards the state below it,
  /// through stats_.
  mutable std::mutex mutex_;
  bool stopped_{false};
  GrantRegistry registry_;
  SessionArbiter arbiter_;
  std::unordered_map<std::uint32_t, DroneDescriptor> drones_;
  /// Which InteractionService produced each drone's transitions (abort
  /// routing); learned from the transition stream.
  std::unordered_map<std::uint32_t, interaction::InteractionService*> sources_;
  SessionArbiter::Decisions decisions_scratch_;

  std::vector<ArbitrationDecision> arbitration_log_;
  /// The max sequence processed so far (see tick()).
  std::uint64_t fleet_clock_{0};
  CoordinationStats stats_;

  RegistryObserver registry_observer_;
  EventTap event_tap_;

  // Telemetry handles (disarmed when config_.metrics is null).
  telemetry::Histogram arbitrate_ns_;
  telemetry::FlightRecorder* recorder_{nullptr};

  telemetry::CollectorHandle counters_;  ///< reads stats_ and registry_; last
};

}  // namespace hdc::coordination
