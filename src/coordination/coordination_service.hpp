// CoordinationService — fleet-level arbitration of dialogue outcomes and
// the granted-space hand-off to the orchard mission planner.
//
//   InteractionService 0 ─┐ DialogueListener (one step per processed input)
//   InteractionService 1 ─┤
//          ...            │ bounded MPSC ring ─> coordination worker
//   InteractionService N ─┘                       │
//                                                 ├─ SessionArbiter: who keeps
//                                                 │  a contended human; losers
//                                                 │  get request_abort() +
//                                                 │  retry backoff
//                                                 ├─ GrantRegistry: per-cell
//                                                 │  space-grant leases
//                                                 v
//                      plan_hint(drone) ──> orchard::MissionController
//                      (seqlock reads — never blocks the worker)
//
// This closes the last vertical gap of the stack: perceive -> decide ->
// acknowledge -> COORDINATE -> plan. Design points, mirroring how
// InteractionService layered on PerceptionService:
//   - All fleet logic runs on ONE worker behind a bounded ring, fed by the
//     threads that run dialogue (perception shards, replay) for any number
//     of bound InteractionServices (MPSC). Arbiter and registry writer
//     state need no locks.
//   - Time is the fleet clock: the max frame sequence observed across all
//     streams (streams advance in near-lockstep; grant TTLs and retry
//     backoffs live in this domain, no wall clock anywhere).
//   - Aborts issued to losing drones go through the owning
//     InteractionService's request_abort(), which only counts the abort;
//     the loser's next input applies it. The worker never waits on a
//     dialogue session, so a shard blocked on a full ring here can always
//     be released, and the pair cannot deadlock.
//   - plan_hint()/grant() read the registry's per-cell seqlocks: mission
//     planning threads never block the worker, the worker never waits for
//     them.
//
// Shutdown order: stop the PerceptionService(s) first (no new frames),
// then the InteractionService(s) (they apply pending aborts, then send no
// new listener steps), then this service. A checkpoint that must settle
// aborts drains perception, dialogue and this service in rounds: an abort
// requested in one round is applied by the next round's dialogue drain.
// stop() is idempotent and the destructor calls it; with all three layers
// stopped, destruction order is free.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "coordination/fleet_types.hpp"
#include "coordination/grant_registry.hpp"
#include "coordination/session_arbiter.hpp"
#include "interaction/interaction_service.hpp"
#include "orchard/mission.hpp"
#include "util/pending_counter.hpp"
#include "util/ring_buffer.hpp"

namespace hdc::coordination {

struct CoordinationConfig {
  std::size_t cells{64};            ///< orchard cell count (tree ids 0..cells-1)
  std::uint64_t grant_ttl{600};     ///< lease length, fleet-clock frames
  std::size_t queue_capacity{1024}; ///< fleet-event ring slots
  ArbitrationPolicy arbitration{};
  /// Optional telemetry registry (must outlive the service). When set, the
  /// worker records the arbitrate span, event/arbitration/deferral
  /// counters and the ring-depth gauge, and the GrantRegistry is
  /// instrumented with its grant/renew/expire spans + mutation counters.
  telemetry::MetricsRegistry* metrics{nullptr};
  /// Optional causal tracing (must outlive the service). When set, the
  /// worker emits arbitrate spans and grant-update events carrying the
  /// triggering (drone_id, sequence) trace identity. Null = disarmed.
  telemetry::FlightRecorder* recorder{nullptr};
};

/// Aggregate counters (relaxed atomics: exact after drain()).
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

  /// One fleet event. Small tagged struct instead of a variant: the ring
  /// copies it around and every field is trivially copyable. Public (with
  /// EventKind) because the event journal records these verbatim — a
  /// FleetEvent IS the coordination worker's replayable input unit.
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
  /// conflicting grants) on the coordination worker. Benches timestamp
  /// outcome -> grant-visible with this. Must not re-enter the service.
  using RegistryObserver = std::function<void(const GrantUpdate&)>;

  /// Observes every fleet event at the head of process(), on the
  /// coordination worker — i.e. in the exact order the single worker
  /// consumed them, which is the order a replay must re-feed them in.
  /// The journal recorder hangs off this. Must not re-enter the service.
  using EventTap = std::function<void(const FleetEvent&)>;

  explicit CoordinationService(CoordinationConfig config = {});
  ~CoordinationService();

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
  /// parsed FleetEvent.
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

  /// Blocks until every event admitted before the call is processed
  /// (PendingCounter checkpoint contract, as everywhere in this codebase).
  void drain();

  /// Graceful shutdown: drains the ring, joins the worker. Idempotent.
  void stop() noexcept;

  // --- read side ---------------------------------------------------------

  /// The mission planner's view for one drone: cells it currently holds a
  /// live grant on, and cells every drone must keep clear of (denied or
  /// revoked). Seqlock reads — safe from any thread, never blocks the
  /// worker.
  [[nodiscard]] orchard::PlanHint plan_hint(std::uint32_t drone_id) const;

  /// One cell's grant slot (seqlock read; throws std::out_of_range).
  [[nodiscard]] GrantRecord grant(int cell) const { return registry_.read(cell); }

  [[nodiscard]] std::uint64_t fleet_clock() const noexcept {
    return fleet_clock_.load(std::memory_order_acquire);
  }
  [[nodiscard]] CoordinationStats stats() const noexcept;
  [[nodiscard]] RegistryStats registry_stats() const noexcept {
    return registry_.stats();
  }
  /// Every arbitration decision so far, in decision order (mutex-guarded
  /// copy; the scripted scenarios assert exact expected outcomes on this).
  [[nodiscard]] std::vector<ArbitrationDecision> arbitration_log() const;
  [[nodiscard]] const CoordinationConfig& config() const noexcept {
    return config_;
  }

 private:
  void admit(FleetEvent event);
  void worker_loop();
  void process(const FleetEvent& event);
  void handle_transition(const FleetEvent& event);
  void handle_outcome(const FleetEvent& event, std::uint64_t now);
  void handle_sign_event(const FleetEvent& event, std::uint64_t now);
  /// One registry mutation made visible: a kGrantUpdate instant on the
  /// triggering event's trace (kConflict when refused), then the observer.
  void report_grant_update(const FleetEvent& event, int cell, bool accepted);
  [[nodiscard]] std::uint64_t advance_clock(std::uint64_t sequence);

  CoordinationConfig config_;
  util::BoundedRing<FleetEvent> ring_;
  GrantRegistry registry_;

  // --- worker-owned state (no locks needed) ---
  SessionArbiter arbiter_;
  std::unordered_map<std::uint32_t, DroneDescriptor> drones_;
  /// Which InteractionService produced each drone's transitions (abort
  /// routing); learned from the transition stream.
  std::unordered_map<std::uint32_t, interaction::InteractionService*> sources_;
  SessionArbiter::Decisions decisions_scratch_;

  RegistryObserver registry_observer_;
  EventTap event_tap_;

  mutable std::mutex log_mutex_;
  std::vector<ArbitrationDecision> arbitration_log_;

  // Telemetry handles (disarmed when config_.metrics is null). All except
  // queue_depth_ are driven only by the single coordination worker, so
  // their totals are replay-deterministic (telemetry/stage_names.hpp).
  telemetry::Histogram arbitrate_ns_;
  telemetry::Counter events_counter_;
  telemetry::Counter arbitrations_counter_;
  telemetry::Counter deferrals_counter_;
  telemetry::Gauge queue_depth_;
  telemetry::FlightRecorder* recorder_{nullptr};

  std::atomic<std::uint64_t> fleet_clock_{0};
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> arbitrations_{0};
  std::atomic<std::uint64_t> deferrals_{0};
  std::atomic<std::uint64_t> aborts_issued_{0};
  std::atomic<std::uint64_t> unknown_drone_events_{0};

  util::PendingCounter pending_;

  std::atomic<bool> stopping_{false};
  bool stopped_{false};  ///< guarded by stop_mutex_
  std::mutex stop_mutex_;
  std::thread worker_;
};

}  // namespace hdc::coordination
