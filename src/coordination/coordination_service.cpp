#include "coordination/coordination_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"

namespace hdc::coordination {

CoordinationService::CoordinationService(CoordinationConfig config)
    : config_(config),
      // Fleet events are sparse (a handful per dialogue, not per frame),
      // so the ring essentially never fills; if it ever does, the shards
      // running dialogue pause rather than lose an outcome. The reverse
      // edge (request_abort into InteractionService) never blocks, so the
      // pair cannot deadlock.
      ring_(config.queue_capacity),
      registry_(config.cells, config.grant_ttl),
      arbiter_(config.arbitration) {
  if (config_.metrics != nullptr) {
    telemetry::MetricsRegistry& metrics = *config_.metrics;
    arbitrate_ns_ = metrics.histogram(telemetry::kCoordinationArbitrate);
    events_counter_ = metrics.counter(telemetry::kCoordinationEvents);
    arbitrations_counter_ = metrics.counter(telemetry::kCoordinationArbitrations);
    deferrals_counter_ = metrics.counter(telemetry::kCoordinationDeferrals);
    queue_depth_ = metrics.gauge(telemetry::kCoordinationQueueDepth);
    registry_.instrument(metrics);
  }
  recorder_ = config_.recorder;
  worker_ = std::thread([this] { worker_loop(); });
}

CoordinationService::~CoordinationService() { stop(); }

void CoordinationService::set_registry_observer(RegistryObserver observer) {
  registry_observer_ = std::move(observer);
}

void CoordinationService::set_event_tap(EventTap tap) {
  event_tap_ = std::move(tap);
}

void CoordinationService::admit_recorded(const FleetEvent& event) {
  FleetEvent copy = event;
  copy.source = nullptr;  // recorded pointers are meaningless; see header
  admit(std::move(copy));
}

void CoordinationService::bind(interaction::InteractionService& dialogue) {
  interaction::InteractionService* source = &dialogue;
  dialogue.set_dialogue_listener(
      [this, source](const interaction::InteractionService::DialogueStep& step) {
        admit_step(source, step);
      });
}

void CoordinationService::register_drone(const DroneDescriptor& descriptor) {
  FleetEvent event;
  event.kind = EventKind::kRegister;
  event.drone_id = descriptor.drone_id;
  event.descriptor = descriptor;
  admit(std::move(event));
}

void CoordinationService::update_battery(std::uint32_t drone_id, double soc) {
  FleetEvent event;
  event.kind = EventKind::kBattery;
  event.drone_id = drone_id;
  event.battery_soc = soc;
  admit(std::move(event));
}

void CoordinationService::tick(std::uint64_t sequence) {
  FleetEvent event;
  event.kind = EventKind::kTick;
  event.sequence = sequence;
  admit(std::move(event));
}

void CoordinationService::admit_transition(
    interaction::InteractionService* source,
    const interaction::AckAction& action) {
  FleetEvent event;
  event.kind = EventKind::kTransition;
  event.drone_id = action.stream_id;
  event.sequence = action.tick;
  event.source = source;
  event.to = action.to;
  admit(std::move(event));
}

void CoordinationService::admit_outcome(const protocol::OutcomeRecord& record) {
  FleetEvent event;
  event.kind = EventKind::kOutcome;
  event.drone_id = record.stream_id;
  event.sequence = record.final_sequence;
  event.outcome = record.outcome;
  admit(std::move(event));
}

void CoordinationService::admit_sign_event(
    const interaction::SignEvent& sign_event) {
  FleetEvent event;
  event.kind = EventKind::kSignEvent;
  event.drone_id = sign_event.stream_id;
  event.sequence = sign_event.kind == interaction::SignEventKind::kBegin
                       ? sign_event.onset_seq
                       : sign_event.end_seq;
  event.label = sign_event.label;
  event.event_kind = sign_event.kind;
  admit(std::move(event));
}

void CoordinationService::admit_step(
    interaction::InteractionService* source,
    const interaction::InteractionService::DialogueStep& step) {
  for (const interaction::SignEvent& event : step.events) admit_sign_event(event);
  for (const interaction::AckAction& action : step.actions) {
    admit_transition(source, action);
  }
  if (step.outcome) admit_outcome(*step.outcome);
}

void CoordinationService::admit(FleetEvent event) {
  // Every entry point, replay included, funnels through here. make_trace_id
  // keeps 16 bits of the drone id and 48 of the sequence: larger values
  // would alias another event's trace. The wire parser refuses the same
  // records, so a parsed journal always replays.
  if (event.drone_id > telemetry::kMaxTraceStreamId) {
    throw std::invalid_argument(
        "CoordinationService: drone_id above 65534 would alias trace ids");
  }
  if (event.sequence > telemetry::kMaxTraceSequence) {
    throw std::invalid_argument(
        "CoordinationService: sequence above 2^48 - 1 would alias trace ids");
  }
  if (stopping_.load(std::memory_order_acquire)) return;
  pending_.raise();  // raise-before-push (PendingCounter contract)
  // push() refuses only once the ring is closed.
  if (ring_.push(std::move(event)) != util::PushOutcome::kEnqueued) {
    pending_.finish(1);
    return;
  }
  queue_depth_.add(1);
}

void CoordinationService::worker_loop() {
  FleetEvent event;
  while (ring_.pop(event)) {
    queue_depth_.add(-1);
    try {
      process(event);
    } catch (...) {
      pending_.record_error(std::current_exception());
    }
    pending_.finish(1);
  }
}

std::uint64_t CoordinationService::advance_clock(std::uint64_t sequence) {
  std::uint64_t now = fleet_clock_.load(std::memory_order_relaxed);
  while (sequence > now && !fleet_clock_.compare_exchange_weak(
                               now, sequence, std::memory_order_release,
                               std::memory_order_relaxed)) {
  }
  return std::max(now, sequence);
}

void CoordinationService::process(const FleetEvent& event) {
  if (event_tap_) event_tap_(event);
  events_.fetch_add(1, std::memory_order_relaxed);
  events_counter_.add(1);
  // `now` is the monotone fleet clock AFTER observing this event. Handlers
  // must timestamp every registry mutation with `now`, never the event's
  // raw sequence: an out-of-order (stale) sequence would otherwise open a
  // lease in the past — born expired, or expiring earlier than a lease the
  // same cell already had — regressing lease-expiry decisions.
  const std::uint64_t now = advance_clock(event.sequence);

  switch (event.kind) {
    case EventKind::kRegister:
      drones_[event.drone_id] = event.descriptor;
      arbiter_.add_drone(event.descriptor);
      break;
    case EventKind::kBattery:
      arbiter_.set_battery(event.drone_id, event.battery_soc);
      break;
    case EventKind::kTransition:
      handle_transition(event);
      break;
    case EventKind::kOutcome:
      handle_outcome(event, now);
      break;
    case EventKind::kSignEvent:
      handle_sign_event(event, now);
      break;
    case EventKind::kTick:
      break;  // advance_clock + the sweep below are the whole effect
  }

  // Lease sweep: TTLs live in the fleet clock, so any event that advanced
  // it can push leases past their end.
  registry_.expire(now);
}

void CoordinationService::handle_transition(const FleetEvent& event) {
  if (event.source != nullptr) sources_[event.drone_id] = event.source;

  decisions_scratch_.clear();
  {
    // The trace identity rides the FleetEvent's own (drone_id, sequence)
    // — the propagation map's FleetEvent row.
    telemetry::TracedSpan span(
        arbitrate_ns_, recorder_,
        telemetry::TraceContext::of(event.drone_id, event.sequence),
        telemetry::TraceStage::kArbitrate);
    arbiter_.on_phase(event.drone_id, event.to,
                      fleet_clock_.load(std::memory_order_relaxed),
                      decisions_scratch_);
  }
  for (const ArbitrationDecision& decision : decisions_scratch_) {
    if (decision.reason == AbortReason::kLostArbitration) {
      arbitrations_.fetch_add(1, std::memory_order_relaxed);
      arbitrations_counter_.add(1);
    } else {
      deferrals_.fetch_add(1, std::memory_order_relaxed);
      deferrals_counter_.add(1);
    }
    {
      std::lock_guard<std::mutex> lock(log_mutex_);
      arbitration_log_.push_back(decision);
    }
    // No known source (direct-admitted or replayed events): the decision
    // is still logged; there is nobody to deliver the abort to.
    const auto it = sources_.find(decision.loser);
    if (it != sources_.end()) {
      it->second->request_abort(decision.loser);
      aborts_issued_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void CoordinationService::handle_outcome(const FleetEvent& event,
                                         std::uint64_t now) {
  const auto it = drones_.find(event.drone_id);
  if (it == drones_.end()) {
    unknown_drone_events_.fetch_add(1, std::memory_order_relaxed);
    arbiter_.on_dialogue_end(event.drone_id,
                             event.outcome == protocol::Outcome::kGranted,
                             event.sequence);
    return;
  }
  const int cell = it->second.cell;
  switch (event.outcome) {
    case protocol::Outcome::kGranted:
      // Lease born at `now`, not the outcome's own sequence: a stale
      // outcome (decided at sequence S but processed after the clock
      // passed S + ttl) must still open a full-length lease, not one
      // that is already expired — the sweep below would kill it in the
      // same breath.
      report_grant_update(event, cell, registry_.grant(cell, event.drone_id, now));
      break;
    case protocol::Outcome::kDenied:
      report_grant_update(event, cell, registry_.deny(cell, event.drone_id, now));
      break;
    case protocol::Outcome::kPending:
    case protocol::Outcome::kNoAttention:
    case protocol::Outcome::kNoAnswer:
    case protocol::Outcome::kAborted:
      break;  // nothing for the registry
  }
  arbiter_.on_dialogue_end(event.drone_id,
                           event.outcome == protocol::Outcome::kGranted,
                           event.sequence);
}

void CoordinationService::handle_sign_event(const FleetEvent& event,
                                            std::uint64_t now) {
  // Post-grant human authority: a fused No begin revokes the cell's live
  // grant (whoever's camera saw it — the human is the authority, not the
  // stream); a fused Yes begin renews the current holder's lease.
  if (event.event_kind != interaction::SignEventKind::kBegin) return;
  const auto it = drones_.find(event.drone_id);
  if (it == drones_.end()) return;  // not an error: pre-registration chatter
  const int cell = it->second.cell;
  const GrantRecord record = registry_.read(cell);
  // Causality check on the RAW sequence: a sign fused before the grant
  // existed must not act on it. The mutation itself is stamped with `now`
  // (the monotone clock) — a stale Yes renewing with its own old sequence
  // would SHORTEN the lease, and a stale No would open a keep-clear
  // window that is already partly in the past.
  const bool live = record.state == GrantState::kGranted &&
                    event.sequence > record.granted_seq;
  if (!live) return;
  if (event.label == signs::HumanSign::kNo) {
    if (registry_.revoke(cell, now)) report_grant_update(event, cell, true);
  } else if (event.label == signs::HumanSign::kYes) {
    if (registry_.renew(cell, record.holder, now)) {
      report_grant_update(event, cell, true);
    }
  }
}

void CoordinationService::report_grant_update(const FleetEvent& event, int cell,
                                              bool accepted) {
  if (recorder_ != nullptr) {
    recorder_->emit_instant(
        telemetry::TraceContext::of(event.drone_id, event.sequence),
        telemetry::TraceStage::kGrantUpdate,
        accepted ? telemetry::TraceOutcome::kOk : telemetry::TraceOutcome::kConflict);
  }
  if (registry_observer_) registry_observer_({cell, registry_.read(cell), !accepted});
}

orchard::PlanHint CoordinationService::plan_hint(std::uint32_t drone_id) const {
  orchard::PlanHint hint;
  const std::uint64_t now = fleet_clock();
  for (std::size_t cell = 0; cell < registry_.cell_count(); ++cell) {
    const GrantRecord record = registry_.read(static_cast<int>(cell));
    switch (record.state) {
      case GrantState::kGranted:
        if (record.holder == drone_id && now < record.expires_seq) {
          hint.granted_cells.push_back(static_cast<int>(cell));
        }
        break;
      case GrantState::kDenied:
        if (now < record.expires_seq) {
          hint.blocked_cells.push_back(static_cast<int>(cell));
        }
        break;
      case GrantState::kRevoked:
        if (now < record.expires_seq) {
          hint.blocked_cells.push_back(static_cast<int>(cell));
        }
        break;
      case GrantState::kNone:
      case GrantState::kExpired:
        break;
    }
  }
  return hint;
}

CoordinationStats CoordinationService::stats() const noexcept {
  return {events_.load(std::memory_order_relaxed),
          arbitrations_.load(std::memory_order_relaxed),
          deferrals_.load(std::memory_order_relaxed),
          aborts_issued_.load(std::memory_order_relaxed),
          /*aborts_deferred=*/0,
          unknown_drone_events_.load(std::memory_order_relaxed)};
}

std::vector<ArbitrationDecision> CoordinationService::arbitration_log() const {
  std::lock_guard<std::mutex> lock(log_mutex_);
  return arbitration_log_;
}

void CoordinationService::drain() { pending_.drain(); }

void CoordinationService::stop() noexcept {
  std::lock_guard<std::mutex> guard(stop_mutex_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  ring_.close();
  if (worker_.joinable()) worker_.join();
  stopped_ = true;
}

}  // namespace hdc::coordination
