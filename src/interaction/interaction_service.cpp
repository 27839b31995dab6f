#include "interaction/interaction_service.hpp"

#include <stdexcept>
#include <utility>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"

namespace hdc::interaction {

InteractionService::InteractionService(InteractionServiceConfig config,
                                       CommandGrammar grammar)
    : config_(config),
      grammar_(std::move(grammar)),
      ring_(config.queue_capacity) {
  // Surface a misconfigured fusion policy here, at build time, instead of
  // on the worker thread when the first stream's session is created.
  (void)SignEventFuser(config_.fusion, 0);
  if (config_.metrics != nullptr) {
    telemetry::MetricsRegistry& metrics = *config_.metrics;
    fuse_ns_ = metrics.histogram(telemetry::kInteractionFuse);
    transition_ns_ = metrics.histogram(telemetry::kInteractionTransition);
    observations_counter_ = metrics.counter(telemetry::kInteractionObservations);
    events_counter_ = metrics.counter(telemetry::kInteractionEvents);
    actions_counter_ = metrics.counter(telemetry::kInteractionActions);
    outcomes_counter_ = metrics.counter(telemetry::kInteractionOutcomes);
    queue_depth_ = metrics.gauge(telemetry::kInteractionQueueDepth);
  }
  recorder_ = config_.recorder;
  worker_ = std::thread([this] { worker_loop(); });
}

InteractionService::~InteractionService() { stop(); }

void InteractionService::set_ack_observer(AckObserver observer) {
  ack_observer_ = std::move(observer);
}

void InteractionService::set_dialogue_listener(DialogueListener listener) {
  listener_ = std::move(listener);
}

bool InteractionService::congested() const {
  const recognition::PerceptionService* perception =
      watched_.load(std::memory_order_acquire);
  if (perception == nullptr) return false;
  for (std::size_t s = 0; s < perception->shard_count(); ++s) {
    if (perception->shard_gauge(s).depth >= config_.congestion_depth) {
      return true;
    }
  }
  return false;
}

void InteractionService::on_result(const recognition::StreamResult& result) {
  Observation observation;
  observation.stream_id = result.stream_id;
  observation.sequence = result.sequence;
  observation.confidence = config_.fusion.confidence_of(result.result);
  observation.sign = observation.confidence > 0.0 ? result.result.sign
                                                  : signs::HumanSign::kNeutral;
  admit(observation, /*blocking=*/true);
}

void InteractionService::abort_stream(std::uint32_t stream_id) {
  admit({ObservationKind::kAbort, stream_id}, /*blocking=*/true);
}

void InteractionService::inject_observation(std::uint32_t stream_id,
                                            std::uint64_t sequence,
                                            signs::HumanSign sign,
                                            double confidence) {
  admit({ObservationKind::kFrame, stream_id, sequence, sign, confidence},
        /*blocking=*/true);
}

bool InteractionService::try_abort_stream(std::uint32_t stream_id) {
  return admit({ObservationKind::kAbort, stream_id}, /*blocking=*/false);
}

bool InteractionService::admit(Observation observation, bool blocking) {
  // make_trace_id keeps 16 bits of the stream id and 48 of the sequence:
  // larger values would alias another observation's trace.
  if (observation.stream_id > telemetry::kMaxTraceStreamId) {
    throw std::invalid_argument(
        "InteractionService: stream_id above 65534 would alias trace ids");
  }
  if (observation.sequence > telemetry::kMaxTraceSequence) {
    throw std::invalid_argument(
        "InteractionService: sequence above 2^48 - 1 would alias trace ids");
  }
  if (stopping_.load(std::memory_order_acquire)) return false;
  // push() consumes the observation, so its identity must be saved first
  // for the terminal trace event on the refusal path.
  const telemetry::TraceContext admitted_context =
      telemetry::TraceContext::of(observation.stream_id, observation.sequence);
  // Raise pending BEFORE the push — the worker can process the observation
  // before push() returns (PendingCounter's contract).
  pending_.raise();
  // push() refuses only once the ring is closed, try_push() also when it
  // is full.
  const util::PushOutcome outcome = blocking ? ring_.push(std::move(observation))
                                             : ring_.try_push(std::move(observation));
  if (outcome == util::PushOutcome::kEnqueued) {
    queue_depth_.add(1);
    return true;
  }
  if (outcome == util::PushOutcome::kClosed && recorder_ != nullptr) {
    recorder_->emit_instant(admitted_context, telemetry::TraceStage::kAdmit,
                            telemetry::TraceOutcome::kClosed);
  }
  finish_observations(1);
  return false;
}

void InteractionService::worker_loop() {
  Observation observation;
  while (ring_.pop(observation)) {
    queue_depth_.add(-1);
    try {
      process(observation);
    } catch (...) {
      pending_.record_error(std::current_exception());
    }
    finish_observations(1);
  }
}

void InteractionService::process(const Observation& observation) {
  Session& session = session_for(observation.stream_id);
  std::lock_guard<std::mutex> lock(session.mutex);
  actions_scratch_.clear();
  observations_counter_.add(1);

  if (listener_.on_observation) {
    ObservationSample sample;
    sample.stream_id = observation.stream_id;
    sample.abort = observation.kind == ObservationKind::kAbort;
    // Aborts carry no frame; stamp the stream's last processed sequence so
    // the journal entry still orders against the frame stream.
    sample.sequence = sample.abort ? session.last_sequence : observation.sequence;
    sample.sign = observation.sign;
    sample.confidence = observation.confidence;
    listener_.on_observation(sample);
  }

  if (observation.kind == ObservationKind::kAbort) {
    {
      // Aborts carry no frame: their trace anchors to the last processed
      // sequence, the same identity the journal sample records.
      telemetry::TracedSpan span(
          transition_ns_, recorder_,
          telemetry::TraceContext::of(observation.stream_id,
                                      session.last_sequence),
          telemetry::TraceStage::kTransition);
      session.fsm.abort(session.last_sequence, actions_scratch_);
    }
    apply_actions(session, actions_scratch_);
    notify_listener(session, events_scratch_, 0, actions_scratch_);
    return;
  }

  ++session.frames;
  session.last_sequence = observation.sequence;
  const telemetry::TraceContext trace_context =
      telemetry::TraceContext::of(observation.stream_id, observation.sequence);
  std::size_t emitted = 0;
  {
    telemetry::TracedSpan span(fuse_ns_, recorder_, trace_context,
                               telemetry::TraceStage::kFuse);
    emitted = session.fuser.observe(observation.sequence, observation.sign,
                                    observation.confidence, events_scratch_);
  }
  events_counter_.add(emitted);
  {
    telemetry::TracedSpan span(transition_ns_, recorder_, trace_context,
                               telemetry::TraceStage::kTransition);
    for (std::size_t i = 0; i < emitted; ++i) {
      session.fsm.on_event(events_scratch_[i], actions_scratch_);
    }
    session.fsm.on_tick(observation.sequence, actions_scratch_);
  }
  apply_actions(session, actions_scratch_);
  notify_listener(session, events_scratch_, emitted, actions_scratch_);
}

void InteractionService::notify_listener(
    Session& session, const SignEventFuser::Events& events,
    std::size_t event_count, const DialogueStateMachine::Actions& actions) {
  if (listener_.on_event) {
    for (std::size_t i = 0; i < event_count; ++i) listener_.on_event(events[i]);
  }
  if (listener_.on_transition) {
    for (const AckAction& action : actions) listener_.on_transition(action);
  }
  // Outcome decisions are detected (and counted) regardless of whether a
  // listener is attached, so interaction_outcomes_total does not depend on
  // the listener configuration.
  const protocol::OutcomeRecord record = session.fsm.outcome_record();
  if (record.outcome != protocol::Outcome::kPending &&
      record != session.reported_outcome) {
    session.reported_outcome = record;
    outcomes_counter_.add(1);
    if (recorder_ != nullptr) {
      // The outcome's trace identity derives from the record's own
      // deciding-sequence field — the propagation map's OutcomeRecord row.
      recorder_->emit_instant(
          telemetry::TraceContext::of(record.stream_id, record.final_sequence),
          telemetry::TraceStage::kOutcome, telemetry::TraceOutcome::kOk);
    }
    if (listener_.on_outcome) listener_.on_outcome(record);
  }
}

void InteractionService::apply_actions(
    Session& session, const DialogueStateMachine::Actions& actions) {
  if (!actions.empty()) actions_counter_.add(actions.size());
  for (const AckAction& action : actions) {
    if (action.set_ring) session.led.set_mode(action.ring);
    if (action.fly_pattern) {
      // Anchor at the communication altitude, facing the signaller (+y,
      // the synthetic scene's convention); real deployments would inject
      // the vehicle pose here.
      const drone::PatternParams params;
      session.last_pattern = drone::make_pattern(
          action.pattern, {0.0, 0.0, params.comm_altitude}, {0.0, 1.0}, params);
    }
    ++session.acks;
    if (recorder_ != nullptr) {
      // An ack's trace identity is (stream_id, tick) — the sequence the
      // FSM acted on — per the propagation map's AckAction row.
      recorder_->emit_instant(
          telemetry::TraceContext::of(action.stream_id, action.tick),
          telemetry::TraceStage::kAck, telemetry::TraceOutcome::kOk);
    }
    if (ack_observer_) ack_observer_(action);
  }
}

InteractionService::Session& InteractionService::session_for(
    std::uint32_t stream_id) {
  {
    std::shared_lock<std::shared_mutex> lock(sessions_mutex_);
    const auto it = sessions_.find(stream_id);
    if (it != sessions_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(sessions_mutex_);
  auto it = sessions_.find(stream_id);
  if (it == sessions_.end()) {
    // Construct BEFORE inserting: if Session construction ever throws, the
    // map must not retain a null entry for later lookups to dereference.
    auto session = std::make_unique<Session>(stream_id, config_, &grammar_);
    it = sessions_.emplace(stream_id, std::move(session)).first;
  }
  return *it->second;
}

const InteractionService::Session* InteractionService::find_session(
    std::uint32_t stream_id) const {
  std::shared_lock<std::shared_mutex> lock(sessions_mutex_);
  const auto it = sessions_.find(stream_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void InteractionService::finish_observations(std::size_t count) {
  pending_.finish(count);
}

void InteractionService::drain() { pending_.drain(); }

void InteractionService::stop() noexcept {
  std::lock_guard<std::mutex> guard(stop_mutex_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  ring_.close();
  if (worker_.joinable()) worker_.join();
  stopped_ = true;
}

InteractionStreamStats InteractionService::stream_stats(
    std::uint32_t stream_id) const {
  InteractionStreamStats stats;
  const Session* session = find_session(stream_id);
  if (session == nullptr) return stats;
  std::lock_guard<std::mutex> lock(session->mutex);
  stats.frames = session->frames;
  stats.events_begun = session->fuser.events_begun();
  stats.events_ended = session->fuser.events_ended();
  stats.acks = session->acks;
  stats.state = session->fsm.state();
  stats.outcome = session->fsm.outcome();
  stats.dialogue = session->fsm.stats();
  return stats;
}

DialogueState InteractionService::dialogue_state(std::uint32_t stream_id) const {
  const Session* session = find_session(stream_id);
  if (session == nullptr) return DialogueState::kIdle;
  std::lock_guard<std::mutex> lock(session->mutex);
  return session->fsm.state();
}

protocol::Outcome InteractionService::outcome(std::uint32_t stream_id) const {
  const Session* session = find_session(stream_id);
  if (session == nullptr) return protocol::Outcome::kPending;
  std::lock_guard<std::mutex> lock(session->mutex);
  return session->fsm.outcome();
}

protocol::OutcomeRecord InteractionService::outcome_record(
    std::uint32_t stream_id) const {
  const Session* session = find_session(stream_id);
  if (session == nullptr) return {protocol::Outcome::kPending, stream_id, 0};
  std::lock_guard<std::mutex> lock(session->mutex);
  return session->fsm.outcome_record();
}

drone::LedRing InteractionService::led_ring(std::uint32_t stream_id) const {
  const Session* session = find_session(stream_id);
  if (session == nullptr) return drone::LedRing{};  // kDanger fail-safe
  std::lock_guard<std::mutex> lock(session->mutex);
  return session->led;
}

drone::RingMode InteractionService::ring_mode(std::uint32_t stream_id) const {
  return led_ring(stream_id).mode();
}

drone::FlightPattern InteractionService::last_pattern(
    std::uint32_t stream_id) const {
  const Session* session = find_session(stream_id);
  if (session == nullptr) return {};
  std::lock_guard<std::mutex> lock(session->mutex);
  return session->last_pattern;
}

protocol::Transcript InteractionService::transcript(
    std::uint32_t stream_id) const {
  const Session* session = find_session(stream_id);
  if (session == nullptr) return {};
  std::lock_guard<std::mutex> lock(session->mutex);
  return session->fsm.transcript();
}

}  // namespace hdc::interaction
