#include "interaction/interaction_service.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"

namespace hdc::interaction {

namespace {

/// make_trace_id keeps 16 bits of the stream id and 48 of the sequence:
/// larger values would alias another input's trace.
void check_trace_identity(std::uint32_t stream_id, std::uint64_t sequence = 0) {
  if (stream_id > telemetry::kMaxTraceStreamId) {
    throw std::invalid_argument(
        "InteractionService: stream_id above 65534 would alias trace ids");
  }
  if (sequence > telemetry::kMaxTraceSequence) {
    throw std::invalid_argument(
        "InteractionService: sequence above 2^48 - 1 would alias trace ids");
  }
}

}  // namespace

InteractionService::InteractionService(InteractionServiceConfig config,
                                       CommandGrammar grammar)
    : config_(config), grammar_(std::move(grammar)) {
  // Surface a misconfigured fusion policy here, at build time, instead of
  // on a shard thread when the first stream's session is created.
  (void)SignEventFuser(config_.fusion, 0);
  if (config_.metrics != nullptr) {
    telemetry::MetricsRegistry& metrics = *config_.metrics;
    fuse_ns_ = metrics.histogram(telemetry::kInteractionFuse);
    transition_ns_ = metrics.histogram(telemetry::kInteractionTransition);
    observations_counter_ = metrics.counter(telemetry::kInteractionObservations);
    events_counter_ = metrics.counter(telemetry::kInteractionEvents);
    actions_counter_ = metrics.counter(telemetry::kInteractionActions);
    outcomes_counter_ = metrics.counter(telemetry::kInteractionOutcomes);
  }
  recorder_ = config_.recorder;
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
  ObservationSample sample;
  sample.stream_id = result.stream_id;
  sample.sequence = result.sequence;
  sample.confidence = config_.fusion.confidence_of(result.result);
  sample.sign = sample.confidence > 0.0 ? result.result.sign
                                        : signs::HumanSign::kNeutral;
  admit(sample);
}

void InteractionService::abort_stream(std::uint32_t stream_id) {
  admit({stream_id, 0, signs::HumanSign::kNeutral, 0.0, /*abort=*/true});
}

void InteractionService::inject_observation(std::uint32_t stream_id,
                                            std::uint64_t sequence,
                                            signs::HumanSign sign,
                                            double confidence) {
  admit({stream_id, sequence, sign, confidence, /*abort=*/false});
}

void InteractionService::request_abort(std::uint32_t stream_id) {
  check_trace_identity(stream_id);
  session_for(stream_id).requested_aborts.fetch_add(1, std::memory_order_release);
}

void InteractionService::admit(const ObservationSample& sample) {
  check_trace_identity(sample.stream_id, sample.sequence);
  if (stopping_.load(std::memory_order_acquire)) {
    if (recorder_ != nullptr) {
      recorder_->emit_instant(
          telemetry::TraceContext::of(sample.stream_id, sample.sequence),
          telemetry::TraceStage::kAdmit, telemetry::TraceOutcome::kClosed);
    }
    return;
  }
  Session& session = session_for(sample.stream_id);
  std::lock_guard<std::mutex> lock(session.mutex);
  apply_requested_aborts(session);
  process(session, sample);
}

void InteractionService::apply_requested_aborts(Session& session) {
  for (std::uint32_t n = session.requested_aborts.exchange(
           0, std::memory_order_acquire);
       n > 0; --n) {
    process(session, {session.stream_id, 0, signs::HumanSign::kNeutral, 0.0,
                      /*abort=*/true});
  }
}

void InteractionService::process(Session& session, ObservationSample sample) {
  session.actions.clear();
  observations_counter_.add(1);
  std::size_t emitted = 0;
  if (sample.abort) {
    // Aborts carry no frame: stamp the stream's last processed sequence, so
    // the journal entry still orders against the frame stream and the trace
    // anchors to the same identity.
    sample.sequence = session.last_sequence;
    telemetry::TracedSpan span(
        transition_ns_, recorder_,
        telemetry::TraceContext::of(sample.stream_id, sample.sequence),
        telemetry::TraceStage::kTransition);
    session.fsm.abort(session.last_sequence, session.actions);
  } else {
    ++session.frames;
    session.last_sequence = sample.sequence;
    const telemetry::TraceContext trace_context =
        telemetry::TraceContext::of(sample.stream_id, sample.sequence);
    {
      telemetry::TracedSpan span(fuse_ns_, recorder_, trace_context,
                                 telemetry::TraceStage::kFuse);
      emitted = session.fuser.observe(sample.sequence, sample.sign,
                                      sample.confidence, session.events);
    }
    events_counter_.add(emitted);
    telemetry::TracedSpan span(transition_ns_, recorder_, trace_context,
                               telemetry::TraceStage::kTransition);
    for (std::size_t i = 0; i < emitted; ++i) {
      session.fsm.on_event(session.events[i], session.actions);
    }
    session.fsm.on_tick(sample.sequence, session.actions);
  }
  apply_actions(session);

  // Outcome decisions are detected (and counted) regardless of whether a
  // listener is attached, so interaction_outcomes_total does not depend on
  // the listener configuration.
  std::optional<protocol::OutcomeRecord> decided;
  const protocol::OutcomeRecord record = session.fsm.outcome_record();
  if (record.outcome != protocol::Outcome::kPending &&
      record != session.reported_outcome) {
    session.reported_outcome = record;
    decided = record;
    outcomes_counter_.add(1);
    if (recorder_ != nullptr) {
      // The outcome's trace identity derives from the record's own
      // deciding-sequence field — the propagation map's OutcomeRecord row.
      recorder_->emit_instant(
          telemetry::TraceContext::of(record.stream_id, record.final_sequence),
          telemetry::TraceStage::kOutcome, telemetry::TraceOutcome::kOk);
    }
  }
  if (listener_) {
    listener_({sample, std::span<const SignEvent>(session.events.data(), emitted),
               session.actions, decided});
  }
}

void InteractionService::apply_actions(Session& session) {
  if (!session.actions.empty()) actions_counter_.add(session.actions.size());
  for (const AckAction& action : session.actions) {
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
    if (ack_observer_) {
      std::lock_guard<std::mutex> lock(ack_mutex_);
      ack_observer_(action);
    }
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

void InteractionService::sweep_requested_aborts() {
  // Collect first, process after: the map lock must not be held while a
  // listener may block on the coordination ring, or request_abort() for a
  // new stream would wait on it from the coordination worker.
  std::vector<Session*> pending;
  {
    std::shared_lock<std::shared_mutex> lock(sessions_mutex_);
    for (const auto& [stream_id, session] : sessions_) {
      if (session->requested_aborts.load(std::memory_order_acquire) > 0) {
        pending.push_back(session.get());
      }
    }
  }
  for (Session* session : pending) {
    std::lock_guard<std::mutex> lock(session->mutex);
    apply_requested_aborts(*session);
  }
}

void InteractionService::drain() { sweep_requested_aborts(); }

void InteractionService::stop() noexcept {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  try {
    sweep_requested_aborts();
  } catch (...) {
    // Shutdown does not report processing errors; drain() before stop()
    // to see them.
  }
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
