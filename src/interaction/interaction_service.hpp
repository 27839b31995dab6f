// InteractionService — the dialogue layer over PerceptionService, closing
// the perceive -> decide -> acknowledge loop for every stream at once.
//
//   cameras ─> PerceptionService ─┐  (shard workers: recognition only)
//                                 │ StreamResult callback
//                                 v
//              bounded MPSC ring (util::BoundedRing) ─> dialogue worker
//                                                        │ per stream:
//                                                        │  SignEventFuser
//                                                        │  DialogueStateMachine
//                                                        v
//                              AckActions applied to drone::LedRing +
//                              drone::FlightPattern, protocol::Transcript
//
// Design points:
//   - Event processing runs OFF the perception shard workers: the shard
//     callback only derives a compact Observation (label + confidence) and
//     pushes it into a bounded ring, so recognition throughput never waits
//     on dialogue logic. One dedicated worker drains the ring — dialogue
//     state needs no locking on the hot path, and per-stream processing
//     order equals perception delivery order (sequence order per stream).
//   - Per-stream sessions are created on first observation: each owns a
//     fuser, an FSM, a drone::LedRing (the visible acknowledgement state)
//     and the last generated drone::FlightPattern.
//   - Backpressure: the observation ring blocks when full, so dialogue
//     load propagates to the perception shards and nothing is lost. The
//     service can watch a PerceptionService's per-shard queue-depth gauges;
//     congested() exposes that reading to producers that pace submission.
//     Admission never drops an observation, so the service is fully
//     deterministic for a given per-stream frame sequence, regardless of
//     stream/shard/thread counts.
//
// Threading contract: on_result() may be called from any thread (it is the
// perception callback). Accessors snapshot per-session state under a
// session mutex and may run concurrently with processing. The ack observer
// runs on the dialogue worker and must not call back into the service.
// Destruction order: stop (or destroy) the PerceptionService holding this
// service's callback BEFORE destroying the InteractionService.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "drone/flight_pattern.hpp"
#include "drone/led_ring.hpp"
#include "interaction/command_grammar.hpp"
#include "interaction/dialogue_state_machine.hpp"
#include "interaction/sign_event_fuser.hpp"
#include "recognition/perception_service.hpp"
#include "telemetry/stage_names.hpp"
#include "util/pending_counter.hpp"
#include "util/ring_buffer.hpp"

namespace hdc::interaction {

struct InteractionServiceConfig {
  FusionPolicy fusion{};
  DialogueConfig dialogue{};
  /// Observation ring slots. The ring blocks when full, propagating
  /// dialogue backpressure to the perception shards (lossless): a shard
  /// that finds it full sleeps until the worker has drained it to half
  /// (queue_capacity / 2), then refills it.
  std::size_t queue_capacity{256};
  /// A watched perception shard at or above this queue depth counts as
  /// congested (see congested()).
  std::size_t congestion_depth{24};
  /// Optional telemetry registry (must outlive the service). When set, the
  /// worker records fuse/transition spans, dialogue counters and the
  /// observation-ring depth gauge; when null every handle stays disarmed
  /// and recording is a single predictable branch.
  telemetry::MetricsRegistry* metrics{nullptr};
  /// Optional causal tracing (must outlive the service). When set, the
  /// worker emits fuse/transition/ack/outcome TraceEvents, and an
  /// observation refused at admission closes its trace with a terminal
  /// kClosed event.
  /// Null = disarmed, same cost contract as `metrics`.
  telemetry::FlightRecorder* recorder{nullptr};
};

/// Aggregate per-stream snapshot across fuser, FSM and ack bookkeeping.
struct InteractionStreamStats {
  std::uint64_t frames{0};        ///< observations processed
  std::uint64_t events_begun{0};  ///< fused sign onsets
  std::uint64_t events_ended{0};  ///< fused sign offsets
  std::uint64_t acks{0};          ///< AckActions applied
  DialogueState state{DialogueState::kIdle};
  protocol::Outcome outcome{protocol::Outcome::kPending};
  DialogueStats dialogue{};
};

class InteractionService {
 public:
  /// Observes every applied AckAction (dialogue worker thread; must not
  /// re-enter the service). Used by benches to timestamp frame->ack.
  using AckObserver = std::function<void(const AckAction&)>;

  /// One observation exactly as the dialogue worker processed it — the
  /// service's replayable input unit. Re-feeding the recorded samples of a
  /// run through inject_observation() / abort_stream() in recorded order
  /// reproduces the run bit-identically (protocol::JournalRecorder and the
  /// replay driver are built on this).
  struct ObservationSample {
    std::uint32_t stream_id{0};
    /// Frame sequence; for an abort sample this is the stream's last
    /// processed sequence (aborts carry no frame of their own).
    std::uint64_t sequence{0};
    signs::HumanSign sign{signs::HumanSign::kNeutral};
    double confidence{0.0};
    bool abort{false};  ///< external abort, not a frame
  };

  /// Fleet-coordination hook: a listener sees, on the dialogue worker,
  /// every processed observation, every fused SignEvent, every FSM
  /// transition (as the AckAction that embodied it), and every decided
  /// dialogue outcome — exactly once each, in per-stream processing
  /// order. This is the seam CoordinationService and the event journal
  /// consume; the separate AckObserver slot stays free for benches.
  /// Callbacks must not re-enter this service (abort_stream() is re-entry;
  /// use try_abort_stream() from a listener-fed worker instead).
  struct DialogueListener {
    /// Fired for every observation BEFORE it is processed (the input-side
    /// tap journal recording needs; outputs follow on the same callstack).
    std::function<void(const ObservationSample&)> on_observation;
    std::function<void(const SignEvent&)> on_event;
    std::function<void(const AckAction&)> on_transition;
    /// Fired when a dialogue DECIDES its outcome (kGranted at execution
    /// end, kDenied at the confirm-No, kAborted / kNoAnswer when they
    /// strike) — not when the session later returns to Idle.
    std::function<void(const protocol::OutcomeRecord&)> on_outcome;
  };

  explicit InteractionService(InteractionServiceConfig config = {},
                              CommandGrammar grammar = CommandGrammar::standard());
  ~InteractionService();

  InteractionService(const InteractionService&) = delete;
  InteractionService& operator=(const InteractionService&) = delete;

  /// The glue to PerceptionService: pass as its result callback.
  [[nodiscard]] recognition::PerceptionService::ResultCallback callback() {
    return [this](const recognition::StreamResult& r) { on_result(r); };
  }

  /// Ingests one perception result (thread-safe; this IS the callback).
  void on_result(const recognition::StreamResult& result);

  /// Watches a perception service's shard gauges for congestion decisions.
  /// The pointee must outlive this service (or call watch(nullptr) first).
  void watch(const recognition::PerceptionService* perception) {
    watched_.store(perception, std::memory_order_release);
  }

  /// True while any watched perception shard queue is at or above
  /// congestion_depth. Producers may consult this to pace submission.
  /// Always false when nothing is watched.
  [[nodiscard]] bool congested() const;

  void set_ack_observer(AckObserver observer);  ///< set before streaming
  void set_dialogue_listener(DialogueListener listener);  ///< set before streaming

  /// External safety abort for one stream's dialogue (processed in order
  /// with the observation stream). Throws std::invalid_argument for a
  /// stream_id above telemetry::kMaxTraceStreamId, which would alias trace
  /// ids; every admission path applies the same check.
  void abort_stream(std::uint32_t stream_id);

  /// Admits one observation directly, bypassing perception — the replay
  /// path (and tests): re-feeding a journal's ObservationSamples through
  /// here in recorded order reproduces the recorded run. Thread-safe, but
  /// replay feeds from ONE thread so ring order equals recorded order.
  /// Throws std::invalid_argument for a stream_id above
  /// telemetry::kMaxTraceStreamId or a sequence above
  /// telemetry::kMaxTraceSequence: either would alias trace ids.
  void inject_observation(std::uint32_t stream_id, std::uint64_t sequence,
                          signs::HumanSign sign, double confidence);

  /// Non-blocking abort_stream(): returns false (and admits nothing) when
  /// the observation ring is full, instead of waiting. Rejects the same
  /// stream ids as abort_stream(). The coordination worker uses this — it
  /// consumes this service's listener events, so blocking here could cycle
  /// with the dialogue worker blocking on the coordination ring.
  [[nodiscard]] bool try_abort_stream(std::uint32_t stream_id);

  /// Blocks until every observation admitted before the call is processed.
  /// Same checkpoint contract as PerceptionService::drain().
  void drain();

  /// Graceful shutdown: drains the ring, joins the worker. Idempotent.
  void stop() noexcept;

  // --- per-stream observability (all snapshot under the session lock) ---
  [[nodiscard]] InteractionStreamStats stream_stats(std::uint32_t stream_id) const;
  [[nodiscard]] DialogueState dialogue_state(std::uint32_t stream_id) const;
  [[nodiscard]] protocol::Outcome outcome(std::uint32_t stream_id) const;
  /// Outcome plus stream identity + deciding sequence (kPending record for
  /// a stream never seen).
  [[nodiscard]] protocol::OutcomeRecord outcome_record(std::uint32_t stream_id) const;
  /// The stream's acknowledgement LED ring (copy; kDanger fail-safe default
  /// for a stream never seen — same boot state as the hardware).
  [[nodiscard]] drone::LedRing led_ring(std::uint32_t stream_id) const;
  [[nodiscard]] drone::RingMode ring_mode(std::uint32_t stream_id) const;
  /// The last communicative pattern generated for the stream (empty
  /// waypoints if none yet).
  [[nodiscard]] drone::FlightPattern last_pattern(std::uint32_t stream_id) const;
  [[nodiscard]] protocol::Transcript transcript(std::uint32_t stream_id) const;

  [[nodiscard]] const InteractionServiceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const CommandGrammar& grammar() const noexcept { return grammar_; }

 private:
  enum class ObservationKind : std::uint8_t { kFrame = 0, kAbort };

  /// Compact admission record — the frame itself stays with perception.
  struct Observation {
    ObservationKind kind{ObservationKind::kFrame};
    std::uint32_t stream_id{0};
    std::uint64_t sequence{0};
    signs::HumanSign sign{signs::HumanSign::kNeutral};
    double confidence{0.0};
  };

  /// One stream's dialogue session. `mutex` guards everything below it:
  /// the worker holds it while processing, accessors while snapshotting.
  struct Session {
    explicit Session(std::uint32_t stream_id, const InteractionServiceConfig& c,
                     const CommandGrammar* grammar)
        : fuser(c.fusion, stream_id), fsm(stream_id, grammar, c.dialogue) {}
    mutable std::mutex mutex;
    SignEventFuser fuser;
    DialogueStateMachine fsm;
    drone::LedRing led;  ///< boots kDanger (fail-safe), like the hardware
    drone::FlightPattern last_pattern;
    std::uint64_t frames{0};
    std::uint64_t acks{0};
    std::uint64_t last_sequence{0};
    /// Last OutcomeRecord reported to the dialogue listener, so each
    /// decided outcome fires exactly once (worker-only).
    protocol::OutcomeRecord reported_outcome{};
  };

  void worker_loop();
  void process(const Observation& observation);
  void notify_listener(Session& session, const SignEventFuser::Events& events,
                       std::size_t event_count,
                       const DialogueStateMachine::Actions& actions);
  void apply_actions(Session& session, const DialogueStateMachine::Actions& actions);
  Session& session_for(std::uint32_t stream_id);
  [[nodiscard]] const Session* find_session(std::uint32_t stream_id) const;
  /// The one admission funnel: rejects trace-aliasing ids, then pushes
  /// (waiting for space when `blocking`, refusing a full ring otherwise).
  /// Returns whether the observation was admitted.
  bool admit(Observation observation, bool blocking);
  void finish_observations(std::size_t count);

  InteractionServiceConfig config_;
  CommandGrammar grammar_;
  util::BoundedRing<Observation> ring_;
  std::atomic<const recognition::PerceptionService*> watched_{nullptr};
  AckObserver ack_observer_;
  DialogueListener listener_;

  mutable std::shared_mutex sessions_mutex_;
  std::unordered_map<std::uint32_t, std::unique_ptr<Session>> sessions_;

  DialogueStateMachine::Actions actions_scratch_;  ///< worker-only, reused
  SignEventFuser::Events events_scratch_{};        ///< worker-only, reused

  /// Admitted observations not yet processed, plus the first worker error
  /// for drain() (shared machinery with PerceptionService).
  util::PendingCounter pending_;

  // Telemetry handles (disarmed when config_.metrics is null). The counters
  // below are incremented only on the dialogue worker while processing an
  // admitted observation, so their totals are part of the
  // replay-deterministic set (see telemetry/stage_names.hpp).
  telemetry::Histogram fuse_ns_;
  telemetry::Histogram transition_ns_;
  telemetry::Counter observations_counter_;
  telemetry::Counter events_counter_;
  telemetry::Counter actions_counter_;
  telemetry::Counter outcomes_counter_;
  telemetry::Gauge queue_depth_;
  telemetry::FlightRecorder* recorder_{nullptr};

  std::atomic<bool> stopping_{false};
  bool stopped_{false};  ///< guarded by stop_mutex_
  std::mutex stop_mutex_;
  std::thread worker_;
};

}  // namespace hdc::interaction
