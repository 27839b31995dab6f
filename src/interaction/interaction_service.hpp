// InteractionService — the dialogue layer over PerceptionService, closing
// the perceive -> decide -> acknowledge loop for every stream at once.
//
//   cameras ─> PerceptionService shard ── StreamResult callback ──┐
//   replay, tests ── inject_observation() / abort_stream() ───────┤ caller's
//   CoordinationService ── request_abort() (a pending count) ┄┄┄┄┄┤ thread
//                                                                 v
//                               per stream, under its session mutex:
//                                 pending aborts, then the input, through
//                                 SignEventFuser -> DialogueStateMachine
//                                                                 v
//                              AckActions applied to drone::LedRing + the
//                              last pattern type, a TranscriptDigest,
//                              then ONE DialogueListener call per input
//
// Design points:
//   - Dialogue runs on the caller's thread, with no queue or thread of its
//     own: fusing and stepping the FSM cost well under a microsecond per
//     frame, less than handing the frame to another thread would. The
//     caller holds the stream's session mutex while it processes the input
//     and calls the listener. Perception routes a stream to one shard
//     (stream % K), so per-stream processing order is perception delivery
//     order (sequence order per stream).
//   - Per-stream sessions are created on first input: each owns a fuser, an
//     FSM, a drone::LedRing (the visible acknowledgement state) and the
//     last pattern's type: state, not history, so a warm session allocates
//     nothing per input and does not grow with uptime.
//   - Coordinator aborts never take a session lock. request_abort() only
//     raises the session's count of pending aborts; the next caller that
//     takes the stream's mutex (its next frame, abort_stream(),
//     inject_observation(), drain() or stop()) applies each pending abort
//     before its own input. Live, an abort lands at the loser's next frame.
//   - Backpressure: a listener that blocks (on the coordinator's mutex)
//     blocks the calling shard, so dialogue load reaches the perception
//     rings and nothing is lost. The service is deterministic for a given
//     per-stream input sequence, regardless of stream/shard/thread counts.
//     The service can watch a PerceptionService's per-shard queue-depth gauges;
//     congested() exposes that reading to producers that pace submission.
//
// Threading contract: on_result(), inject_observation(), abort_stream(),
// request_abort() and the accessors may be called from any thread. The
// listener and the ack observer run on the caller's thread, under the
// stream's session mutex, and must not call back into the service (except
// request_abort()). The service serializes ack observer calls, so the
// observer may write unsynchronised state. An exception thrown while an
// input is processed (say, by the listener) propagates to the caller: on a
// perception shard, PerceptionService records it and its drain() rethrows
// it. Destruction order: stop (or destroy) the PerceptionService holding
// this service's callback BEFORE destroying the InteractionService.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>

#include "drone/flight_pattern.hpp"
#include "drone/led_ring.hpp"
#include "interaction/command_grammar.hpp"
#include "interaction/dialogue_state_machine.hpp"
#include "interaction/sign_event_fuser.hpp"
#include "recognition/perception_service.hpp"
#include "telemetry/stage_names.hpp"

namespace hdc::interaction {

struct InteractionServiceConfig {
  FusionPolicy fusion{};
  DialogueConfig dialogue{};
  /// A watched perception shard at or above this queue depth counts as
  /// congested (see congested()).
  std::size_t congestion_depth{24};
  /// Optional telemetry registry (must outlive the service). When set, the
  /// service records fuse/transition spans, and snapshots read its
  /// InteractionStats as the interaction_*_total counters; when null every
  /// handle stays disarmed and recording is a single predictable branch.
  telemetry::MetricsRegistry* metrics{nullptr};
  /// Optional causal tracing (must outlive the service). When set, the
  /// service emits fuse/transition/ack/outcome TraceEvents, and an input
  /// refused after stop() closes its trace with a terminal kClosed event.
  /// Null = disarmed, same cost contract as `metrics`.
  telemetry::FlightRecorder* recorder{nullptr};
};

/// Totals over every stream, as of each session's last processed input:
/// the interaction_*_total counters (kInteractionCounters), read by a wired
/// registry's snapshot and by a journal's counter checkpoint.
struct InteractionStats {
  std::uint64_t observations{0};  ///< inputs processed, frames and aborts
  std::uint64_t events{0};        ///< sign events fused
  std::uint64_t actions{0};       ///< AckActions applied
  std::uint64_t outcomes{0};      ///< dialogue outcomes decided
};

/// The interaction_*_total counters, each with the count it reads.
inline constexpr telemetry::CounterField<InteractionStats> kInteractionCounters[] = {
    {telemetry::kInteractionObservations, &InteractionStats::observations},
    {telemetry::kInteractionEvents, &InteractionStats::events},
    {telemetry::kInteractionActions, &InteractionStats::actions},
    {telemetry::kInteractionOutcomes, &InteractionStats::outcomes},
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
  /// Observes every applied AckAction (caller's thread, calls serialized by
  /// the service; must not re-enter the service). Used by benches to
  /// timestamp frame->ack.
  using AckObserver = std::function<void(const AckAction&)>;

  /// One input exactly as the service processed it — the service's
  /// replayable input unit. Re-feeding the recorded samples of a run through
  /// inject_observation() / abort_stream() in recorded order reproduces the
  /// run bit-identically (protocol::JournalRecorder and the replay driver
  /// are built on this).
  struct ObservationSample {
    std::uint32_t stream_id{0};
    /// Frame sequence; for an abort sample this is the stream's last
    /// processed sequence (aborts carry no frame of their own).
    std::uint64_t sequence{0};
    signs::HumanSign sign{signs::HumanSign::kNeutral};
    double confidence{0.0};
    bool abort{false};  ///< external abort, not a frame
  };

  /// Everything one processed input produced: the input itself, the
  /// SignEvents it fused, the FSM transitions it caused (as the AckActions
  /// that embodied them) and the dialogue outcome it decided, if any.
  struct DialogueStep {
    ObservationSample sample;
    std::span<const SignEvent> events;
    std::span<const AckAction> actions;
    /// Set when this input DECIDED the outcome (kGranted at execution end,
    /// kDenied at the confirm-No, kAborted / kNoAnswer when they strike) —
    /// not when the session later returns to Idle. Reported exactly once.
    std::optional<protocol::OutcomeRecord> outcome;
  };

  /// Fleet-coordination hook: called once per processed input, on the
  /// caller's thread under the stream's session mutex, so each stream's
  /// steps arrive in processing order. This is the seam CoordinationService
  /// and the event journal consume; the separate AckObserver slot stays
  /// free for benches. Must not re-enter the service, except
  /// request_abort().
  using DialogueListener = std::function<void(const DialogueStep&)>;

  explicit InteractionService(InteractionServiceConfig config = {},
                              CommandGrammar grammar = CommandGrammar::standard());
  ~InteractionService();

  InteractionService(const InteractionService&) = delete;
  InteractionService& operator=(const InteractionService&) = delete;

  /// The glue to PerceptionService: pass as its result callback.
  [[nodiscard]] recognition::PerceptionService::ResultCallback callback() {
    return [this](const recognition::StreamResult& r) { on_result(r); };
  }

  /// Processes one perception result on the calling thread (thread-safe;
  /// this IS the callback).
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

  /// External safety abort for one stream's dialogue, processed now on the
  /// calling thread, in order with the stream's observations. Throws
  /// std::invalid_argument for a stream_id above telemetry::kMaxTraceStreamId,
  /// which would alias trace ids; every admission path applies the same
  /// check.
  void abort_stream(std::uint32_t stream_id);

  /// Admits one observation directly, bypassing perception — the replay
  /// path (and tests): re-feeding a journal's ObservationSamples through
  /// here in recorded order reproduces the recorded run. Thread-safe; replay
  /// feeds from ONE thread, so processing order equals recorded order.
  /// Throws std::invalid_argument for a stream_id above
  /// telemetry::kMaxTraceStreamId or a sequence above
  /// telemetry::kMaxTraceSequence: either would alias trace ids.
  void inject_observation(std::uint32_t stream_id, std::uint64_t sequence,
                          signs::HumanSign sign, double confidence);

  /// Asks for an abort of one stream's dialogue without taking its session
  /// lock: raises the stream's count of pending aborts, never blocks and
  /// never fails. The next caller that takes the stream's mutex applies it
  /// (see the header comment). CoordinationService calls this from inside
  /// a listener step: the calling shard holds its own session mutex and
  /// the coordinator's, so waiting here for another stream's session could
  /// deadlock two shards. Rejects the same stream ids as abort_stream().
  void request_abort(std::uint32_t stream_id);

  /// Applies every pending requested abort. Inputs are processed on the
  /// caller's thread, so this is all a checkpoint needs.
  void drain();

  /// Graceful shutdown: applies pending aborts, then refuses every later
  /// input (each refused input closes its trace with admit/closed).
  /// Idempotent.
  void stop() noexcept;

  /// Sums every session's counts, each read under its session lock (a
  /// consistent total once inputs have stopped).
  [[nodiscard]] InteractionStats stats() const;

  // --- per-stream observability (all snapshot under the session lock) ---
  [[nodiscard]] InteractionStreamStats stream_stats(std::uint32_t stream_id) const;
  [[nodiscard]] DialogueState dialogue_state(std::uint32_t stream_id) const;
  [[nodiscard]] protocol::Outcome outcome(std::uint32_t stream_id) const;
  /// Outcome plus stream identity + deciding sequence (kPending record for
  /// a stream never seen).
  [[nodiscard]] protocol::OutcomeRecord outcome_record(std::uint32_t stream_id) const;
  /// The stream's acknowledgement LED ring mode (kDanger for a stream never
  /// seen — the fail-safe boot state of the hardware).
  [[nodiscard]] drone::RingMode ring_mode(std::uint32_t stream_id) const;
  /// The last communicative pattern the stream's acks asked for, built on
  /// read from its type (empty waypoints if none yet).
  [[nodiscard]] drone::FlightPattern last_pattern(std::uint32_t stream_id) const;
  [[nodiscard]] protocol::TranscriptDigest transcript_digest(
      std::uint32_t stream_id) const;

  [[nodiscard]] const InteractionServiceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const CommandGrammar& grammar() const noexcept { return grammar_; }

 private:
  /// One stream's dialogue session. `mutex` guards everything below it:
  /// callers hold it while processing, accessors while snapshotting.
  struct Session {
    explicit Session(std::uint32_t id, const InteractionServiceConfig& c,
                     const CommandGrammar* grammar)
        : stream_id(id), fuser(c.fusion, id), fsm(id, grammar, c.dialogue) {}
    const std::uint32_t stream_id;
    /// Aborts requested by request_abort() and not yet applied (atomic,
    /// raised without the mutex).
    std::atomic<std::uint32_t> requested_aborts{0};
    mutable std::mutex mutex;
    SignEventFuser fuser;
    DialogueStateMachine fsm;
    drone::LedRing led;  ///< boots kDanger (fail-safe), like the hardware
    std::optional<drone::PatternType> last_pattern;
    std::uint64_t frames{0};
    InteractionStats counts;
    std::uint64_t last_sequence{0};
    /// Last OutcomeRecord reported to the dialogue listener, so each
    /// decided outcome fires exactly once.
    protocol::OutcomeRecord reported_outcome{};
    DialogueStateMachine::Actions actions;  ///< per-input scratch, reused
    SignEventFuser::Events events{};        ///< per-input scratch, reused
  };

  /// The one admission funnel: rejects trace-aliasing ids, refuses inputs
  /// after stop(), then processes `sample` under its session's mutex.
  void admit(const ObservationSample& sample);
  /// Applies the session's pending requested aborts. Caller holds its mutex.
  void apply_requested_aborts(Session& session);
  /// Processes one input and reports it. Caller holds the session's mutex.
  void process(Session& session, ObservationSample sample);
  void apply_actions(Session& session);
  /// Applies pending requested aborts on every session.
  void sweep_requested_aborts();
  Session& session_for(std::uint32_t stream_id);
  [[nodiscard]] const Session* find_session(std::uint32_t stream_id) const;

  InteractionServiceConfig config_;
  CommandGrammar grammar_;
  std::atomic<const recognition::PerceptionService*> watched_{nullptr};
  AckObserver ack_observer_;
  std::mutex ack_mutex_;  ///< serializes ack_observer_ calls across shards
  DialogueListener listener_;

  mutable std::shared_mutex sessions_mutex_;
  std::unordered_map<std::uint32_t, std::unique_ptr<Session>> sessions_;

  // Telemetry handles (disarmed when config_.metrics is null).
  telemetry::Histogram fuse_ns_;
  telemetry::Histogram transition_ns_;
  telemetry::FlightRecorder* recorder_{nullptr};

  std::atomic<bool> stopping_{false};

  telemetry::CollectorHandle counters_;  ///< reads stats(); last member
};

}  // namespace hdc::interaction
