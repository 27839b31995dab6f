// DialogueStateMachine — one human/stream dialogue session over fused sign
// events, closing the perceive -> decide -> acknowledge loop.
//
// Where protocol::DroneNegotiator plays the *drone-initiated* Figure-3
// exchange (drone pokes, human answers), this FSM is the human-initiated
// dual the paper's collaborative scenarios need at scale: the human raises
// a sign, the drone acknowledges on its LED ring, parses a command sequence
// through a CommandGrammar, *echoes its interpretation back* for
// confirmation, and only then executes — with every wait bounded by a
// timeout and an abort path from any state:
//
//            Begin(Attention)        Begin(Yes/No): prefix
//   Idle ────────────────> Attending ─────────────> CommandPending
//    ^  <── timeout ───────┘   ^  <─ dead-end/timeout ──┘     │ complete
//    │                         └───────────────<─────────┐    v  (or gap
//    │   abort done                 confirm No / timeout │ Confirming
//    ├─────────────< Aborting <──────────────────────────┘    │ Begin(Yes)
//    │                   ^          cancel (Begin(No))        v
//    └────────────< Executing <───────────────────────────────┘
//        pattern done
//
// Time is the per-stream frame sequence number — the FSM is fully
// deterministic and thread-free; it never blocks and never reads a clock.
// Every transition emits an AckAction (the drone's half of the dialogue):
// which LED ring mode to show and/or which communicative flight pattern to
// fly, for InteractionService to apply to the per-stream drone::LedRing /
// drone::FlightPattern. Sessions keep a running protocol::TranscriptDigest,
// not a stored log, and end in a protocol::Outcome, reusing the negotiation
// vocabulary so orchard-level tooling reads both FSMs the same way.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "drone/flight_pattern.hpp"
#include "drone/led_ring.hpp"
#include "interaction/command_grammar.hpp"
#include "interaction/sign_event_fuser.hpp"
#include "protocol/messages.hpp"

namespace hdc::interaction {

enum class DialogueState : std::uint8_t {
  kIdle = 0,        ///< no human engaged
  kAttending,       ///< attention gained; waiting for a command sequence
  kCommandPending,  ///< mid-sequence; waiting for the next sign or the gap
  kConfirming,      ///< command echoed; waiting for Yes / No
  kExecuting,       ///< flying the commanded pattern
  kAborting,        ///< signalling abort before returning to idle
};

[[nodiscard]] constexpr const char* to_string(DialogueState state) noexcept {
  switch (state) {
    case DialogueState::kIdle: return "Idle";
    case DialogueState::kAttending: return "Attending";
    case DialogueState::kCommandPending: return "CommandPending";
    case DialogueState::kConfirming: return "Confirming";
    case DialogueState::kExecuting: return "Executing";
    case DialogueState::kAborting: return "Aborting";
  }
  return "?";
}

/// Timeouts and durations, in frames (the stream's sequence domain). The
/// defaults assume the synthetic feed cadence: a held sign spans ~15
/// frames and fused Begin events of consecutive signs are ~20-25 frames
/// apart.
struct DialogueConfig {
  std::uint64_t attending_timeout{150};  ///< Attending with no sign -> Idle
  std::uint64_t sequence_gap{36};        ///< frames after a sign Begin before
                                         ///< an extendable match resolves
  std::uint64_t confirm_timeout{90};     ///< Confirming unanswered -> Aborting
  std::uint64_t execute_ticks{48};       ///< simulated pattern duration
  std::uint64_t abort_ticks{16};         ///< abort signalling duration
};

/// The drone's acknowledgement for one transition: what to show on the LED
/// ring, which communicative pattern to fly, and bookkeeping for benches
/// (tick = the frame sequence that caused the transition, so frame->ack
/// latency is measurable end to end).
struct AckAction {
  std::uint32_t stream_id{0};
  DialogueState from{DialogueState::kIdle};
  DialogueState to{DialogueState::kIdle};
  bool set_ring{false};
  drone::RingMode ring{drone::RingMode::kNavigation};
  bool fly_pattern{false};
  drone::PatternType pattern{drone::PatternType::kNodYes};
  DroneCommandKind command{DroneCommandKind::kNone};
  std::uint64_t tick{0};
  const char* event{""};  ///< stable literal, folded into the transcript digest
};

struct DialogueStats {
  std::uint64_t events_consumed{0};
  std::uint64_t commands_parsed{0};    ///< reached Confirming
  std::uint64_t commands_executed{0};  ///< Executing ran to completion
  std::uint64_t confirm_rejections{0};  ///< human answered No in Confirming
  std::uint64_t dead_ends{0};          ///< sequences outside the grammar
  std::uint64_t timeouts{0};
  std::uint64_t aborts{0};  ///< external + cancel aborts
};

class DialogueStateMachine {
 public:
  using Actions = std::vector<AckAction>;

  /// `grammar` is shared, immutable, and must outlive the FSM.
  DialogueStateMachine(std::uint32_t stream_id, const CommandGrammar* grammar,
                       DialogueConfig config = {});

  /// Consumes one fused event (call in event order, before the frame's
  /// on_tick). End events only enter the transcript digest; Begin events
  /// drive transitions. Appends any acknowledgements to `out`.
  void on_event(const SignEvent& event, Actions& out);

  /// Advances the frame clock; fires timeouts and completions. Call exactly
  /// once per observed frame, after that frame's events.
  void on_tick(std::uint64_t sequence, Actions& out);

  /// External abort (safety/battery): jumps to kAborting from any state
  /// except kIdle / kAborting (where it is a no-op).
  void abort(std::uint64_t sequence, Actions& out);

  [[nodiscard]] DialogueState state() const noexcept { return state_; }
  [[nodiscard]] const DialogueStats& stats() const noexcept { return stats_; }
  [[nodiscard]] protocol::Outcome outcome() const noexcept { return outcome_; }
  /// The outcome plus its downstream-usable identity: this FSM's stream id
  /// and the frame sequence at which the outcome was decided (0 while the
  /// dialogue is still kPending). Fleet-level consumers key on this.
  [[nodiscard]] protocol::OutcomeRecord outcome_record() const noexcept {
    return {outcome_, stream_id_, outcome_sequence_};
  }
  [[nodiscard]] const protocol::TranscriptDigest& transcript_digest()
      const noexcept {
    return transcript_;
  }
  /// The command most recently parsed to Confirming (kNone before any).
  [[nodiscard]] const DroneCommand& last_command() const noexcept {
    return last_command_;
  }
  [[nodiscard]] const DialogueConfig& config() const noexcept { return config_; }

 private:
  void log(std::uint64_t sequence, std::string_view actor,
           std::string_view event, std::string_view detail = {}) noexcept {
    transcript_.add(static_cast<double>(sequence), actor, event, detail);
  }
  /// Single write point for outcome_ so the deciding sequence can never
  /// drift from the value (outcome_record()'s coherence rests on this).
  void set_outcome(protocol::Outcome outcome, std::uint64_t sequence) noexcept {
    outcome_ = outcome;
    outcome_sequence_ = outcome == protocol::Outcome::kPending ? 0 : sequence;
  }
  /// Appends the transition ack, logs it, and switches state; the returned
  /// reference (valid until `out` grows) lets callers attach ring/pattern.
  AckAction& transition(DialogueState next, std::uint64_t sequence,
                        const char* event, Actions& out);
  void consume_sign(signs::HumanSign sign, std::uint64_t sequence, Actions& out);
  void accept_command(const CommandRule& rule, std::uint64_t sequence,
                      Actions& out);

  std::uint32_t stream_id_{0};
  const CommandGrammar* grammar_{nullptr};
  DialogueConfig config_;

  DialogueState state_{DialogueState::kIdle};
  std::uint64_t now_{0};
  std::uint64_t state_entered_{0};
  std::uint64_t last_sign_seq_{0};
  std::vector<signs::HumanSign> sequence_buffer_;
  const CommandRule* pending_rule_{nullptr};  ///< complete-but-extendable match
  DroneCommand last_command_{};

  DialogueStats stats_;
  protocol::Outcome outcome_{protocol::Outcome::kPending};
  std::uint64_t outcome_sequence_{0};  ///< sequence that decided outcome_
  protocol::TranscriptDigest transcript_;
};

}  // namespace hdc::interaction
