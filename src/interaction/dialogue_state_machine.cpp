#include "interaction/dialogue_state_machine.hpp"

#include <stdexcept>

namespace hdc::interaction {

DialogueStateMachine::DialogueStateMachine(std::uint32_t stream_id,
                                           const CommandGrammar* grammar,
                                           DialogueConfig config)
    : stream_id_(stream_id), grammar_(grammar), config_(config) {
  if (grammar_ == nullptr) {
    throw std::invalid_argument("DialogueStateMachine: null grammar");
  }
  sequence_buffer_.reserve(grammar_->max_sequence_length());
}

AckAction& DialogueStateMachine::transition(DialogueState next,
                                            std::uint64_t sequence,
                                            const char* event, Actions& out) {
  AckAction action;
  action.stream_id = stream_id_;
  action.from = state_;
  action.to = next;
  action.tick = sequence;
  action.event = event;
  out.push_back(action);
  log(sequence, "drone", event);
  state_ = next;
  state_entered_ = sequence;
  return out.back();
}

void DialogueStateMachine::accept_command(const CommandRule& rule,
                                          std::uint64_t sequence, Actions& out) {
  last_command_ = rule.command;
  sequence_buffer_.clear();
  pending_rule_ = nullptr;
  ++stats_.commands_parsed;
  // Echo the interpretation: nod, and preview the execution ring mode so
  // the human sees the intent before anything moves.
  AckAction& ack = transition(DialogueState::kConfirming, sequence,
                              "ack:confirm-request", out);
  ack.set_ring = true;
  ack.ring = last_command_.execute_ring;
  ack.fly_pattern = true;
  ack.pattern = drone::PatternType::kNodYes;
  ack.command = last_command_.kind;
  log(sequence, "drone", "parsed:", to_string(last_command_.kind));
}

void DialogueStateMachine::consume_sign(signs::HumanSign sign,
                                        std::uint64_t sequence, Actions& out) {
  sequence_buffer_.push_back(sign);
  last_sign_seq_ = sequence;
  const MatchResult match = grammar_->classify(sequence_buffer_);
  switch (match.state) {
    case MatchState::kDeadEnd: {
      ++stats_.dead_ends;
      sequence_buffer_.clear();
      pending_rule_ = nullptr;
      // Shake "no" — the sequence means nothing — and listen again.
      AckAction& ack =
          transition(DialogueState::kAttending, sequence, "grammar:dead-end", out);
      ack.fly_pattern = true;
      ack.pattern = drone::PatternType::kTurnNo;
      break;
    }
    case MatchState::kPrefix:
      pending_rule_ = nullptr;
      transition(DialogueState::kCommandPending, sequence, "grammar:prefix", out);
      break;
    case MatchState::kCompleteExtendable:
      pending_rule_ = match.rule;
      transition(DialogueState::kCommandPending, sequence, "grammar:extendable",
                 out);
      break;
    case MatchState::kComplete:
      accept_command(*match.rule, sequence, out);
      break;
  }
}

void DialogueStateMachine::on_event(const SignEvent& event, Actions& out) {
  ++stats_.events_consumed;
  const bool begin = event.kind == SignEventKind::kBegin;
  log(begin ? event.onset_seq : event.end_seq, "human",
      begin ? "sign-begin:" : "sign-end:", signs::to_string(event.label));
  if (!begin) return;  // boundaries only log

  const signs::HumanSign label = event.label;
  const std::uint64_t seq = event.onset_seq;
  switch (state_) {
    case DialogueState::kIdle:
      if (label == signs::HumanSign::kAttentionGained) {
        set_outcome(protocol::Outcome::kPending, seq);
        AckAction& ack =
            transition(DialogueState::kAttending, seq, "ack:attention", out);
        ack.set_ring = true;
        ack.ring = drone::RingMode::kAllGreen;
        ack.fly_pattern = true;
        ack.pattern = drone::PatternType::kNodYes;
      }
      break;

    case DialogueState::kAttending:
    case DialogueState::kCommandPending:
      if (label == signs::HumanSign::kAttentionGained) {
        state_entered_ = seq;  // refresh the attention window
        log(seq, "human", "attention:refresh");
        break;
      }
      consume_sign(label, seq, out);
      break;

    case DialogueState::kConfirming:
      if (label == signs::HumanSign::kYes) {
        AckAction& ack =
            transition(DialogueState::kExecuting, seq, "execute:start", out);
        ack.set_ring = true;
        ack.ring = last_command_.execute_ring;
        ack.fly_pattern = true;
        ack.pattern = last_command_.execute_pattern;
        ack.command = last_command_.kind;
      } else if (label == signs::HumanSign::kNo) {
        ++stats_.confirm_rejections;
        set_outcome(protocol::Outcome::kDenied, seq);
        AckAction& ack =
            transition(DialogueState::kAborting, seq, "confirm:denied", out);
        ack.set_ring = true;
        ack.ring = drone::RingMode::kDanger;
        ack.fly_pattern = true;
        ack.pattern = drone::PatternType::kTurnNo;
      }
      break;

    case DialogueState::kExecuting:
      if (label == signs::HumanSign::kNo) {
        // Mid-execution cancel: the human withdrew consent.
        ++stats_.aborts;
        set_outcome(protocol::Outcome::kAborted, seq);
        AckAction& ack =
            transition(DialogueState::kAborting, seq, "execute:cancelled", out);
        ack.set_ring = true;
        ack.ring = drone::RingMode::kDanger;
        ack.fly_pattern = true;
        ack.pattern = drone::PatternType::kTurnNo;
      }
      break;

    case DialogueState::kAborting:
      break;  // signalling; events are logged but not consumed
  }
}

void DialogueStateMachine::on_tick(std::uint64_t sequence, Actions& out) {
  now_ = sequence;
  const std::uint64_t in_state = now_ - state_entered_;
  switch (state_) {
    case DialogueState::kIdle:
      break;

    case DialogueState::kAttending:
      if (in_state >= config_.attending_timeout) {
        ++stats_.timeouts;
        set_outcome(protocol::Outcome::kNoAnswer, sequence);
        sequence_buffer_.clear();
        AckAction& ack =
            transition(DialogueState::kIdle, sequence, "timeout:attending", out);
        ack.set_ring = true;
        ack.ring = drone::RingMode::kNavigation;
      }
      break;

    case DialogueState::kCommandPending:
      if (now_ - last_sign_seq_ >= config_.sequence_gap) {
        if (pending_rule_ != nullptr) {
          // The gap elapsed with a complete-but-extendable match: it wins.
          accept_command(*pending_rule_, sequence, out);
        } else {
          ++stats_.timeouts;
          sequence_buffer_.clear();
          AckAction& ack = transition(DialogueState::kAttending, sequence,
                                      "grammar:timeout", out);
          ack.fly_pattern = true;
          ack.pattern = drone::PatternType::kTurnNo;
        }
      }
      break;

    case DialogueState::kConfirming:
      if (in_state >= config_.confirm_timeout) {
        ++stats_.timeouts;
        set_outcome(protocol::Outcome::kNoAnswer, sequence);
        AckAction& ack =
            transition(DialogueState::kAborting, sequence, "timeout:confirm", out);
        ack.set_ring = true;
        ack.ring = drone::RingMode::kDanger;
        ack.fly_pattern = true;
        ack.pattern = drone::PatternType::kTurnNo;
      }
      break;

    case DialogueState::kExecuting:
      if (in_state >= config_.execute_ticks) {
        ++stats_.commands_executed;
        set_outcome(protocol::Outcome::kGranted, sequence);
        AckAction& ack =
            transition(DialogueState::kIdle, sequence, "execute:done", out);
        ack.set_ring = true;
        ack.ring = drone::RingMode::kNavigation;
        ack.command = last_command_.kind;
      }
      break;

    case DialogueState::kAborting:
      if (in_state >= config_.abort_ticks) {
        AckAction& ack =
            transition(DialogueState::kIdle, sequence, "abort:done", out);
        ack.set_ring = true;
        ack.ring = drone::RingMode::kNavigation;
      }
      break;
  }
}

void DialogueStateMachine::abort(std::uint64_t sequence, Actions& out) {
  if (state_ == DialogueState::kIdle || state_ == DialogueState::kAborting) {
    log(sequence, "drone", "abort:ignored");
    return;
  }
  ++stats_.aborts;
  set_outcome(protocol::Outcome::kAborted, sequence);
  sequence_buffer_.clear();
  pending_rule_ = nullptr;
  AckAction& ack =
      transition(DialogueState::kAborting, sequence, "abort:external", out);
  ack.set_ring = true;
  ack.ring = drone::RingMode::kDanger;
  ack.fly_pattern = true;
  ack.pattern = drone::PatternType::kTurnNo;
}

}  // namespace hdc::interaction
