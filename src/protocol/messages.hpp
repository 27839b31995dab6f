// Protocol vocabulary and transcript types for the human-drone negotiation
// (paper §III, Figure 3): the drone pokes for attention, the human shows
// "attention gained", the drone flies the rectangle pattern to request the
// human's space, the human answers Yes or No.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "drone/flight_pattern.hpp"
#include "signs/sign.hpp"

namespace hdc::protocol {

/// Negotiation outcome.
enum class Outcome : std::uint8_t {
  kPending = 0,
  kGranted,        ///< human answered Yes; space is available
  kDenied,         ///< human answered No; drone must keep clear
  kNoAttention,    ///< poke retries exhausted without attention
  kNoAnswer,       ///< request retries exhausted without a readable answer
  kAborted,        ///< safety or battery abort
};

[[nodiscard]] constexpr const char* to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kPending: return "Pending";
    case Outcome::kGranted: return "Granted";
    case Outcome::kDenied: return "Denied";
    case Outcome::kNoAttention: return "NoAttention";
    case Outcome::kNoAnswer: return "NoAnswer";
    case Outcome::kAborted: return "Aborted";
  }
  return "?";
}

/// An Outcome with the identity downstream consumers need (ABI-additive:
/// the bare enum and every API returning it are unchanged). A fleet-level
/// arbiter cannot do anything with "someone was granted space" — it needs
/// to know WHICH stream/drone's dialogue ended, and WHEN in that stream's
/// frame-sequence domain, to register the grant and order it against other
/// streams' events.
struct OutcomeRecord {
  Outcome outcome{Outcome::kPending};
  std::uint32_t stream_id{0};      ///< originating perception stream / drone
  std::uint64_t final_sequence{0}; ///< frame sequence at which the outcome
                                   ///< was decided (0 while kPending)

  [[nodiscard]] bool operator==(const OutcomeRecord&) const = default;
};

/// Timing / retry policy of the drone-side negotiator. Values derive from
/// the user stories: an orchard worker should never be hurried, but a
/// blocked drone must give up in bounded time and re-plan.
struct NegotiationConfig {
  int poke_retries{3};             ///< pokes before giving up on attention
  double attention_timeout_s{6.0}; ///< wait after each poke
  int request_retries{2};          ///< rectangle patterns before giving up
  double answer_timeout_s{10.0};   ///< wait after each request
  double answer_confirm_s{0.8};    ///< a sign must persist this long to count
  /// Frames are lossy (the recogniser rejects some); a candidate sign
  /// survives detection gaps up to this long before the hold resets.
  double sign_gap_tolerance_s{1.0};
  double decision_hold_s{1.5};     ///< hover pause between protocol steps
};

/// One transcript entry; the sequence of these is the Figure-3 exchange.
struct TranscriptEvent {
  double t{0.0};
  std::string actor;   ///< "drone" or "human"
  std::string event;   ///< e.g. "poke", "sign:Yes", "state:AwaitAnswer"
};

using Transcript = std::vector<TranscriptEvent>;

/// A transcript kept as state, not history: the entry count and a running
/// FNV-1a 64 over each entry as it is logged (the timestamp's IEEE-754 bits,
/// then actor and event, each 0-terminated). `detail` continues the event's
/// text: add(t, a, "parsed:", "Land") folds the bytes of "parsed:Land".
class TranscriptDigest {
 public:
  void add(double t, std::string_view actor, std::string_view event,
           std::string_view detail = {}) noexcept {
    const auto t_bits = std::bit_cast<std::uint64_t>(t);
    for (int shift = 0; shift < 64; shift += 8) {
      mix_byte(static_cast<std::uint8_t>(t_bits >> shift));
    }
    mix(actor);
    mix(event, /*terminate=*/false);
    mix(detail);
    ++entries_;
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  [[nodiscard]] std::uint32_t entries() const noexcept { return entries_; }

 private:
  void mix_byte(std::uint8_t byte) noexcept {
    value_ = (value_ ^ byte) * 1099511628211ULL;  // FNV-1a 64 prime
  }
  /// The terminator keeps "ab"+"c" from colliding with "a"+"bc".
  void mix(std::string_view s, bool terminate = true) noexcept {
    for (char c : s) mix_byte(static_cast<std::uint8_t>(c));
    if (terminate) mix_byte(0);
  }

  std::uint64_t value_{14695981039346656037ULL};  ///< FNV-1a 64 offset basis
  std::uint32_t entries_{0};
};

}  // namespace hdc::protocol
