// SessionArbiter — who gets the human when two drones want the same one.
//
// Every live dialogue in the fleet is tracked per drone; when a drone
// opens (or advances) a dialogue with a human that another drone is
// already engaging, exactly one of them keeps the session. Priority is a
// lexicographic order, most- to least-significant:
//
//   1. EFFECTIVE phase rank: the dialogue phase rank (Executing >
//      Confirming > CommandPending > Attending — never throw away a
//      nearly-finished negotiation for a newcomer) plus fairness aging,
//      min(losses × fairness_boost_per_loss, fairness_boost_cap);
//   2. unresolved losses, more wins — at equal effective rank the drone
//      that has been turned away more often goes first (like the aging
//      itself, this tiebreak is inert when fairness_boost_per_loss = 0);
//   3. battery state of charge — the drone with more energy left is the
//      one that can still complete the granted job;
//   4. stream id, lower wins — a total deterministic order, so
//      identical-priority contenders always resolve the same way.
//
// The loser is told to abort (CoordinationService routes that to the
// owning InteractionService's request_abort()) and is put on a
// deferred-retry backoff: a new attempt before `retry_at` is aborted
// immediately, and every consecutive loss doubles the backoff up to the
// policy cap. A completed or ended dialogue clears the drone's standing.
//
// Starvation bound (the fairness aging's contract, pinned in tests): with
// boost b = fairness_boost_per_loss > 0, a loser that keeps retrying after
// each backoff wins within N = 1 + ceil((max_rank - min_rank) / b)
// attempts, where max_rank - min_rank = 3 (Executing=4 vs Attending=1) —
// N = 4 with the defaults. After N-1 losses the loser's effective rank at
// entry ties or beats ANY un-aged phase, and the losses tiebreak breaks
// the tie in its favour; a fresh win resets its aging to zero. Without
// aging (b = 0) a low-id, low-battery drone can lose forever to a
// perpetually re-engaging neighbour.
//
// Like the dialogue FSM, the arbiter is synchronous, thread-free and
// deterministic: CoordinationService's single worker owns it, time is the
// fleet clock (max frame sequence observed), and all decisions are
// returned to the caller to act on. The worker wraps each on_phase call
// in the coordination_arbitrate_ns telemetry span and mirrors
// contentions/deferrals into the fleet counters, so arbitration latency
// and decision mix are visible at runtime (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "coordination/fleet_types.hpp"

namespace hdc::coordination {

struct ArbiterStats {
  std::uint64_t contentions{0};   ///< arbitrations between two live sessions
  std::uint64_t deferrals{0};     ///< retries refused inside a backoff window
  std::uint64_t sessions_ended{0};
};

class SessionArbiter {
 public:
  using Decisions = std::vector<ArbitrationDecision>;

  explicit SessionArbiter(ArbitrationPolicy policy = {});

  /// Registers (or re-registers) a drone. Resets any dialogue standing the
  /// drone had.
  void add_drone(const DroneDescriptor& descriptor);

  /// Battery update (arbitration input; no decision by itself).
  void set_battery(std::uint32_t drone_id, double soc);

  /// Feeds one dialogue-phase change (from the stream of FSM transitions).
  /// Appends any abort decisions to `out` — the caller must deliver them.
  /// Unknown drones are learned on the fly with a default descriptor
  /// (cell/human 0) so a misconfigured fleet degrades, not crashes.
  void on_phase(std::uint32_t drone_id, interaction::DialogueState to,
                std::uint64_t sequence, Decisions& out);

  /// A drone's dialogue decided its outcome (granted/denied/aborted/...):
  /// its session no longer contends. A win (kGranted) also clears its
  /// backoff.
  void on_dialogue_end(std::uint32_t drone_id, bool won, std::uint64_t sequence);

  [[nodiscard]] const ArbiterStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ArbitrationPolicy& policy() const noexcept { return policy_; }
  /// The drone's current dialogue phase as tracked here (kIdle if unknown).
  [[nodiscard]] interaction::DialogueState phase_of(std::uint32_t drone_id) const;
  /// Earliest fleet-clock frame at which the drone may retry (0 = now).
  [[nodiscard]] std::uint64_t retry_at(std::uint32_t drone_id) const;
  /// Unresolved arbitration losses feeding the drone's fairness aging
  /// (reset by a won dialogue).
  [[nodiscard]] std::uint32_t losses(std::uint32_t drone_id) const;

 private:
  struct DroneStanding {
    DroneDescriptor descriptor{};
    interaction::DialogueState phase{interaction::DialogueState::kIdle};
    std::uint64_t retry_at{0};
    std::uint64_t backoff{0};  ///< current backoff span (0 = policy base next)
    std::uint32_t losses{0};   ///< arbitration losses since the last win
    bool abort_pending{false}; ///< we already told it to abort; don't re-abort
  };

  DroneStanding& standing(std::uint32_t drone_id);
  /// Phase rank plus capped fairness aging.
  [[nodiscard]] int effective_rank(const DroneStanding& s) const noexcept;
  /// True when `a` outranks `b` under effective rank > losses > battery >
  /// stream id.
  [[nodiscard]] bool outranks(const DroneStanding& a,
                              const DroneStanding& b) const noexcept;
  void defer(DroneStanding& loser, std::uint64_t sequence);

  ArbitrationPolicy policy_;
  std::unordered_map<std::uint32_t, DroneStanding> drones_;
  ArbiterStats stats_;
};

}  // namespace hdc::coordination
