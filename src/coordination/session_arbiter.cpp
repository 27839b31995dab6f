#include "coordination/session_arbiter.hpp"

#include <algorithm>

namespace hdc::coordination {

namespace {

/// Phases that hold (or are building toward) a claim on the human.
[[nodiscard]] constexpr bool contending(interaction::DialogueState state) noexcept {
  return phase_rank(state) > 0;
}

}  // namespace

SessionArbiter::SessionArbiter(ArbitrationPolicy policy) : policy_(policy) {}

void SessionArbiter::add_drone(const DroneDescriptor& descriptor) {
  DroneStanding fresh;
  fresh.descriptor = descriptor;
  fresh.descriptor.battery_soc =
      std::clamp(descriptor.battery_soc, 0.0, 1.0);
  drones_[descriptor.drone_id] = fresh;
}

void SessionArbiter::set_battery(std::uint32_t drone_id, double soc) {
  standing(drone_id).descriptor.battery_soc = std::clamp(soc, 0.0, 1.0);
}

SessionArbiter::DroneStanding& SessionArbiter::standing(std::uint32_t drone_id) {
  const auto it = drones_.find(drone_id);
  if (it != drones_.end()) return it->second;
  DroneStanding& fresh = drones_[drone_id];
  fresh.descriptor.drone_id = drone_id;
  return fresh;
}

int SessionArbiter::effective_rank(const DroneStanding& s) const noexcept {
  if (policy_.fairness_boost_per_loss <= 0) return phase_rank(s.phase);
  const long long boost =
      static_cast<long long>(s.losses) * policy_.fairness_boost_per_loss;
  return phase_rank(s.phase) +
         static_cast<int>(std::min<long long>(boost, policy_.fairness_boost_cap));
}

bool SessionArbiter::outranks(const DroneStanding& a,
                              const DroneStanding& b) const noexcept {
  const int rank_a = effective_rank(a);
  const int rank_b = effective_rank(b);
  if (rank_a != rank_b) return rank_a > rank_b;
  // Equal effective rank: the drone turned away more often goes first
  // (this is what makes the starvation bound exact — aging alone can only
  // TIE a higher raw phase, see the header). Part of the fairness aging,
  // so boost = 0 disables it too and restores the legacy total order.
  if (policy_.fairness_boost_per_loss > 0 && a.losses != b.losses) {
    return a.losses > b.losses;
  }
  if (a.descriptor.battery_soc != b.descriptor.battery_soc) {
    return a.descriptor.battery_soc > b.descriptor.battery_soc;
  }
  return a.descriptor.drone_id < b.descriptor.drone_id;
}

void SessionArbiter::defer(DroneStanding& loser, std::uint64_t sequence) {
  loser.backoff = loser.backoff == 0
                      ? policy_.retry_backoff
                      : std::min(loser.backoff * 2, policy_.retry_backoff_max);
  loser.retry_at = sequence + loser.backoff;
}

void SessionArbiter::on_phase(std::uint32_t drone_id,
                              interaction::DialogueState to,
                              std::uint64_t sequence, Decisions& out) {
  DroneStanding& self = standing(drone_id);
  const interaction::DialogueState from = self.phase;
  self.phase = to;

  if (!contending(to)) {
    // The session is ending (Aborting) or ended (Idle); once it reaches
    // Idle any abort we issued has run its course.
    if (to == interaction::DialogueState::kIdle) self.abort_pending = false;
    return;
  }
  if (self.abort_pending) return;  // our abort is in flight; let it land

  // A fresh attempt inside the backoff window is refused outright — the
  // deferred-retry half of losing an arbitration.
  const bool entering = !contending(from);
  if (entering && sequence < self.retry_at) {
    self.abort_pending = true;
    out.push_back({drone_id, drone_id, self.descriptor.human_id, sequence,
                   self.retry_at, AbortReason::kDeferredRetry});
    return;
  }

  // Contention scan: every other live session on the same human forces an
  // arbitration. With >2 contenders this drone keeps winning or exits on
  // its first loss.
  for (auto& [other_id, other] : drones_) {
    if (other_id == drone_id) continue;
    if (other.descriptor.human_id != self.descriptor.human_id) continue;
    if (!contending(other.phase) || other.abort_pending) continue;

    DroneStanding& loser = outranks(self, other) ? other : self;
    DroneStanding& winner = outranks(self, other) ? self : other;
    defer(loser, sequence);
    ++loser.losses;  // fairness aging input; reset by a won dialogue
    loser.abort_pending = true;
    out.push_back({loser.descriptor.drone_id, winner.descriptor.drone_id,
                   self.descriptor.human_id, sequence, loser.retry_at,
                   AbortReason::kLostArbitration});
    if (&loser == &self) return;
  }
}

void SessionArbiter::on_dialogue_end(std::uint32_t drone_id, bool won,
                                     std::uint64_t sequence) {
  (void)sequence;
  DroneStanding& self = standing(drone_id);
  self.phase = interaction::DialogueState::kIdle;
  self.abort_pending = false;
  if (won) {
    // A completed negotiation clears the loser history — the next
    // contention starts from the base backoff again, with no aging boost.
    self.backoff = 0;
    self.retry_at = 0;
    self.losses = 0;
  }
}

interaction::DialogueState SessionArbiter::phase_of(
    std::uint32_t drone_id) const {
  const auto it = drones_.find(drone_id);
  return it == drones_.end() ? interaction::DialogueState::kIdle
                             : it->second.phase;
}

std::uint64_t SessionArbiter::retry_at(std::uint32_t drone_id) const {
  const auto it = drones_.find(drone_id);
  return it == drones_.end() ? 0 : it->second.retry_at;
}

std::uint32_t SessionArbiter::losses(std::uint32_t drone_id) const {
  const auto it = drones_.find(drone_id);
  return it == drones_.end() ? 0 : it->second.losses;
}

}  // namespace hdc::coordination
