#include "coordination/grant_registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/flight_recorder.hpp"

namespace hdc::coordination {

void GrantRegistry::instrument(telemetry::MetricsRegistry& metrics) {
  grant_ns_ = metrics.histogram(telemetry::kCoordinationGrantSpan);
  renew_ns_ = metrics.histogram(telemetry::kCoordinationRenewSpan);
  expire_ns_ = metrics.histogram(telemetry::kCoordinationExpireSpan);
}

GrantRegistry::GrantRegistry(std::size_t cells, std::uint64_t ttl)
    : slots_(cells), ttl_(ttl) {
  if (cells == 0) {
    throw std::invalid_argument("GrantRegistry: need at least one cell");
  }
  if (ttl == 0) {
    throw std::invalid_argument("GrantRegistry: ttl must be positive");
  }
}

std::size_t GrantRegistry::index(int cell) const {
  if (cell < 0 || static_cast<std::size_t>(cell) >= slots_.size()) {
    throw std::out_of_range("GrantRegistry: bad cell id");
  }
  return static_cast<std::size_t>(cell);
}

bool GrantRegistry::grant(int cell, std::uint32_t holder,
                          std::uint64_t sequence) {
  // Covers the whole call, including the re-grant-as-renewal path (which
  // then records under the renew span as well).
  telemetry::TracedSpan span(grant_ns_);
  GrantRecord& current = slots_[index(cell)];
  if (live_grant(current, sequence) && current.holder != holder) {
    // Single-holder invariant: the cell is taken. This is the late-abort
    // race made harmless — a loser whose dialogue completed anyway cannot
    // displace the winner's grant.
    ++stats_.conflicts;
    return false;
  }
  if (live_grant(current, sequence) && current.holder == holder) {
    // Re-granting to the holder is a lease renewal, not a new grant.
    return renew(cell, holder, sequence);
  }
  current = {GrantState::kGranted, holder, sequence, sequence + ttl_, 0};
  ++stats_.grants;
  return true;
}

bool GrantRegistry::deny(int cell, std::uint32_t by, std::uint64_t sequence) {
  GrantRecord& current = slots_[index(cell)];
  if (live_grant(current, sequence) && current.holder != by) {
    // Another drone validly holds the cell; a third party's denied
    // dialogue must not erase that lease (same single-holder reasoning as
    // grant(): only the human's No — a revocation — may end it early).
    ++stats_.conflicts;
    return false;
  }
  current = {GrantState::kDenied, by, sequence, sequence + ttl_, 0};
  ++stats_.denials;
  return true;
}

bool GrantRegistry::revoke(int cell, std::uint64_t sequence) {
  GrantRecord& current = slots_[index(cell)];
  // A lease past its end is over whether or not a sweep has marked it
  // kExpired yet; revoking it would block the cell for another TTL.
  if (!live_grant(current, sequence)) return false;
  current.state = GrantState::kRevoked;
  current.granted_seq = sequence;
  // A revocation is the human's refusal, like a denial: keep-clear for
  // one TTL, then age out (a permanent fleet-wide block would need a
  // fresh No every lease period — the human stays in charge either way).
  current.expires_seq = sequence + ttl_;
  ++stats_.revocations;
  return true;
}

bool GrantRegistry::renew(int cell, std::uint32_t holder,
                          std::uint64_t sequence) {
  telemetry::TracedSpan span(renew_ns_);
  GrantRecord& current = slots_[index(cell)];
  // Revoked/expired/denied grants stay dead: renewal extends a LIVE lease
  // only (the revocation-vs-renewal race always ends revoked).
  if (!live_grant(current, sequence) || current.holder != holder) return false;
  // Monotone lease end: a renewal stamped with a stale sequence extends
  // the lease or leaves it alone — it can never pull expiry earlier.
  current.expires_seq = std::max(current.expires_seq, sequence + ttl_);
  current.renewals += 1;
  ++stats_.renewals;
  return true;
}

std::size_t GrantRegistry::expire(std::uint64_t now) {
  telemetry::TracedSpan span(expire_ns_);
  std::size_t expired = 0;
  for (GrantRecord& current : slots_) {
    const bool leased = current.state == GrantState::kGranted ||
                        current.state == GrantState::kDenied ||
                        current.state == GrantState::kRevoked;
    if (!leased || now < current.expires_seq) continue;
    current.state = GrantState::kExpired;
    ++expired;
  }
  stats_.expiries += expired;
  return expired;
}

}  // namespace hdc::coordination
