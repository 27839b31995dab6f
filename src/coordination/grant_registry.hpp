// GrantRegistry — the fleet's ledger of negotiated space-grants, one slot
// per orchard cell.
//
// A dialogue outcome of kGranted opens a lease {holder, granted_seq,
// expires_seq = granted_seq + ttl}; kDenied marks the cell keep-clear for
// the same TTL; a human No event after the grant revokes it; a Yes
// re-confirmation renews the lease; expire() sweeps leases the fleet clock
// has passed.
// The single-holder invariant is structural: a cell is ONE slot, and a
// grant request against a cell another drone validly holds is REFUSED and
// counted (`conflicts`) — so "exactly one drone holds any cell's grant at
// every frame sequence" cannot be violated no matter how messy the event
// interleaving gets (e.g. an arbitration abort landing after the loser's
// dialogue already completed).
//
// A plain single-threaded value: CoordinationService owns one and touches
// it, readers included, only under its mutex.
#pragma once

#include <cstdint>
#include <vector>

#include "coordination/fleet_types.hpp"
#include "telemetry/stage_names.hpp"

namespace hdc::coordination {

struct RegistryStats {
  std::uint64_t grants{0};
  std::uint64_t denials{0};
  std::uint64_t revocations{0};
  std::uint64_t renewals{0};
  std::uint64_t expiries{0};
  std::uint64_t conflicts{0};  ///< grant refused: cell held by another drone
};

/// RegistryStats' counters; `conflicts` has none.
inline constexpr telemetry::CounterField<RegistryStats> kRegistryCounters[] = {
    {telemetry::kCoordinationGrants, &RegistryStats::grants},
    {telemetry::kCoordinationDenials, &RegistryStats::denials},
    {telemetry::kCoordinationRevocations, &RegistryStats::revocations},
    {telemetry::kCoordinationRenewals, &RegistryStats::renewals},
    {telemetry::kCoordinationExpiries, &RegistryStats::expiries},
};

class GrantRegistry {
 public:
  /// `cells` slots (orchard tree ids 0..cells-1), leases last `ttl` frames
  /// of the fleet clock.
  GrantRegistry(std::size_t cells, std::uint64_t ttl);

  /// Arms the grant/renew/expire latency spans. Call before the first
  /// mutation; `metrics` must outlive this object. The mutation counts are
  /// stats(): the owning CoordinationService reports them as counters
  /// (kRegistryCounters).
  void instrument(telemetry::MetricsRegistry& metrics);

  /// Opens (or, for the current holder, renews) a lease. Returns false —
  /// and counts a conflict — when another drone validly holds the cell.
  bool grant(int cell, std::uint32_t holder, std::uint64_t sequence);
  /// Marks the cell keep-clear (human refused) until the TTL runs out.
  /// Returns false — and counts a conflict — when ANOTHER drone validly
  /// holds the cell: a third party's denied dialogue must not erase a
  /// live lease (the holder being denied afresh does replace its own).
  bool deny(int cell, std::uint32_t by, std::uint64_t sequence);
  /// Human withdrew consent after granting: the cell becomes keep-clear
  /// for one TTL (like a denial), then ages out. False if no live grant
  /// at `sequence` — a lease that ran out stays ended, swept or not.
  bool revoke(int cell, std::uint64_t sequence);
  /// Extends the holder's lease (human re-confirmed). False when `holder`
  /// does not hold a live grant on the cell (e.g. it was just revoked —
  /// a renewal can never resurrect a revoked grant).
  bool renew(int cell, std::uint32_t holder, std::uint64_t sequence);
  /// Sweeps every lease (grant or denial) whose expires_seq <= now.
  /// Returns how many flipped to kExpired.
  std::size_t expire(std::uint64_t now);

  /// Copy of one cell's slot (throws std::out_of_range).
  [[nodiscard]] GrantRecord read(int cell) const { return slots_[index(cell)]; }
  [[nodiscard]] std::size_t cell_count() const noexcept { return slots_.size(); }
  [[nodiscard]] RegistryStats stats() const noexcept { return stats_; }

 private:
  /// `cell` as a slot index (throws std::out_of_range).
  [[nodiscard]] std::size_t index(int cell) const;
  /// True when the slot holds a grant that is still live at `now`.
  [[nodiscard]] static bool live_grant(const GrantRecord& record,
                                       std::uint64_t now) noexcept {
    return record.state == GrantState::kGranted && now < record.expires_seq;
  }

  std::vector<GrantRecord> slots_;
  std::uint64_t ttl_;
  RegistryStats stats_;

  // Telemetry handles (disarmed until instrument()).
  telemetry::Histogram grant_ns_;
  telemetry::Histogram renew_ns_;
  telemetry::Histogram expire_ns_;
};

}  // namespace hdc::coordination
