// GrantRegistry — the fleet's ledger of negotiated space-grants, one slot
// per orchard cell, readable by mission planners without ever blocking the
// thread that mutates it.
//
// Write side (one writer at a time — CoordinationService, under its mutex,
// on whichever thread admitted the event): a dialogue outcome of kGranted
// opens a lease {holder, granted_seq, expires_seq = granted_seq + ttl};
// kDenied marks the cell keep-clear for the same TTL; a human No event
// after the grant revokes it; a Yes re-confirmation renews the lease;
// expire() sweeps leases the fleet clock has passed.
// The single-holder invariant is structural: a cell is ONE slot, and a
// grant request against a cell another drone validly holds is REFUSED and
// counted (`conflicts`) — so "exactly one drone holds any cell's grant at
// every frame sequence" cannot be violated no matter how messy the event
// interleaving gets (e.g. an arbitration abort landing after the loser's
// dialogue already completed).
//
// Read side (any thread): each slot is a seqlock — an even/odd version
// counter around release-stored / acquire-loaded atomic fields. Readers
// retry the (rare) race instead of taking a lock, so plan_hint() on a
// mission thread never stalls the dialogue-outcome path, and the writer
// never waits on readers. All fields are std::atomic, so the race the seqlock tolerates
// is benign by construction (TSAN-clean, pinned in tests).
#pragma once

#include <atomic>
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

class GrantRegistry {
 public:
  /// `cells` slots (orchard tree ids 0..cells-1), leases last `ttl` frames
  /// of the fleet clock.
  GrantRegistry(std::size_t cells, std::uint64_t ttl);

  /// Arms telemetry handles (grant/renew/expire latency spans + mutation
  /// counters mirroring RegistryStats). Call before the first mutation;
  /// the registry keeps no back-pointer, so `metrics` must outlive this
  /// object. Mutations are serialized in event-processing order, so the
  /// mirrored counters are replay-deterministic.
  void instrument(telemetry::MetricsRegistry& metrics);

  // --- write side: one writer at a time (the caller serializes) --------

  /// Opens (or, for the current holder, renews) a lease. Returns false —
  /// and counts a conflict — when another drone validly holds the cell.
  bool grant(int cell, std::uint32_t holder, std::uint64_t sequence);
  /// Marks the cell keep-clear (human refused) until the TTL runs out.
  /// Returns false — and counts a conflict — when ANOTHER drone validly
  /// holds the cell: a third party's denied dialogue must not erase a
  /// live lease (the holder being denied afresh does replace its own).
  bool deny(int cell, std::uint32_t by, std::uint64_t sequence);
  /// Human withdrew consent after granting: the cell becomes keep-clear
  /// for one TTL (like a denial), then ages out. False if no live grant.
  bool revoke(int cell, std::uint64_t sequence);
  /// Extends the holder's lease (human re-confirmed). False when `holder`
  /// does not hold a live grant on the cell (e.g. it was just revoked —
  /// a renewal can never resurrect a revoked grant).
  bool renew(int cell, std::uint32_t holder, std::uint64_t sequence);
  /// Sweeps every lease (grant or denial) whose expires_seq <= now.
  /// Returns how many flipped to kExpired.
  std::size_t expire(std::uint64_t now);

  // --- read side: any thread, lock-free for the writer -----------------

  /// Consistent snapshot of one cell's slot (throws std::out_of_range).
  [[nodiscard]] GrantRecord read(int cell) const;
  /// True when `holder` holds a live (unexpired at `now`) grant on `cell`.
  [[nodiscard]] bool held_by(int cell, std::uint32_t holder,
                             std::uint64_t now) const;

  [[nodiscard]] std::size_t cell_count() const noexcept { return slots_.size(); }
  [[nodiscard]] std::uint64_t ttl() const noexcept { return ttl_; }
  /// Counters are relaxed atomics — exact after drain(), monotonic always.
  [[nodiscard]] RegistryStats stats() const noexcept;

 private:
  /// One cell's seqlock slot. Writers bump `version` to odd, mutate, bump
  /// back to even; readers retry while odd or changed.
  struct Slot {
    std::atomic<std::uint32_t> version{0};
    std::atomic<std::uint8_t> state{static_cast<std::uint8_t>(GrantState::kNone)};
    std::atomic<std::uint32_t> holder{0};
    std::atomic<std::uint64_t> granted_seq{0};
    std::atomic<std::uint64_t> expires_seq{0};
    std::atomic<std::uint32_t> renewals{0};
  };

  Slot& slot(int cell);
  const Slot& slot(int cell) const;
  /// Writer-side: publish `record` into `slot` under a version bump.
  void publish(Slot& slot, const GrantRecord& record);
  /// Writer-side read (no retry needed: we are the only writer).
  [[nodiscard]] static GrantRecord writer_read(const Slot& slot);
  /// True when the slot holds a grant that is still live at `now`.
  [[nodiscard]] static bool live_grant(const GrantRecord& record,
                                       std::uint64_t now) noexcept {
    return record.state == GrantState::kGranted && now < record.expires_seq;
  }

  std::vector<Slot> slots_;
  std::uint64_t ttl_;

  std::atomic<std::uint64_t> grants_{0};
  std::atomic<std::uint64_t> denials_{0};
  std::atomic<std::uint64_t> revocations_{0};
  std::atomic<std::uint64_t> renewals_{0};
  std::atomic<std::uint64_t> expiries_{0};
  std::atomic<std::uint64_t> conflicts_{0};

  // Telemetry handles (disarmed until instrument()).
  telemetry::Histogram grant_ns_;
  telemetry::Histogram renew_ns_;
  telemetry::Histogram expire_ns_;
  telemetry::Counter grants_counter_;
  telemetry::Counter denials_counter_;
  telemetry::Counter revocations_counter_;
  telemetry::Counter renewals_counter_;
  telemetry::Counter expiries_counter_;
};

}  // namespace hdc::coordination
