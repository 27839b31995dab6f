// ReplayDriver — re-runs a recorded fleet journal through FRESH services
// and asserts the run reproduces bit-identically.
//
// Replay decouples the two layers the live run coupled through threads:
//   1. A fresh InteractionService (built from the journal's RunConfig +
//      the caller's grammar) is fed the recorded ObservationRecords in a
//      plain loop on the calling thread, in recorded order — each is
//      processed before the call returns, so every fused event /
//      transition / outcome / transcript entry falls out bit-identically.
//      Recorded aborts are re-issued as aborts: the arbitration EFFECTS
//      replay from the observation stream, without needing the
//      coordination layer's timing.
//   2. A fresh CoordinationService is fed the recorded FleetEventRecords
//      in recorded (single-worker processing) order — reproducing every
//      arbitration decision, grant mutation, and plan hint.
// Both stages journal themselves through the same recorder hooks as the
// live run; the stages run strictly one after the other, so the REPLAY
// journal has a deterministic byte layout (two replays of the same
// journal are byte-identical — the CI determinism gate diffs exactly
// that). Against the RECORDED journal, comparison is per record type,
// because the live run interleaves interaction and coordination records
// nondeterministically while each type's order is deterministic (see
// journal.hpp's Threading paragraph).
//
// Any malformed journal — truncated, bit-flipped, future-versioned,
// missing its JournalEnd trailer — is rejected with the precise offset
// and reason; replay never runs on bytes that don't verify. A journal
// that verifies but whose RunConfig the services would refuse (a zero or
// oversized ring, window or cell count, a zero lease), or that registers a
// drone in a cell outside the grid, parses and is reported as a mismatch
// naming the field, before any service is built.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "interaction/command_grammar.hpp"
#include "protocol/wire.hpp"

namespace hdc::telemetry {
class FlightRecorder;
}  // namespace hdc::telemetry

namespace hdc::protocol {

/// Largest ring, fusion window or cell count a journal's RunConfig may ask
/// the replayed services to allocate. The header's sizes are u32 on the
/// wire, so without a cap a 58 KB journal could demand a 2^32 - 1 slot
/// ring; the default fleet ring holds 1024 items. observation_queue is
/// checked against the same range although nothing allocates it.
inline constexpr std::uint32_t kMaxReplayCapacity = 1U << 16;

struct ReplayOptions {
  /// The command grammar the recorded services ran with (grammars are
  /// code-defined, not serialised; scenarios use the standard one).
  interaction::CommandGrammar grammar{interaction::CommandGrammar::standard()};
  /// Optional causal tracing of the replayed run (must outlive replay()).
  /// Trace ids are pure functions of the (stream_id, sequence) identities
  /// the journal records, so the replayed traces mint the SAME ids as the
  /// live run's — and tracing never perturbs the replayed journal bytes
  /// (tests/protocol_replay_test.cpp pins both).
  telemetry::FlightRecorder* recorder{nullptr};
};

struct ReplayReport {
  bool ok{false};      ///< parsed, replayed, and every record type matched
  bool parsed{false};  ///< journal bytes verified + structurally sound
  /// Why parsing failed (offset-bearing; meaningful when !parsed).
  wire::WireError error{};
  /// First divergence, human-readable ("" when ok). Also carries
  /// structural rejections (e.g. a missing JournalEnd trailer).
  std::string mismatch;
  std::uint64_t observations_fed{0};
  std::uint64_t fleet_events_fed{0};
  /// The replay's own journal — byte-diff two of these for the
  /// determinism gate.
  std::vector<std::uint8_t> journal_bytes;
};

class ReplayDriver {
 public:
  explicit ReplayDriver(ReplayOptions options = {});

  /// Replays `journal` through fresh services and compares every recorded
  /// record type against the replay's. Never throws on malformed input.
  [[nodiscard]] ReplayReport replay(
      std::span<const std::uint8_t> journal) const;

 private:
  ReplayOptions options_;
};

}  // namespace hdc::protocol
