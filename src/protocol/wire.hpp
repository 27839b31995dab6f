// Versioned wire protocol for fleet event journals (ROADMAP: "Versioned
// wire protocol + record/replay").
//
// Every record travels in a length-prefixed envelope:
//
//   offset 0  u8   magic        0xDC (resync guard; a journal is a flat
//                                concatenation of envelopes)
//   offset 1  u8   version      kWireVersion (=2); readers REJECT any
//                                other value — a v2 reader must never
//                                misparse a v1 or v3 record
//   offset 2  u8   record type  RecordType; unknown types are rejected
//   offset 3  u16  payload size little-endian, bytes of payload only
//   offset 5  ...  payload      little-endian fixed-width fields
//   tail      u16  CRC-16/CCITT-FALSE over bytes [0, 5 + payload size)
//
// Design points (the mycobrain MDP envelope — versioned binary frame,
// fixed-width fields, trailing CRC16 — is the reference shape):
//   - Fixed-width little-endian integers everywhere; no padding, no host
//     struct layout on the wire (ABI-stable across compilers/arches).
//   - Doubles are serialised as their IEEE-754 bit pattern (u64 LE), so a
//     recorded confidence replays BIT-IDENTICALLY — a scaled int would
//     round and break replay determinism.
//   - Parsing is total: any malformed input (truncated buffer, oversized
//     length, flipped bit, unknown version/type, out-of-range enum) is
//     rejected with an offset-bearing WireError, never UB and never an
//     exception on the parse path.
//   - Wire structs are plain data with no dependency on the service
//     layers; protocol/journal.hpp owns the conversions from the live
//     interaction/coordination types.
//
// Version evolution rules live in docs/WIRE_FORMAT.md: any layout change
// bumps kWireVersion; new record types may only be added together with a
// version bump (a v1 reader rejects both cleanly).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace hdc::protocol::wire {

inline constexpr std::uint8_t kWireMagic = 0xDC;
/// v1: record types 1-12. v2: adds kMetricSnapshot (13) — new record types
/// may only be added together with a version bump (docs/WIRE_FORMAT.md),
/// so a v1 reader rejects a v2 journal at the envelope, never at the type.
inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::size_t kEnvelopeHeaderSize = 5;  ///< magic+version+type+len
inline constexpr std::size_t kEnvelopeTrailerSize = 2; ///< crc16
/// Hard sanity cap on one record's payload (well above any real record;
/// an envelope declaring more is rejected as kBadLength even when the
/// buffer would cover it).
inline constexpr std::size_t kMaxPayloadSize = 16 * 1024;

/// CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection, no xorout
/// (check value over "123456789" is 0x29B1).
[[nodiscard]] std::uint16_t crc16(const std::uint8_t* data,
                                  std::size_t size) noexcept;

// ------------------------------------------------------------- records ---

enum class RecordType : std::uint8_t {
  kRunConfig = 1,        ///< journal header: the configs replay must mirror
  kObservation = 2,      ///< interaction input: one processed observation
  kSignEvent = 3,        ///< interaction output: fused sign begin/end
  kTransition = 4,       ///< interaction output: FSM transition (AckAction)
  kOutcome = 5,          ///< interaction output: decided OutcomeRecord
  kFleetEvent = 6,       ///< coordination input: one processed fleet event
  kGrantUpdate = 7,      ///< coordination output: one registry mutation
  kArbitration = 8,      ///< finalise: one arbitration decision
  kPlanHint = 9,         ///< finalise: one drone's final plan hint
  kTranscriptDigest = 10,///< finalise: one stream's transcript digest
  kGrantSlot = 11,       ///< finalise: one cell's final registry slot
  kJournalEnd = 12,      ///< trailer: record count for truncation detection
  kMetricSnapshot = 13,  ///< v2: replay-deterministic telemetry counter totals
};

[[nodiscard]] constexpr const char* to_string(RecordType type) noexcept {
  switch (type) {
    case RecordType::kRunConfig: return "RunConfig";
    case RecordType::kObservation: return "Observation";
    case RecordType::kSignEvent: return "SignEvent";
    case RecordType::kTransition: return "Transition";
    case RecordType::kOutcome: return "Outcome";
    case RecordType::kFleetEvent: return "FleetEvent";
    case RecordType::kGrantUpdate: return "GrantUpdate";
    case RecordType::kArbitration: return "Arbitration";
    case RecordType::kPlanHint: return "PlanHint";
    case RecordType::kTranscriptDigest: return "TranscriptDigest";
    case RecordType::kGrantSlot: return "GrantSlot";
    case RecordType::kJournalEnd: return "JournalEnd";
    case RecordType::kMetricSnapshot: return "MetricSnapshot";
  }
  return "?";
}

/// The run configuration a deterministic replay must reconstruct the
/// services from (fusion + dialogue + coordination tuning). The command
/// grammar is NOT serialised — the replay caller supplies it (scenarios
/// use CommandGrammar::standard()).
struct RunConfigRecord {
  // interaction::FusionPolicy
  std::uint32_t fusion_window{5};
  std::uint32_t fusion_majority{3};
  double onset_confidence{0.35};
  double release_confidence{0.18};
  std::uint32_t min_hold{3};
  std::uint32_t release_misses{3};
  double reference_distance{6.5};
  // interaction::DialogueConfig
  std::uint64_t attending_timeout{150};
  std::uint64_t sequence_gap{36};
  std::uint64_t confirm_timeout{90};
  std::uint64_t execute_ticks{48};
  std::uint64_t abort_ticks{16};
  // observation_queue and fleet_queue sized rings the services no longer
  // have: recorders write these defaults and nothing reads them back, but
  // they stay on the wire (and range checked on replay) so existing
  // journals keep their bytes.
  std::uint32_t observation_queue{256};
  // coordination::CoordinationConfig + ArbitrationPolicy
  std::uint32_t cells{64};
  std::uint64_t grant_ttl{600};
  std::uint32_t fleet_queue{1024};  // unread, see observation_queue
  std::uint64_t retry_backoff{64};
  std::uint64_t retry_backoff_max{512};
  std::uint32_t fairness_boost_per_loss{1};
  std::uint32_t fairness_boost_cap{8};

  [[nodiscard]] bool operator==(const RunConfigRecord&) const = default;
};

/// One observation as the interaction layer processed it (frame or abort).
/// This is the interaction layer's replayable input stream.
struct ObservationRecord {
  std::uint32_t stream_id{0};
  std::uint64_t sequence{0};  ///< <= telemetry::kMaxTraceSequence on parse
  std::uint8_t sign{0};       ///< signs::HumanSign
  std::uint8_t abort{0};      ///< 1 = external abort, not a frame
  double confidence{0.0};

  [[nodiscard]] bool operator==(const ObservationRecord&) const = default;
};

/// interaction::SignEvent on the wire.
struct SignEventRecord {
  std::uint32_t stream_id{0};
  std::uint8_t kind{0};   ///< interaction::SignEventKind
  std::uint8_t label{0};  ///< signs::HumanSign
  std::uint64_t onset_seq{0};
  std::uint64_t end_seq{0};
  double confidence{0.0};

  [[nodiscard]] bool operator==(const SignEventRecord&) const = default;
};

/// interaction::AckAction on the wire (the event literal rides as
/// length-prefixed bytes; the FSM folds it into its transcript digest).
struct TransitionRecord {
  std::uint32_t stream_id{0};
  std::uint8_t from{0};  ///< interaction::DialogueState
  std::uint8_t to{0};
  std::uint8_t set_ring{0};
  std::uint8_t ring{0};         ///< drone::RingMode
  std::uint8_t fly_pattern{0};
  std::uint8_t pattern{0};      ///< drone::PatternType
  std::uint8_t command{0};      ///< interaction::DroneCommandKind
  std::uint64_t tick{0};
  std::string event;

  [[nodiscard]] bool operator==(const TransitionRecord&) const = default;
};

/// protocol::OutcomeRecord on the wire.
struct OutcomeRecordWire {
  std::uint8_t outcome{0};  ///< protocol::Outcome
  std::uint32_t stream_id{0};
  std::uint64_t final_sequence{0};

  [[nodiscard]] bool operator==(const OutcomeRecordWire&) const = default;
};

/// CoordinationService::FleetEvent on the wire — one record per event the
/// coordination service processed, in processing order: the coordination
/// layer's replayable input stream. Unused fields for a given kind are
/// zero (the in-memory struct defaults), so encoding is canonical.
struct FleetEventRecord {
  std::uint8_t kind{0};  ///< CoordinationService::EventKind
  std::uint32_t drone_id{0};
  std::uint64_t sequence{0};   ///< <= telemetry::kMaxTraceSequence on parse
  std::uint8_t to{0};          ///< interaction::DialogueState (kTransition)
  std::uint8_t outcome{0};     ///< protocol::Outcome (kOutcome)
  std::uint8_t label{0};       ///< signs::HumanSign (kSignEvent)
  std::uint8_t event_kind{0};  ///< interaction::SignEventKind (kSignEvent)
  // DroneDescriptor (kRegister)
  std::uint32_t descriptor_drone_id{0};
  std::int32_t descriptor_cell{0};
  std::int32_t descriptor_human_id{0};
  double descriptor_battery_soc{1.0};
  double battery_soc{1.0};  ///< kBattery

  [[nodiscard]] bool operator==(const FleetEventRecord&) const = default;
};

/// coordination::GrantUpdate on the wire (one registry mutation as seen by
/// the registry observer — the grant log).
struct GrantUpdateRecord {
  std::int32_t cell{0};
  std::uint8_t state{0};  ///< coordination::GrantState
  std::uint32_t holder{0};
  std::uint64_t granted_seq{0};
  std::uint64_t expires_seq{0};
  std::uint32_t renewals{0};
  std::uint8_t conflict{0};

  [[nodiscard]] bool operator==(const GrantUpdateRecord&) const = default;
};

/// coordination::ArbitrationDecision on the wire.
struct ArbitrationRecord {
  std::uint32_t loser{0};
  std::uint32_t winner{0};
  std::int32_t human_id{0};
  std::uint64_t sequence{0};
  std::uint64_t retry_at{0};
  std::uint8_t reason{0};  ///< coordination::AbortReason

  [[nodiscard]] bool operator==(const ArbitrationRecord&) const = default;
};

/// One drone's final orchard::PlanHint (cell lists are length-prefixed).
struct PlanHintRecord {
  std::uint32_t drone_id{0};
  std::vector<std::int32_t> granted_cells;
  std::vector<std::int32_t> blocked_cells;

  [[nodiscard]] bool operator==(const PlanHintRecord&) const = default;
};

/// One stream's protocol::TranscriptDigest: the FNV-1a 64 its dialogue FSM
/// folded as it logged, and the entry count for cheap divergence triage.
/// "Bit-identical transcripts" is asserted by digest equality.
struct TranscriptDigestRecord {
  std::uint32_t stream_id{0};
  std::uint32_t entries{0};
  std::uint64_t digest{0};

  [[nodiscard]] bool operator==(const TranscriptDigestRecord&) const = default;
};

/// One cell's final coordination::GrantRecord.
struct GrantSlotRecord {
  std::int32_t cell{0};
  std::uint8_t state{0};  ///< coordination::GrantState
  std::uint32_t holder{0};
  std::uint64_t granted_seq{0};
  std::uint64_t expires_seq{0};
  std::uint32_t renewals{0};

  [[nodiscard]] bool operator==(const GrantSlotRecord&) const = default;
};

/// Journal trailer: a journal without a matching end record is truncated.
struct JournalEndRecord {
  std::uint64_t record_count{0};  ///< records before this one

  [[nodiscard]] bool operator==(const JournalEndRecord&) const = default;
};

/// One named counter total inside a MetricSnapshotRecord.
struct MetricSnapshotEntry {
  std::string name;
  std::uint64_t value{0};

  [[nodiscard]] bool operator==(const MetricSnapshotEntry&) const = default;
};

/// v2: totals of the replay-deterministic telemetry counters at a
/// deterministic checkpoint (JournalRecorder::finalize). Entries are
/// sorted by name so encoding is canonical; replaying the journal must
/// reproduce the same totals bit-exactly (the replay test's gate).
struct MetricSnapshotRecord {
  std::vector<MetricSnapshotEntry> entries;

  [[nodiscard]] bool operator==(const MetricSnapshotRecord&) const = default;
};

/// Any parsed record. The alternatives are in RecordType order, so the
/// variant index is the wire type id minus one (record_type() relies on
/// it; the golden-bytes tests pin it). A new type goes at the end.
using AnyRecord =
    std::variant<RunConfigRecord, ObservationRecord, SignEventRecord,
                 TransitionRecord, OutcomeRecordWire, FleetEventRecord,
                 GrantUpdateRecord, ArbitrationRecord, PlanHintRecord,
                 TranscriptDigestRecord, GrantSlotRecord, JournalEndRecord,
                 MetricSnapshotRecord>;
static_assert(std::variant_size_v<AnyRecord> ==
              static_cast<std::size_t>(RecordType::kMetricSnapshot));

[[nodiscard]] RecordType record_type(const AnyRecord& record) noexcept;

// ------------------------------------------------------------- encoding ---

/// Appends `record`, fully enveloped (header + payload + CRC16), to `out`.
/// Encoding is canonical: equal records produce equal bytes. A payload
/// over kMaxPayloadSize (which parsing would reject) throws
/// std::length_error and leaves `out` unchanged.
void encode(std::vector<std::uint8_t>& out, const AnyRecord& record);

/// Convenience: the enveloped bytes of a single record.
[[nodiscard]] std::vector<std::uint8_t> encode_one(const AnyRecord& record);

// ------------------------------------------------------------- decoding ---

enum class WireErrorCode : std::uint8_t {
  kNone = 0,
  kTruncated,      ///< buffer ends inside an envelope header or body
  kBadMagic,       ///< envelope does not start with kWireMagic
  kBadVersion,     ///< record from a different (e.g. future) wire version
  kBadRecordType,  ///< record type this version does not know
  kBadLength,      ///< declared payload length impossible (overruns buffer
                   ///< or exceeds kMaxPayloadSize)
  kBadCrc,         ///< checksum mismatch (bit corruption)
  kBadPayload,     ///< payload malformed: wrong size for the type, inner
                   ///< length overrun, or out-of-range enum value
};

[[nodiscard]] constexpr const char* to_string(WireErrorCode code) noexcept {
  switch (code) {
    case WireErrorCode::kNone: return "None";
    case WireErrorCode::kTruncated: return "Truncated";
    case WireErrorCode::kBadMagic: return "BadMagic";
    case WireErrorCode::kBadVersion: return "BadVersion";
    case WireErrorCode::kBadRecordType: return "BadRecordType";
    case WireErrorCode::kBadLength: return "BadLength";
    case WireErrorCode::kBadCrc: return "BadCrc";
    case WireErrorCode::kBadPayload: return "BadPayload";
  }
  return "?";
}

/// Every rejection names the byte offset it was detected at (envelope
/// start for envelope-level faults, the offending field for payload
/// faults) plus a human-readable reason.
struct WireError {
  WireErrorCode code{WireErrorCode::kNone};
  std::size_t offset{0};
  std::string message;
};

enum class ParseResult : std::uint8_t {
  kOk = 0,   ///< one record parsed; offset advanced past it
  kEnd,      ///< clean end of buffer (offset == size)
  kError,    ///< malformed input; `error` filled, offset unchanged
};

/// Parses the record starting at `offset`. On kOk, `out` holds the record
/// and `offset` is advanced to the next envelope. Never throws, never
/// reads past `buffer`, never yields out-of-range enum bytes.
[[nodiscard]] ParseResult parse_record(std::span<const std::uint8_t> buffer,
                                       std::size_t& offset, AnyRecord& out,
                                       WireError& error);

/// One record's whole envelope (header, payload and CRC) inside a buffer.
using Envelope = std::span<const std::uint8_t>;

/// The record type an envelope's header declares (byte 2).
[[nodiscard]] inline RecordType envelope_type(Envelope envelope) noexcept {
  return static_cast<RecordType>(envelope[2]);
}

namespace detail {

/// The checks parse_record makes before the CRC: the envelope at `start`
/// (< buffer.size()) has a whole header, the magic, this version, a known
/// type and a payload size within the cap and the buffer. On success
/// `payload_size` is the declared size; on failure `error` names the fault.
/// Inline so that next_envelope's walk stays a few instructions per header.
[[nodiscard]] inline bool check_header(std::span<const std::uint8_t> buffer,
                                       std::size_t start,
                                       std::size_t& payload_size,
                                       WireError& error) {
  const std::size_t available = buffer.size() - start;
  if (available < kEnvelopeHeaderSize) [[unlikely]] {
    error = {WireErrorCode::kTruncated, start,
             "buffer ends inside an envelope header"};
    return false;
  }
  if (buffer[start] != kWireMagic) [[unlikely]] {
    error = {WireErrorCode::kBadMagic, start,
             "envelope does not start with the wire magic byte"};
    return false;
  }
  const std::uint8_t version = buffer[start + 1];
  if (version != kWireVersion) [[unlikely]] {
    // A reader must REJECT records from any other version — future or
    // superseded — rather than guess at their layout.
    error = {WireErrorCode::kBadVersion, start + 1,
             version > kWireVersion
                 ? "record from a future wire version"
                 : "record from an unsupported old wire version"};
    return false;
  }
  const std::uint8_t type_byte = buffer[start + 2];
  if (type_byte < 1 || type_byte > std::variant_size_v<AnyRecord>) [[unlikely]] {
    error = {WireErrorCode::kBadRecordType, start + 2,
             "unknown record type for wire version 2"};
    return false;
  }
  payload_size = static_cast<std::size_t>(buffer[start + 3] |
                                          (buffer[start + 4] << 8));
  if (payload_size > kMaxPayloadSize) [[unlikely]] {
    error = {WireErrorCode::kBadLength, start + 3,
             "declared payload size exceeds the per-record cap"};
    return false;
  }
  if (available < kEnvelopeHeaderSize + payload_size + kEnvelopeTrailerSize)
      [[unlikely]] {
    error = {WireErrorCode::kBadLength, start + 3,
             "declared payload size overruns the buffer"};
    return false;
  }
  return true;
}

}  // namespace detail

/// Steps over the envelope starting at `offset` by its header alone: the
/// magic, version, type and length checks of parse_record, but neither the
/// CRC nor the payload. On kOk, `envelope` spans the whole envelope and
/// `offset` is advanced past it; on kError, `error` names the fault and
/// `offset` is unchanged. For buffers whose envelopes are known to be
/// sound (an encoder's own output); parse_record verifies the rest.
[[nodiscard]] inline ParseResult next_envelope(
    std::span<const std::uint8_t> buffer, std::size_t& offset,
    Envelope& envelope, WireError& error) {
  const std::size_t start = offset;
  if (start == buffer.size()) return ParseResult::kEnd;
  std::size_t payload_size = 0;
  if (!detail::check_header(buffer, start, payload_size, error)) {
    return ParseResult::kError;
  }
  envelope = buffer.subspan(
      start, kEnvelopeHeaderSize + payload_size + kEnvelopeTrailerSize);
  offset = start + envelope.size();
  return ParseResult::kOk;
}

/// Parses a whole buffer. Returns false (and the offending offset) on the
/// first malformed record; `out` keeps everything parsed before it. `out`
/// grows once: a header-only pass first counts the envelopes up to the
/// first bad header, and that many records are reserved.
[[nodiscard]] bool parse_all(std::span<const std::uint8_t> buffer,
                             std::vector<AnyRecord>& out, WireError& error);

/// parse_all that also reports where each record came from: `envelopes`
/// gains one entry per record appended to `out`, the bytes it was parsed
/// from. Both vectors grow once, by the same count.
[[nodiscard]] bool parse_all(std::span<const std::uint8_t> buffer,
                             std::vector<AnyRecord>& out,
                             std::vector<Envelope>& envelopes, WireError& error);

}  // namespace hdc::protocol::wire
