#include "protocol/wire.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "telemetry/trace.hpp"

namespace hdc::protocol::wire {

namespace {

// ------------------------------------------------------------ CRC-16 ----

constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> table{};
  for (std::uint16_t byte = 0; byte < 256; ++byte) {
    std::uint16_t crc = static_cast<std::uint16_t>(byte << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000U) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021U)
                            : static_cast<std::uint16_t>(crc << 1);
    }
    table[byte] = crc;
  }
  return table;
}

constexpr std::array<std::uint16_t, 256> kCrc16Table = make_crc16_table();

/// Slicing-by-8 tables (Kounavis & Berry, 2005): kCrc16Slices[k][b] is the
/// register after byte b followed by k zero bytes, so eight input bytes
/// fold in with one lookup each and no dependency between the lookups.
constexpr std::array<std::array<std::uint16_t, 256>, 8> make_crc16_slices() {
  std::array<std::array<std::uint16_t, 256>, 8> slices{};
  slices[0] = kCrc16Table;
  for (std::size_t k = 1; k < slices.size(); ++k) {
    for (std::size_t byte = 0; byte < 256; ++byte) {
      const std::uint16_t prev = slices[k - 1][byte];
      slices[k][byte] = static_cast<std::uint16_t>(
          (prev << 8) ^ kCrc16Table[prev >> 8]);
    }
  }
  return slices;
}

constexpr std::array<std::array<std::uint16_t, 256>, 8> kCrc16Slices =
    make_crc16_slices();

// ------------------------------------------------------ field accessors --
// Each record's payload layout is stated once, as a fields() overload
// below, and run three ways: with a Sizer and then a Writer (encode), or
// with a Reader (parse). All three expose the accessors fields() uses:
// u32/u64/i32/f64, enum8 (u8, range-checked on read), sequence (u64, at
// most telemetry::kMaxTraceSequence on read), text (u16 length + bytes)
// and list<Count> (Count-prefixed items).

/// Counts the payload bytes a Writer would store; every accessor returns
/// true.
class Sizer {
 public:
  bool u8(std::uint8_t) { return add(1); }
  bool u16(std::uint16_t) { return add(2); }
  bool u32(std::uint32_t) { return add(4); }
  bool u64(std::uint64_t) { return add(8); }
  bool i32(std::int32_t) { return add(4); }
  bool f64(double) { return add(8); }
  bool enum8(std::uint8_t, std::uint8_t, const char*) { return add(1); }
  bool stream(std::uint32_t) { return add(4); }
  bool sequence(std::uint64_t) { return add(8); }
  bool text(const std::string& s) { return add(2 + s.size()); }
  template <class Count, class T, class Each>
  bool list(std::vector<T>& items, Each each) {
    add(sizeof(Count));
    for (T& item : items) each(item);
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  bool add(std::size_t bytes) {
    size_ += bytes;
    return true;
  }

  std::size_t size_{0};
};

/// Stores little-endian fields from `at` on, into space the caller sized
/// with a Sizer; every accessor returns true. enum8, stream and sequence
/// do NOT range-check: the parser is the gate, and tests rely on encoding
/// out-of-range values to exercise it.
class Writer {
 public:
  explicit Writer(std::uint8_t* at) : at_(at) {}

  bool u8(std::uint8_t v) { return put(v); }
  bool u16(std::uint16_t v) { return put(v); }
  bool u32(std::uint32_t v) { return put(v); }
  bool u64(std::uint64_t v) { return put(v); }
  bool i32(std::int32_t v) { return put(static_cast<std::uint32_t>(v)); }
  /// IEEE-754 bit pattern, so the value round-trips bit-identically.
  bool f64(double v) { return put(std::bit_cast<std::uint64_t>(v)); }
  bool enum8(std::uint8_t v, std::uint8_t /*max*/, const char* /*what*/) {
    return put(v);
  }
  bool stream(std::uint32_t v) { return put(v); }
  bool sequence(std::uint64_t v) { return put(v); }
  bool text(const std::string& s) {
    put(static_cast<std::uint16_t>(s.size()));
    std::memcpy(at_, s.data(), s.size());
    at_ += s.size();
    return true;
  }
  template <class Count, class T, class Each>
  bool list(std::vector<T>& items, Each each) {
    put(static_cast<Count>(items.size()));
    for (T& item : items) each(item);
    return true;
  }

 private:
  template <class U>
  bool put(U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      at_[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    at_ += sizeof(U);
    return true;
  }

  std::uint8_t* at_;
};

/// Reads payload fields; every accessor returns false on overrun or an
/// out-of-range enum instead of reading out of bounds, and records the
/// absolute offset of the offending field plus a reason.
class Reader {
 public:
  Reader(std::span<const std::uint8_t> payload, std::size_t base)
      : payload_(payload), base_(base) {}

  bool u32(std::uint32_t& v) { return get(v); }
  bool u64(std::uint64_t& v) { return get(v); }
  bool i32(std::int32_t& v) {
    std::uint32_t raw = 0;
    if (!get(raw)) return false;
    v = static_cast<std::int32_t>(raw);
    return true;
  }
  bool f64(double& v) {
    std::uint64_t raw = 0;
    if (!get(raw)) return false;
    v = std::bit_cast<double>(raw);
    return true;
  }
  bool enum8(std::uint8_t& v, std::uint8_t max, const char* what) {
    const std::size_t at = pos_;
    if (!get(v)) return false;
    return v <= max || fail(at, what);
  }
  /// A stream (or drone) id that trace ids are minted from: a larger one
  /// would alias another stream's trace ids.
  bool stream(std::uint32_t& v) {
    const std::size_t at = pos_;
    if (!get(v)) return false;
    return v <= telemetry::kMaxTraceStreamId ||
           fail(at, "stream id beyond the 16-bit trace-id range");
  }
  /// A per-stream frame sequence that trace ids are minted from: a larger
  /// one would alias another frame's trace id.
  bool sequence(std::uint64_t& v) {
    const std::size_t at = pos_;
    if (!get(v)) return false;
    return v <= telemetry::kMaxTraceSequence ||
           fail(at, "sequence beyond the 48-bit trace-id range");
  }
  bool text(std::string& s) {
    std::uint16_t size = 0;
    if (!get(size)) return false;
    if (remaining() < size) return fail(pos_, "text overruns payload");
    s.assign(reinterpret_cast<const char*>(payload_.data() + pos_), size);
    pos_ += size;
    return true;
  }
  template <class Count, class T, class Each>
  bool list(std::vector<T>& items, Each each) {
    Count count = 0;
    if (!get(count)) return false;
    // No reserve(count): a corrupt count up to 2^32-1 must fail on the
    // first truncated item, not pre-allocate gigabytes.
    for (Count i = 0; i < count; ++i) {
      T item{};
      if (!each(item)) return false;
      items.push_back(std::move(item));
    }
    return true;
  }

  /// Canonical encoding has no slack: the payload must be consumed exactly.
  bool finish() {
    return remaining() == 0 || fail(pos_, "trailing bytes after payload");
  }
  [[nodiscard]] std::size_t error_offset() const { return base_ + error_at_; }
  [[nodiscard]] const char* error() const { return error_; }

 private:
  [[nodiscard]] std::size_t remaining() const { return payload_.size() - pos_; }

  template <class U>
  bool get(U& v) {
    if (remaining() < sizeof(U)) return fail(pos_, "payload truncated");
    v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v = static_cast<U>(v | (static_cast<U>(payload_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(U);
    return true;
  }
  bool fail(std::size_t at, const char* why) {
    error_at_ = at;
    error_ = why;
    return false;
  }

  std::span<const std::uint8_t> payload_;
  std::size_t base_;
  std::size_t pos_{0};
  std::size_t error_at_{0};
  const char* error_{""};
};

// ------------------------------------------------ enum range validation --

// Highest valid wire byte for each enum carried as u8. These pin the v1
// value sets: growing any enum is a wire-version bump (see
// docs/WIRE_FORMAT.md).
constexpr std::uint8_t kMaxSign = 3;          // signs::HumanSign::kNo
constexpr std::uint8_t kMaxSignEventKind = 1; // interaction::SignEventKind::kEnd
constexpr std::uint8_t kMaxDialogueState = 5; // interaction::DialogueState::kAborting
constexpr std::uint8_t kMaxRingMode = 5;      // drone::RingMode count - 1
constexpr std::uint8_t kMaxPatternType = 6;   // drone::PatternType count - 1
constexpr std::uint8_t kMaxCommandKind = 4;   // interaction::DroneCommandKind count - 1
constexpr std::uint8_t kMaxOutcome = 5;       // protocol::Outcome::kAborted
constexpr std::uint8_t kMaxFleetEventKind = 5;// CoordinationService EventKind::kTick
constexpr std::uint8_t kMaxGrantState = 4;    // coordination::GrantState::kExpired
constexpr std::uint8_t kMaxAbortReason = 1;   // coordination::AbortReason::kDeferredRetry
constexpr std::uint8_t kMaxBool = 1;

// ------------------------------------------------ per-type payload layout --
// One overload per record type: the field order below IS the wire layout.

template <class Io>
bool fields(Io& io, RunConfigRecord& r) {
  return io.u32(r.fusion_window) && io.u32(r.fusion_majority) &&
         io.f64(r.onset_confidence) && io.f64(r.release_confidence) &&
         io.u32(r.min_hold) && io.u32(r.release_misses) &&
         io.f64(r.reference_distance) && io.u64(r.attending_timeout) &&
         io.u64(r.sequence_gap) && io.u64(r.confirm_timeout) &&
         io.u64(r.execute_ticks) && io.u64(r.abort_ticks) &&
         io.u32(r.observation_queue) && io.u32(r.cells) &&
         io.u64(r.grant_ttl) && io.u32(r.fleet_queue) &&
         io.u64(r.retry_backoff) && io.u64(r.retry_backoff_max) &&
         io.u32(r.fairness_boost_per_loss) && io.u32(r.fairness_boost_cap);
}

template <class Io>
bool fields(Io& io, ObservationRecord& r) {
  return io.stream(r.stream_id) && io.sequence(r.sequence) &&
         io.enum8(r.sign, kMaxSign, "bad HumanSign value") &&
         io.enum8(r.abort, kMaxBool, "bad abort flag") &&
         io.f64(r.confidence);
}

template <class Io>
bool fields(Io& io, SignEventRecord& r) {
  return io.u32(r.stream_id) &&
         io.enum8(r.kind, kMaxSignEventKind, "bad SignEventKind value") &&
         io.enum8(r.label, kMaxSign, "bad HumanSign value") &&
         io.u64(r.onset_seq) && io.u64(r.end_seq) && io.f64(r.confidence);
}

template <class Io>
bool fields(Io& io, TransitionRecord& r) {
  return io.u32(r.stream_id) &&
         io.enum8(r.from, kMaxDialogueState, "bad DialogueState value") &&
         io.enum8(r.to, kMaxDialogueState, "bad DialogueState value") &&
         io.enum8(r.set_ring, kMaxBool, "bad set_ring flag") &&
         io.enum8(r.ring, kMaxRingMode, "bad RingMode value") &&
         io.enum8(r.fly_pattern, kMaxBool, "bad fly_pattern flag") &&
         io.enum8(r.pattern, kMaxPatternType, "bad PatternType value") &&
         io.enum8(r.command, kMaxCommandKind, "bad DroneCommandKind value") &&
         io.u64(r.tick) && io.text(r.event);
}

template <class Io>
bool fields(Io& io, OutcomeRecordWire& r) {
  return io.enum8(r.outcome, kMaxOutcome, "bad Outcome value") &&
         io.u32(r.stream_id) && io.u64(r.final_sequence);
}

template <class Io>
bool fields(Io& io, FleetEventRecord& r) {
  return io.enum8(r.kind, kMaxFleetEventKind, "bad FleetEvent kind") &&
         io.stream(r.drone_id) && io.sequence(r.sequence) &&
         io.enum8(r.to, kMaxDialogueState, "bad DialogueState value") &&
         io.enum8(r.outcome, kMaxOutcome, "bad Outcome value") &&
         io.enum8(r.label, kMaxSign, "bad HumanSign value") &&
         io.enum8(r.event_kind, kMaxSignEventKind, "bad SignEventKind value") &&
         io.u32(r.descriptor_drone_id) && io.i32(r.descriptor_cell) &&
         io.i32(r.descriptor_human_id) && io.f64(r.descriptor_battery_soc) &&
         io.f64(r.battery_soc);
}

template <class Io>
bool fields(Io& io, GrantUpdateRecord& r) {
  return io.i32(r.cell) &&
         io.enum8(r.state, kMaxGrantState, "bad GrantState value") &&
         io.u32(r.holder) && io.u64(r.granted_seq) && io.u64(r.expires_seq) &&
         io.u32(r.renewals) && io.enum8(r.conflict, kMaxBool, "bad conflict flag");
}

template <class Io>
bool fields(Io& io, ArbitrationRecord& r) {
  return io.u32(r.loser) && io.u32(r.winner) && io.i32(r.human_id) &&
         io.u64(r.sequence) && io.u64(r.retry_at) &&
         io.enum8(r.reason, kMaxAbortReason, "bad AbortReason value");
}

template <class Io>
bool fields(Io& io, PlanHintRecord& r) {
  const auto cell = [&io](std::int32_t& c) { return io.i32(c); };
  return io.u32(r.drone_id) &&
         io.template list<std::uint16_t>(r.granted_cells, cell) &&
         io.template list<std::uint16_t>(r.blocked_cells, cell);
}

template <class Io>
bool fields(Io& io, TranscriptDigestRecord& r) {
  return io.u32(r.stream_id) && io.u32(r.entries) && io.u64(r.digest);
}

template <class Io>
bool fields(Io& io, GrantSlotRecord& r) {
  return io.i32(r.cell) &&
         io.enum8(r.state, kMaxGrantState, "bad GrantState value") &&
         io.u32(r.holder) && io.u64(r.granted_seq) && io.u64(r.expires_seq) &&
         io.u32(r.renewals);
}

template <class Io>
bool fields(Io& io, JournalEndRecord& r) {
  return io.u64(r.record_count);
}

template <class Io>
bool fields(Io& io, MetricSnapshotRecord& r) {
  return io.template list<std::uint32_t>(
      r.entries, [&io](MetricSnapshotEntry& entry) {
        return io.text(entry.name) && io.u64(entry.value);
      });
}

// ------------------------------------------------------- decoder table ---

using Decoder = bool (*)(Reader&, AnyRecord&);

template <class Record>
bool decode(Reader& reader, AnyRecord& out) {
  Record record;
  if (!fields(reader, record) || !reader.finish()) return false;
  out = std::move(record);
  return true;
}

template <std::size_t... I>
constexpr std::array<Decoder, sizeof...(I)> make_decoders(
    std::index_sequence<I...>) {
  return {&decode<std::variant_alternative_t<I, AnyRecord>>...};
}

/// Indexed by wire type - 1, which is the AnyRecord alternative index.
constexpr auto kDecoders = make_decoders(
    std::make_index_sequence<std::variant_size_v<AnyRecord>>());

/// Envelopes from the start of `buffer` that next_envelope steps over, up
/// to the first that does not: parse_all keeps at most this many records,
/// and a corrupt buffer cannot claim more than the envelopes before its
/// fault.
std::size_t count_envelopes(std::span<const std::uint8_t> buffer) {
  std::size_t count = 0;
  std::size_t offset = 0;
  Envelope envelope;
  WireError ignored;
  while (next_envelope(buffer, offset, envelope, ignored) == ParseResult::kOk) {
    ++count;
  }
  return count;
}

/// parse_all's loop; `envelopes`, when given, gains each record's bytes.
bool parse_each(std::span<const std::uint8_t> buffer,
                std::vector<AnyRecord>& out, std::vector<Envelope>* envelopes,
                WireError& error) {
  const std::size_t count = count_envelopes(buffer);
  out.reserve(out.size() + count);
  if (envelopes != nullptr) envelopes->reserve(envelopes->size() + count);
  std::size_t offset = 0;
  AnyRecord record;
  for (;;) {
    const std::size_t start = offset;
    switch (parse_record(buffer, offset, record, error)) {
      case ParseResult::kOk:
        out.push_back(std::move(record));
        if (envelopes != nullptr) {
          envelopes->push_back(buffer.subspan(start, offset - start));
        }
        break;
      case ParseResult::kEnd:
        return true;
      case ParseResult::kError:
        return false;
    }
  }
}

}  // namespace

std::uint16_t crc16(const std::uint8_t* data, std::size_t size) noexcept {
  std::uint16_t crc = 0xFFFFU;
  // The register's high byte lines up with the first byte of each block and
  // its low byte with the second; the block's k-th byte is followed by
  // 7 - k more, hence slice 7 - k.
  const auto& t = kCrc16Slices;
  for (; size >= 8; data += 8, size -= 8) {
    crc = static_cast<std::uint16_t>(
        t[7][data[0] ^ (crc >> 8)] ^ t[6][data[1] ^ (crc & 0xFFU)] ^
        t[5][data[2]] ^ t[4][data[3]] ^ t[3][data[4]] ^ t[2][data[5]] ^
        t[1][data[6]] ^ t[0][data[7]]);
  }
  for (; size > 0; ++data, --size) {
    crc = static_cast<std::uint16_t>((crc << 8) ^
                                     kCrc16Table[(crc >> 8) ^ *data]);
  }
  return crc;
}

RecordType record_type(const AnyRecord& record) noexcept {
  return static_cast<RecordType>(record.index() + 1);
}

void encode(std::vector<std::uint8_t>& out, const AnyRecord& record) {
  // fields() takes a mutable record so one layout serves every direction;
  // the Sizer and the Writer only read through it.
  AnyRecord& fields_of = const_cast<AnyRecord&>(record);
  Sizer sizer;
  std::visit([&sizer](auto& r) { fields(sizer, r); }, fields_of);
  const std::size_t payload_size = sizer.size();
  // Below the cap no u16 length, count or envelope size can wrap.
  static_assert(kMaxPayloadSize <= 0xFFFF);
  if (payload_size > kMaxPayloadSize) {
    // The parser would reject this record as kBadLength; a u16 length or
    // count inside it would also wrap. Refuse rather than journal it.
    throw std::length_error("wire record payload exceeds kMaxPayloadSize");
  }

  const std::size_t envelope_start = out.size();
  out.resize(envelope_start + kEnvelopeHeaderSize + payload_size +
             kEnvelopeTrailerSize);
  std::uint8_t* const envelope = out.data() + envelope_start;
  Writer writer(envelope);
  writer.u8(kWireMagic);
  writer.u8(kWireVersion);
  writer.u8(static_cast<std::uint8_t>(record_type(record)));
  writer.u16(static_cast<std::uint16_t>(payload_size));
  std::visit([&writer](auto& r) { fields(writer, r); }, fields_of);
  writer.u16(crc16(envelope, kEnvelopeHeaderSize + payload_size));
}

std::vector<std::uint8_t> encode_one(const AnyRecord& record) {
  std::vector<std::uint8_t> out;
  encode(out, record);
  return out;
}

ParseResult parse_record(std::span<const std::uint8_t> buffer,
                         std::size_t& offset, AnyRecord& out,
                         WireError& error) {
  const std::size_t start = offset;
  if (start == buffer.size()) return ParseResult::kEnd;
  error = {};

  std::size_t payload_size = 0;
  if (!detail::check_header(buffer, start, payload_size, error)) {
    return ParseResult::kError;
  }
  const std::size_t body_size =
      kEnvelopeHeaderSize + payload_size + kEnvelopeTrailerSize;
  const std::uint8_t type_byte = buffer[start + 2];

  const std::size_t crc_at = start + kEnvelopeHeaderSize + payload_size;
  const std::uint16_t stored = static_cast<std::uint16_t>(
      buffer[crc_at] | (buffer[crc_at + 1] << 8));
  const std::uint16_t computed =
      crc16(buffer.data() + start, kEnvelopeHeaderSize + payload_size);
  if (stored != computed) {
    error = {WireErrorCode::kBadCrc, crc_at,
             "envelope checksum mismatch (corrupt record)"};
    return ParseResult::kError;
  }

  Reader reader(buffer.subspan(start + kEnvelopeHeaderSize, payload_size),
                start + kEnvelopeHeaderSize);
  if (!kDecoders[type_byte - 1](reader, out)) {
    error = {WireErrorCode::kBadPayload, reader.error_offset(),
             std::string(to_string(static_cast<RecordType>(type_byte))) +
                 ": " + reader.error()};
    return ParseResult::kError;
  }

  offset = start + body_size;
  return ParseResult::kOk;
}

bool parse_all(std::span<const std::uint8_t> buffer,
               std::vector<AnyRecord>& out, WireError& error) {
  return parse_each(buffer, out, nullptr, error);
}

bool parse_all(std::span<const std::uint8_t> buffer,
               std::vector<AnyRecord>& out, std::vector<Envelope>& envelopes,
               WireError& error) {
  return parse_each(buffer, out, &envelopes, error);
}

}  // namespace hdc::protocol::wire
