// Wire-format tests: round-trip fuzz over every record type, canonical
// re-encode equality, golden pinned bytes (layout freeze), and the full
// rejection matrix — truncation at every prefix, a flip of every bit,
// oversized lengths, future versions, unknown types, out-of-range enums,
// trailing garbage. Malformed input must yield an offset-bearing
// WireError, never UB (CI also runs this binary under ASan+UBSan via
// HDC_SANITIZE). The sized encoder is checked byte for byte against a
// per-byte oracle, and parse_all's single reservation against its bound.
#include "protocol/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "protocol/journal.hpp"
#include "telemetry/trace.hpp"

namespace wire = hdc::protocol::wire;

namespace {

std::vector<std::uint8_t> envelope(std::uint8_t version, std::uint8_t type,
                                   const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.push_back(wire::kWireMagic);
  out.push_back(version);
  out.push_back(type);
  out.push_back(static_cast<std::uint8_t>(payload.size()));
  out.push_back(static_cast<std::uint8_t>(payload.size() >> 8));
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint16_t crc = wire::crc16(out.data(), out.size());
  out.push_back(static_cast<std::uint8_t>(crc));
  out.push_back(static_cast<std::uint8_t>(crc >> 8));
  return out;
}

wire::WireError parse_expecting_error(const std::vector<std::uint8_t>& bytes) {
  std::vector<wire::AnyRecord> records;
  wire::WireError error;
  EXPECT_FALSE(wire::parse_all(bytes, records, error));
  EXPECT_NE(error.code, wire::WireErrorCode::kNone);
  EXPECT_FALSE(error.message.empty());
  return error;
}

// ------------------------------------------------------- random records --

class Fuzz {
 public:
  explicit Fuzz(std::uint32_t seed) : rng_(seed) {}

  std::uint8_t u8(std::uint8_t max) {
    return static_cast<std::uint8_t>(
        std::uniform_int_distribution<int>(0, max)(rng_));
  }
  std::uint32_t u32() { return rng_(); }
  std::uint64_t u64() {
    return (static_cast<std::uint64_t>(rng_()) << 32) | rng_();
  }
  /// A stream or drone id within the trace-id range the parser accepts.
  std::uint32_t stream() {
    return u32() % (hdc::telemetry::kMaxTraceStreamId + 1u);
  }
  /// A frame sequence within the trace-id range the parser accepts.
  std::uint64_t sequence() { return u64() & hdc::telemetry::kMaxTraceSequence; }
  std::int32_t i32() { return static_cast<std::int32_t>(rng_()); }
  double f64() {
    return std::uniform_real_distribution<double>(-1e6, 1e6)(rng_);
  }
  std::string text() {
    std::string s;
    const int n = std::uniform_int_distribution<int>(0, 20)(rng_);
    for (int i = 0; i < n; ++i) {
      s.push_back(static_cast<char>(
          std::uniform_int_distribution<int>(' ', '~')(rng_)));
    }
    return s;
  }
  std::vector<std::int32_t> cells() {
    std::vector<std::int32_t> out;
    const int n = std::uniform_int_distribution<int>(0, 8)(rng_);
    for (int i = 0; i < n; ++i) out.push_back(i32());
    return out;
  }

  /// One random-but-valid record of the given wire type.
  wire::AnyRecord record(wire::RecordType type) {
    switch (type) {
      case wire::RecordType::kRunConfig: {
        wire::RunConfigRecord r;
        r.fusion_window = u32();
        r.fusion_majority = u32();
        r.onset_confidence = f64();
        r.release_confidence = f64();
        r.min_hold = u32();
        r.release_misses = u32();
        r.reference_distance = f64();
        r.attending_timeout = u64();
        r.sequence_gap = u64();
        r.confirm_timeout = u64();
        r.execute_ticks = u64();
        r.abort_ticks = u64();
        r.observation_queue = u32();
        r.cells = u32();
        r.grant_ttl = u64();
        r.fleet_queue = u32();
        r.retry_backoff = u64();
        r.retry_backoff_max = u64();
        r.fairness_boost_per_loss = u32();
        r.fairness_boost_cap = u32();
        return r;
      }
      case wire::RecordType::kObservation:
        return wire::ObservationRecord{stream(), sequence(), u8(3), u8(1), f64()};
      case wire::RecordType::kSignEvent:
        return wire::SignEventRecord{u32(), u8(1), u8(3), u64(), u64(), f64()};
      case wire::RecordType::kTransition:
        return wire::TransitionRecord{u32(),  u8(5), u8(5), u8(1), u8(5),
                                      u8(1),  u8(6), u8(4), u64(), text()};
      case wire::RecordType::kOutcome:
        return wire::OutcomeRecordWire{u8(5), u32(), u64()};
      case wire::RecordType::kFleetEvent:
        return wire::FleetEventRecord{u8(5), stream(), sequence(), u8(5),
                                      u8(5), u8(3), u8(1),  u32(),
                                      i32(), i32(), f64(),  f64()};
      case wire::RecordType::kGrantUpdate:
        return wire::GrantUpdateRecord{i32(), u8(4), u32(), u64(),
                                       u64(), u32(), u8(1)};
      case wire::RecordType::kArbitration:
        return wire::ArbitrationRecord{u32(), u32(), i32(),
                                       u64(), u64(), u8(1)};
      case wire::RecordType::kPlanHint:
        return wire::PlanHintRecord{u32(), cells(), cells()};
      case wire::RecordType::kTranscriptDigest:
        return wire::TranscriptDigestRecord{u32(), u32(), u64()};
      case wire::RecordType::kGrantSlot:
        return wire::GrantSlotRecord{i32(), u8(4), u32(), u64(), u64(), u32()};
      case wire::RecordType::kJournalEnd:
        return wire::JournalEndRecord{u64()};
      case wire::RecordType::kMetricSnapshot: {
        wire::MetricSnapshotRecord r;
        const std::uint8_t n = u8(6);
        for (std::uint8_t i = 0; i < n; ++i) r.entries.push_back({text(), u64()});
        return r;
      }
    }
    return wire::JournalEndRecord{};
  }

 private:
  std::mt19937 rng_;
};

constexpr wire::RecordType kAllTypes[] = {
    wire::RecordType::kRunConfig,    wire::RecordType::kObservation,
    wire::RecordType::kSignEvent,    wire::RecordType::kTransition,
    wire::RecordType::kOutcome,      wire::RecordType::kFleetEvent,
    wire::RecordType::kGrantUpdate,  wire::RecordType::kArbitration,
    wire::RecordType::kPlanHint,     wire::RecordType::kTranscriptDigest,
    wire::RecordType::kGrantSlot,    wire::RecordType::kJournalEnd,
    wire::RecordType::kMetricSnapshot,
};

// ----------------------------------------------------- per-byte oracle --
// A reference encoder that appends every byte with a push_back,
// backpatches the payload length, and cuts an oversized payload back off
// `out` before the throw. The layouts are restated here field by field, so
// the sized encoder is checked against an independent statement of the
// wire format as well as a different mechanism.

class PerByteWriter {
 public:
  explicit PerByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v)); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void text(const std::string& s) {
    put(static_cast<std::uint16_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void cells(const std::vector<std::int32_t>& items) {
    put(static_cast<std::uint16_t>(items.size()));
    for (std::int32_t item : items) i32(item);
  }

 private:
  template <class U>
  void put(U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t>& out_;
};

void per_byte_fields(PerByteWriter& w, const wire::RunConfigRecord& r) {
  w.u32(r.fusion_window);
  w.u32(r.fusion_majority);
  w.f64(r.onset_confidence);
  w.f64(r.release_confidence);
  w.u32(r.min_hold);
  w.u32(r.release_misses);
  w.f64(r.reference_distance);
  w.u64(r.attending_timeout);
  w.u64(r.sequence_gap);
  w.u64(r.confirm_timeout);
  w.u64(r.execute_ticks);
  w.u64(r.abort_ticks);
  w.u32(r.observation_queue);
  w.u32(r.cells);
  w.u64(r.grant_ttl);
  w.u32(r.fleet_queue);
  w.u64(r.retry_backoff);
  w.u64(r.retry_backoff_max);
  w.u32(r.fairness_boost_per_loss);
  w.u32(r.fairness_boost_cap);
}
void per_byte_fields(PerByteWriter& w, const wire::ObservationRecord& r) {
  w.u32(r.stream_id);
  w.u64(r.sequence);
  w.u8(r.sign);
  w.u8(r.abort);
  w.f64(r.confidence);
}
void per_byte_fields(PerByteWriter& w, const wire::SignEventRecord& r) {
  w.u32(r.stream_id);
  w.u8(r.kind);
  w.u8(r.label);
  w.u64(r.onset_seq);
  w.u64(r.end_seq);
  w.f64(r.confidence);
}
void per_byte_fields(PerByteWriter& w, const wire::TransitionRecord& r) {
  w.u32(r.stream_id);
  for (std::uint8_t b : {r.from, r.to, r.set_ring, r.ring, r.fly_pattern,
                         r.pattern, r.command}) {
    w.u8(b);
  }
  w.u64(r.tick);
  w.text(r.event);
}
void per_byte_fields(PerByteWriter& w, const wire::OutcomeRecordWire& r) {
  w.u8(r.outcome);
  w.u32(r.stream_id);
  w.u64(r.final_sequence);
}
void per_byte_fields(PerByteWriter& w, const wire::FleetEventRecord& r) {
  w.u8(r.kind);
  w.u32(r.drone_id);
  w.u64(r.sequence);
  w.u8(r.to);
  w.u8(r.outcome);
  w.u8(r.label);
  w.u8(r.event_kind);
  w.u32(r.descriptor_drone_id);
  w.i32(r.descriptor_cell);
  w.i32(r.descriptor_human_id);
  w.f64(r.descriptor_battery_soc);
  w.f64(r.battery_soc);
}
void per_byte_fields(PerByteWriter& w, const wire::GrantUpdateRecord& r) {
  w.i32(r.cell);
  w.u8(r.state);
  w.u32(r.holder);
  w.u64(r.granted_seq);
  w.u64(r.expires_seq);
  w.u32(r.renewals);
  w.u8(r.conflict);
}
void per_byte_fields(PerByteWriter& w, const wire::ArbitrationRecord& r) {
  w.u32(r.loser);
  w.u32(r.winner);
  w.i32(r.human_id);
  w.u64(r.sequence);
  w.u64(r.retry_at);
  w.u8(r.reason);
}
void per_byte_fields(PerByteWriter& w, const wire::PlanHintRecord& r) {
  w.u32(r.drone_id);
  w.cells(r.granted_cells);
  w.cells(r.blocked_cells);
}
void per_byte_fields(PerByteWriter& w, const wire::TranscriptDigestRecord& r) {
  w.u32(r.stream_id);
  w.u32(r.entries);
  w.u64(r.digest);
}
void per_byte_fields(PerByteWriter& w, const wire::GrantSlotRecord& r) {
  w.i32(r.cell);
  w.u8(r.state);
  w.u32(r.holder);
  w.u64(r.granted_seq);
  w.u64(r.expires_seq);
  w.u32(r.renewals);
}
void per_byte_fields(PerByteWriter& w, const wire::JournalEndRecord& r) {
  w.u64(r.record_count);
}
void per_byte_fields(PerByteWriter& w, const wire::MetricSnapshotRecord& r) {
  w.u32(static_cast<std::uint32_t>(r.entries.size()));
  for (const wire::MetricSnapshotEntry& entry : r.entries) {
    w.text(entry.name);
    w.u64(entry.value);
  }
}

void per_byte_encode(std::vector<std::uint8_t>& out,
                   const wire::AnyRecord& record) {
  const std::size_t envelope_start = out.size();
  PerByteWriter writer(out);
  writer.u8(wire::kWireMagic);
  writer.u8(wire::kWireVersion);
  writer.u8(static_cast<std::uint8_t>(wire::record_type(record)));
  writer.u16(0);  // payload size backpatched below
  const std::size_t payload_start = out.size();
  std::visit([&writer](const auto& r) { per_byte_fields(writer, r); }, record);
  const std::size_t payload_size = out.size() - payload_start;
  if (payload_size > wire::kMaxPayloadSize) {
    out.resize(envelope_start);
    throw std::length_error("wire record payload exceeds kMaxPayloadSize");
  }
  out[envelope_start + 3] = static_cast<std::uint8_t>(payload_size);
  out[envelope_start + 4] = static_cast<std::uint8_t>(payload_size >> 8);
  writer.u16(wire::crc16(out.data() + envelope_start,
                         wire::kEnvelopeHeaderSize + payload_size));
}

std::vector<std::uint8_t> per_byte_encode_one(const wire::AnyRecord& record) {
  std::vector<std::uint8_t> out;
  per_byte_encode(out, record);
  return out;
}

std::vector<std::uint8_t> load_fixture() {
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(hdc::protocol::EventJournal::load(
      HDC_SOURCE_DIR "/tests/data/fleet_contention_8.journal", bytes));
  return bytes;
}

}  // namespace

// --------------------------------------------------------------- basics --

TEST(Wire, Crc16MatchesCcittFalseCheckValue) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(wire::crc16(check, sizeof(check)), 0x29B1);
}

TEST(Wire, Crc16MatchesABitwiseReferenceAtEveryLengthAndAlignment) {
  // crc16 folds eight bytes per step and the rest one at a time; lengths
  // 0-130 at start offsets 0-7 cover every block count, every tail length
  // and every alignment of the eight-byte loads.
  const auto bitwise = [](const std::uint8_t* data, std::size_t size) {
    std::uint16_t crc = 0xFFFFU;
    for (std::size_t i = 0; i < size; ++i) {
      crc = static_cast<std::uint16_t>(crc ^ (data[i] << 8));
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 0x8000U) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021U)
                              : static_cast<std::uint16_t>(crc << 1);
      }
    }
    return crc;
  };
  std::mt19937 rng(0xC0FFEEu);
  std::vector<std::uint8_t> buffer(8 + 130);
  for (std::uint8_t& byte : buffer) byte = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 130; ++size) {
      const std::uint8_t* data = buffer.data() + offset;
      EXPECT_EQ(wire::crc16(data, size), bitwise(data, size))
          << "offset " << offset << ", size " << size;
    }
  }
}

TEST(Wire, EmptyBufferParsesToZeroRecords) {
  std::vector<wire::AnyRecord> records;
  wire::WireError error;
  EXPECT_TRUE(wire::parse_all({}, records, error));
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(error.code, wire::WireErrorCode::kNone);
}

// ------------------------------------------------------------ round-trip --

TEST(Wire, FuzzRoundTripEveryRecordTypeIsLosslessAndCanonical) {
  Fuzz fuzz(0xD0A11u);  // fixed seed: deterministic corpus
  for (int iteration = 0; iteration < 64; ++iteration) {
    std::vector<wire::AnyRecord> originals;
    std::vector<std::uint8_t> buffer;
    for (wire::RecordType type : kAllTypes) {
      originals.push_back(fuzz.record(type));
      wire::encode(buffer, originals.back());
    }

    std::vector<wire::AnyRecord> parsed;
    wire::WireError error;
    ASSERT_TRUE(wire::parse_all(buffer, parsed, error))
        << "iteration " << iteration << ": " << wire::to_string(error.code)
        << " at " << error.offset << " (" << error.message << ")";
    ASSERT_EQ(parsed.size(), originals.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      EXPECT_EQ(parsed[i], originals[i]) << "record " << i;
    }

    // Canonical encoding: re-encoding the parse reproduces the bytes.
    std::vector<std::uint8_t> reencoded;
    for (const wire::AnyRecord& record : parsed) {
      wire::encode(reencoded, record);
    }
    EXPECT_EQ(reencoded, buffer) << "iteration " << iteration;
  }
}

// --------------------------------------------------------- golden bytes --
// Pinned envelope layouts: if either test breaks, the wire layout changed
// and kWireVersion MUST be bumped (docs/WIRE_FORMAT.md).

TEST(Wire, GoldenObservationBytes) {
  const wire::ObservationRecord record{7, 0x0000456789ABCDEFull, 2, 0, 0.5};
  const std::vector<std::uint8_t> expected = {
      0xDC, 0x02, 0x02, 0x16, 0x00,                    // magic ver type len
      0x07, 0x00, 0x00, 0x00,                          // stream_id
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x00, 0x00,  // sequence
      0x02, 0x00,                                      // sign, abort
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // confidence 0.5
      0x57, 0xF0,                                      // crc16
  };
  EXPECT_EQ(wire::encode_one(record), expected);

  std::vector<wire::AnyRecord> parsed;
  wire::WireError error;
  ASSERT_TRUE(wire::parse_all(expected, parsed, error));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], wire::AnyRecord(record));
}

TEST(Wire, GoldenTransitionBytes) {
  const wire::TransitionRecord record{1, 1, 3, 1, 2, 0, 4, 1, 1000, "confirm"};
  const std::vector<std::uint8_t> expected = {
      0xDC, 0x02, 0x04, 0x1C, 0x00,                    // magic ver type len
      0x01, 0x00, 0x00, 0x00,                          // stream_id
      0x01, 0x03, 0x01, 0x02, 0x00, 0x04, 0x01,        // state/command bytes
      0xE8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // tick 1000
      0x07, 0x00,                                      // event length
      0x63, 0x6F, 0x6E, 0x66, 0x69, 0x72, 0x6D,        // "confirm"
      0x82, 0x13,                                      // crc16
  };
  EXPECT_EQ(wire::encode_one(record), expected);

  std::vector<wire::AnyRecord> parsed;
  wire::WireError error;
  ASSERT_TRUE(wire::parse_all(expected, parsed, error));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], wire::AnyRecord(record));
}

TEST(Wire, GoldenMetricSnapshotBytes) {
  const wire::MetricSnapshotRecord record{
      {{"coordination_grants_total", 3}, {"interaction_events_total", 7}}};
  const std::vector<std::uint8_t> expected = {
      0xDC, 0x02, 0x0D, 0x49, 0x00,                    // magic ver type len
      0x02, 0x00, 0x00, 0x00,                          // entry count
      0x19, 0x00,                                      // name length 25
      0x63, 0x6F, 0x6F, 0x72, 0x64, 0x69, 0x6E, 0x61,  // "coordina"
      0x74, 0x69, 0x6F, 0x6E, 0x5F, 0x67, 0x72, 0x61,  // "tion_gra"
      0x6E, 0x74, 0x73, 0x5F, 0x74, 0x6F, 0x74, 0x61,  // "nts_tota"
      0x6C,                                            // "l"
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // value 3
      0x18, 0x00,                                      // name length 24
      0x69, 0x6E, 0x74, 0x65, 0x72, 0x61, 0x63, 0x74,  // "interact"
      0x69, 0x6F, 0x6E, 0x5F, 0x65, 0x76, 0x65, 0x6E,  // "ion_even"
      0x74, 0x73, 0x5F, 0x74, 0x6F, 0x74, 0x61, 0x6C,  // "ts_total"
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // value 7
      0xA8, 0xA9,                                      // crc16
  };
  EXPECT_EQ(wire::encode_one(record), expected);

  std::vector<wire::AnyRecord> parsed;
  wire::WireError error;
  ASSERT_TRUE(wire::parse_all(expected, parsed, error));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], wire::AnyRecord(record));
}

// Pinned layouts for the ten types the tests above do not cover. The type
// byte doubles as a check on the AnyRecord alternative order, which must
// match RecordType (record_type() is derived from the variant index).
TEST(Wire, GoldenBytesForEveryOtherRecordType) {
  struct Golden {
    const char* name;
    wire::AnyRecord record;
    std::vector<std::uint8_t> bytes;
  };
  const Golden cases[] = {
      {"RunConfig",
       wire::RunConfigRecord{1, 2, 0.5, 0.25, 3, 4, 2.0, 5, 6, 7, 8, 9, 10,
                             11, 12, 13, 14, 15, 16, 17},
       {
           0xDC, 0x02, 0x01, 0x7C, 0x00,                    // header, len 124
           0x01, 0x00, 0x00, 0x00,                          // fusion_window
           0x02, 0x00, 0x00, 0x00,                          // fusion_majority
           0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // onset 0.5
           0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F,  // release 0.25
           0x03, 0x00, 0x00, 0x00,                          // min_hold
           0x04, 0x00, 0x00, 0x00,                          // release_misses
           0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,  // ref distance 2
           0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // attending_timeout
           0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // sequence_gap
           0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // confirm_timeout
           0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // execute_ticks
           0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // abort_ticks
           0x0A, 0x00, 0x00, 0x00,                          // observation_queue
           0x0B, 0x00, 0x00, 0x00,                          // cells
           0x0C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // grant_ttl
           0x0D, 0x00, 0x00, 0x00,                          // fleet_queue
           0x0E, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // retry_backoff
           0x0F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // retry_backoff_max
           0x10, 0x00, 0x00, 0x00,                          // boost_per_loss
           0x11, 0x00, 0x00, 0x00,                          // boost_cap
           0x0E, 0xA4,                                      // crc16
       }},
      {"SignEvent",
       wire::SignEventRecord{2, 1, 3, 0x10, 0x20, 0.75},
       {
           0xDC, 0x02, 0x03, 0x1E, 0x00,                    // header, len 30
           0x02, 0x00, 0x00, 0x00,                          // stream_id
           0x01, 0x03,                                      // kind, label
           0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // onset_seq
           0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // end_seq
           0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE8, 0x3F,  // confidence 0.75
           0xCC, 0xB7,                                      // crc16
       }},
      {"Outcome",
       wire::OutcomeRecordWire{4, 9, 0x1234},
       {
           0xDC, 0x02, 0x05, 0x0D, 0x00,                    // header, len 13
           0x04,                                            // outcome
           0x09, 0x00, 0x00, 0x00,                          // stream_id
           0x34, 0x12, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // final_sequence
           0x7C, 0xB2,                                      // crc16
       }},
      {"FleetEvent",
       wire::FleetEventRecord{0, 3, 0x40, 2, 1, 3, 1, 3, -2, 5, 0.5, 1.0},
       {
           0xDC, 0x02, 0x06, 0x2D, 0x00,                    // header, len 45
           0x00,                                            // kind
           0x03, 0x00, 0x00, 0x00,                          // drone_id
           0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // sequence
           0x02, 0x01, 0x03, 0x01,                          // to..event_kind
           0x03, 0x00, 0x00, 0x00,                          // descriptor drone
           0xFE, 0xFF, 0xFF, 0xFF,                          // descriptor cell -2
           0x05, 0x00, 0x00, 0x00,                          // descriptor human
           0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // descriptor soc
           0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // battery_soc 1.0
           0xFB, 0xEC,                                      // crc16
       }},
      {"GrantUpdate",
       wire::GrantUpdateRecord{-1, 2, 4, 0x100, 0x200, 3, 1},
       {
           0xDC, 0x02, 0x07, 0x1E, 0x00,                    // header, len 30
           0xFF, 0xFF, 0xFF, 0xFF,                          // cell -1
           0x02,                                            // state
           0x04, 0x00, 0x00, 0x00,                          // holder
           0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // granted_seq
           0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // expires_seq
           0x03, 0x00, 0x00, 0x00,                          // renewals
           0x01,                                            // conflict
           0xFF, 0x8D,                                      // crc16
       }},
      {"Arbitration",
       wire::ArbitrationRecord{1, 2, -3, 0x50, 0x90, 1},
       {
           0xDC, 0x02, 0x08, 0x1D, 0x00,                    // header, len 29
           0x01, 0x00, 0x00, 0x00,                          // loser
           0x02, 0x00, 0x00, 0x00,                          // winner
           0xFD, 0xFF, 0xFF, 0xFF,                          // human_id -3
           0x50, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // sequence
           0x90, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // retry_at
           0x01,                                            // reason
           0x17, 0x16,                                      // crc16
       }},
      {"PlanHint",
       wire::PlanHintRecord{6, {1, -1}, {7}},
       {
           0xDC, 0x02, 0x09, 0x14, 0x00,                    // header, len 20
           0x06, 0x00, 0x00, 0x00,                          // drone_id
           0x02, 0x00,                                      // granted count
           0x01, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF,  // 1, -1
           0x01, 0x00,                                      // blocked count
           0x07, 0x00, 0x00, 0x00,                          // 7
           0x3F, 0x6C,                                      // crc16
       }},
      {"TranscriptDigest",
       wire::TranscriptDigestRecord{4, 12, 0xCBF29CE484222325ull},
       {
           0xDC, 0x02, 0x0A, 0x10, 0x00,                    // header, len 16
           0x04, 0x00, 0x00, 0x00,                          // stream_id
           0x0C, 0x00, 0x00, 0x00,                          // entries
           0x25, 0x23, 0x22, 0x84, 0xE4, 0x9C, 0xF2, 0xCB,  // digest
           0xAE, 0xC1,                                      // crc16
       }},
      {"GrantSlot",
       wire::GrantSlotRecord{5, 4, 2, 0x30, 0x60, 1},
       {
           0xDC, 0x02, 0x0B, 0x1D, 0x00,                    // header, len 29
           0x05, 0x00, 0x00, 0x00,                          // cell
           0x04,                                            // state
           0x02, 0x00, 0x00, 0x00,                          // holder
           0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // granted_seq
           0x60, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // expires_seq
           0x01, 0x00, 0x00, 0x00,                          // renewals
           0x05, 0x30,                                      // crc16
       }},
      {"JournalEnd",
       wire::JournalEndRecord{42},
       {
           0xDC, 0x02, 0x0C, 0x08, 0x00,                    // header, len 8
           0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // record_count
           0x43, 0x8A,                                      // crc16
       }},
  };

  // Together with the three golden tests above, every type is pinned.
  std::vector<std::uint8_t> types = {
      static_cast<std::uint8_t>(wire::RecordType::kObservation),
      static_cast<std::uint8_t>(wire::RecordType::kTransition),
      static_cast<std::uint8_t>(wire::RecordType::kMetricSnapshot)};
  for (const Golden& golden : cases) {
    SCOPED_TRACE(golden.name);
    EXPECT_STREQ(wire::to_string(wire::record_type(golden.record)),
                 golden.name);
    EXPECT_EQ(wire::encode_one(golden.record), golden.bytes);

    std::vector<wire::AnyRecord> parsed;
    wire::WireError error;
    ASSERT_TRUE(wire::parse_all(golden.bytes, parsed, error))
        << error.message;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0], golden.record);
    types.push_back(golden.bytes[2]);
  }
  std::sort(types.begin(), types.end());
  ASSERT_EQ(types.size(), std::size(kAllTypes));
  for (std::size_t i = 0; i < types.size(); ++i) {
    EXPECT_EQ(types[i], static_cast<std::uint8_t>(kAllTypes[i]));
  }
}

// ----------------------------------------------------- rejection matrix --

TEST(Wire, TruncationAtEveryNonBoundaryPrefixIsRejected) {
  Fuzz fuzz(0xBEEFu);
  std::vector<std::uint8_t> buffer;
  std::vector<std::size_t> boundaries{0};
  for (wire::RecordType type : kAllTypes) {
    wire::encode(buffer, fuzz.record(type));
    boundaries.push_back(buffer.size());
  }

  for (std::size_t cut = 0; cut < buffer.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(buffer.begin(),
                                           buffer.begin() + cut);
    std::vector<wire::AnyRecord> records;
    wire::WireError error;
    const bool ok = wire::parse_all(prefix, records, error);
    const bool at_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    if (at_boundary) {
      // A cut exactly between envelopes is a clean (shorter) journal at
      // this layer; the JournalEnd record-count check catches it above.
      EXPECT_TRUE(ok) << "cut at " << cut;
    } else {
      ASSERT_FALSE(ok) << "cut at " << cut;
      EXPECT_TRUE(error.code == wire::WireErrorCode::kTruncated ||
                  error.code == wire::WireErrorCode::kBadLength)
          << "cut at " << cut << ": " << wire::to_string(error.code);
      EXPECT_FALSE(error.message.empty());
      // The error names the envelope that was cut short.
      EXPECT_GE(error.offset, records.empty() ? 0u : boundaries[records.size()]);
      EXPECT_LT(error.offset, cut == 0 ? 1u : cut + 1);
    }
  }
}

TEST(Wire, EveryPossibleBitFlipIsRejected) {
  const std::vector<std::uint8_t> golden = wire::encode_one(
      wire::ObservationRecord{7, 0x0000456789ABCDEFull, 2, 0, 0.5});
  for (std::size_t byte = 0; byte < golden.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> corrupt = golden;
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
      std::vector<wire::AnyRecord> records;
      wire::WireError error;
      EXPECT_FALSE(wire::parse_all(corrupt, records, error))
          << "flip of byte " << byte << " bit " << bit << " went undetected";
      EXPECT_NE(error.code, wire::WireErrorCode::kNone);
    }
  }
}

TEST(Wire, OversizedDeclaredLengthIsRejectedAtTheLengthField) {
  // Declared length far beyond the per-record cap, with a buffer that
  // would even cover it: the cap rejects first.
  std::vector<std::uint8_t> bytes = {0xDC, 0x02, 0x02, 0xFF, 0xFF};
  bytes.resize(wire::kEnvelopeHeaderSize + 0xFFFF +
               wire::kEnvelopeTrailerSize);
  wire::WireError error = parse_expecting_error(bytes);
  EXPECT_EQ(error.code, wire::WireErrorCode::kBadLength);
  EXPECT_EQ(error.offset, 3u);

  // Declared length under the cap but overrunning the actual buffer.
  std::vector<std::uint8_t> short_buffer = {0xDC, 0x02, 0x02, 0x40, 0x00,
                                            0x00, 0x00, 0x00};
  error = parse_expecting_error(short_buffer);
  EXPECT_EQ(error.code, wire::WireErrorCode::kBadLength);
  EXPECT_EQ(error.offset, 3u);
}

TEST(Wire, FutureVersionIsRejectedBeforeTheChecksum) {
  std::vector<std::uint8_t> bytes =
      wire::encode_one(wire::JournalEndRecord{42});
  bytes[1] = wire::kWireVersion + 1;  // stale CRC on purpose: version first
  wire::WireError error = parse_expecting_error(bytes);
  EXPECT_EQ(error.code, wire::WireErrorCode::kBadVersion);
  EXPECT_EQ(error.offset, 1u);
  EXPECT_NE(error.message.find("future"), std::string::npos);

  // Superseded versions (v1 predates the MetricSnapshot record) and the
  // never-valid version 0 are rejected at the same offset.
  bytes[1] = 1;
  error = parse_expecting_error(bytes);
  EXPECT_EQ(error.code, wire::WireErrorCode::kBadVersion);
  EXPECT_EQ(error.offset, 1u);

  bytes[1] = 0;
  error = parse_expecting_error(bytes);
  EXPECT_EQ(error.code, wire::WireErrorCode::kBadVersion);
  EXPECT_EQ(error.offset, 1u);
}

TEST(Wire, BadMagicIsRejectedAtTheEnvelopeStart) {
  std::vector<std::uint8_t> bytes =
      wire::encode_one(wire::JournalEndRecord{42});
  bytes[0] = 0x00;
  const wire::WireError error = parse_expecting_error(bytes);
  EXPECT_EQ(error.code, wire::WireErrorCode::kBadMagic);
  EXPECT_EQ(error.offset, 0u);
}

TEST(Wire, UnknownRecordTypeIsRejectedEvenWithAValidChecksum) {
  for (std::uint8_t type : {std::uint8_t{0}, std::uint8_t{14},
                            std::uint8_t{0x7F}, std::uint8_t{0xFF}}) {
    const std::vector<std::uint8_t> bytes =
        envelope(wire::kWireVersion, type,
                 {0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00});
    const wire::WireError error = parse_expecting_error(bytes);
    EXPECT_EQ(error.code, wire::WireErrorCode::kBadRecordType)
        << "type byte " << int(type);
    EXPECT_EQ(error.offset, 2u);
  }
}

TEST(Wire, OutOfRangeEnumIsRejectedAtTheOffendingField) {
  // encode_one writes raw bytes, so an out-of-range enum CAN be produced
  // by a buggy/hostile writer with a perfectly valid CRC.
  wire::ObservationRecord record{7, 99, 0, 0, 0.25};
  record.sign = 9;  // signs::HumanSign tops out at 3
  const wire::WireError error =
      parse_expecting_error(wire::encode_one(record));
  EXPECT_EQ(error.code, wire::WireErrorCode::kBadPayload);
  // sign sits 12 bytes into the payload (stream_id + sequence).
  EXPECT_EQ(error.offset, wire::kEnvelopeHeaderSize + 12);
  EXPECT_NE(error.message.find("HumanSign"), std::string::npos);
}

TEST(Wire, TraceIdentityBeyondTheTraceIdRangeIsRejectedAtTheField) {
  // make_trace_id keeps 16 bits of stream + 1 and 48 bits of sequence:
  // 65534 is the last stream (or drone) id with its own trace ids (65535
  // would get the zero "no context" id, s + 65536 would alias s), and
  // 2^48 - 1 the last sequence (2^48 would alias sequence 0).
  constexpr std::uint32_t kLastStream = hdc::telemetry::kMaxTraceStreamId;
  constexpr std::uint64_t kLastSequence = hdc::telemetry::kMaxTraceSequence;
  static_assert(kLastStream == 65534u);
  static_assert(kLastSequence == (std::uint64_t{1} << 48) - 1);
  const wire::AnyRecord valid[] = {
      wire::ObservationRecord{kLastStream, kLastSequence, 1, 0, 0.5},
      wire::FleetEventRecord{0, kLastStream, kLastSequence, 2, 1, 3, 1, 3, -2, 5, 0.5, 1.0},
  };
  for (const wire::AnyRecord& record : valid) {
    std::vector<wire::AnyRecord> parsed;
    wire::WireError error;
    ASSERT_TRUE(wire::parse_all(wire::encode_one(record), parsed, error)) << error.message;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0], record);
  }

  // The stream id opens the Observation payload and the sequence follows
  // it; in a FleetEvent both follow the kind byte.
  struct Case {
    wire::AnyRecord record;
    std::size_t field_offset;
  };
  std::vector<Case> cases;
  for (const std::uint32_t id : {kLastStream + 1, 65536u + 7u, ~std::uint32_t{0}}) {
    cases.push_back({wire::ObservationRecord{id, 9, 1, 0, 0.5}, 0});
    cases.push_back({wire::FleetEventRecord{0, id, 9, 2, 1, 3, 1, 3, -2, 5, 0.5, 1.0}, 1});
  }
  for (const std::uint64_t sequence : {kLastSequence + 1, ~std::uint64_t{0}}) {
    cases.push_back({wire::ObservationRecord{7, sequence, 1, 0, 0.5}, 4});
    cases.push_back({wire::FleetEventRecord{0, 3, sequence, 2, 1, 3, 1, 3, -2, 5, 0.5, 1.0}, 5});
  }
  for (const Case& c : cases) {
    const wire::WireError error = parse_expecting_error(wire::encode_one(c.record));
    EXPECT_EQ(error.code, wire::WireErrorCode::kBadPayload) << error.message;
    EXPECT_EQ(error.offset, wire::kEnvelopeHeaderSize + c.field_offset) << error.message;
    EXPECT_NE(error.message.find("trace-id range"), std::string::npos) << error.message;
  }
}

TEST(Wire, TrailingPayloadGarbageIsRejected) {
  // A JournalEnd payload with one slack byte, valid CRC: decoders must
  // consume the payload exactly — canonical encoding has no padding.
  const std::vector<std::uint8_t> bytes = envelope(
      wire::kWireVersion,
      static_cast<std::uint8_t>(wire::RecordType::kJournalEnd),
      {0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00});
  const wire::WireError error = parse_expecting_error(bytes);
  EXPECT_EQ(error.code, wire::WireErrorCode::kBadPayload);
  EXPECT_EQ(error.offset, wire::kEnvelopeHeaderSize + 8);
  EXPECT_NE(error.message.find("trailing"), std::string::npos);
}

TEST(Wire, InnerLengthOverrunIsRejectedNotOverread) {
  // A Transition whose event-length field claims more bytes than the
  // payload holds (inner overrun behind a valid CRC).
  std::vector<std::uint8_t> payload = {
      0x01, 0x00, 0x00, 0x00,                          // stream_id
      0x01, 0x03, 0x01, 0x02, 0x00, 0x04, 0x01,        // enums
      0xE8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // tick
      0xFF, 0x00,                                      // event length 255...
      0x63,                                            // ...but 1 byte left
  };
  const std::vector<std::uint8_t> bytes = envelope(
      wire::kWireVersion,
      static_cast<std::uint8_t>(wire::RecordType::kTransition), payload);
  const wire::WireError error = parse_expecting_error(bytes);
  EXPECT_EQ(error.code, wire::WireErrorCode::kBadPayload);
  EXPECT_NE(error.message.find("overruns"), std::string::npos);
}

TEST(Wire, EncoderRefusesRecordsTheParserWouldReject) {
  // drone_id + two u16 counts + 4094 cells is exactly kMaxPayloadSize.
  wire::PlanHintRecord largest{3, std::vector<std::int32_t>(4094, 5), {}};
  std::vector<wire::AnyRecord> parsed;
  wire::WireError error;
  ASSERT_TRUE(wire::parse_all(wire::encode_one(largest), parsed, error))
      << error.message;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], wire::AnyRecord(largest));

  const std::vector<std::uint8_t> before =
      wire::encode_one(wire::JournalEndRecord{1});
  std::vector<std::uint8_t> out = before;
  wire::PlanHintRecord too_large = largest;
  too_large.granted_cells.push_back(6);
  EXPECT_THROW(wire::encode(out, too_large), std::length_error);
  EXPECT_EQ(out, before);

  // 70,000 bytes would wrap the event's u16 length field.
  wire::TransitionRecord long_event{1, 1, 3, 1, 2, 0, 4, 1, 1000,
                                    std::string(70000, 'x')};
  EXPECT_THROW(wire::encode(out, long_event), std::length_error);
  EXPECT_EQ(out, before);
}

TEST(Wire, ParseAllKeepsRecordsParsedBeforeTheFault) {
  std::vector<std::uint8_t> buffer;
  wire::encode(buffer, wire::ObservationRecord{1, 10, 1, 0, 0.5});
  wire::encode(buffer, wire::ObservationRecord{2, 20, 2, 0, 0.75});
  const std::size_t fault_at = buffer.size();
  std::vector<std::uint8_t> bad =
      wire::encode_one(wire::JournalEndRecord{3});
  bad[1] = 9;  // future version
  buffer.insert(buffer.end(), bad.begin(), bad.end());

  std::vector<wire::AnyRecord> records;
  wire::WireError error;
  EXPECT_FALSE(wire::parse_all(buffer, records, error));
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(error.code, wire::WireErrorCode::kBadVersion);
  EXPECT_EQ(error.offset, fault_at + 1);
}

// -------------------------------------------- sized encoder vs. oracle --

TEST(WireEncoder, MatchesThePerByteOracleOnRandomRecordsOfEveryType) {
  Fuzz fuzz(0x512EDu);
  std::vector<std::uint8_t> sized;
  std::vector<std::uint8_t> oracle;
  for (int iteration = 0; iteration < 200; ++iteration) {
    for (wire::RecordType type : kAllTypes) {
      const wire::AnyRecord record = fuzz.record(type);
      wire::encode(sized, record);
      per_byte_encode(oracle, record);
      ASSERT_EQ(sized, oracle) << "iteration " << iteration << ", "
                               << wire::to_string(type);
    }
  }
  EXPECT_GT(sized.size(), 200u * std::size(kAllTypes) *
                              (wire::kEnvelopeHeaderSize +
                               wire::kEnvelopeTrailerSize));
}

TEST(WireEncoder, MatchesThePerByteOracleOnEmptyListsAndText) {
  const wire::AnyRecord cases[] = {
      wire::TransitionRecord{1, 1, 3, 1, 2, 0, 4, 1, 1000, ""},
      wire::PlanHintRecord{6, {}, {}},
      wire::PlanHintRecord{6, {}, {7}},
      wire::PlanHintRecord{6, {1, -1}, {}},
      wire::MetricSnapshotRecord{},
      wire::MetricSnapshotRecord{{{"", 0}, {"x", 1}}},
  };
  for (const wire::AnyRecord& record : cases) {
    SCOPED_TRACE(wire::to_string(wire::record_type(record)));
    const std::vector<std::uint8_t> bytes = wire::encode_one(record);
    EXPECT_EQ(bytes, per_byte_encode_one(record));
    std::vector<wire::AnyRecord> parsed;
    wire::WireError error;
    ASSERT_TRUE(wire::parse_all(bytes, parsed, error)) << error.message;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0], record);
  }
}

TEST(WireEncoder, MatchesThePerByteOracleAtExactlyTheMaximumPayload) {
  // drone_id + two u16 counts + 4094 cells, and a Transition's 21 fixed
  // payload bytes + 2 length bytes + the rest of the cap as event text.
  const std::size_t text_size = wire::kMaxPayloadSize - 4 - 7 - 8 - 2;
  const wire::AnyRecord cases[] = {
      wire::PlanHintRecord{3, std::vector<std::int32_t>(4094, 5), {}},
      wire::PlanHintRecord{3, std::vector<std::int32_t>(2000, -1),
                           std::vector<std::int32_t>(2094, 9)},
      wire::TransitionRecord{1, 1, 3, 1, 2, 0, 4, 1, 1000,
                             std::string(text_size, 'x')},
  };
  for (const wire::AnyRecord& record : cases) {
    SCOPED_TRACE(wire::to_string(wire::record_type(record)));
    const std::vector<std::uint8_t> bytes = wire::encode_one(record);
    ASSERT_EQ(bytes.size(), wire::kEnvelopeHeaderSize + wire::kMaxPayloadSize +
                                wire::kEnvelopeTrailerSize);
    EXPECT_EQ(bytes, per_byte_encode_one(record));
  }
}

TEST(WireEncoder, RefusesWhatTheOracleRefusesBeforeTouchingTheOutput) {
  // The two refusals of EncoderRefusesRecordsTheParserWouldReject: one
  // cell over the cap, and an event text long enough to wrap its u16
  // length. The oracle trims what it appended; the sized encoder must
  // refuse before it appends anything, so not even the capacity moves.
  wire::PlanHintRecord too_large{3, std::vector<std::int32_t>(4095, 5), {}};
  wire::TransitionRecord long_event{1, 1, 3, 1, 2, 0, 4, 1, 1000,
                                    std::string(70000, 'x')};
  const std::vector<std::uint8_t> before =
      wire::encode_one(wire::JournalEndRecord{1});
  for (const wire::AnyRecord& record :
       {wire::AnyRecord(too_large), wire::AnyRecord(long_event)}) {
    SCOPED_TRACE(wire::to_string(wire::record_type(record)));
    std::vector<std::uint8_t> oracle = before;
    EXPECT_THROW(per_byte_encode(oracle, record), std::length_error);
    EXPECT_EQ(oracle, before);

    std::vector<std::uint8_t> out = before;
    const std::size_t capacity = out.capacity();
    EXPECT_THROW(wire::encode(out, record), std::length_error);
    EXPECT_EQ(out, before);
    EXPECT_EQ(out.capacity(), capacity);
  }
}

TEST(WireEncoder, ReencodingTheCommittedFixtureReproducesEveryByte) {
  const std::vector<std::uint8_t> fixture = load_fixture();
  ASSERT_EQ(fixture.size(), 58'504u);
  std::vector<wire::AnyRecord> records;
  wire::WireError error;
  ASSERT_TRUE(wire::parse_all(fixture, records, error)) << error.message;
  ASSERT_EQ(records.size(), 1'902u);

  std::vector<std::uint8_t> sized;
  std::vector<std::uint8_t> oracle;
  for (const wire::AnyRecord& record : records) {
    wire::encode(sized, record);
    per_byte_encode(oracle, record);
  }
  EXPECT_EQ(sized, fixture);
  EXPECT_EQ(oracle, fixture);
}

// ---------------------------------------------- parse_all's reservation --

namespace {

/// parse_record in a loop, with no reservation: the records it keeps and
/// the error it reports are the ones parse_all must keep and report.
wire::WireError parse_record_loop(std::span<const std::uint8_t> buffer,
                                  std::size_t& records) {
  std::size_t offset = 0;
  wire::AnyRecord record;
  wire::WireError error;
  records = 0;
  while (wire::parse_record(buffer, offset, record, error) ==
         wire::ParseResult::kOk) {
    ++records;
  }
  return error;
}

/// The envelopes of n valid records, cycling through every type.
std::vector<std::uint8_t> valid_prefix(std::size_t n) {
  Fuzz fuzz(0xFA017u);
  std::vector<std::uint8_t> buffer;
  for (std::size_t i = 0; i < n; ++i) {
    wire::encode(buffer, fuzz.record(kAllTypes[i % std::size(kAllTypes)]));
  }
  return buffer;
}

}  // namespace

TEST(WireParse, TheCommittedFixtureParsesIntoOneAllocation) {
  const std::vector<std::uint8_t> fixture = load_fixture();
  std::vector<wire::AnyRecord> records;
  wire::WireError error;
  ASSERT_TRUE(wire::parse_all(fixture, records, error)) << error.message;
  EXPECT_EQ(records.size(), 1'902u);
  EXPECT_EQ(records.capacity(), records.size());
}

TEST(WireParse, AFloodOfEmptyEnvelopesReservesOnlyItsWellFormedHeaders) {
  // Zero-length envelopes with valid CRCs: every header passes the checks
  // made before the CRC, and the first one fails in its payload.
  constexpr std::size_t kValid = 20;
  constexpr std::size_t kFlood = 500;
  std::vector<std::uint8_t> buffer = valid_prefix(kValid);
  const std::size_t fault_at = buffer.size();
  const std::vector<std::uint8_t> empty = envelope(
      wire::kWireVersion,
      static_cast<std::uint8_t>(wire::RecordType::kJournalEnd), {});
  for (std::size_t i = 0; i < kFlood; ++i) {
    buffer.insert(buffer.end(), empty.begin(), empty.end());
  }

  std::size_t loop_records = 0;
  const wire::WireError expected = parse_record_loop(buffer, loop_records);
  ASSERT_EQ(loop_records, kValid);

  std::vector<wire::AnyRecord> records;
  wire::WireError error;
  EXPECT_FALSE(wire::parse_all(buffer, records, error));
  EXPECT_EQ(records.size(), kValid);
  EXPECT_EQ(error.code, wire::WireErrorCode::kBadPayload);
  EXPECT_EQ(error.offset, fault_at + wire::kEnvelopeHeaderSize);
  EXPECT_EQ(error.code, expected.code);
  EXPECT_EQ(error.offset, expected.offset);
  EXPECT_EQ(error.message, expected.message);
  EXPECT_LE(records.capacity(), kValid + kFlood);
}

TEST(WireParse, ABadMagicByteStopsTheCountAtTheFault) {
  constexpr std::size_t kValid = 30;
  std::vector<std::uint8_t> buffer = valid_prefix(kValid);
  const std::size_t fault_at = buffer.size();
  const std::vector<std::uint8_t> tail = valid_prefix(kValid);
  buffer.insert(buffer.end(), tail.begin(), tail.end());
  buffer[fault_at] = 0x00;  // the 31st envelope loses its magic byte

  std::size_t loop_records = 0;
  const wire::WireError expected = parse_record_loop(buffer, loop_records);
  ASSERT_EQ(loop_records, kValid);

  std::vector<wire::AnyRecord> records;
  wire::WireError error;
  EXPECT_FALSE(wire::parse_all(buffer, records, error));
  EXPECT_EQ(records.size(), kValid);
  EXPECT_EQ(error.code, wire::WireErrorCode::kBadMagic);
  EXPECT_EQ(error.offset, fault_at);
  EXPECT_EQ(error.code, expected.code);
  EXPECT_EQ(error.offset, expected.offset);
  EXPECT_EQ(error.message, expected.message);
  // The well-formed headers behind the fault are never counted.
  EXPECT_EQ(records.capacity(), kValid);

  // Reporting envelopes changes none of that; they stop at the same record.
  std::vector<wire::AnyRecord> with_envelopes;
  std::vector<wire::Envelope> envelopes;
  wire::WireError envelope_error;
  EXPECT_FALSE(wire::parse_all(buffer, with_envelopes, envelopes, envelope_error));
  EXPECT_EQ(with_envelopes, records);
  EXPECT_EQ(envelope_error.offset, error.offset);
  EXPECT_EQ(envelopes.size(), kValid);
  EXPECT_EQ(envelopes.capacity(), kValid);
}

TEST(WireParse, AppendsAfterRecordsAlreadyInTheOutput) {
  const std::vector<std::uint8_t> buffer = valid_prefix(13);
  std::vector<wire::AnyRecord> records;
  wire::WireError error;
  ASSERT_TRUE(wire::parse_all(buffer, records, error));
  ASSERT_TRUE(wire::parse_all(buffer, records, error));
  ASSERT_EQ(records.size(), 26u);
  for (std::size_t i = 0; i < 13; ++i) EXPECT_EQ(records[i], records[i + 13]);
}

// ------------------------------------------------------------ envelopes --

TEST(WireParse, EnvelopesAreTheBytesEachRecordParsedFrom) {
  const std::vector<std::uint8_t> fixture = load_fixture();
  std::vector<wire::AnyRecord> records;
  std::vector<wire::Envelope> envelopes;
  wire::WireError error;
  ASSERT_TRUE(wire::parse_all(fixture, records, envelopes, error)) << error.message;
  ASSERT_EQ(records.size(), 1'902u);
  ASSERT_EQ(envelopes.size(), records.size());
  EXPECT_EQ(records.capacity(), records.size());
  EXPECT_EQ(envelopes.capacity(), envelopes.size());

  // The envelopes tile the buffer in order, and each is its record's
  // canonical encoding.
  const std::uint8_t* next = fixture.data();
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "record " << i);
    ASSERT_EQ(envelopes[i].data(), next);
    next += envelopes[i].size();
    EXPECT_EQ(wire::envelope_type(envelopes[i]), wire::record_type(records[i]));
    const std::vector<std::uint8_t> encoded = wire::encode_one(records[i]);
    EXPECT_TRUE(std::ranges::equal(envelopes[i], encoded));
  }
  EXPECT_EQ(next, fixture.data() + fixture.size());
}

TEST(WireParse, NextEnvelopeChecksHeadersButNotTheCrc) {
  constexpr std::size_t kValid = 13;
  std::vector<std::uint8_t> buffer = valid_prefix(kValid);
  buffer.back() ^= 0x01;  // the last envelope's CRC no longer matches

  std::size_t offset = 0;
  wire::Envelope envelope;
  wire::WireError error;
  std::size_t walked = 0;
  while (wire::next_envelope(buffer, offset, envelope, error) ==
         wire::ParseResult::kOk) {
    ++walked;
  }
  EXPECT_EQ(walked, kValid);
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(envelope.data() + envelope.size(), buffer.data() + buffer.size());
  std::size_t loop_records = 0;
  EXPECT_EQ(parse_record_loop(buffer, loop_records).code,
            wire::WireErrorCode::kBadCrc);
  EXPECT_EQ(loop_records, kValid - 1);

  // A header fault stops it where parse_record stops, with the same error.
  buffer[1] = wire::kWireVersion + 1;
  offset = 0;
  EXPECT_EQ(wire::next_envelope(buffer, offset, envelope, error),
            wire::ParseResult::kError);
  EXPECT_EQ(offset, 0u);
  const wire::WireError expected = parse_record_loop(buffer, loop_records);
  EXPECT_EQ(error.code, expected.code);
  EXPECT_EQ(error.offset, expected.offset);
  EXPECT_EQ(error.message, expected.message);
}
