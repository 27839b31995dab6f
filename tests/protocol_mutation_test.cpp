// Journal-mutation oracle: seeded mutants of the committed 8-drone
// contention fixture, each re-encoded with valid CRCs and a corrected
// JournalEnd count, go through the replay driver. A mutant changes 1-3
// records: a field of an observation or a fleet event, a RunConfig size or
// time, or a swap, deletion or duplicate of a record. Whatever a mutant
// replays to (ok, a mismatch, or a rejection), replaying it twice must give
// the same report and byte-identical journals, and the replay's own journal
// must replay ok: a replay is a fixed point. CI runs this suite under
// ASan+UBSan and TSan with every other one, so a mutant that reaches
// undefined behaviour in the parser, the encoder or the services fails it.
// An FNV-1a digest over every mutant's report pins each verdict, error,
// mismatch text and replay journal, so a change to how replay compares
// journals cannot move one of them unnoticed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "protocol/journal.hpp"
#include "protocol/replay_driver.hpp"
#include "protocol/wire.hpp"
#include "telemetry/trace.hpp"

namespace hdc::protocol {
namespace {

namespace wire = hdc::protocol::wire;

constexpr int kMutants = 300;

std::vector<wire::AnyRecord> fixture_records() {
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(EventJournal::load(
      HDC_SOURCE_DIR "/tests/data/fleet_contention_8.journal", bytes));
  std::vector<wire::AnyRecord> records;
  wire::WireError error;
  EXPECT_TRUE(wire::parse_all(bytes, records, error)) << error.message;
  return records;
}

/// Mutates the records between a journal's RunConfig header and its
/// JournalEnd trailer, and the header's sizes and times. Values are mostly
/// near the recorded ones or at the edges of what replay accepts, and now
/// and then past them, so mutants reach every replay outcome.
class Mutator {
 public:
  explicit Mutator(std::uint32_t seed) : rng_(seed) {}

  /// Applies 1-3 mutations, then makes the trailer count the records
  /// before it again.
  void mutate(std::vector<wire::AnyRecord>& records) {
    const int mutations = pick(1, 3);
    for (int i = 0; i < mutations; ++i) mutate_once(records);
    std::get<wire::JournalEndRecord>(records.back()).record_count =
        records.size() - 1;
  }

 private:
  void mutate_once(std::vector<wire::AnyRecord>& records) {
    // Body records are [1, size - 1): the header and trailer stay put.
    const std::size_t body = records.size() - 2;
    switch (pick(0, 5)) {
      case 0:
        if (auto* r = pick_of<wire::ObservationRecord>(records)) mutate(*r);
        break;
      case 1:
        if (auto* r = pick_of<wire::FleetEventRecord>(records)) mutate(*r);
        break;
      case 2:
        mutate(std::get<wire::RunConfigRecord>(records.front()));
        break;
      case 3:
        if (body >= 2) {
          const std::size_t a = body_index(body);
          std::swap(records[a], records[body_index(body)]);
        }
        break;
      case 4:
        if (body >= 1) records.erase(records.begin() + body_index(body));
        break;
      case 5:
        if (body >= 1) {
          const wire::AnyRecord copy = records[body_index(body)];
          records.insert(records.begin() + body_index(body), copy);
        }
        break;
    }
  }

  void mutate(wire::ObservationRecord& r) {
    switch (pick(0, 4)) {
      case 0: r.stream_id = stream(r.stream_id); break;
      case 1: r.sequence = sequence(r.sequence); break;
      case 2: r.sign = enum8(r.sign, 3); break;
      case 3: r.abort = enum8(r.abort, 1); break;
      case 4: r.confidence = confidence(r.confidence); break;
    }
  }

  void mutate(wire::FleetEventRecord& r) {
    switch (pick(0, 11)) {
      case 0: r.kind = enum8(r.kind, 5); break;
      case 1: r.drone_id = stream(r.drone_id); break;
      case 2: r.sequence = sequence(r.sequence); break;
      case 3: r.to = enum8(r.to, 5); break;
      case 4: r.outcome = enum8(r.outcome, 5); break;
      case 5: r.label = enum8(r.label, 3); break;
      case 6: r.event_kind = enum8(r.event_kind, 1); break;
      case 7: r.descriptor_drone_id = stream(r.descriptor_drone_id); break;
      case 8: r.descriptor_cell = cell(r.descriptor_cell); break;
      case 9: r.descriptor_human_id = cell(r.descriptor_human_id); break;
      case 10: r.descriptor_battery_soc = confidence(r.descriptor_battery_soc); break;
      case 11: r.battery_soc = confidence(r.battery_soc); break;
    }
  }

  void mutate(wire::RunConfigRecord& r) {
    switch (pick(0, 16)) {
      case 0: r.fusion_window = size(r.fusion_window); break;
      case 1: r.fusion_majority = size(r.fusion_majority); break;
      case 2: r.min_hold = size(r.min_hold); break;
      case 3: r.release_misses = size(r.release_misses); break;
      case 4: r.observation_queue = size(r.observation_queue); break;
      case 5: r.cells = size(r.cells); break;
      case 6: r.fleet_queue = size(r.fleet_queue); break;
      case 7: r.fairness_boost_per_loss = size(r.fairness_boost_per_loss); break;
      case 8: r.fairness_boost_cap = size(r.fairness_boost_cap); break;
      case 9: r.attending_timeout = time(r.attending_timeout); break;
      case 10: r.sequence_gap = time(r.sequence_gap); break;
      case 11: r.confirm_timeout = time(r.confirm_timeout); break;
      case 12: r.execute_ticks = time(r.execute_ticks); break;
      case 13: r.abort_ticks = time(r.abort_ticks); break;
      case 14: r.grant_ttl = time(r.grant_ttl); break;
      case 15: r.retry_backoff = time(r.retry_backoff); break;
      case 16: r.retry_backoff_max = time(r.retry_backoff_max); break;
    }
  }

  std::uint32_t stream(std::uint32_t was) {
    switch (pick(0, 7)) {
      case 0: return telemetry::kMaxTraceStreamId;
      case 1: return telemetry::kMaxTraceStreamId + 1;  // rejected at parse
      case 2: return was + 1;
      default: return static_cast<std::uint32_t>(pick(0, 9));
    }
  }
  std::uint64_t sequence(std::uint64_t was) {
    switch (pick(0, 7)) {
      case 0: return 0;
      case 1: return telemetry::kMaxTraceSequence;
      case 2: return telemetry::kMaxTraceSequence + 1;  // rejected at parse
      case 3: return was + static_cast<std::uint64_t>(pick(1, 100));
      default: return was - std::min<std::uint64_t>(was, pick(1, 40));
    }
  }
  std::uint8_t enum8(std::uint8_t was, int max) {
    if (pick(0, 9) == 0) return static_cast<std::uint8_t>(max + 1);  // rejected
    const auto other = static_cast<std::uint8_t>(pick(0, max));
    return other != was ? other : static_cast<std::uint8_t>((was + 1) % (max + 1));
  }
  double confidence(double was) {
    switch (pick(0, 4)) {
      case 0: return 0.0;
      case 1: return 1.0;
      case 2: return -was;
      default: return std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
    }
  }
  std::int32_t cell(std::int32_t was) {
    switch (pick(0, 4)) {
      case 0: return -1;
      case 1: return was + 1;
      case 2: return 64;
      default: return pick(0, 63);
    }
  }
  std::uint32_t size(std::uint32_t was) {
    switch (pick(0, 7)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return kMaxReplayCapacity + 1;  // refused before replay
      case 3: return was + 1;
      case 4: return was > 0 ? was - 1 : 0;
      default: {
        const auto near = static_cast<int>(std::min<std::uint32_t>(was, 1024));
        return static_cast<std::uint32_t>(pick(1, 2 * near + 2));
      }
    }
  }
  std::uint64_t time(std::uint64_t was) {
    switch (pick(0, 5)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return ~std::uint64_t{0};
      case 3: return was / 2;
      default: return was + static_cast<std::uint64_t>(pick(1, 200));
    }
  }

  template <class Record>
  Record* pick_of(std::vector<wire::AnyRecord>& records) {
    std::size_t at = body_index(records.size() - 2);
    for (std::size_t step = 0; step + 2 < records.size(); ++step) {
      if (auto* r = std::get_if<Record>(&records[at])) return r;
      at = at + 1 < records.size() - 1 ? at + 1 : 1;
    }
    return nullptr;
  }
  /// A body index in [1, 1 + body).
  std::size_t body_index(std::size_t body) {
    return 1 + static_cast<std::size_t>(pick(0, static_cast<int>(body) - 1));
  }
  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  std::mt19937 rng_;
};

/// FNV-1a 64 over everything a ReplayReport says about one journal: the
/// verdict, the parse error, the mismatch text and the replay's bytes.
/// Variable-length fields are folded after their length, so adjacent
/// fields cannot trade bytes.
class ReportDigest {
 public:
  void add(const ReplayReport& report) {
    mix(report.ok ? 1U : 0U, 1);
    mix(report.parsed ? 1U : 0U, 1);
    mix(static_cast<std::uint8_t>(report.error.code), 1);
    mix(report.error.offset, 8);
    mix(report.mismatch.size(), 8);
    for (const char c : report.mismatch) mix(static_cast<std::uint8_t>(c), 1);
    mix(report.journal_bytes.size(), 8);
    for (const std::uint8_t byte : report.journal_bytes) mix(byte, 1);
  }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  /// Folds the low `bytes` bytes of `value`, least significant first.
  void mix(std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i, value >>= 8) {
      value_ = (value_ ^ (value & 0xFFU)) * 1099511628211ULL;
    }
  }

  std::uint64_t value_{14695981039346656037ULL};
};

std::vector<std::uint8_t> encode_all(const std::vector<wire::AnyRecord>& records) {
  std::vector<std::uint8_t> bytes;
  for (const wire::AnyRecord& record : records) wire::encode(bytes, record);
  return bytes;
}

TEST(JournalMutation, MutantsReplayDeterministicallyToAFixedPoint) {
  const std::vector<wire::AnyRecord> fixture = fixture_records();
  ASSERT_EQ(fixture.size(), 1'902u);
  const ReplayDriver driver;
  Mutator mutator(0x7E5E2002u);
  int ok = 0;
  int mismatched = 0;
  int rejected = 0;
  ReportDigest digest;
  for (int mutant = 0; mutant < kMutants; ++mutant) {
    SCOPED_TRACE(testing::Message() << "mutant " << mutant);
    std::vector<wire::AnyRecord> records = fixture;
    mutator.mutate(records);
    const std::vector<std::uint8_t> bytes = encode_all(records);

    const ReplayReport first = driver.replay(bytes);
    const ReplayReport second = driver.replay(bytes);
    ASSERT_EQ(first.ok, second.ok);
    ASSERT_EQ(first.parsed, second.parsed);
    ASSERT_EQ(first.error.code, second.error.code);
    ASSERT_EQ(first.error.offset, second.error.offset);
    ASSERT_EQ(first.mismatch, second.mismatch);
    ASSERT_EQ(first.observations_fed, second.observations_fed);
    ASSERT_EQ(first.fleet_events_fed, second.fleet_events_fed);
    ASSERT_EQ(first.journal_bytes, second.journal_bytes);
    digest.add(first);

    if (!first.parsed) {
      ++rejected;
      EXPECT_TRUE(first.journal_bytes.empty());
      continue;
    }
    first.ok ? ++ok : ++mismatched;
    if (first.journal_bytes.empty()) continue;  // refused before replay
    const ReplayReport again = driver.replay(first.journal_bytes);
    ASSERT_TRUE(again.ok) << again.mismatch;
    ASSERT_EQ(again.journal_bytes, first.journal_bytes);
  }
  // The mutators reach every outcome, so each branch above was taken.
  EXPECT_GT(ok, 0);
  EXPECT_GT(mismatched, 0);
  EXPECT_GT(rejected, 0);
  std::printf("%d mutants: %d ok, %d mismatched, %d rejected at parse\n",
              kMutants, ok, mismatched, rejected);
  // Pins every report of the 300 mutants: how replay compares a journal
  // with its recording must not move one verdict, error or mismatch text.
  EXPECT_EQ(digest.value(), 0xf24620e9b92a12dfULL)
      << std::hex << "report digest 0x" << digest.value();
}

}  // namespace
}  // namespace hdc::protocol
