// PerceptionService: streamed results bit-identical to the sequential
// SaxSignRecognizer per stream, callbacks in sequence order per stream
// (across every stream/shard ratio), one shared SignDatabase instance
// across shards and engines (pointer equality), live shard gauges, and
// shutdown semantics, including a submitter blocked on a full ring being
// released by stop().
#include "recognition/perception_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "signs/multi_drone_feed.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/stage_names.hpp"

namespace hdc::recognition {
namespace {

/// Serialises the deterministic payload of a result (everything except the
/// wall-clock total_ms) to bytes, with doubles copied bit-exactly.
void append_payload(const RecognitionResult& result, std::string& out) {
  out.push_back(result.accepted ? 1 : 0);
  out.push_back(static_cast<char>(result.sign));
  out.push_back(static_cast<char>(result.reject_reason));
  char bits[sizeof(double)];
  std::memcpy(bits, &result.distance, sizeof(double));
  out.append(bits, sizeof(double));
  std::memcpy(bits, &result.margin, sizeof(double));
  out.append(bits, sizeof(double));
  out.append(result.sax_word);
  out.push_back('|');
}

/// Thread-safe per-stream collector that also asserts the ordering
/// contract the moment it is violated: within a stream, sequences must be
/// strictly increasing.
class Collector {
 public:
  void operator()(const StreamResult& r) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& stream = streams_[r.stream_id];
    if (!stream.sequences.empty()) {
      EXPECT_GT(r.sequence, stream.sequences.back())
          << "stream " << r.stream_id << " delivered out of order";
    }
    stream.sequences.push_back(r.sequence);
    append_payload(r.result, stream.payload);
  }

  [[nodiscard]] std::vector<std::uint64_t> sequences(std::uint32_t stream) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = streams_.find(stream);
    return it == streams_.end() ? std::vector<std::uint64_t>{} : it->second.sequences;
  }
  [[nodiscard]] std::string payload(std::uint32_t stream) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = streams_.find(stream);
    return it == streams_.end() ? std::string{} : it->second.payload;
  }
  [[nodiscard]] std::size_t total_delivered() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& entry : streams_) n += entry.second.sequences.size();
    return n;
  }

 private:
  struct PerStream {
    std::vector<std::uint64_t> sequences;
    std::string payload;
  };
  mutable std::mutex mutex_;
  std::map<std::uint32_t, PerStream> streams_;
};

/// The registry's perception_queue_depth gauge in a fresh snapshot, or -1
/// when the snapshot has none.
std::int64_t queue_depth_gauge(const telemetry::MetricsRegistry& metrics) {
  const telemetry::MetricsSnapshot snapshot = metrics.snapshot();
  for (const telemetry::GaugeSnapshot& gauge : snapshot.gauges) {
    if (gauge.name == telemetry::kPerceptionQueueDepth) return gauge.value;
  }
  return -1;
}

/// Shared sequential reference + feed scripts (database construction
/// renders frames, so build once for the whole suite).
class PerceptionServiceSuite : public ::testing::Test {
 protected:
  static constexpr std::size_t kStreams = 4;
  static constexpr std::size_t kFramesPerStream = 12;

  static void SetUpTestSuite() {
    sequential_ = new SaxSignRecognizer(RecognizerConfig{}, DatabaseBuildOptions{});
    signs::MultiDroneFeedConfig feed_config;
    feed_config.streams = kStreams;
    const signs::MultiDroneFeed feed(feed_config);
    scripts_ = new std::vector<std::vector<imaging::GrayImage>>(kStreams);
    expected_ = new std::vector<std::string>(kStreams);
    for (std::size_t s = 0; s < kStreams; ++s) {
      (*scripts_)[s] = feed.prerender(s, kFramesPerStream);
      for (const imaging::GrayImage& frame : (*scripts_)[s]) {
        append_payload(sequential_->recognize(frame), (*expected_)[s]);
      }
    }
  }
  static void TearDownTestSuite() {
    delete sequential_;
    delete scripts_;
    delete expected_;
    sequential_ = nullptr;
    scripts_ = nullptr;
    expected_ = nullptr;
  }

  static SaxSignRecognizer* sequential_;
  static std::vector<std::vector<imaging::GrayImage>>* scripts_;
  static std::vector<std::string>* expected_;  ///< sequential payload bytes
};

SaxSignRecognizer* PerceptionServiceSuite::sequential_ = nullptr;
std::vector<std::vector<imaging::GrayImage>>* PerceptionServiceSuite::scripts_ =
    nullptr;
std::vector<std::string>* PerceptionServiceSuite::expected_ = nullptr;

TEST_F(PerceptionServiceSuite, BitIdenticalAndInOrderAcrossStreamShardRatios) {
  // Covers shards < streams, == streams, and > streams. Every cell must
  // deliver every frame, in per-stream sequence order, with payloads
  // byte-identical to the sequential recogniser.
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    Collector collect;
    PerceptionServiceConfig service_config;
    service_config.shards = shards;
    service_config.queue_capacity = 8;
    service_config.overflow = util::OverflowPolicy::kBlock;
    PerceptionService service(
        sequential_->config(), sequential_->database_ptr(),
        [&collect](const StreamResult& r) { collect(r); }, service_config);
    ASSERT_EQ(service.shard_count(), shards);

    std::vector<std::thread> producers;
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      producers.emplace_back([&, s] {
        for (const imaging::GrayImage& frame : (*scripts_)[s]) {
          const SubmitReceipt receipt = service.submit(s, frame);
          EXPECT_EQ(receipt.status, SubmitStatus::kEnqueued);
          EXPECT_EQ(receipt.shard, service.shard_of(s));
        }
      });
    }
    for (std::thread& t : producers) t.join();
    service.drain();

    for (std::uint32_t s = 0; s < kStreams; ++s) {
      const std::vector<std::uint64_t> seqs = collect.sequences(s);
      ASSERT_EQ(seqs.size(), kFramesPerStream) << "shards=" << shards;
      for (std::uint64_t i = 0; i < kFramesPerStream; ++i) {
        EXPECT_EQ(seqs[i], i) << "stream " << s << " shards=" << shards;
      }
      EXPECT_EQ(collect.payload(s), (*expected_)[s])
          << "stream " << s << " diverges from sequential at shards=" << shards;
    }
    const StreamStats totals = service.total_stats();
    EXPECT_EQ(totals.submitted, kStreams * kFramesPerStream);
    EXPECT_EQ(totals.delivered, kStreams * kFramesPerStream);
  }
}

TEST_F(PerceptionServiceSuite, ShardsShareExactlyOneDatabaseInstance) {
  const std::shared_ptr<const SignDatabase>& db = sequential_->database_ptr();
  const long use_before = db.use_count();
  PerceptionService service(
      sequential_->config(), db, [](const StreamResult&) {},
      {/*shards=*/4, /*queue_capacity=*/4, util::OverflowPolicy::kBlock});
  // One extra owner (the service), regardless of shard count...
  EXPECT_EQ(db.use_count(), use_before + 1);
  // ...and every shard matches against literally the same object.
  for (std::size_t shard = 0; shard < service.shard_count(); ++shard) {
    EXPECT_EQ(service.shard_database(shard), db.get()) << "shard " << shard;
  }
  EXPECT_EQ(&service.database(), db.get());

  // The same sharing works across services and recognisers: no copies
  // anywhere.
  PerceptionService other(sequential_->config(), db, [](const StreamResult&) {},
                          {/*shards=*/2, /*queue_capacity=*/4,
                           util::OverflowPolicy::kBlock});
  const SaxSignRecognizer seq_b(sequential_->config(), db);
  EXPECT_EQ(db.use_count(), use_before + 3);
  EXPECT_EQ(&other.database(), db.get());
  EXPECT_EQ(other.shard_database(1), db.get());
  EXPECT_EQ(&seq_b.database(), db.get());
}

TEST_F(PerceptionServiceSuite, DeliveredResultsCarryTheirTraceContext) {
  telemetry::FlightRecorder recorder;
  PerceptionServiceConfig service_config;
  service_config.shards = 2;
  service_config.recorder = &recorder;
  std::mutex mutex;
  std::vector<StreamResult> delivered;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&](const StreamResult& r) {
        std::lock_guard<std::mutex> lock(mutex);
        delivered.push_back(r);
      },
      service_config);
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t i = 0; i < 3; ++i) {
      (void)service.submit(static_cast<std::uint32_t>(s), (*scripts_)[s][i]);
    }
  }
  service.drain();

  ASSERT_EQ(delivered.size(), 6u);
  for (const StreamResult& r : delivered) {
    EXPECT_EQ(r.trace.stream_id, r.stream_id);
    EXPECT_EQ(r.trace.sequence, r.sequence);
    EXPECT_EQ(r.trace.trace_id,
              telemetry::make_trace_id(r.stream_id, r.sequence));
  }
  // And every delivered frame has submit + queue_wait + recognize events.
  std::map<std::uint64_t, std::set<telemetry::TraceStage>> stages_by_trace;
  for (const telemetry::TraceEvent& event : recorder.collect()) {
    stages_by_trace[event.trace_id].insert(event.stage);
  }
  for (const StreamResult& r : delivered) {
    const auto it = stages_by_trace.find(r.trace.trace_id);
    ASSERT_NE(it, stages_by_trace.end());
    EXPECT_TRUE(it->second.count(telemetry::TraceStage::kSubmit));
    EXPECT_TRUE(it->second.count(telemetry::TraceStage::kQueueWait));
    EXPECT_TRUE(it->second.count(telemetry::TraceStage::kRecognize));
  }
}

TEST_F(PerceptionServiceSuite, EveryFrameGetsItsOwnRecognizeSampleAndSlice) {
  // Shards recognise one frame per pop: with every frame queued on ONE
  // shard before it starts draining, each frame still yields exactly one
  // perception_recognize_ns sample and one kRecognize slice, and the slices
  // of one shard never overlap (each carries its own start and end).
  telemetry::MetricsRegistry registry;
  telemetry::FlightRecorder recorder;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool open = false;
  PerceptionServiceConfig service_config;
  service_config.shards = 1;
  service_config.queue_capacity = 32;
  service_config.metrics = &registry;
  service_config.recorder = &recorder;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&](const StreamResult& r) {
        if (r.sequence != 0 || r.stream_id != 0) return;
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return open; });
      },
      service_config);
  std::size_t submitted = 0;
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_EQ(service.submit(s, (*scripts_)[s][i]).status, SubmitStatus::kEnqueued);
      ++submitted;
    }
  }
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    open = true;
  }
  gate_cv.notify_all();
  service.drain();

  const telemetry::MetricsSnapshot snap = registry.snapshot();
  const telemetry::HistogramSnapshot* recognize =
      snap.find_histogram(telemetry::kPerceptionRecognize);
  ASSERT_NE(recognize, nullptr);
  EXPECT_EQ(recognize->count, submitted);
  // The frame counter is read from the streams' own submitted counts.
  const telemetry::CounterSnapshot* frames =
      snap.find_counter(telemetry::kPerceptionFramesSubmitted);
  ASSERT_NE(frames, nullptr);
  EXPECT_EQ(frames->value, submitted);

  std::vector<telemetry::TraceEvent> slices;
  std::set<std::uint64_t> traces;
  for (const telemetry::TraceEvent& event : recorder.collect()) {
    if (event.stage != telemetry::TraceStage::kRecognize) continue;
    slices.push_back(event);
    traces.insert(event.trace_id);
  }
  ASSERT_EQ(slices.size(), submitted);
  EXPECT_EQ(traces.size(), submitted);
  std::sort(slices.begin(), slices.end(),
            [](const auto& a, const auto& b) { return a.t_start_ns < b.t_start_ns; });
  for (std::size_t i = 1; i < slices.size(); ++i) {
    EXPECT_LE(slices[i - 1].t_end_ns, slices[i].t_start_ns) << "slice " << i;
  }
}

TEST_F(PerceptionServiceSuite, StreamIdsAboveTraceLimitThrowAtSubmit) {
  // make_trace_id keeps 16 bits of stream + 1: stream 65535 would get the
  // zero "no context" id and s + 65536 would alias s. The limit is
  // enforced before any state changes.
  std::mutex mutex;
  std::vector<StreamResult> delivered;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&](const StreamResult& r) {
        std::lock_guard<std::mutex> lock(mutex);
        delivered.push_back(r);
      },
      {/*shards=*/1, /*queue_capacity=*/4, util::OverflowPolicy::kBlock});
  const imaging::GrayImage& frame = (*scripts_)[0][0];
  ASSERT_EQ(telemetry::kMaxTraceStreamId, 65534u);

  const SubmitReceipt first = service.submit(65534, frame);
  EXPECT_EQ(first.status, SubmitStatus::kEnqueued);
  EXPECT_EQ(first.sequence, 0u);
  for (const std::uint32_t bad : {65535u, 65536u, 65536u + 65534u,
                                  std::numeric_limits<std::uint32_t>::max()}) {
    EXPECT_THROW((void)service.submit(bad, frame), std::invalid_argument) << bad;
    const StreamStats stats = service.stream_stats(bad);
    EXPECT_EQ(stats.submitted, 0u) << bad;
  }
  // The refused submits consumed nothing: the next admitted frame is 1.
  EXPECT_EQ(service.submit(65534, frame).sequence, 1u);
  service.drain();

  ASSERT_EQ(delivered.size(), 2u);
  for (const StreamResult& r : delivered) {
    EXPECT_EQ(r.stream_id, 65534u);
    EXPECT_NE(r.trace.trace_id, 0u);
    EXPECT_EQ(r.trace.trace_id, telemetry::make_trace_id(65534, r.sequence));
  }
  const StreamStats totals = service.total_stats();
  EXPECT_EQ(totals.submitted, 2u);
  EXPECT_EQ(totals.delivered, 2u);
}

TEST_F(PerceptionServiceSuite, ConcurrentSameStreamSubmittersStayOrdered) {
  // Two threads race submit() on ONE stream: sequence assignment and ring
  // admission are atomic together, so delivery must still be strictly
  // increasing with no gaps (the ring is lossless). Blank frames
  // keep the pipeline fast (they reject as kNoSilhouette).
  constexpr std::uint64_t kPerThread = 50;
  Collector collect;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&collect](const StreamResult& r) { collect(r); },
      {/*shards=*/1, /*queue_capacity=*/8, util::OverflowPolicy::kBlock});

  const imaging::GrayImage blank(64, 64, std::uint8_t{200});
  std::vector<std::thread> submitters;
  std::atomic<std::uint64_t> accepted{0};
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        if (service.submit(7, blank).status == SubmitStatus::kEnqueued) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  service.drain();

  EXPECT_EQ(accepted.load(), 2 * kPerThread);
  const std::vector<std::uint64_t> seqs = collect.sequences(7);
  ASSERT_EQ(seqs.size(), 2 * kPerThread);
  for (std::uint64_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);
}

TEST_F(PerceptionServiceSuite, StopIsIdempotentAndRefusesLateSubmits) {
  Collector collect;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&collect](const StreamResult& r) { collect(r); },
      {/*shards=*/2, /*queue_capacity=*/4, util::OverflowPolicy::kBlock});
  EXPECT_EQ(service.submit(0, (*scripts_)[0].front()).status,
            SubmitStatus::kEnqueued);
  service.stop();
  service.stop();  // idempotent
  EXPECT_EQ(service.submit(0, (*scripts_)[0].front()).status,
            SubmitStatus::kStopped);
  // The frame admitted before stop() was still drained and delivered.
  EXPECT_EQ(collect.total_delivered(), 1u);
  service.drain();  // no pending frames; returns immediately
}

TEST_F(PerceptionServiceSuite, DrainIsACheckpointNotATerminator) {
  // The drain/submit contract: drain() only waits out what was admitted;
  // the service keeps running, later submits are served identically, the
  // per-stream sequence counter continues, and stats accumulate. Pinned as
  // a regression test because callers interleave replay chunks with
  // checkpoints exactly like this.
  Collector collect;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&collect](const StreamResult& r) { collect(r); },
      {/*shards=*/2, /*queue_capacity=*/4, util::OverflowPolicy::kBlock});

  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      const SubmitReceipt receipt = service.submit(0, (*scripts_)[0][i]);
      EXPECT_EQ(receipt.status, SubmitStatus::kEnqueued);
      // Sequences continue across drain boundaries: no reset.
      EXPECT_EQ(receipt.sequence, static_cast<std::uint64_t>(cycle) * 4 + i);
    }
    service.drain();
    EXPECT_EQ(collect.total_delivered(), (static_cast<std::size_t>(cycle) + 1) * 4);
    const StreamStats stats = service.stream_stats(0);
    EXPECT_EQ(stats.submitted, (static_cast<std::uint64_t>(cycle) + 1) * 4);
    EXPECT_EQ(stats.delivered, stats.submitted);
  }
  // Payloads across all three cycles equal three sequential passes.
  std::string expected_payload;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      append_payload(sequential_->recognize((*scripts_)[0][i]), expected_payload);
    }
  }
  EXPECT_EQ(collect.payload(0), expected_payload);

  // drain() after stop() returns immediately instead of blocking.
  service.stop();
  service.drain();
  EXPECT_EQ(service.submit(0, (*scripts_)[0][0]).status, SubmitStatus::kStopped);
}

TEST_F(PerceptionServiceSuite, BlockedSubmitterIsReleasedByStopWithStopped) {
  // stop() is perception's only refusal path: a submitter asleep on a full
  // ring wakes with kStopped, claims no sequence, and closes its trace
  // with a terminal submit/closed event.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool worker_parked = false;
  bool release_worker = false;

  telemetry::FlightRecorder recorder;
  Collector collect;
  PerceptionServiceConfig service_config;
  service_config.shards = 1;
  service_config.queue_capacity = 2;
  service_config.recorder = &recorder;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&](const StreamResult& r) {
        collect(r);
        if (r.sequence == 0) {
          std::unique_lock<std::mutex> lock(gate_mutex);
          worker_parked = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release_worker; });
        }
      },
      service_config);

  const imaging::GrayImage& frame = (*scripts_)[0].front();
  EXPECT_EQ(service.submit(0, frame).status, SubmitStatus::kEnqueued);
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  EXPECT_EQ(service.submit(0, frame).sequence, 1u);  // fills slot 1
  EXPECT_EQ(service.submit(0, frame).sequence, 2u);  // fills slot 2
  ASSERT_EQ(service.shard_gauge(0).depth, 2u);

  std::atomic<bool> started{false};
  SubmitReceipt blocked_receipt;
  std::thread submitter([&] {
    started.store(true);
    blocked_receipt = service.submit(0, frame);  // ring full: sleeps
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // stop() closes the ring (waking the submitter), then joins the parked
  // worker, so it runs on its own thread until the worker is released.
  std::thread stopper([&] { service.stop(); });
  submitter.join();
  EXPECT_EQ(blocked_receipt.status, SubmitStatus::kStopped);
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_worker = true;
  }
  gate_cv.notify_all();
  stopper.join();

  // The frames queued before stop() are still delivered; the refused one
  // claimed no sequence.
  const std::vector<std::uint64_t> want = {0, 1, 2};
  EXPECT_EQ(collect.sequences(0), want);
  const StreamStats stats = service.stream_stats(0);
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.delivered, 3u);

  // Its trace ends in one terminal kSubmit/kClosed event carrying the
  // stream's unconsumed next sequence (3).
  std::size_t closed_events = 0;
  for (const telemetry::TraceEvent& event : recorder.collect()) {
    if (event.outcome != telemetry::TraceOutcome::kClosed) continue;
    ++closed_events;
    EXPECT_EQ(event.stage, telemetry::TraceStage::kSubmit);
    EXPECT_EQ(event.stream_id, 0u);
    EXPECT_EQ(event.sequence, 3u);
    EXPECT_EQ(event.trace_id, telemetry::make_trace_id(0, 3));
  }
  EXPECT_EQ(closed_events, 1u);
}

TEST_F(PerceptionServiceSuite, ShardGaugesReportLiveDepthAndPopCount) {
  // Park the single shard worker inside the callback so the ring depth is
  // fully deterministic while we read the gauges. The registry's queue-depth
  // gauge reads the same rings: at every checkpoint it is their depth sum.
  telemetry::MetricsRegistry metrics;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool worker_parked = false;
  bool release_worker = false;

  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&](const StreamResult& r) {
        if (r.sequence == 0) {
          std::unique_lock<std::mutex> lock(gate_mutex);
          worker_parked = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release_worker; });
        }
      },
      {/*shards=*/1, /*queue_capacity=*/4, util::OverflowPolicy::kBlock, &metrics});
  const auto summed_depth = [&service] {
    std::int64_t depth = 0;
    for (const ShardGauge& shard : service.shard_gauges()) {
      depth += static_cast<std::int64_t>(shard.depth);
    }
    return depth;
  };

  ShardGauge gauge = service.shard_gauge(0);
  EXPECT_EQ(gauge.depth, 0u);
  EXPECT_EQ(gauge.capacity, 4u);
  EXPECT_EQ(gauge.popped, 0u);
  EXPECT_EQ(queue_depth_gauge(metrics), 0);

  const imaging::GrayImage& frame = (*scripts_)[0].front();
  service.submit(0, frame);
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  for (int i = 0; i < 3; ++i) service.submit(0, frame);  // queue 3 behind it
  gauge = service.shard_gauge(0);
  EXPECT_EQ(gauge.depth, 3u);
  EXPECT_EQ(gauge.popped, 1u);
  EXPECT_EQ(service.shard_gauges().size(), 1u);
  EXPECT_EQ(service.shard_gauges()[0].depth, 3u);
  EXPECT_EQ(summed_depth(), 3);
  EXPECT_EQ(queue_depth_gauge(metrics), 3);

  service.submit(0, frame);  // fills the ring to capacity
  gauge = service.shard_gauge(0);
  EXPECT_EQ(gauge.depth, gauge.capacity);
  EXPECT_EQ(gauge.popped, 1u);
  EXPECT_EQ(summed_depth(), 4);
  EXPECT_EQ(queue_depth_gauge(metrics), 4);

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_worker = true;
  }
  gate_cv.notify_all();
  service.drain();
  gauge = service.shard_gauge(0);
  EXPECT_EQ(gauge.depth, 0u);
  EXPECT_EQ(gauge.popped, 5u);
  EXPECT_EQ(summed_depth(), 0);
  EXPECT_EQ(queue_depth_gauge(metrics), 0);
  EXPECT_THROW((void)service.shard_gauge(99), std::out_of_range);
}

TEST_F(PerceptionServiceSuite, QueueDepthGaugeStaysInRangeWhileProducersSubmit) {
  // Two producers fill two shards' rings while a third thread snapshots
  // the registry in a loop. The gauge is read from the rings themselves,
  // so no reading can fall below zero or rise above what the rings hold.
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kCapacity = 4;
  telemetry::MetricsRegistry metrics;
  PerceptionService service(sequential_->config(), sequential_->database_ptr(),
                            [](const StreamResult&) {},
                            {kShards, kCapacity, util::OverflowPolicy::kBlock, &metrics});

  std::atomic<bool> producing{true};
  std::vector<std::int64_t> readings;
  std::thread reader([&] {
    do {
      readings.push_back(queue_depth_gauge(metrics));
    } while (producing.load(std::memory_order_acquire));
  });
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      // Each producer owns two streams, one pinned to each shard.
      for (std::size_t i = 0; i < kFramesPerStream; ++i) {
        for (const std::uint32_t stream : {2 * p, 2 * p + 1}) {
          (void)service.submit(stream, (*scripts_)[stream][i]);
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  producing.store(false, std::memory_order_release);
  reader.join();

  ASSERT_FALSE(readings.empty());
  for (const std::int64_t depth : readings) {
    EXPECT_GE(depth, 0);
    EXPECT_LE(depth, static_cast<std::int64_t>(kShards * kCapacity));
  }
  service.drain();
  EXPECT_EQ(queue_depth_gauge(metrics), 0);
  EXPECT_EQ(service.total_stats().delivered, 4 * kFramesPerStream);
}

TEST_F(PerceptionServiceSuite, EmptyFrameThrowsAtSubmit) {
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [](const StreamResult&) {},
      {/*shards=*/1, /*queue_capacity=*/2, util::OverflowPolicy::kBlock});
  imaging::GrayImage empty;
  EXPECT_THROW(service.submit(0, empty), std::invalid_argument);
  EXPECT_THROW((void)PerceptionService(sequential_->config(), nullptr,
                                       [](const StreamResult&) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace hdc::recognition
