// PerceptionService — sharded, streaming multi-drone recognition.
//
// The paper validates one frame at a time from one drone; a deployed system
// serves many simultaneous perception streams (drone cohorts, cf.
// Cleland-Huang & Agrawal 2020; swarm signalling, cf. Grispino et al.
// 2020). This service is the one parallel recognition engine:
//
//   streams ──submit()──> router ──rings──> shards ──callback──> caller
//
//   - Callers submit(stream_id, frame) from ANY thread.
//   - A router pins each stream to one of K worker shards (stable
//     stream -> shard affinity, so a shard's scratch arena stays warm for
//     the frame geometry it keeps seeing) via a bounded MPSC ring
//     (util::BoundedRing). Admission is lossless: submit() on a full ring
//     waits for space, so backpressure reaches the camera feed and no
//     admitted frame is ever lost.
//   - Every shard owns a RecognizerScratch, pops one frame at a time and
//     runs it through recognize_frame_into — the same canonical pipeline as
//     SaxSignRecognizer, so payloads are bit-identical to sequential
//     recognition of the same frames.
//   - Completed frames are delivered through a per-frame callback carrying
//     {stream_id, sequence, result}. RecognitionResult itself is unchanged
//     (wrapped, not mutated), keeping the single-frame API ABI-stable.
//   - All shards match against ONE immutable SignDatabase behind a
//     std::shared_ptr<const SignDatabase> — N streams no longer mean N
//     template-store copies.
//
// Ordering guarantee: within a stream, callbacks arrive in strictly
// increasing sequence order (one shard per stream, FIFO ring, one worker
// per shard), and every admitted sequence is delivered. Across streams
// there is no ordering.
//
// Threading contract: the result callback runs on shard worker threads,
// potentially concurrently for different streams — it must be thread-safe
// and must not call submit()/drain()/stop() on this service (a callback
// that re-enters submit() on a full ring would deadlock the shard).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "recognition/recognizer.hpp"
#include "telemetry/trace.hpp"
#include "util/pending_counter.hpp"
#include "util/ring_buffer.hpp"

namespace hdc::telemetry {
class FlightRecorder;
}  // namespace hdc::telemetry

namespace hdc::recognition {

/// One delivered frame: the unchanged single-frame RecognitionResult plus
/// its stream coordinates (wrap, don't mutate — see header comment).
struct StreamResult {
  std::uint32_t stream_id{0};
  std::uint64_t sequence{0};  ///< per-stream, assigned at submit, starts at 0
  RecognitionResult result;
  /// Causal trace identity minted at submit. Always populated (the id is
  /// a pure function of stream_id/sequence, so filling it is branch-free
  /// integer math); only consulted when a FlightRecorder is wired.
  telemetry::TraceContext trace{};
};

/// What happened to a submitted frame at admission time.
enum class SubmitStatus : std::uint8_t {
  kEnqueued,  ///< admitted; it will be delivered
  kStopped,   ///< refused (service stopping/stopped)
};

struct SubmitReceipt {
  SubmitStatus status{SubmitStatus::kEnqueued};
  /// The per-stream sequence assigned to the frame. Only an ADMITTED frame
  /// consumes a sequence number — a stopped submit leaves the stream's
  /// counter untouched, so delivered sequences stay contiguous.
  std::uint64_t sequence{0};
  std::size_t shard{0};  ///< the shard this stream is pinned to
};

/// Service shape. Defaults suit a live multi-camera feed on a multi-core
/// companion computer.
struct PerceptionServiceConfig {
  std::size_t shards{0};           ///< worker shards; 0 = hardware concurrency
  std::size_t queue_capacity{64};  ///< frames buffered per shard ring
  /// Not read: a full ring always blocks (util::OverflowPolicy has the one
  /// value kBlock). The field stays only so configs that assign it compile.
  util::OverflowPolicy overflow{util::OverflowPolicy::kBlock};
  /// Optional telemetry wiring (must outlive the service). When set, the
  /// service records submit/ring-wait/recognize spans, the per-stage
  /// recognition histograms, frame counters and a queue-depth gauge
  /// (names in telemetry/stage_names.hpp). Null = zero instrumentation
  /// cost beyond a predictable disarmed-handle branch per site.
  telemetry::MetricsRegistry* metrics{nullptr};
  /// Optional causal tracing (must outlive the service). When set, every
  /// frame's submit/queue-wait/recognize stages emit TraceEvents into the
  /// flight recorder, including a terminal submit/closed event for a frame
  /// refused by stop() — no trace ends open. Null = same disarmed cost
  /// contract as `metrics`.
  telemetry::FlightRecorder* recorder{nullptr};
};

/// Per-stream accounting snapshot.
struct StreamStats {
  std::uint64_t submitted{0};  ///< frames admitted
  std::uint64_t delivered{0};  ///< callbacks fired
};

/// Live gauge of one shard's ingress ring (ROADMAP: per-shard queue-depth
/// gauges). `depth` is instantaneous — by the time the caller reads it the
/// worker may have drained frames — so treat it as a congestion signal, not
/// an exact count. Downstream consumers (e.g. InteractionService) use it
/// for backpressure decisions; dashboards use the cumulative pop count.
struct ShardGauge {
  std::size_t depth{0};     ///< frames queued right now
  std::size_t capacity{0};  ///< ring capacity
  /// Cumulative frames ever popped by the shard worker — the liveness
  /// signal the stalled-shard watchdog keys on (depth without popped
  /// progress across observations = stalled).
  std::uint64_t popped{0};
};

class PerceptionService {
 public:
  using ResultCallback = std::function<void(const StreamResult&)>;

  /// Builds the service over an existing shared database handle. All
  /// shards reference exactly this instance (no copies).
  PerceptionService(const RecognizerConfig& config,
                    std::shared_ptr<const SignDatabase> database,
                    ResultCallback on_result,
                    const PerceptionServiceConfig& service_config = {});

  /// Convenience: builds the canonical database first (same semantics as
  /// SaxSignRecognizer), then shares it across the shards.
  PerceptionService(const RecognizerConfig& config,
                    const DatabaseBuildOptions& db_options,
                    ResultCallback on_result,
                    const PerceptionServiceConfig& service_config = {});

  /// Stops the service (drains queued frames, joins shard threads).
  ~PerceptionService();

  PerceptionService(const PerceptionService&) = delete;
  PerceptionService& operator=(const PerceptionService&) = delete;

  /// Submits one frame of `stream_id` from any thread. The frame is copied
  /// (the camera keeps its buffer). The returned receipt carries the
  /// per-stream sequence number the frame was assigned. Throws
  /// std::invalid_argument for an empty frame, and for a stream_id above
  /// telemetry::kMaxTraceStreamId (65534): larger ids would alias another
  /// stream's trace ids or the zero "no context" id. Both checks run before
  /// any state changes, so a refused frame consumes no sequence number.
  SubmitReceipt submit(std::uint32_t stream_id, const imaging::GrayImage& frame);

  /// Blocks until every frame admitted by a submit() that returned before
  /// this call has been delivered. Rethrows the first pipeline exception
  /// raised on a shard, if any (the error slot is cleared, so the next
  /// drain() reports only newer failures).
  ///
  /// drain() is a checkpoint, NOT a terminator: the service keeps running.
  /// The full contract of interleaving drain() with submit():
  ///   - submit() after drain() is well-defined — frames are admitted,
  ///     processed, and delivered exactly as before the drain; per-stream
  ///     sequence counters continue (no reset), and stats accumulate across
  ///     drain boundaries. Any number of submit/drain cycles is valid.
  ///   - submit() concurrent with drain(): the drain only promises to cover
  ///     frames whose submit() returned before drain() was entered; racing
  ///     frames may land before or after the wakeup.
  ///   - drain() after stop() returns immediately (nothing is pending) —
  ///     it never blocks on a stopped service.
  /// tests/perception_service_test.cpp pins this contract.
  void drain();

  /// Graceful shutdown: admits nothing new, drains what is queued, joins
  /// the shard threads. Idempotent; called by the destructor. Pipeline
  /// exceptions are swallowed here (use drain() to observe them).
  void stop() noexcept;

  /// Stable stream -> shard routing (exposed for tests and capacity math).
  [[nodiscard]] std::size_t shard_of(std::uint32_t stream_id) const noexcept {
    return static_cast<std::size_t>(stream_id) % shards_.size();
  }

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] const RecognizerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const SignDatabase& database() const noexcept { return *database_; }
  [[nodiscard]] const std::shared_ptr<const SignDatabase>& database_ptr()
      const noexcept {
    return database_;
  }
  /// The database a given shard matches against — by construction the same
  /// object for every shard (pointer-equality is pinned in tests).
  [[nodiscard]] const SignDatabase* shard_database(std::size_t shard) const;

  /// Accounting snapshot for one stream (zeros for an unknown stream).
  [[nodiscard]] StreamStats stream_stats(std::uint32_t stream_id) const;
  /// Aggregate accounting across all streams.
  [[nodiscard]] StreamStats total_stats() const;

  /// Live queue gauge for one shard (throws std::out_of_range on a bad
  /// index), and the full per-shard vector for dashboards/backpressure.
  [[nodiscard]] ShardGauge shard_gauge(std::size_t shard) const;
  [[nodiscard]] std::vector<ShardGauge> shard_gauges() const;

 private:
  struct StreamState;

  /// One queued frame. Carries its origin so delivery can be accounted to
  /// the right stream without a registry lookup.
  struct Job {
    std::uint32_t stream_id{0};
    std::uint64_t sequence{0};
    imaging::GrayImage frame;
    StreamState* origin{nullptr};
    /// Submit timestamp for the ring-wait span; 0 when neither the
    /// ring-wait histogram nor a recorder is wired (the pop side skips it).
    std::uint64_t submitted_at_ns{0};
  };

  /// One worker shard: FIFO ring, dedicated thread, warm scratch arena.
  /// Each shard holds a raw pointer into the service's single shared
  /// database — all K pointers compare equal by construction.
  struct Shard {
    Shard(std::size_t capacity, const SignDatabase* db)
        : ring(capacity), database(db) {}
    util::BoundedRing<Job> ring;
    const SignDatabase* database{nullptr};
    RecognizerScratch scratch;  ///< worker thread only
    std::thread worker;
  };

  SubmitReceipt submit_job(std::uint32_t stream_id, imaging::GrayImage frame);
  StreamState& stream_state(std::uint32_t stream_id);
  void shard_loop(Shard& shard);

  RecognizerConfig config_;
  PerceptionServiceConfig service_config_;
  std::shared_ptr<const SignDatabase> database_;
  ResultCallback on_result_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Telemetry handles — disarmed (no-op) unless the config wired a
  /// registry. Recording through them is wait-free (see telemetry/).
  telemetry::Histogram submit_ns_;
  telemetry::Histogram ring_wait_ns_;
  telemetry::Histogram recognize_ns_;
  telemetry::Counter frames_submitted_;
  telemetry::Gauge queue_depth_;
  telemetry::FlightRecorder* recorder_{nullptr};

  /// Registry shape is read-mostly (one miss per new stream ever): the
  /// steady-state submit path takes only a shared lock.
  mutable std::shared_mutex streams_mutex_;
  std::unordered_map<std::uint32_t, std::unique_ptr<StreamState>> streams_;

  /// Admitted frames not yet delivered, plus the first pipeline
  /// error for drain() (util::PendingCounter keeps the raise-before-push
  /// and lock-free-finish invariants; this service is its only user).
  util::PendingCounter pending_;

  std::atomic<bool> stopping_{false};
  bool stopped_{false};  ///< set by stop(); guarded by stop_mutex_
  std::mutex stop_mutex_;
};

}  // namespace hdc::recognition
