#include "recognition/perception_service.hpp"

#include <stdexcept>
#include <utility>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/span.hpp"

namespace hdc::recognition {

/// Registry entry for one stream. `order_mutex` serialises sequence
/// assignment *and* the ring push of concurrent same-stream submitters, so
/// frames of a stream always enqueue in sequence order (the per-stream
/// ordering guarantee rests on this). Counters are atomics because shard
/// workers bump `delivered` without taking the mutex.
struct PerceptionService::StreamState {
  std::mutex order_mutex;
  std::uint64_t next_sequence{0};  ///< guarded by order_mutex
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> delivered{0};
};

namespace {

std::shared_ptr<const SignDatabase> build_shared_database(
    const RecognizerConfig& config, const DatabaseBuildOptions& db_options) {
  // Same canonical construction as SaxSignRecognizer: templates run through
  // the identical pipeline, then freeze behind a const handle.
  const SaxSignRecognizer reference(config, db_options);
  return reference.database_ptr();
}

std::size_t resolve_shards(std::size_t requested) {
  if (requested != 0) return requested;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

PerceptionService::PerceptionService(const RecognizerConfig& config,
                                     std::shared_ptr<const SignDatabase> database,
                                     ResultCallback on_result,
                                     const PerceptionServiceConfig& service_config)
    : config_(config),
      service_config_(service_config),
      database_(std::move(database)),
      on_result_(std::move(on_result)) {
  if (database_ == nullptr) {
    throw std::invalid_argument("PerceptionService: null database handle");
  }
  if (telemetry::MetricsRegistry* registry = service_config_.metrics) {
    submit_ns_ = registry->histogram(telemetry::kPerceptionSubmit);
    ring_wait_ns_ = registry->histogram(telemetry::kPerceptionRingWait);
    recognize_ns_ = registry->histogram(telemetry::kPerceptionRecognize);
    frames_submitted_ = registry->counter(telemetry::kPerceptionFramesSubmitted);
    queue_depth_ = registry->gauge(telemetry::kPerceptionQueueDepth);
  }
  recorder_ = service_config_.recorder;
  const std::size_t shard_count = resolve_shards(service_config.shards);
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(service_config.queue_capacity, database_.get()));
    if (service_config_.metrics != nullptr) {
      // Arm the seven recognition stage histograms (preprocess .. match)
      // per shard scratch (one handle set per worker, same ownership as
      // the buffers).
      shards_.back()->scratch.metrics =
          telemetry::RecognitionStageMetrics::from(*service_config_.metrics);
    }
  }
  // Threads start only after the shard vector is fully built: shard_of()
  // reads shards_.size() and must never observe a growing vector.
  for (std::unique_ptr<Shard>& shard : shards_) {
    Shard* raw = shard.get();
    raw->worker = std::thread([this, raw] { shard_loop(*raw); });
  }
}

PerceptionService::PerceptionService(const RecognizerConfig& config,
                                     const DatabaseBuildOptions& db_options,
                                     ResultCallback on_result,
                                     const PerceptionServiceConfig& service_config)
    : PerceptionService(config, build_shared_database(config, db_options),
                        std::move(on_result), service_config) {}

PerceptionService::~PerceptionService() { stop(); }

SubmitReceipt PerceptionService::submit(std::uint32_t stream_id,
                                        const imaging::GrayImage& frame) {
  return submit_job(stream_id, frame);  // copies: the camera keeps its buffer
}

SubmitReceipt PerceptionService::submit_job(std::uint32_t stream_id,
                                            imaging::GrayImage frame) {
  if (frame.empty()) {
    throw std::invalid_argument("PerceptionService::submit: empty frame");
  }
  if (stream_id > telemetry::kMaxTraceStreamId) {
    throw std::invalid_argument(
        "PerceptionService::submit: stream_id above 65534 would alias trace ids");
  }
  telemetry::TracedSpan span(submit_ns_, recorder_, {},
                             telemetry::TraceStage::kSubmit);
  SubmitReceipt receipt;
  receipt.shard = shard_of(stream_id);
  if (stopping_.load(std::memory_order_acquire)) {
    receipt.status = SubmitStatus::kStopped;
    return receipt;
  }
  StreamState& state = stream_state(stream_id);
  Shard& shard = *shards_[receipt.shard];

  std::lock_guard<std::mutex> order(state.order_mutex);
  // The trace context is minted here, once the sequence this frame will
  // claim is known. A submit refused by a closed ring never consumes the
  // sequence, so its terminal trace carries the stream's next UNCONSUMED
  // sequence — exactly which admission attempt died.
  const telemetry::TraceContext trace_context =
      telemetry::TraceContext::of(stream_id, state.next_sequence);
  span.set_context(trace_context);
  // Raise pending BEFORE the push: a shard can pop, process and deliver
  // this frame before push() even returns, and its decrement must never
  // precede our increment.
  pending_.raise();
  Job job;
  job.stream_id = stream_id;
  job.sequence = state.next_sequence;
  job.frame = std::move(frame);
  job.origin = &state;
  if (ring_wait_ns_.armed() || recorder_ != nullptr) {
    job.submitted_at_ns = telemetry::now_ns();
  }
  if (shard.ring.push(std::move(job)) == util::PushOutcome::kClosed) {
    receipt.status = SubmitStatus::kStopped;
    span.set_outcome(telemetry::TraceOutcome::kClosed);  // terminal
    pending_.finish(1);
    return receipt;
  }
  receipt.sequence = state.next_sequence++;
  state.submitted.fetch_add(1, std::memory_order_relaxed);
  frames_submitted_.add(1);
  queue_depth_.add(1);
  return receipt;
}

void PerceptionService::shard_loop(Shard& shard) {
  Job job;
  // Reused across frames: the result's string capacity survives, so the
  // steady state stays allocation-free.
  StreamResult delivery;
  while (shard.ring.pop(job)) {
    queue_depth_.add(-1);
    const telemetry::TraceContext context =
        telemetry::TraceContext::of(job.stream_id, job.sequence);
    // Frames carry 0 when neither the histogram nor a recorder is wired.
    if (job.submitted_at_ns != 0) {
      const std::uint64_t popped_at_ns = telemetry::now_ns();
      ring_wait_ns_.record(
          popped_at_ns > job.submitted_at_ns ? popped_at_ns - job.submitted_at_ns : 0);
      if (recorder_ != nullptr) {
        recorder_->emit({context.trace_id, job.stream_id, job.sequence,
                         telemetry::TraceStage::kQueueWait, telemetry::TraceOutcome::kOk,
                         job.submitted_at_ns, popped_at_ns});
      }
    }
    bool recognized = false;
    try {
      {
        // One span feeds both the recognize histogram and this frame's
        // kRecognize trace slice. It stays kError unless the pipeline
        // returns, so a frame that throws still closes its trace.
        telemetry::TracedSpan span(recognize_ns_, recorder_, context,
                                   telemetry::TraceStage::kRecognize);
        span.set_outcome(telemetry::TraceOutcome::kError);
        recognize_frame_into(config_, *shard.database, job.frame, shard.scratch,
                             delivery.result);
        recognized = true;
        span.set_outcome(delivery.result.accepted ? telemetry::TraceOutcome::kAccepted
                                                  : telemetry::TraceOutcome::kNoMatch);
      }
      delivery.stream_id = job.stream_id;
      delivery.sequence = job.sequence;
      delivery.trace = context;
      if (on_result_) on_result_(delivery);
      job.origin->delivered.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      // A throwing callback leaves a recognized frame undelivered: close
      // its trace here (a throwing pipeline already closed it via the span).
      if (recognized && recorder_ != nullptr) {
        recorder_->emit_instant(context, telemetry::TraceStage::kRecognize,
                                telemetry::TraceOutcome::kError);
      }
      pending_.record_error(std::current_exception());
    }
    pending_.finish(1);
  }
}

void PerceptionService::drain() { pending_.drain(); }

void PerceptionService::stop() noexcept {
  std::lock_guard<std::mutex> guard(stop_mutex_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  // close() wakes producers blocked on a full ring (their submit
  // returns kStopped) and lets each worker drain its remaining queue.
  for (std::unique_ptr<Shard>& shard : shards_) shard->ring.close();
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  stopped_ = true;
}

ShardGauge PerceptionService::shard_gauge(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("PerceptionService::shard_gauge: bad shard index");
  }
  const util::BoundedRing<Job>& ring = shards_[shard]->ring;
  return {ring.size(), ring.capacity(), ring.popped_count()};
}

std::vector<ShardGauge> PerceptionService::shard_gauges() const {
  std::vector<ShardGauge> gauges;
  gauges.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    gauges.push_back(shard_gauge(s));
  }
  return gauges;
}

const SignDatabase* PerceptionService::shard_database(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("PerceptionService::shard_database: bad shard index");
  }
  return shards_[shard]->database;
}

PerceptionService::StreamState& PerceptionService::stream_state(
    std::uint32_t stream_id) {
  {
    // Fast path: the stream already exists (every frame after a stream's
    // first). StreamState pointers are stable, so the reference stays
    // valid after the lock drops — the registry only ever grows.
    std::shared_lock<std::shared_mutex> lock(streams_mutex_);
    const auto it = streams_.find(stream_id);
    if (it != streams_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(streams_mutex_);
  std::unique_ptr<StreamState>& slot = streams_[stream_id];
  if (slot == nullptr) slot = std::make_unique<StreamState>();
  return *slot;
}

StreamStats PerceptionService::stream_stats(std::uint32_t stream_id) const {
  std::shared_lock<std::shared_mutex> lock(streams_mutex_);
  const auto it = streams_.find(stream_id);
  if (it == streams_.end()) return {};
  const StreamState& state = *it->second;
  return {state.submitted.load(std::memory_order_relaxed),
          state.delivered.load(std::memory_order_relaxed)};
}

StreamStats PerceptionService::total_stats() const {
  std::shared_lock<std::shared_mutex> lock(streams_mutex_);
  StreamStats total;
  for (const auto& entry : streams_) {
    const StreamState& state = *entry.second;
    total.submitted += state.submitted.load(std::memory_order_relaxed);
    total.delivered += state.delivered.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace hdc::recognition
