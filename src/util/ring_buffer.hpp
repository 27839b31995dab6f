// Bounded MPSC ring buffer with a configurable full-queue policy.
//
// Built for the streaming perception service: any number of producer
// threads push frames, exactly one consumer (a shard worker) pops them in
// FIFO order. Capacity is fixed at construction — a live camera feed must
// not buffer unboundedly — and what happens when the ring is full is a
// policy decision the caller makes per deployment:
//
//   kBlock      — the producer waits for space (lossless; backpressure
//                 propagates to the feed, e.g. a file replay). A producer
//                 that finds the ring full sleeps until the consumer has
//                 drained it to at most half full (capacity / 2), so a
//                 producer that outruns its consumer is woken once per
//                 half-ring drain instead of once per pop.
//   kDropOldest — the oldest queued item is evicted to admit the new one
//                 (a live feed prefers fresh frames over stale ones).
//   kReject     — the new item is refused (the caller decides what to do,
//                 e.g. skip the frame and count it).
//
// The ring never reorders: items pop in push order regardless of policy,
// so per-stream sequence numbers stay monotonic downstream. Eviction and
// rejection are counted, and kDropOldest hands the evicted item back to
// the producer so it can account the loss (e.g. per stream).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hdc::util {

/// What a full ring does with a new item.
enum class OverflowPolicy : std::uint8_t { kBlock, kDropOldest, kReject };

/// Outcome of one push.
enum class PushOutcome : std::uint8_t {
  kEnqueued,       ///< item admitted, nothing lost
  kEvictedOldest,  ///< item admitted, the oldest queued item was evicted
  kRejected,       ///< ring full under kReject — item refused
  kClosed,         ///< ring closed — item refused
};

template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity,
                       OverflowPolicy policy = OverflowPolicy::kBlock)
      : storage_(checked_capacity(capacity)), policy_(policy) {}

  BoundedRing(const BoundedRing&) = delete;
  BoundedRing& operator=(const BoundedRing&) = delete;

  /// Pushes one item (any thread). Under kDropOldest a full ring evicts its
  /// oldest item into `*evicted` (when non-null) before admitting `item`;
  /// under kBlock a full ring makes the call wait until the consumer has
  /// drained it to at most capacity / 2 items, or the ring closes.
  PushOutcome push(T item, T* evicted = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (policy_ == OverflowPolicy::kBlock && !closed_ &&
        size_ == storage_.size()) {
      ++waiting_producers_;
      not_full_.wait(lock, [this] { return closed_ || size_ <= half(); });
      --waiting_producers_;
    }
    return push_locked(lock, std::move(item), evicted);
  }

  /// Non-blocking push: identical to push() except under kBlock on a full
  /// ring, where it returns kRejected immediately instead of waiting. Lets
  /// a consumer of ring A safely feed ring B when B's consumer also feeds
  /// A (no blocking cycle); the caller owns the retry.
  PushOutcome try_push(T item, T* evicted = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_ && size_ == storage_.size() &&
        policy_ == OverflowPolicy::kBlock) {
      return PushOutcome::kRejected;
    }
    return push_locked(lock, std::move(item), evicted);
  }

  /// Pops the oldest item, blocking until one arrives or the ring is closed
  /// AND drained. Returns false only on closed-and-empty (the consumer's
  /// shutdown signal). Single consumer.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || size_ > 0; });
    if (size_ == 0) return false;  // closed and drained
    out = std::move(storage_[head_]);
    head_ = next(head_);
    --size_;
    ++popped_;
    const bool wake = waiting_producers_ > 0 && size_ <= half();
    lock.unlock();
    if (wake) not_full_.notify_all();
    return true;
  }

  /// Closes the ring: subsequent pushes return kClosed, blocked producers
  /// wake, and the consumer drains what remains before pop() returns false.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return storage_.size(); }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return size_;
  }
  /// Items evicted under kDropOldest since construction.
  [[nodiscard]] std::uint64_t evicted_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return evicted_;
  }
  /// Items refused under kReject since construction.
  [[nodiscard]] std::uint64_t rejected_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return rejected_;
  }
  /// Items ever popped since construction. Monotonic: a consumer that is
  /// alive makes this advance, which is exactly the progress signal the
  /// stalled-shard watchdog (telemetry::FleetHealthMonitor) keys on.
  [[nodiscard]] std::uint64_t popped_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return popped_;
  }

 private:
  [[nodiscard]] static std::size_t checked_capacity(std::size_t capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("BoundedRing: capacity must be positive");
    }
    return capacity;
  }

  /// The fill level a blocked kBlock producer waits for.
  [[nodiscard]] std::size_t half() const noexcept { return storage_.size() / 2; }

  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return i + 1 == storage_.size() ? 0 : i + 1;
  }

  /// Shared tail of push()/try_push(): caller holds `lock` and has already
  /// resolved the kBlock wait (or chosen not to wait).
  PushOutcome push_locked(std::unique_lock<std::mutex>& lock, T item,
                          T* evicted) {
    if (closed_) return PushOutcome::kClosed;
    PushOutcome outcome = PushOutcome::kEnqueued;
    if (size_ == storage_.size()) {
      if (policy_ != OverflowPolicy::kDropOldest) {
        ++rejected_;  // kReject (kBlock never reaches here full and open)
        return PushOutcome::kRejected;
      }
      // kDropOldest: overwrite the head slot's occupant.
      T old = std::move(storage_[head_]);
      head_ = next(head_);
      --size_;
      ++evicted_;
      if (evicted != nullptr) *evicted = std::move(old);
      outcome = PushOutcome::kEvictedOldest;
    }
    storage_[tail_] = std::move(item);
    tail_ = next(tail_);
    ++size_;
    lock.unlock();
    not_empty_.notify_one();
    return outcome;
  }

  std::vector<T> storage_;
  const OverflowPolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::size_t head_{0};  ///< oldest occupied slot
  std::size_t tail_{0};  ///< next free slot
  std::size_t size_{0};
  std::size_t waiting_producers_{0};  ///< kBlock producers asleep in push()
  bool closed_{false};
  std::uint64_t evicted_{0};
  std::uint64_t rejected_{0};
  std::uint64_t popped_{0};
};

}  // namespace hdc::util
