// Bounded MPSC ring buffer with lossless admission.
//
// Built for the streaming perception service: any number of producer
// threads push frames, exactly one consumer (a shard worker) pops them in
// FIFO order. Capacity is fixed at construction — a live camera feed must
// not buffer unboundedly — and a full ring never loses an item: push()
// waits for space, so backpressure propagates to the feed. A producer that
// finds the ring full sleeps until the consumer has drained it to at most
// half full (capacity / 2), so a producer that outruns its consumer is
// woken once per half-ring drain instead of once per pop. close() refuses
// every later push.
//
// The ring never reorders: items pop in push order, so per-stream
// sequence numbers stay contiguous and monotonic downstream.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hdc::util {

/// What a full ring does with a new item. kBlock (wait for space) is the
/// only behaviour; the type stays for callers that name it in a config.
enum class OverflowPolicy : std::uint8_t { kBlock };

/// Outcome of one push.
enum class PushOutcome : std::uint8_t {
  kEnqueued,  ///< item admitted
  kClosed,    ///< ring closed — item refused
};

template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity)
      : storage_(checked_capacity(capacity)) {}

  BoundedRing(const BoundedRing&) = delete;
  BoundedRing& operator=(const BoundedRing&) = delete;

  /// Pushes one item (any thread). A full ring makes the call wait until
  /// the consumer has drained it to at most capacity / 2 items, or the
  /// ring closes.
  PushOutcome push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_ && size_ == storage_.size()) {
      ++waiting_producers_;
      not_full_.wait(lock, [this] { return closed_ || size_ <= half(); });
      --waiting_producers_;
    }
    if (closed_) return PushOutcome::kClosed;
    storage_[tail_] = std::move(item);
    tail_ = next(tail_);
    ++size_;
    lock.unlock();
    not_empty_.notify_one();
    return PushOutcome::kEnqueued;
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

  /// The fill level a blocked producer waits for.
  [[nodiscard]] std::size_t half() const noexcept { return storage_.size() / 2; }

  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return i + 1 == storage_.size() ? 0 : i + 1;
  }

  std::vector<T> storage_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::size_t head_{0};  ///< oldest occupied slot
  std::size_t tail_{0};  ///< next free slot
  std::size_t size_{0};
  std::size_t waiting_producers_{0};  ///< producers asleep in push()
  bool closed_{false};
  std::uint64_t popped_{0};
};

}  // namespace hdc::util
