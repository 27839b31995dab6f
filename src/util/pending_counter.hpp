// In-flight work accounting for PerceptionService's shard rings: producers
// raise() BEFORE publishing an item — the consumer may finish it before
// the publish call even returns, and the decrement must never precede the
// increment — workers finish() it, and drain() blocks until everything
// raised before the call is finished, rethrowing the first recorded worker
// error (the slot clears, so the next drain reports only newer failures).
// finish() takes the mutex only on the ->0 transition, so the per-item hot
// path never locks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <utility>

namespace hdc::util {

class PendingCounter {
 public:
  void raise(std::size_t count = 1) noexcept {
    pending_.fetch_add(count, std::memory_order_acq_rel);
  }

  void finish(std::size_t count = 1) {
    if (pending_.fetch_sub(count, std::memory_order_acq_rel) == count) {
      // ->0 transition: publish under the mutex so a drain() that just
      // checked the predicate and is about to sleep cannot miss the wakeup.
      std::lock_guard<std::mutex> lock(mutex_);
      cv_.notify_all();
    }
  }

  /// Stores the first error (later ones are dropped — the first is what
  /// drain() reports).
  void record_error(std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (first_error_ == nullptr) first_error_ = std::move(error);
  }

  /// Blocks until the count reaches zero, then rethrows the first recorded
  /// error, if any. Safe to call repeatedly and concurrently.
  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock,
             [this] { return pending_.load(std::memory_order_acquire) == 0; });
    if (first_error_ != nullptr) {
      std::exception_ptr error = std::exchange(first_error_, nullptr);
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

 private:
  std::atomic<std::uint64_t> pending_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::exception_ptr first_error_;  ///< guarded by mutex_
};

}  // namespace hdc::util
