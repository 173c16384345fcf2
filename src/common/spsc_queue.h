#ifndef OIJ_COMMON_SPSC_QUEUE_H_
#define OIJ_COMMON_SPSC_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace oij {

/// Outcome of a bounded/stoppable push attempt.
enum class PushResult : uint8_t {
  kOk = 0,
  kTimedOut,  ///< ring stayed full until the deadline
  kStopped,   ///< the stop token was raised while waiting
};

/// Bounded single-producer single-consumer ring buffer.
///
/// This is the transport between the router (source) thread and each joiner
/// thread. Head and tail live on separate cache lines; the producer and the
/// consumer each cache the opposite index to avoid ping-ponging the shared
/// lines on every operation (the classic Vyukov/folly SPSC layout).
///
/// Blocking variants back off with std::this_thread::yield() rather than
/// spinning hot: benchmark machines are frequently oversubscribed (more
/// joiners than cores), and a hot spin would starve the very thread being
/// waited on.
template <typename T>
class SpscQueue {
 public:
  /// `capacity` is rounded up to a power of two, minimum 2.
  explicit SpscQueue(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    buffer_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Non-blocking push. Returns false when the ring is full.
  bool TryPush(const T& value) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    buffer_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Blocking push; yields while full. Prefer PushBounded in any path
  /// where the consumer may have died (see JoinEngine::Finish).
  void Push(const T& value) { PushBounded(value); }

  /// Push with an optional absolute deadline and an optional stop token.
  ///
  /// `deadline_ns` (MonotonicNowNs timeline): < 0 waits indefinitely,
  /// 0 is a single attempt, > 0 retries until that instant. `stop`, when
  /// non-null, is polled while waiting and aborts the push as soon as it
  /// reads true — this is how a dead consumer stops deadlocking the
  /// router during shutdown.
  PushResult PushBounded(const T& value, int64_t deadline_ns = -1,
                         const std::atomic<bool>* stop = nullptr) {
    if (TryPush(value)) return PushResult::kOk;
    while (true) {
      if (stop != nullptr && stop->load(std::memory_order_acquire)) {
        return PushResult::kStopped;
      }
      if (deadline_ns >= 0 && MonotonicNowNs() >= deadline_ns) {
        return PushResult::kTimedOut;
      }
      std::this_thread::yield();
      if (TryPush(value)) return PushResult::kOk;
    }
  }

  /// Non-blocking pop. Returns false when the ring is empty.
  bool TryPop(T* out) {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    *out = buffer_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Non-blocking batch push: enqueues up to `n` items from `items` and
  /// publishes them with a single release store of `tail_` — one shared
  /// cache-line update per batch instead of per element. Returns how many
  /// items were enqueued (0 when the ring is full; may be < n when it is
  /// nearly full).
  size_t PushBatch(const T* items, size_t n) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    size_t free = mask_ + 1 - (tail - head_cache_);
    if (free < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = mask_ + 1 - (tail - head_cache_);
      if (free == 0) return 0;
    }
    const size_t count = std::min(n, free);
    for (size_t i = 0; i < count; ++i) {
      buffer_[(tail + i) & mask_] = items[i];
    }
    tail_.store(tail + count, std::memory_order_release);
    return count;
  }

  /// Non-blocking batch pop: dequeues up to `max_n` items into `out` and
  /// releases the slots with a single store of `head_`. Returns how many
  /// items were dequeued (0 when the ring is empty).
  size_t PopBatch(T* out, size_t max_n) {
    const size_t head = head_.load(std::memory_order_relaxed);
    size_t avail = tail_cache_ - head;
    if (avail == 0) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = tail_cache_ - head;
      if (avail == 0) return 0;
    }
    const size_t count = std::min(max_n, avail);
    for (size_t i = 0; i < count; ++i) {
      out[i] = buffer_[(head + i) & mask_];
    }
    head_.store(head + count, std::memory_order_release);
    return count;
  }

  /// Approximate size (exact if called from producer or consumer). Safe
  /// to call from a third thread (the watchdog): `head_` is loaded first,
  /// so a pop landing between the two loads can only make the result
  /// stale, never make `head > tail` and underflow the subtraction; the
  /// result is additionally clamped to capacity against pushes landing in
  /// the same window.
  size_t SizeApprox() const {
    const size_t head = head_.load(std::memory_order_acquire);
    const size_t tail = tail_.load(std::memory_order_acquire);
    const size_t depth = tail >= head ? tail - head : 0;
    return std::min(depth, mask_ + 1);
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  std::vector<T> buffer_;
  size_t mask_ = 0;

  alignas(64) std::atomic<size_t> head_{0};
  alignas(64) size_t head_cache_ = 0;  // producer-local
  alignas(64) std::atomic<size_t> tail_{0};
  alignas(64) size_t tail_cache_ = 0;  // consumer-local
};

}  // namespace oij

#endif  // OIJ_COMMON_SPSC_QUEUE_H_
