// Single-producer/single-consumer lock-free ring buffer — the wire of the
// shm transport. One ring per directed link (src → dst): the producer is
// src's progress context, the consumer is dst's progress context, which is
// exactly the SPSC discipline. Indices are monotonically increasing
// (wrapping through the power-of-two mask), release/acquire pairs on the
// indices publish the slot contents. The indices double as the ring's
// traffic counters (pushed/popped), so counting costs no extra write.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace tc::fabric {

template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  /// Producer side. Moves from `item` only on success; returns false when
  /// the ring is full (caller applies backpressure).
  bool try_push(T& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail - head >= slots_.size()) return false;
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer-side emptiness probe (racy by nature; used for idle checks).
  bool empty() const {
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Items ever pushed / popped: the monotonic indices themselves, read
  /// relaxed from any thread (a snapshot for statistics, no ordering).
  std::size_t pushed() const { return tail_.load(std::memory_order_relaxed); }
  std::size_t popped() const { return head_.load(std::memory_order_relaxed); }

 private:
  std::size_t mask_ = 0;
  std::vector<T> slots_;
  // Separate cache lines: the producer only writes tail_, the consumer only
  // writes head_.
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<std::size_t> head_{0};
};

}  // namespace tc::fabric
