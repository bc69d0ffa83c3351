// Single-producer/single-consumer lock-free ring buffer — the wire of the
// shm transport. One ring per directed link (src → dst): the producer is
// src's progress context, the consumer is dst's progress context, which is
// exactly the SPSC discipline.
//
// Slot protocol (FastForward, Giacomoni et al., PPoPP 2008): every slot is
// one cache line, `{seq, item}`, and carries its own full/empty state. The
// item at index i goes to slot i & mask; the producer moves it in and then
// release-stores seq = i + 1. The consumer polls only the slot it expects
// next: seq == head + 1 (acquire) means the item is there, and any other
// value — the seq of the previous lap, or 0 before the first — means the
// ring is empty. seq is a u64 index, so it never wraps and a stale lap can
// never look full.
//
// Who writes which line:
//  * a slot's line: the producer (item, seq), then the consumer (moves the
//    item out), so an op moves one line from producer to consumer;
//  * the producer's line: tail_ and head_cache_, written only by the
//    producer;
//  * the consumer's line: head_, written only by the consumer, which
//    release-stores it after moving the item out.
// No shared control word is read per op. The producer reads head_ only
// when head_cache_, its private copy of an older head_, says the ring is
// full (MCRingBuffer, Lee, Bu and Chandranmenon, IPDPS 2010); the acquire
// on that read orders the consumer's move-out of a slot before the
// producer's overwrite of it.
//
// tail_ and head_ are each side's monotonic index and double as the ring's
// traffic counters (pushed/popped), so counting costs no extra write.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tc::fabric {

template <typename T>
class SpscRing {
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};  ///< index + 1 once the item is in
    T item{};
  };
  static_assert(sizeof(Slot) == 64,
                "a slot (sequence word + item) must be one cache line");

 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscRing(std::size_t capacity)
      : slots_(round_up(capacity)), mask_(slots_.size() - 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  /// Producer side. Moves from `item` only on success; returns false when
  /// the ring is full (caller applies backpressure).
  bool try_push(T& item) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= slots_.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= slots_.size()) return false;
    }
    Slot& slot = slots_[tail & mask_];
    slot.item = std::move(item);
    slot.seq.store(tail + 1, std::memory_order_release);
    tail_.store(tail + 1, std::memory_order_relaxed);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[head & mask_];
    if (slot.seq.load(std::memory_order_acquire) != head + 1) return false;
    out = std::move(slot.item);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Items ever pushed / popped: the monotonic indices themselves, read
  /// relaxed from any thread (a snapshot for statistics, no ordering).
  std::size_t pushed() const { return tail_.load(std::memory_order_relaxed); }
  std::size_t popped() const { return head_.load(std::memory_order_relaxed); }

 private:
  static std::size_t round_up(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    return cap;
  }

  // Read-only after construction, so both sides cache this line.
  std::vector<Slot> slots_;
  std::size_t mask_;
  // The producer's line.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  // The consumer's line.
  alignas(64) std::atomic<std::uint64_t> head_{0};
};

}  // namespace tc::fabric
