// Lock-free single-producer single-consumer ring buffer — the shared-memory
// channel between the OVS datapath and the measurement process (§B: "we use
// ring buffers as the shared memory... the measurement process continuously
// reads packet header information from ring buffers by polling").
//
// Classic Lamport queue with C++11 atomics: the producer owns `head_`, the
// consumer owns `tail_`; each caches the other side's index to avoid
// touching the contended cache line on every operation. Capacity is a power
// of two so index wrapping is a mask. The consumer pops only in batches
// (PopBatch), so the atomic traffic is paid per batch, not per element.
//
// In the datapath (ovs/scaleout.h) ring s has one consumer, shard s's
// worker. A respawned worker takes over the consumer side only after the
// control loop has joined the killed one, and the join orders the handoff
// of the consumer-local state (`tail_` and the `cached_head_` cache).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace coco::ovs {

// What the producer does when its ring is full. Real receive queues drop on
// overflow (the NIC never stalls the wire); backpressure is the simulation's
// original lossless mode, useful when every packet must be accounted for.
enum class OverflowPolicy {
  kBackpressure,  // spin until a slot frees up — lossless, can stall
  kDropNewest,    // count the packet in rx_dropped and move on — lossy, never blocks
};

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity_pow2)
      : mask_(capacity_pow2 - 1), slots_(capacity_pow2) {
    COCO_CHECK(capacity_pow2 >= 2 && (capacity_pow2 & mask_) == 0,
               "capacity must be a power of two");
  }

  // Producer side. Returns false when the ring is full.
  bool TryPush(const T& value) {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ >= slots_.size()) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ >= slots_.size()) return false;
    }
    slots_[head & mask_] = value;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Producer side, kDropNewest policy: push if there is room, otherwise
  // count the record as dropped and return false. Never blocks or retries —
  // the overload contract a real NIC rx queue gives.
  bool PushOrDrop(const T& value) {
    if (TryPush(value)) return true;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Records pushed so far. Producer side.
  size_t pushed() const { return head_.load(std::memory_order_relaxed); }

  // Packets dropped by PushOrDrop. Readable from any thread.
  uint64_t rx_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // Approximate occupancy, callable from any thread (watermark checks, the
  // stall detector's work-pending test). Reading tail before head keeps the
  // difference non-negative: tail never passes the head value read later.
  // Clamped to capacity because the producer may push between the two loads.
  size_t SizeApprox() const {
    const size_t tail = tail_.load(std::memory_order_acquire);
    const size_t head = head_.load(std::memory_order_acquire);
    const size_t n = head - tail;
    return n > slots_.size() ? slots_.size() : n;
  }

  // Consumer side: moves up to `max` elements into `out`, returning the
  // number popped (0 when empty). One acquire load and one release store
  // are amortized over the whole batch.
  size_t PopBatch(T* out, size_t max) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    size_t available = cached_head_ - tail;
    if (available == 0) {
      cached_head_ = head_.load(std::memory_order_acquire);
      available = cached_head_ - tail;
      if (available == 0) return 0;
    }
    const size_t n = available < max ? available : max;
    for (size_t i = 0; i < n; ++i) {
      out[i] = slots_[(tail + i) & mask_];
    }
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  size_t capacity() const { return slots_.size(); }

 private:
  alignas(64) std::atomic<uint64_t> dropped_{0};
  alignas(64) std::atomic<size_t> head_{0};
  alignas(64) size_t cached_tail_ = 0;   // producer-local
  alignas(64) std::atomic<size_t> tail_{0};
  alignas(64) size_t cached_head_ = 0;   // consumer-local
  size_t mask_;
  std::vector<T> slots_;
};

}  // namespace coco::ovs
