// Epoch-based sketch rotation for the scale-out datapath (DESIGN.md §7,
// "Epoch rotation protocol").
//
// The reader — the epoch collector — must never race a writer, and gets a
// whole epoch's time to collect the previous one before it stalls it. Each
// shard therefore triple-buffers its sketch:
//
//   active    — owned exclusively by the shard's writer (worker thread);
//   published — a retired epoch waiting for the reader, plus the writer's
//               own mass accounting for cross-checks;
//   spare     — an empty sketch the writer can swap in at the next rotation.
//
// The writer's rotation step (Rotate, called when the writer reaches an
// epoch mark in its ring) is two unique_ptr moves under a mutex — O(1). If
// the reader still holds the previous epoch (spare not yet recycled), Rotate
// blocks until Recycle hands the spare back: an epoch ends at a fixed trace
// position, so the writer waits at the mark rather than write on into it.
// Clearing the retired sketch for reuse happens in Recycle, on the READER's
// thread — the scan-and-memset cost never lands on the datapath.
//
// Mass conservation per epoch: the writer passes the total weight it applied
// during the epoch to Rotate; because every CocoSketch update adds its
// weight to exactly one bucket, TotalValue() of the published sketch must
// equal that number exactly — the invariant the rotation-under-load
// concurrency test asserts (tests/scaleout_test.cpp).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "core/cocosketch.h"

namespace coco::ovs {

template <typename Key>
class EpochShard {
 public:
  using Sketch = core::CocoSketch<Key>;

  struct Published {
    std::unique_ptr<Sketch> sketch;  // null when nothing is published
    uint64_t applied_weight = 0;  // writer-side accounting for the epoch
  };

  EpochShard(size_t memory_bytes, size_t d, uint64_t seed)
      : active_(std::make_unique<Sketch>(memory_bytes, d, seed)),
        spare_(std::make_unique<Sketch>(memory_bytes, d, seed)) {}

  // Writer-thread only. The writer is the sole thread that ever touches the
  // active sketch (single-writer invariant), so no lock guards this access.
  Sketch* active() { return active_.get(); }

  // Writer, at an epoch mark: publish the active sketch and swap the spare
  // in, once the reader has recycled the previous epoch's sketch. Returns
  // whether it had to wait for that.
  bool Rotate(uint64_t applied_weight) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto ready = [&] { return spare_ && !published_.sketch; };
    const bool waited = !ready();
    recycled_.wait(lock, ready);
    published_ = {std::move(active_), applied_weight};
    active_ = std::move(spare_);
    return waited;
  }

  // Reader: claim the published epoch (sketch moves to the caller, who now
  // owns it exclusively — decode/merge at leisure, writers race nothing).
  // Returns an empty Published when no epoch is waiting.
  Published TakePublished() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(published_, Published{});
  }

  // Reader, after consuming a taken sketch: clear it (reader-side cost) and
  // hand it back as the spare, releasing the writer's next rotation.
  void Recycle(std::unique_ptr<Sketch> sketch) {
    sketch->Clear();
    std::lock_guard<std::mutex> lock(mu_);
    spare_ = std::move(sketch);
    recycled_.notify_one();
  }

 private:
  std::mutex mu_;  // guards published_ and spare_ (writer <-> reader)
  std::condition_variable recycled_;
  std::unique_ptr<Sketch> active_;  // writer-exclusive
  std::unique_ptr<Sketch> spare_;
  Published published_;
};

}  // namespace coco::ovs
