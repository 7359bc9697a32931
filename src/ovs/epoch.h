// Epoch-based sketch rotation for the scale-out datapath (DESIGN.md
// "Multi-core scale-out").
//
// Readers — SQL queries, snapshots, delta sync — must never stall writers.
// Each shard therefore triple-buffers its sketch:
//
//   active    — owned exclusively by the shard's writer (worker thread);
//   published — a retired epoch waiting for the reader, plus the epoch id
//               and the writer's own mass accounting for cross-checks;
//   spare     — an empty sketch the writer can swap in at the next rotation.
//
// The writer's rotation step (TryRotate, called at a batch boundary when the
// control plane has requested a new epoch) is two unique_ptr moves under a
// mutex — O(1), so a writer is never stalled beyond the batch it was already
// processing. If the reader still holds the previous epoch (spare not yet
// recycled), TryRotate refuses and the writer simply keeps accumulating into
// the current epoch and retries at the next batch boundary: slow readers
// lengthen epochs, they never block ingest. Clearing the retired sketch for
// reuse happens in Recycle, on the READER's thread — the scan-and-memset
// cost never lands on the datapath.
//
// Mass conservation per epoch: the writer passes the total weight it applied
// during the epoch to TryRotate; because every CocoSketch update adds its
// weight to exactly one bucket, TotalValue() of the published sketch must
// equal that number exactly — the invariant the rotation-under-load
// concurrency test asserts (tests/scaleout_test.cpp).
#pragma once

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
    uint64_t epoch = 0;
    uint64_t applied_weight = 0;  // writer-side accounting for the epoch
  };

  EpochShard(size_t memory_bytes, size_t d, uint64_t seed)
      : active_(std::make_unique<Sketch>(memory_bytes, d, seed)),
        spare_(std::make_unique<Sketch>(memory_bytes, d, seed)) {}

  // Writer-thread only. The writer is the sole thread that ever touches the
  // active sketch (single-writer invariant), so no lock guards this access.
  Sketch* active() { return active_.get(); }

  // Writer, at a batch boundary: retire the active sketch as `epoch`,
  // swapping the spare in. Returns false — without blocking — when the
  // reader has not yet recycled the previous epoch's sketch; the writer
  // retries at a later batch boundary.
  bool TryRotate(uint64_t epoch, uint64_t applied_weight) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spare_ == nullptr || published_.sketch != nullptr) return false;
    published_.sketch = std::move(active_);
    published_.epoch = epoch;
    published_.applied_weight = applied_weight;
    active_ = std::move(spare_);
    return true;
  }

  // Reader: claim the published epoch (sketch moves to the caller, who now
  // owns it exclusively — decode/merge at leisure, writers race nothing).
  // Returns an empty Published when no epoch is waiting.
  Published TakePublished() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(published_, Published{});
  }

  // Reader, after consuming a taken sketch: clear it (reader-side cost) and
  // hand it back as the spare, re-arming the writer's next rotation.
  void Recycle(std::unique_ptr<Sketch> sketch) {
    sketch->Clear();
    std::lock_guard<std::mutex> lock(mu_);
    spare_ = std::move(sketch);
  }

 private:
  std::mutex mu_;  // guards published_ and spare_ (writer <-> reader)
  std::unique_ptr<Sketch> active_;  // writer-exclusive
  std::unique_ptr<Sketch> spare_;
  Published published_;
};

}  // namespace coco::ovs
