// Watchdog building blocks for the OVS datapath: checkpoint storage and
// stall detection.
//
// The datapath's recovery story (docs/ROBUSTNESS.md): each shard's writer
// periodically serializes the shard's sketch into a CheckpointStore; the
// control loop on RunScaleout's calling thread watches per-shard progress
// counters and, when a worker dies, respawns it, and the replacement
// restores its shard from the newest checkpoint image that passes its
// checksum. Both pieces here are deliberately free of threads and clocks —
// the caller supplies timestamps — so tests can drive every path
// deterministically.
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace coco::ovs {

// One shard's checkpoint slots: the two most recent serialized sketch
// images plus the shard progress recorded when each was taken. Keeping two
// lets recovery fall back to the older image when the newest one is corrupt
// (torn write, injected fault). Writes come from the shard's writer, reads
// from its replacement after a crash — a mutex is ample at checkpoint
// frequency.
class CheckpointStore {
 public:
  struct Image {
    uint64_t seq = 0;       // 1-based checkpoint number within the shard
    uint64_t progress = 0;  // records applied when the image was taken
    std::vector<uint8_t> bytes;
  };

  void Put(uint64_t seq, uint64_t progress, std::vector<uint8_t> bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    previous_ = std::move(latest_);
    latest_ = Image{seq, progress, std::move(bytes)};
    ++count_;
  }

  // Candidate images for recovery, newest first. Empty slots are omitted.
  std::vector<Image> Candidates() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Image> out;
    if (!latest_.bytes.empty()) out.push_back(latest_);
    if (!previous_.bytes.empty()) out.push_back(previous_);
    return out;
  }

  // Drops both images (a new measurement epoch began; images of the
  // retired one must never be restored). count() keeps counting.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    latest_ = Image{};
    previous_ = Image{};
  }

  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  Image latest_;
  Image previous_;
  uint64_t count_ = 0;
};

// Edge-triggered stall detection over a monotone progress counter: fires
// once per episode where progress has been frozen for >= timeout_ms while
// work remains, and re-arms as soon as progress moves again.
class StallDetector {
 public:
  explicit StallDetector(uint64_t timeout_ms) : timeout_ms_(timeout_ms) {}

  bool Observe(uint64_t progress, uint64_t now_ms, bool work_pending) {
    if (progress != last_progress_) {
      last_progress_ = progress;
      last_change_ms_ = now_ms;
      flagged_ = false;
      return false;
    }
    if (!work_pending || flagged_) return false;
    if (now_ms - last_change_ms_ >= timeout_ms_) {
      flagged_ = true;
      return true;
    }
    return false;
  }

 private:
  uint64_t timeout_ms_;
  uint64_t last_progress_ = 0;
  uint64_t last_change_ms_ = 0;
  bool flagged_ = false;
};

}  // namespace coco::ovs
