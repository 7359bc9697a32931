// Deterministic fault injection for the OVS datapath.
//
// The paper's deployment (§6, Appendix B) runs measurement as a separate
// process fed by shared-memory rings, so slow and dead consumers are normal
// operating conditions, not exceptional ones. A FaultPlan scripts those
// conditions — stall a worker, kill it mid-run, corrupt a checkpoint
// image — keyed to per-shard progress (records applied to the shard's
// sketch) rather than wall-clock time, so every failure path is
// reproducible in CI. The `queue` field of each datapath fault is the shard
// index.
//
// Threading contract: each fault targets one shard, and FaultInjector state
// for a fault is only read/written by that shard's worker
// (respawns are sequential: the control loop joins the dead thread before
// starting its replacement). Fired-event totals are atomics so the control
// plane can read them from any thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"

namespace coco::ovs {

// Worker stall: once `after_packets` records have been applied to shard
// `queue`, the shard's worker sleeps for `duration_ms` before touching its
// ring again — a descheduled / GC-paused / IO-blocked measurement process.
struct StallFault {
  size_t queue = 0;
  uint64_t after_packets = 0;
  uint32_t duration_ms = 0;
};

// Worker death: once `after_packets` records have been applied to shard
// `queue`, the shard's worker exits without draining its ring — a
// crashed measurement process, whose sketch state is lost. The control
// loop respawns the worker, whatever the stall-detection setting.
struct KillFault {
  size_t queue = 0;
  uint64_t after_packets = 0;
};

// Checkpoint corruption: the `seq`-th checkpoint image (1-based) taken by
// `queue` gets seeded bit flips before it is stored — a torn shared-memory
// write or bad sector. RestoreState must reject it via its checksum.
struct CorruptFault {
  size_t queue = 0;
  uint64_t seq = 0;
};

// Frame-level transport fault: the `seq`-th frame (1-based) sent on link
// `link` (the agent id in the net/ subsystem) is dropped, duplicated,
// bit-flipped, or held back for `delay_frames` subsequent sends (which
// reorders it past them). The collector must survive all four: checksums
// reject corruption, epoch tracking rejects duplicates and reordering, and
// the ack/nack protocol recovers drops (docs/NETWIDE.md).
struct FrameFault {
  enum class Action { kDrop, kDuplicate, kCorrupt, kDelay };

  size_t link = 0;
  uint64_t seq = 0;
  Action action = Action::kDrop;
  uint32_t delay_frames = 1;  // for kDelay
};

struct FaultPlan {
  uint64_t seed = 0xfa010;
  std::vector<StallFault> stalls;
  std::vector<KillFault> kills;
  std::vector<CorruptFault> corruptions;
  std::vector<FrameFault> frames;

  bool Empty() const {
    return stalls.empty() && kills.empty() && corruptions.empty() &&
           frames.empty();
  }
};

// Runtime for a FaultPlan: answers "does a fault fire now?" from the hot
// loop. Each fault fires at most once. Fired flags live in per-fault bytes
// (not vector<bool> bits) so workers owning different shards never write
// the same byte.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan)
      : plan_(plan),
        stall_fired_(plan.stalls.size(), 0),
        kill_fired_(plan.kills.size(), 0),
        corrupt_fired_(plan.corruptions.size(), 0),
        frame_fired_(plan.frames.size(), 0) {}

  // Called by the owner of shard `queue` with the shard's progress; returns
  // the stall to serve now in milliseconds (0 = none).
  uint32_t StallMs(size_t queue, uint64_t processed) {
    for (size_t i = 0; i < plan_.stalls.size(); ++i) {
      const StallFault& f = plan_.stalls[i];
      if (f.queue == queue && stall_fired_[i] == 0 &&
          processed >= f.after_packets) {
        stall_fired_[i] = 1;
        stalls_fired_.fetch_add(1, std::memory_order_relaxed);
        return f.duration_ms;
      }
    }
    return 0;
  }

  // True when the owner of shard `queue` should die at this batch boundary.
  bool ShouldKill(size_t queue, uint64_t processed) {
    for (size_t i = 0; i < plan_.kills.size(); ++i) {
      const KillFault& f = plan_.kills[i];
      if (f.queue == queue && kill_fired_[i] == 0 &&
          processed >= f.after_packets) {
        kill_fired_[i] = 1;
        kills_fired_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  // Applies seeded bit flips to `image` when checkpoint `seq` of `queue` is
  // marked for corruption. Returns whether it fired. Deterministic: the flip
  // positions depend only on the plan seed, queue, and seq.
  bool MaybeCorrupt(size_t queue, uint64_t seq, std::vector<uint8_t>* image) {
    for (size_t i = 0; i < plan_.corruptions.size(); ++i) {
      const CorruptFault& f = plan_.corruptions[i];
      if (f.queue == queue && corrupt_fired_[i] == 0 && f.seq == seq) {
        corrupt_fired_[i] = 1;
        corruptions_fired_.fetch_add(1, std::memory_order_relaxed);
        if (!image->empty()) {
          Rng rng(plan_.seed ^ (queue * 0x9e3779b97f4a7c15ULL) ^ seq);
          for (int flip = 0; flip < 3; ++flip) {
            (*image)[rng.NextBelow(image->size())] ^=
                static_cast<uint8_t>(1 + rng.NextBelow(255));
          }
        }
        return true;
      }
    }
    return false;
  }

  // Looks up the frame fault for the `seq`-th send on `link` (at most one
  // fires per send; faults fire once). Returns nullopt when the frame passes
  // clean. kCorrupt applies seeded bit flips to *frame in place, exactly as
  // MaybeCorrupt does for checkpoint images.
  std::optional<FrameFault> FrameActionFor(size_t link, uint64_t seq,
                                           std::vector<uint8_t>* frame) {
    for (size_t i = 0; i < plan_.frames.size(); ++i) {
      const FrameFault& f = plan_.frames[i];
      if (f.link == link && frame_fired_[i] == 0 && f.seq == seq) {
        frame_fired_[i] = 1;
        frame_faults_fired_.fetch_add(1, std::memory_order_relaxed);
        if (f.action == FrameFault::Action::kCorrupt && !frame->empty()) {
          Rng rng(plan_.seed ^ (link * 0x9e3779b97f4a7c15ULL) ^ seq ^
                  0xf4a3e);
          for (int flip = 0; flip < 3; ++flip) {
            (*frame)[rng.NextBelow(frame->size())] ^=
                static_cast<uint8_t>(1 + rng.NextBelow(255));
          }
        }
        return f;
      }
    }
    return std::nullopt;
  }

  uint64_t stalls_fired() const {
    return stalls_fired_.load(std::memory_order_relaxed);
  }
  uint64_t kills_fired() const {
    return kills_fired_.load(std::memory_order_relaxed);
  }
  uint64_t corruptions_fired() const {
    return corruptions_fired_.load(std::memory_order_relaxed);
  }
  uint64_t frame_faults_fired() const {
    return frame_faults_fired_.load(std::memory_order_relaxed);
  }

 private:
  FaultPlan plan_;
  std::vector<uint8_t> stall_fired_;
  std::vector<uint8_t> kill_fired_;
  std::vector<uint8_t> corrupt_fired_;
  std::vector<uint8_t> frame_fired_;
  std::atomic<uint64_t> stalls_fired_{0};
  std::atomic<uint64_t> kills_fired_{0};
  std::atomic<uint64_t> corruptions_fired_{0};
  std::atomic<uint64_t> frame_faults_fired_{0};
};

}  // namespace coco::ovs
