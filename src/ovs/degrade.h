// Graceful-degradation ladder for the OVS datapath's shards.
//
// When a consumer cannot keep up, dropping whole packets biases every
// estimate downward. The ladder instead switches the consumer to sampled
// updates (core::SamplingGate — NitroSketch-style geometric skips with
// compensated weights) while ring occupancy is above a high watermark, and
// back to exact per-packet updates once it falls below a low watermark.
// The two watermarks form a hysteresis band so a ring hovering near one
// threshold does not flap between modes every poll.
//
// Pure occupancy-in / mode-out logic, no clocks or atomics: the datapath
// feeds it real ring occupancies, tests feed it synthetic sequences.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/check.h"

namespace coco::ovs {

class DegradeLadder {
 public:
  // Watermarks are fractions of ring capacity, low < high.
  DegradeLadder(double high_watermark, double low_watermark, size_t capacity)
      : high_(static_cast<size_t>(high_watermark *
                                  static_cast<double>(capacity))),
        low_(static_cast<size_t>(low_watermark *
                                 static_cast<double>(capacity))) {
    COCO_CHECK(low_watermark < high_watermark,
               "degradation watermarks must satisfy low < high");
    if (high_ == 0) high_ = 1;  // capacity-0 guard; cross only when backed up
    // Integer truncation can collapse the hysteresis band (e.g. high=0.9,
    // low=0.89, capacity 16 -> both 14), making one occupancy value both
    // enter and exit degraded mode on alternating polls. Keep low_ strictly
    // below high_ so the band is never empty.
    if (low_ >= high_) low_ = high_ - 1;
  }

  // Feed the ring occupancy observed before a drain; returns true when the
  // consumer should process this batch in degraded (sampled) mode.
  bool OnOccupancy(size_t occupancy) {
    if (!degraded_ && occupancy >= high_) {
      degraded_ = true;
      ++enter_events_;
    } else if (degraded_ && occupancy <= low_) {
      degraded_ = false;
      ++exit_events_;
    }
    return degraded_;
  }

  // Number of exact -> degraded transitions, the hysteresis observable.
  uint64_t enter_events() const { return enter_events_; }

  // Number of degraded -> exact transitions (== enter_events or one less
  // while currently degraded).
  uint64_t exit_events() const { return exit_events_; }

  // The computed integer watermarks (post truncation-collapse repair),
  // exposed for observability and tests.
  size_t high_mark() const { return high_; }
  size_t low_mark() const { return low_; }

 private:
  size_t high_;
  size_t low_;
  bool degraded_ = false;
  uint64_t enter_events_ = 0;
  uint64_t exit_events_ = 0;
};

}  // namespace coco::ovs
