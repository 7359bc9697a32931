// Introspection of a sketch's bucket state, computed on demand by
// BucketStore::Stats() (core/bucket_store.h) for both CocoSketch variants.
//
// Pull-based by design: nothing here touches the update hot path — a
// Stats() call scans the bucket array once (control-plane cost, same order
// as Decode()) and the only per-update bookkeeping the sketches keep for it
// is a plain key-replacement counter. Gauges derived from these feed the
// obs registry via obs/sketch_metrics.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace coco::core {

struct SketchStats {
  size_t arrays = 0;             // d
  size_t buckets_total = 0;      // d * l
  size_t buckets_occupied = 0;   // buckets with value != 0
  double load_factor = 0.0;      // occupied / total
  uint64_t total_value = 0;      // recorded mass (== TotalValue())
  uint32_t min_occupied_value = 0;  // smallest non-zero bucket (0 if empty)
  uint32_t max_bucket_value = 0;
  // Ownership churn: key replacements executed by the update rule. High
  // churn relative to updates means the structure is past saturation and
  // small flows are cycling through buckets.
  uint64_t key_replacements = 0;
  // Update-rule applications and pass-1 misses (packets whose key owned no
  // mapped bucket on arrival). Windowed deltas of these three counters are
  // the inputs to the collision-attack detector (core/attack_monitor.h):
  // honest traffic that misses pass 1 claims empty buckets at the
  // balls-in-bins rate, while crafted colliding keys miss and churn without
  // growing occupancy.
  uint64_t updates = 0;
  uint64_t pass1_misses = 0;
  std::vector<size_t> per_array_occupied;  // one entry per array (d entries)
};

}  // namespace coco::core
