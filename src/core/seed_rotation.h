// Seed-rotation recovery: epoch-swap a sketch onto a fresh hash seed
// (docs/ROBUSTNESS.md "Threat model & adversarial hardening").
//
// When a collision attack against the current seed is confirmed (or an
// operator commands it via `cocotool rotate`), continuing to hash with the
// compromised seed lets the attacker keep steering every crafted key into
// the same buckets. Rotation builds a fresh sketch with a new seed, decodes
// the old one ONCE, and replays the decoded (flow, estimate) table into the
// fresh sketch — subsequent updates land in the fresh sketch, where the
// attacker's precomputed collisions are worthless.
//
// Mass conservation: for CocoSketch the decoded table's mass equals
// TotalValue() exactly (every packet's weight lives in exactly one bucket),
// and every replayed unit of mass lands in exactly one bucket of the fresh
// sketch, so TotalValue() is preserved exactly through the swap — the
// datapath's ovs::ReadConservation invariant keeps holding across rotation
// epochs. For HwCocoSketch mass is recorded d times and the decoded
// estimates are medians, so conservation there is on the replayed estimate
// mass (see RotationStats), not the raw bucket mass.
//
// Replay order is deterministic (value-descending, key bytes as tie-break):
// heavy flows are re-inserted into a mostly-empty structure first, so their
// estimates survive the replay with the least added variance, and a given
// decoded table always replays to the same state for a given new seed.
//
// Estimates carried through a rotation remain estimates — replay cannot
// recreate the attacked epoch's lost information, it only preserves what the
// old sketch still knew at swap time. Rotation bounds the damage window; it
// does not undo damage already done.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"

namespace coco::core {

struct RotationStats {
  uint64_t old_seed = 0;
  uint64_t new_seed = 0;
  uint64_t mass_before = 0;      // TotalValue() of the old sketch
  uint64_t mass_after = 0;       // TotalValue() of the fresh sketch
  uint64_t replayed_mass = 0;    // sum of decoded estimates replayed
  size_t flows_replayed = 0;
  // Exact for CocoSketch (mass_before == mass_after); for HwCocoSketch the
  // comparison is mass_after == d * replayed_mass (each replayed update
  // increments all d arrays).
  bool mass_conserved = false;
};

namespace internal {

// Replays `old_sketch`'s decoded table into `fresh` (already constructed
// with the new seed and matching geometry), then swaps it in.
template <typename Sketch>
RotationStats ReplayAndSwap(Sketch* old_sketch, Sketch&& fresh,
                            uint64_t expected_mass_factor) {
  using Key = typename Sketch::KeyType;
  RotationStats stats;
  stats.old_seed = old_sketch->seed();
  stats.new_seed = fresh.seed();
  stats.mass_before = old_sketch->TotalValue();

  if (old_sketch->DeltaTrackingEnabled()) fresh.EnableDeltaTracking();

  auto table = old_sketch->Decode();
  std::vector<std::pair<Key, uint64_t>> flows(table.begin(), table.end());
  std::sort(flows.begin(), flows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return std::memcmp(a.first.data(), b.first.data(), Key::kSize) < 0;
  });
  for (const auto& [key, estimate] : flows) {
    uint64_t remaining = estimate;
    stats.replayed_mass += estimate;
    // Estimates can exceed a single update's 32-bit weight after merges;
    // replay in chunks so nothing truncates.
    while (remaining > 0) {
      const uint32_t chunk =
          remaining > UINT32_MAX ? UINT32_MAX
                                 : static_cast<uint32_t>(remaining);
      fresh.Update(key, chunk);
      remaining -= chunk;
    }
  }
  stats.flows_replayed = flows.size();
  stats.mass_after = fresh.TotalValue();
  stats.mass_conserved =
      stats.mass_after == expected_mass_factor * stats.replayed_mass &&
      (expected_mass_factor != 1 || stats.mass_after == stats.mass_before);
  *old_sketch = std::move(fresh);
  // Everything the replica knew changed buckets: a delta against the old
  // epoch would be garbage, so force the next sync to ship everything.
  old_sketch->MarkAllDirty();
  return stats;
}

}  // namespace internal

// Rotate `sketch` onto `new_seed` (pass coco::RandomSeed() in production —
// a predictable rotation target would hand the attacker the next epoch too;
// tests pass explicit seeds for determinism).
template <typename Key>
RotationStats RotateSeed(CocoSketch<Key>* sketch, uint64_t new_seed) {
  CocoSketch<Key> fresh(sketch->MemoryBytes(), sketch->d(), new_seed);
  return internal::ReplayAndSwap(sketch, std::move(fresh), 1);
}

template <typename Key>
RotationStats RotateSeed(HwCocoSketch<Key>* sketch, uint64_t new_seed) {
  HwCocoSketch<Key> fresh(sketch->MemoryBytes(), sketch->d(),
                          sketch->division(), new_seed);
  return internal::ReplayAndSwap(sketch, std::move(fresh),
                                 static_cast<uint64_t>(sketch->d()));
}

}  // namespace coco::core
