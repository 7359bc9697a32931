// The bucket store both CocoSketch variants are built on: geometry, hash
// seed, slot derivation, the d x l bucket array, delta tracking, and the
// control plane — stats, state images and seed adoption.
//
// A sketch derives from BucketStore<Sketch, Key> (CRTP) and supplies its
// update rule and its queries:
//
//   static constexpr uint64_t kRngSalt;  // replacement RNG = seed ^ salt
//   template <size_t kD = 0>
//   void UpdateAt(const size_t* idx, const Key& key, uint32_t weight);
//
// `idx` holds the key's d absolute bucket indices (array i's slot offset by
// i*l). kD is d as a compile-time constant, 0 meaning the runtime d(): the
// batch path instantiates kD = 2, the paper's default, so the probe and
// min-scan loops of the rule unroll to straight-line code. Update() and
// UpdateBatch() both hand every packet to UpdateAt in stream order, so the
// resulting state — RNG consumption order included — is byte-identical
// whichever path ingested the stream (tests/batch_test.cpp). Sketches mark
// UpdateAt always_inline: at -O2 GCC otherwise leaves it outlined inside
// the window loop, one call per packet (measured 3-7% on batched ingest).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/bucket_array.h"
#include "core/sketch_stats.h"
#include "core/state_image.h"
#include "hash/multihash.h"
#include "hash/window_hash.h"

namespace coco::core {

template <typename Sketch, typename Key>
class BucketStore {
 public:
  using KeyType = Key;

  static constexpr size_t kMaxD = hash::MultiHash::kMaxIndices;

  // Packets per software-pipeline window in UpdateBatch: large enough to
  // cover DRAM latency with outstanding prefetches, small enough that the
  // per-window index scratch stays in L1.
  static constexpr size_t kBatchWindow = 32;

  // Logical per-bucket footprint (key bytes + 32-bit counter), the layout a
  // hardware deployment would use; memory budgets are divided by this. The
  // in-memory word padding of BucketArray deliberately does NOT count —
  // geometry (and therefore state images) stays identical to the seed.
  static constexpr size_t BucketBytes() {
    return Key::kSize + sizeof(uint32_t);
  }

  void Update(const Key& key, uint32_t weight) {
    size_t idx[kMaxD] = {};
    Indices(key.data(), idx);
    self().UpdateAt(idx, key, weight);
  }

  // Batched fast path for records with `.key` (a Key) and a uint32_t
  // `.weight`, e.g. coco::Packet. Per window of kBatchWindow records:
  //
  //   phase 1 — derive every mapped slot (hash/window_hash.h: four keys per
  //             step on AVX2 hosts), convert to absolute bucket indices, and
  //             prefetch both halves of each bucket (counter line + key-word
  //             line of the SoA layout);
  //   phase 2 — run the update rule in stream order against now-resident
  //             lines.
  //
  // Hashing has no side effects and phase 2 preserves stream order, so the
  // state is byte-identical to per-packet Update() calls.
  template <typename Record>
  void UpdateBatch(const Record* records, size_t count) {
    uint32_t slots[kBatchWindow][kMaxD];
    size_t idx[kBatchWindow][kMaxD];
    for (size_t base = 0; base < count; base += kBatchWindow) {
      const size_t n = std::min(count - base, kBatchWindow);
      const Record* recs = records + base;
      // Pull the NEXT window's records toward L1 while this one is hashed
      // and applied: the hash chain starts by loading key bytes, and a
      // trace streaming from L3/DRAM stalls the whole window otherwise.
      const size_t ahead = std::min(count - base - n, kBatchWindow);
      const auto* next = reinterpret_cast<const uint8_t*>(recs + n);
      const auto* next_end = reinterpret_cast<const uint8_t*>(recs + n + ahead);
      for (const auto* p = next; p < next_end; p += 64) {
        __builtin_prefetch(p, 0, 3);
      }
      hash::SlotsWindow(hash_, recs, n, slots);
      for (size_t j = 0; j < n; ++j) {
        for (size_t i = 0; i < d_; ++i) {
          idx[j][i] = i * l_ + slots[j][i];
          buckets_.Prefetch(idx[j][i]);
        }
      }
      if (d_ == 2) {
        for (size_t j = 0; j < n; ++j) {
          self().template UpdateAt<2>(idx[j], recs[j].key, recs[j].weight);
        }
      } else {
        for (size_t j = 0; j < n; ++j) {
          self().UpdateAt(idx[j], recs[j].key, recs[j].weight);
        }
      }
    }
  }

  template <typename Record>
  void UpdateBatch(std::span<const Record> batch) {
    UpdateBatch(batch.data(), batch.size());
  }

  // Leaves the sketch as a fresh one of its seed, replacement RNG included.
  void Clear() {
    buckets_.ClearAll();
    rng_ = Rng(seed_ ^ Sketch::kRngSalt);
    key_replacements_ = 0;
    updates_ = 0;
    pass1_misses_ = 0;
    MarkAllDirty();
  }

  size_t MemoryBytes() const { return buckets_.size() * BucketBytes(); }
  size_t d() const { return d_; }
  size_t l() const { return l_; }
  uint64_t seed() const { return seed_; }

  // Raw bucket readout for the control-plane merge path (core/merge.h).
  // Bucket index b of array i lives at i*l + b.
  const BucketArray<Key>& Buckets() const { return buckets_; }
  // Mutable access is merge-only: anything else writing buckets directly
  // bypasses the update rule and voids the unbiasedness guarantees.
  BucketArray<Key>& MutableBuckets() { return buckets_; }

  // ---- Delta-sync dirty tracking (net/delta.h) ----------------------------
  // When enabled, every bucket whose value changes sets its bit in a bitmap
  // (bucket i is bit i % 64 of word i / 64; the bits past d*l stay zero);
  // the network agent ships only the set buckets each epoch and clears the
  // bits once the collector acknowledges them. Disabled (the default) the
  // cost is one empty() branch per update.
  void EnableDeltaTracking() { dirty_.assign((buckets_.size() + 63) / 64, 0); }
  bool DeltaTrackingEnabled() const { return !dirty_.empty(); }
  const std::vector<uint64_t>& DirtyBits() const { return dirty_; }
  void ClearDirtyFlags() {
    std::fill(dirty_.begin(), dirty_.end(), uint64_t{0});
  }
  void MarkAllDirty() {
    std::fill(dirty_.begin(), dirty_.end(), ~uint64_t{0});
    if (!dirty_.empty() && buckets_.size() % 64 != 0) {
      dirty_.back() = (uint64_t{1} << (buckets_.size() % 64)) - 1;
    }
  }
  void MarkDirty(size_t bucket_index) {
    if (dirty_.empty()) return;
    dirty_[bucket_index / 64] |= uint64_t{1} << (bucket_index % 64);
  }
  // ORs in a bitmap earlier taken from DirtyBits().
  void MarkDirty(const std::vector<uint64_t>& bits) {
    COCO_CHECK(bits.size() == dirty_.size(), "dirty bitmap size mismatch");
    for (size_t w = 0; w < dirty_.size(); ++w) dirty_[w] |= bits[w];
  }

  // Total recorded weight. For CocoSketch conservation is a tested
  // invariant — every packet's weight lands in exactly one bucket; the
  // hardware variant records each packet in all d arrays.
  uint64_t TotalValue() const {
    const uint32_t* v = buckets_.values();
    uint64_t total = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) total += v[i];
    return total;
  }

  // Occupancy / load-factor / churn introspection (core/sketch_stats.h) —
  // a control-plane scan of the counter plane, no hot-path bookkeeping
  // beyond the three counters.
  SketchStats Stats() const {
    SketchStats stats;
    const uint32_t* v = buckets_.values();
    const size_t n = buckets_.size();
    stats.arrays = d_;
    stats.buckets_total = n;
    stats.per_array_occupied.assign(d_, 0);
    for (size_t a = 0; a < d_; ++a) {
      uint64_t occupied = 0;
      for (size_t i = a * l_; i < (a + 1) * l_; ++i) occupied += v[i] != 0;
      stats.per_array_occupied[a] = occupied;
      stats.buckets_occupied += occupied;
    }
    uint32_t max_value = 0;
    uint32_t min_occupied = UINT32_MAX;
    for (size_t i = 0; i < n; ++i) {
      max_value = std::max(max_value, v[i]);
      min_occupied = std::min(min_occupied, v[i] == 0 ? UINT32_MAX : v[i]);
    }
    stats.total_value = TotalValue();
    stats.max_bucket_value = max_value;
    stats.min_occupied_value = stats.buckets_occupied == 0 ? 0 : min_occupied;
    if (n != 0) {
      stats.load_factor =
          static_cast<double>(stats.buckets_occupied) / static_cast<double>(n);
    }
    stats.key_replacements = key_replacements_;
    stats.updates = updates_;
    stats.pass1_misses = pass1_misses_;
    return stats;
  }

  // Size of the SerializeState() image: header plus one key and BE32 value
  // per bucket.
  size_t StateImageBytes() const {
    return kStateHeaderBytes + buckets_.size() * BucketBytes();
  }

  // Control-plane readout: a sealed image of the bucket state (checksummed
  // header, core/state_image.h, then key bytes + BE32 value per bucket in
  // index order), the payload a switch would ship to the controller — and
  // the checkpoint format the OVS datapath recovers from. The in-memory word
  // padding never reaches the image, so images interoperate with the seed's
  // array-of-structs format.
  std::vector<uint8_t> SerializeState() const {
    std::vector<uint8_t> out(StateImageBytes());
    uint8_t* p = out.data() + kStateHeaderBytes;
    for (size_t i = 0; i < buckets_.size(); ++i, p += BucketBytes()) {
      std::memcpy(p, buckets_.KeyBytes(i), Key::kSize);
      StoreBE32(p + Key::kSize, buckets_.Value(i));
    }
    SealStateImage(d_, l_, seed_, &out);
    return out;
  }

  // Rejects truncated, geometry-mismatched, and bit-flipped images without
  // touching any bucket — a failed restore leaves the sketch exactly as it
  // was. The restoring sketch ADOPTS the image's hash seed: bucket indices
  // are a function of the seed the serializing sketch hashed with, so
  // keeping a different local seed would misroute every future update and
  // point query against the restored buckets. Aggregation paths that must
  // NOT mix seeds (merge, the network collector) enforce seed equality
  // themselves before restore ever runs.
  bool RestoreState(const std::vector<uint8_t>& image) {
    uint64_t img_d = 0, img_l = 0, img_seed = 0;
    if (!PeekStateImageHeader(image, &img_d, &img_l, &img_seed)) return false;
    if (!ValidateStateImage(image, d_, l_, img_seed,
                            buckets_.size() * BucketBytes())) {
      return false;
    }
    const uint8_t* p = image.data() + kStateHeaderBytes;
    for (size_t i = 0; i < buckets_.size(); ++i, p += BucketBytes()) {
      buckets_.SetKeyBytes(i, p);
      buckets_.SetValue(i, LoadBE32(p + Key::kSize));
    }
    if (img_seed != seed_) {
      seed_ = img_seed;
      hash_ = hash::MultiHash(seed_, d_, l_);
      rng_ = Rng(seed_ ^ Sketch::kRngSalt);
    }
    MarkAllDirty();
    return true;
  }

 protected:
  BucketStore(size_t memory_bytes, size_t d, uint64_t seed)
      : d_(d),
        l_(memory_bytes / (d * BucketBytes())),
        seed_(seed),
        hash_(seed, d_, l_ == 0 ? 1 : l_),
        rng_(seed ^ Sketch::kRngSalt),
        buckets_(d_ * l_) {
    COCO_CHECK(d_ >= 1 && d_ <= kMaxD, "d out of range");
    COCO_CHECK(l_ >= 1, "memory too small for one bucket per array");
  }

  // The d absolute bucket indices of the key whose Key::kSize bytes start
  // at `key`.
  void Indices(const uint8_t* key, size_t* idx) const {
    uint32_t slot[kMaxD];
    hash_.Slots(key, Key::kSize, slot);
    for (size_t i = 0; i < d_; ++i) idx[i] = i * l_ + slot[i];
  }

  size_t d_;
  size_t l_;
  uint64_t seed_;
  hash::MultiHash hash_;
  Rng rng_;
  BucketArray<Key> buckets_;
  std::vector<uint64_t> dirty_;  // bitmap; empty = delta tracking off
  // Ownership churn, update-rule applications and pass-1 misses: the
  // attack-detection signals (core/attack_monitor.h). Register increments
  // on the hot path.
  uint64_t key_replacements_ = 0;
  uint64_t updates_ = 0;
  uint64_t pass1_misses_ = 0;

 private:
  Sketch& self() { return static_cast<Sketch&>(*this); }
};

}  // namespace coco::core
