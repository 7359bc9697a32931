// Delta-sync payloads: ship only the buckets that changed since the last
// acknowledged export (docs/NETWIDE.md).
//
// Sketches track dirty buckets in a bitmap (CocoSketch::EnableDeltaTracking);
// an agent snapshots the set buckets into this payload each epoch. Entries
// carry the bucket's absolute (key, value) image — not an increment — so
// applying a delta is idempotent and a retried frame cannot double-count. The
// payload self-describes its geometry and the sender's total recorded mass,
// so the apply checks conservation before it writes: the replica's mass after
// the apply (its mass now, minus each entry's old value, plus its new one)
// must equal the reported total, or nothing is written and the collector
// falls back to a full resync.
//
//   | d (4 BE) | l (4 BE) | entry_count (4 BE) | base_epoch (8 BE) |
//   | total_value (8 BE) | hash_seed (8 BE) |
//   | entries: entry_count × ( index (4 BE) | key (Key::kSize) | value (4 BE) ) |
//
// hash_seed is the sender's sketch seed: bucket indices are a function of the
// seed, so applying a foreign-seed delta would scatter mass over the wrong
// buckets silently. The collector rejects (and counts) seed mismatches.
//
// base_epoch is the last epoch the collector acknowledged when the delta was
// built: the payload contains every bucket changed since then, so the
// collector may apply it whenever its replica is at base_epoch or later —
// a lost delta is healed by the next one instead of forcing a full resync.
//
// Entries are sorted by strictly increasing bucket index — the canonical
// form; duplicates or disorder mark a forged/corrupt payload and are
// rejected. Integrity against bit flips is the enclosing frame's checksum
// (net/frame.h); validation here checks structure and mass.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bytes.h"

namespace coco::net {

inline constexpr size_t kDeltaHeaderBytes = 36;

template <typename Sketch>
constexpr size_t DeltaEntryBytes() {
  return 4 + Sketch::BucketBytes();
}

// Serializes every dirty bucket of `sketch`, walking the set bits of its
// dirty bitmap in ascending index order. Does NOT clear the dirty bits: the
// agent clears them only once the collector acknowledges the epoch, so an
// unacknowledged delta's changes roll into the next one.
template <typename Sketch>
std::vector<uint8_t> BuildDeltaPayload(const Sketch& sketch,
                                       uint64_t base_epoch) {
  using Key = typename Sketch::KeyType;
  const auto& dirty = sketch.DirtyBits();
  const auto& buckets = sketch.Buckets();
  uint32_t count = 0;
  for (const uint64_t word : dirty) count += std::popcount(word);

  std::vector<uint8_t> out(kDeltaHeaderBytes +
                           count * DeltaEntryBytes<Sketch>());
  StoreBE32(out.data(), static_cast<uint32_t>(sketch.d()));
  StoreBE32(out.data() + 4, static_cast<uint32_t>(sketch.l()));
  StoreBE32(out.data() + 8, count);
  StoreBE64(out.data() + 12, base_epoch);
  StoreBE64(out.data() + 20, sketch.TotalValue());
  StoreBE64(out.data() + 28, sketch.seed());
  uint8_t* p = out.data() + kDeltaHeaderBytes;
  for (size_t w = 0; w < dirty.size(); ++w) {
    for (uint64_t bits = dirty[w]; bits != 0; bits &= bits - 1) {
      const size_t i = w * 64 + std::countr_zero(bits);
      StoreBE32(p, static_cast<uint32_t>(i));
      std::memcpy(p + 4, buckets.KeyBytes(i), Key::kSize);
      StoreBE32(p + 4 + Key::kSize, buckets.Value(i));
      p += DeltaEntryBytes<Sketch>();
    }
  }
  return out;
}

// Full-image payload for comparison / full syncs; the sealed state image
// already carries its own version word and checksum.
template <typename Sketch>
std::vector<uint8_t> BuildFullPayload(const Sketch& sketch) {
  return sketch.SerializeState();
}

struct DeltaInfo {
  uint32_t entry_count = 0;
  uint64_t base_epoch = 0;   // delta covers changes after this epoch
  uint64_t total_value = 0;  // sender's TotalValue() at build time
  uint64_t hash_seed = 0;    // sender's sketch hash seed
};

// Parses just the header. Used by the collector to check base_epoch and the
// hash seed before committing to an apply.
template <typename Sketch>
bool PeekDeltaInfo(const std::vector<uint8_t>& payload, DeltaInfo* info) {
  if (payload.size() < kDeltaHeaderBytes) return false;
  info->entry_count = LoadBE32(payload.data() + 8);
  info->base_epoch = LoadBE64(payload.data() + 12);
  info->total_value = LoadBE64(payload.data() + 20);
  info->hash_seed = LoadBE64(payload.data() + 28);
  return true;
}

enum class DeltaApply {
  kApplied,
  kMalformed,     // a structural violation; nothing written
  kMassMismatch,  // well-formed, but fails conservation; nothing written
};

// Validates `payload` against `replica`'s geometry and hash seed, checks its
// mass arithmetic, and only then applies it in place. `replica_mass` is the
// replica's TotalValue(), which the caller tracks. One read-only pass checks
// the structure (short/oversized payload, geometry or seed mismatch,
// out-of-range or non-increasing bucket indices → kMalformed) and computes
// the mass after the apply, replica_mass − Σ old value + Σ entry value; a
// mass that differs from the sender's total_value is kMassMismatch. The sums
// wrap in uint64, which is exact because the true mass fits. Entries are
// strictly ascending, so no bucket's old value is subtracted twice.
template <typename Sketch>
DeltaApply ApplyDeltaPayload(const std::vector<uint8_t>& payload,
                             uint64_t replica_mass, Sketch* replica,
                             DeltaInfo* info) {
  using Key = typename Sketch::KeyType;
  constexpr size_t kEntry = DeltaEntryBytes<Sketch>();
  if (payload.size() < kDeltaHeaderBytes) return DeltaApply::kMalformed;
  if (LoadBE32(payload.data()) != replica->d() ||
      LoadBE32(payload.data() + 4) != replica->l() ||
      LoadBE64(payload.data() + 28) != replica->seed()) {
    return DeltaApply::kMalformed;
  }
  const uint32_t count = LoadBE32(payload.data() + 8);
  if (payload.size() != kDeltaHeaderBytes + size_t{count} * kEntry) {
    return DeltaApply::kMalformed;
  }
  const size_t total_buckets = replica->d() * replica->l();
  const uint8_t* entries = payload.data() + kDeltaHeaderBytes;
  const auto& old = replica->Buckets();
  uint64_t mass = replica_mass;
  uint32_t prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* p = entries + i * kEntry;
    const uint32_t index = LoadBE32(p);
    if (index >= total_buckets) return DeltaApply::kMalformed;
    if (i != 0 && index <= prev) return DeltaApply::kMalformed;  // canonical
    prev = index;
    mass += uint64_t{LoadBE32(p + 4 + Key::kSize)} - old.Value(index);
  }
  if (mass != LoadBE64(payload.data() + 20)) return DeltaApply::kMassMismatch;
  auto& buckets = replica->MutableBuckets();
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* p = entries + i * kEntry;
    const uint32_t index = LoadBE32(p);
    buckets.SetKeyBytes(index, p + 4);
    buckets.SetValue(index, LoadBE32(p + 4 + Key::kSize));
  }
  if (info != nullptr) {
    info->entry_count = count;
    info->base_epoch = LoadBE64(payload.data() + 12);
    info->total_value = mass;
  }
  return DeltaApply::kApplied;
}

}  // namespace coco::net
