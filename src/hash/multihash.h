// One-pass multi-index derivation for d-array sketches.
//
// CocoSketch's d-choice rule does not need d fully independent hash
// functions — it needs d well-spread indices, one per array, that are a
// deterministic function of the key. Kirsch & Mitzenmacher ("Less hashing,
// same performance") showed that indices of the form h1 + a_i * h2 retain
// the accuracy guarantees of independent hashing for Bloom-filter-style
// structures; we apply the same construction here so the per-packet hashing
// cost is ONE pass over the key bytes instead of d BobHash passes.
//
// Construction: one 64-bit hash of the key yields h1; h2 is a cheap integer
// remix of h1 (no second pass over the bytes), forced odd so that
// multiplication by it permutes the 64-bit ring. Each array i applies a
// per-array odd salt a_i, precomputed from the seed at construction:
//
//   slot_i = (h1 + a_i * h2) mod width
//
// Sketches that DO rely on truly independent rows (Count-Min error bounds,
// Count sketch sign independence) keep using hash::HashFamily; the
// distribution quality of this derivation (per-array uniformity, joint
// spread across arrays) is property-tested in tests/hash_test.cpp, and the
// CocoSketch accuracy suite runs entirely on top of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/check.h"
#include "hash/bobhash.h"

namespace coco::hash {

class MultiHash {
 public:
  static constexpr size_t kMaxIndices = 8;

  MultiHash(uint64_t seed, size_t d, size_t width)
      : seed_(seed), d_(d), width_(width) {
    COCO_CHECK(d >= 1 && d <= kMaxIndices, "index count out of range");
    COCO_CHECK(width >= 1, "width must be positive");
    // Per-array salts, derived once (splitmix-style) instead of per call.
    uint64_t s = seed ^ 0x6d756c7469686173ULL;  // "multihas"
    for (size_t i = 0; i < d_; ++i) {
      uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      salt_[i] = (z ^ (z >> 31)) | 1;  // odd: a_i * h2 is a bijection
    }
  }

  // Writes the d slots (each in [0, width)) for `key` into `out`. One pass
  // over the key bytes regardless of d. Reduction is Lemire multiply-shift
  // rather than `%`: it draws the slot from the HIGH bits of the combined
  // 64-bit value — the low bits of h1 + a_i*h2 carry arithmetic structure
  // (a_i - a_j is even, so low bits correlate across arrays, catastrophically
  // for power-of-two widths) — and it avoids a hardware divide per array.
  void Slots(const void* data, size_t len, uint32_t* out) const {
    const uint64_t h1 = KeyHash(data, len, seed_);
    const uint64_t h2 = HashU64(h1, seed_ ^ 0x9e3779b97f4a7c15ULL) | 1;
    for (size_t i = 0; i < d_; ++i) {
      const uint64_t v = h1 + salt_[i] * h2;
      out[i] = static_cast<uint32_t>(
          (static_cast<unsigned __int128>(v) * width_) >> 64);
    }
  }

  size_t d() const { return d_; }
  size_t width() const { return width_; }
  uint64_t seed() const { return seed_; }
  // Precomputed per-array salts (d() entries). Exposed so the vectorized
  // window hash (hash/window_hash.h) can replicate Slots() bit-for-bit.
  const uint64_t* salts() const { return salt_; }

 private:
  // Flow keys are at most 16 bytes (5-tuple: 13; DynKey payloads: <= 16),
  // so the common case takes a 3-multiply mix over two (overlapping)
  // 64-bit loads instead of Hash64's block loop — every input byte feeds
  // the mix, and distribution quality is property-tested alongside the
  // index derivation. Longer inputs fall back to the general Hash64.
  static uint64_t KeyHash(const void* data, size_t len, uint64_t seed) {
    if (len > 16) return Hash64(data, len, seed);
    const uint8_t* p = static_cast<const uint8_t*>(data);
    uint64_t a = 0, b = 0;
    if (len >= 8) {
      std::memcpy(&a, p, 8);
      std::memcpy(&b, p + len - 8, 8);
    } else if (len > 0) {
      std::memcpy(&a, p, len);
    }
    uint64_t h = seed ^ (len * 0xc6a4a7935bd1e995ULL);
    h = (h ^ a) * 0x9ddfea08eb382d69ULL;
    h ^= h >> 47;
    h = (h ^ b) * 0xc3a5c85c97cb3127ULL;
    h ^= h >> 44;
    h *= 0x9ae16a3b2f90404fULL;
    return h ^ (h >> 41);
  }

  uint64_t seed_;
  size_t d_;
  size_t width_;
  uint64_t salt_[kMaxIndices] = {};
};

}  // namespace coco::hash
