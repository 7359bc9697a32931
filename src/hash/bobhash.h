// 32-bit Bob Jenkins hash ("Bob Hash", the paper's hash of choice for the CPU
// implementation, reference [83]) plus a 64-bit Murmur3-style hash used where
// we want 64 bits of output from one pass (e.g. deriving two indices), and
// the keyed two-word fold the flow tables index with.
//
// Both are seedable; independent hash functions are obtained by distinct
// seeds, matching how the paper instantiates the d array hashes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.h"

namespace coco::hash {

// Jenkins lookup3 (hashlittle). Deterministic across platforms for the same
// byte sequence; we only ever hash explicit byte buffers, never structs.
uint32_t BobHash32(const void* data, size_t len, uint32_t seed);

// 64-bit hash: MurmurHash3 x64 finalizer applied to a xor-folded block mix.
// Cheap, good avalanche; used by trace generation, steering, frame
// checksums and the keys' std::hash.
uint64_t Hash64(const void* data, size_t len, uint64_t seed);

// Convenience for hashing small integers without building a buffer.
uint64_t HashU64(uint64_t value, uint64_t seed);

// Keyed multiply-fold of two 64-bit words: each word XORed with a secret
// derived from `seed`, one 64x64->128 multiply, the halves XORed. The index
// hash of query::FlowTable, whose keys are at most two words; it inlines to
// a few instructions. It mixes far less than Hash64, so it resists hash
// flooding only while `seed` is secret: FlowTable keys it with the
// per-process seed.
inline uint64_t KeyedFold(uint64_t a, uint64_t b, uint64_t seed) {
  const unsigned __int128 product =
      static_cast<unsigned __int128>(a ^ seed) *
      (b ^ (seed * 0x9e3779b97f4a7c15ULL));
  return static_cast<uint64_t>(product >> 64) ^ static_cast<uint64_t>(product);
}

// A family of independent 32-bit hash functions indexed by `i`, implemented
// as BobHash32 with per-index derived seeds. Sketches hold one HashFamily and
// address arrays with `family(i, key_bytes, len) % width`.
class HashFamily {
 public:
  // Default-constructed families draw the per-process entropy seed (see
  // coco::ProcessSeed) — the historical 0x5ee3 constant let a white-box
  // adversary precompute multi-way collisions. Pass an explicit seed for
  // determinism.
  explicit HashFamily(uint64_t seed = ProcessSeed()) : seed_(seed) {
    // Derived per-index seeds are precomputed once here; the previous
    // implementation re-ran the splitmix mix on every call, which showed up
    // in every sketch's per-packet hash cost.
    for (size_t i = 0; i < kPrecomputedSeeds; ++i) {
      derived_[i] = DeriveSeed(seed_, i);
    }
  }

  uint32_t operator()(size_t i, const void* data, size_t len) const {
    const uint32_t s =
        i < kPrecomputedSeeds ? derived_[i] : DeriveSeed(seed_, i);
    return BobHash32(data, len, s);
  }

  uint64_t seed() const { return seed_; }

 private:
  // Covers every sketch in the library (max depth is UnivMon's level count);
  // larger indices fall back to deriving on the fly with identical output.
  static constexpr size_t kPrecomputedSeeds = 32;

  // Mix the index into the seed with a splitmix-style step so adjacent
  // indices give unrelated hash functions.
  static uint32_t DeriveSeed(uint64_t seed, size_t i) {
    uint64_t s = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
    s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<uint32_t>(s ^ (s >> 32));
  }

  uint64_t seed_;
  uint32_t derived_[kPrecomputedSeeds];
};

}  // namespace coco::hash
