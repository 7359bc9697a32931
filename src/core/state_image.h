// Checksummed, versioned control-plane state images, shared by the sketch
// variants.
//
// Layout: | version (8 BE) | d (8 BE) | l (8 BE) | hash seed (8 BE) |
// checksum (8 BE) | body |. The body (written by BucketStore::SerializeState,
// core/bucket_store.h) is each bucket's key bytes then its BE32 value, in
// bucket index order. The checksum is Hash64 over the body seeded with
// the version, geometry, and hash seed, so truncation, version skew, geometry
// mismatches, and bit flips anywhere in the image — including the seed word —
// are all detected before a single byte reaches a live sketch. The OVS
// datapath's checkpoint/restore recovery leans on this: a corrupt checkpoint
// must be rejected cleanly so recovery can fall back to an older image
// instead of resurrecting garbage. The network-wide collection layer
// (net/frame.h) ships these images between processes, which is why the format
// carries an explicit version word: a collector must reject images sealed by
// an incompatible build instead of reinterpreting them. The hash seed travels
// with the image because bucket indices are a function of the seed: a full
// restore ADOPTS the image's seed (the restored buckets are only meaningful
// under it), while aggregation paths that would silently mix placements —
// merge, the network collector — check the seed word and reject mismatches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "hash/bobhash.h"

namespace coco::core {

// Bump on any layout change. Version 1 was the unversioned 24-byte header;
// version 2 added the version word; version 3 added the hash seed word.
inline constexpr uint64_t kStateFormatVersion = 3;
inline constexpr size_t kStateHeaderBytes = 40;
inline constexpr uint64_t kStateChecksumSeed = 0x57a7ec0c0ULL;

inline uint64_t StateChecksum(uint64_t version, uint64_t d, uint64_t l,
                              uint64_t seed, const uint8_t* body,
                              size_t body_len) {
  uint64_t mix = seed;
  return hash::Hash64(body, body_len,
                      kStateChecksumSeed ^ (version << 48) ^ (d << 32) ^ l ^
                          SplitMix64(mix));
}

// Fills the header of an image whose body already sits after the first
// kStateHeaderBytes bytes.
inline void SealStateImage(uint64_t d, uint64_t l, uint64_t seed,
                           std::vector<uint8_t>* image) {
  StoreBE64(image->data(), kStateFormatVersion);
  StoreBE64(image->data() + 8, d);
  StoreBE64(image->data() + 16, l);
  StoreBE64(image->data() + 24, seed);
  StoreBE64(image->data() + 32,
            StateChecksum(kStateFormatVersion, d, l, seed,
                          image->data() + kStateHeaderBytes,
                          image->size() - kStateHeaderBytes));
}

// Full validation (size, version, geometry, checksum). `seed` is the seed
// the checksum is expected to be sealed under — restore paths pass the seed
// peeked from the header (then adopt it); callers enforcing seed equality
// (merge, collector) compare the header seed themselves first. Restore paths
// call this before touching any sketch state, so a rejected image leaves the
// sketch intact. Unknown versions are rejected outright — there is no
// best-effort decoding of foreign formats.
inline bool ValidateStateImage(const std::vector<uint8_t>& image, uint64_t d,
                               uint64_t l, uint64_t seed, size_t body_bytes) {
  if (image.size() != kStateHeaderBytes + body_bytes) return false;
  if (LoadBE64(image.data()) != kStateFormatVersion) return false;
  if (LoadBE64(image.data() + 8) != d || LoadBE64(image.data() + 16) != l) {
    return false;
  }
  if (LoadBE64(image.data() + 24) != seed) return false;
  return LoadBE64(image.data() + 32) ==
         StateChecksum(kStateFormatVersion, d, l, seed,
                       image.data() + kStateHeaderBytes, body_bytes);
}

// Header peek for tools that receive an image without knowing the geometry
// or hash seed in advance (cocotool query/merge, the network collector). Only
// the header is inspected — the checksum is still verified by the restore
// path, and the checksum covers the seed word, so a flipped seed bit cannot
// smuggle a foreign image past restore.
inline bool PeekStateImageHeader(const std::vector<uint8_t>& image,
                                 uint64_t* d, uint64_t* l, uint64_t* seed) {
  if (image.size() < kStateHeaderBytes) return false;
  if (LoadBE64(image.data()) != kStateFormatVersion) return false;
  *d = LoadBE64(image.data() + 8);
  *l = LoadBE64(image.data() + 16);
  *seed = LoadBE64(image.data() + 24);
  return *d >= 1 && *l >= 1;
}

}  // namespace coco::core
