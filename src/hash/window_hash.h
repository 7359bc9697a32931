// Slot derivation for a batch window: MultiHash::Slots for every record,
// four keys at a time on AVX2 hosts.
//
// MultiHash::Slots is a 6-multiply chain (KeyHash mix, h2 remix, then one
// salt multiply + one Lemire reduction per array). The chain is serial per
// key but independent ACROSS keys, so four keys ride the four 64-bit lanes
// of a ymm register and the multiplies overlap instead of serializing. This
// is the one vector kernel of the update path: it is worth 1.4-5% of
// end-to-end ingest throughput, while vector key compares and counter scans
// measured no gain over scalar code (docs/ALGORITHMS.md).
//
// Bit-exactness is the contract: every operation below is the same exact
// integer arithmetic as MultiHash::Slots / KeyHash / HashU64 / Fmix64 —
// 64-bit multiplies emulated from _mm256_mul_epu32 parts, the Lemire
// reduction computed from the identity (v * w) >> 64 =
// (v_hi*w + ((v_lo*w) >> 32)) >> 32 for w < 2^32. tests/hash_test.cpp
// checks lane-for-lane equality against the scalar Slots.
//
// SlotsWindow picks the vector path when the CPU supports AVX2 (checked
// once per process) and the key is at most 16 bytes (KeyHash's fast case);
// wider keys, the window tail and non-AVX2 hosts run MultiHash::Slots. The
// AVX2 code is emitted through a per-function target attribute, so the
// default build carries no -march flags and runs on any x86-64.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "hash/multihash.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define COCO_HASH_AVX2 1
#include <immintrin.h>
#else
#define COCO_HASH_AVX2 0
#endif

namespace coco::hash {

// True when this process hashes windows with the AVX2 kernel.
inline bool Avx2WindowHashActive() {
#if COCO_HASH_AVX2
  static const bool active = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return active;
#else
  return false;
#endif
}

#if COCO_HASH_AVX2
namespace avx2 {

#define COCO_AVX2_INLINE inline __attribute__((target("avx2"), always_inline))

// Low 64 bits of a 64x64 multiply per lane, from 32x32->64 partial products.
COCO_AVX2_INLINE __m256i Mul64Lo(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                         _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
}

template <int S>
COCO_AVX2_INLINE __m256i XorShr(__m256i h) {
  return _mm256_xor_si256(h, _mm256_srli_epi64(h, S));
}

// Lemire reduction (v * width) >> 64 per lane, exact for width < 2^32:
// the 96-bit product splits as v_hi*w*2^32 + v_lo*w and neither partial
// sum can overflow 64 bits.
COCO_AVX2_INLINE __m256i MulHiWidth(__m256i v, __m256i w) {
  const __m256i lo = _mm256_mul_epu32(v, w);
  const __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(v, 32), w);
  return _mm256_srli_epi64(_mm256_add_epi64(hi, _mm256_srli_epi64(lo, 32)),
                           32);
}

COCO_AVX2_INLINE __m256i Splat(uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

// Four 64-bit loads gathered into one ymm lane set without a stack
// round-trip (a store-to-load-forwarding stall per window otherwise).
COCO_AVX2_INLINE __m256i GatherLanes(const uint8_t* q0, const uint8_t* q1,
                                     const uint8_t* q2, const uint8_t* q3) {
  const __m128i lo = _mm_unpacklo_epi64(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q0)),
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q1)));
  const __m128i hi = _mm_unpacklo_epi64(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q2)),
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q3)));
  return _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
}

// MultiHash::Slots for keys p[0..3]: out[j][i] gets array i's slot for key
// j, identical to the scalar Slots output.
template <size_t kLen, size_t kMaxD>
COCO_AVX2_INLINE void HashSlots4(const uint8_t* const p[4], uint64_t seed,
                                 const uint64_t* salts, size_t d,
                                 uint64_t width, uint32_t (*out)[kMaxD]) {
  static_assert(kLen <= 16, "vector path covers the short-key mix only");
  __m256i a, b;
  if constexpr (kLen >= 8) {
    // KeyHash's two overlapping 8-byte loads per key.
    a = GatherLanes(p[0], p[1], p[2], p[3]);
    b = GatherLanes(p[0] + kLen - 8, p[1] + kLen - 8, p[2] + kLen - 8,
                    p[3] + kLen - 8);
  } else {
    // Sub-word keys can't load 8 bytes; build the zero-padded lanes on the
    // stack (KeyHash leaves b zero for these widths).
    alignas(32) uint64_t a_lanes[4] = {};
    for (size_t j = 0; j < 4; ++j) std::memcpy(&a_lanes[j], p[j], kLen);
    a = _mm256_load_si256(reinterpret_cast<const __m256i*>(a_lanes));
    b = _mm256_setzero_si256();
  }

  // KeyHash(data, kLen, seed), four lanes at once.
  __m256i h = Splat(seed ^ (kLen * 0xc6a4a7935bd1e995ULL));
  h = Mul64Lo(_mm256_xor_si256(h, a), Splat(0x9ddfea08eb382d69ULL));
  h = XorShr<47>(h);
  h = Mul64Lo(_mm256_xor_si256(h, b), Splat(0xc3a5c85c97cb3127ULL));
  h = XorShr<44>(h);
  h = Mul64Lo(h, Splat(0x9ae16a3b2f90404fULL));
  const __m256i h1 = XorShr<41>(h);

  // h2 = HashU64(h1, seed ^ golden) | 1  (Fmix64 of h1*kMixA + seed').
  __m256i k = _mm256_add_epi64(Mul64Lo(h1, Splat(0x9ddfea08eb382d69ULL)),
                               Splat(seed ^ 0x9e3779b97f4a7c15ULL));
  k = XorShr<33>(k);
  k = Mul64Lo(k, Splat(0xff51afd7ed558ccdULL));
  k = XorShr<33>(k);
  k = Mul64Lo(k, Splat(0xc4ceb9fe1a85ec53ULL));
  k = XorShr<33>(k);
  const __m256i h2 = _mm256_or_si256(k, Splat(1));

  const __m256i w = Splat(width);
  // Array pairs (i, i+1): each 64-bit lane packs the two uint32 slots of one
  // key, so out[j][i..i+1] is a single 8-byte store instead of four
  // per-lane cross-domain extracts per array.
  size_t i = 0;
  for (; i + 2 <= d; i += 2) {
    const __m256i v0 = _mm256_add_epi64(h1, Mul64Lo(Splat(salts[i]), h2));
    const __m256i v1 = _mm256_add_epi64(h1, Mul64Lo(Splat(salts[i + 1]), h2));
    const __m256i merged = _mm256_or_si256(
        MulHiWidth(v0, w), _mm256_slli_epi64(MulHiWidth(v1, w), 32));
    const __m128i lo = _mm256_castsi256_si128(merged);
    const __m128i hi = _mm256_extracti128_si256(merged, 1);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(&out[0][i]), lo);
    _mm_storeh_pd(reinterpret_cast<double*>(&out[1][i]), _mm_castsi128_pd(lo));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(&out[2][i]), hi);
    _mm_storeh_pd(reinterpret_cast<double*>(&out[3][i]), _mm_castsi128_pd(hi));
  }
  if (i < d) {
    alignas(32) uint64_t slot_lanes[4];
    const __m256i v = _mm256_add_epi64(h1, Mul64Lo(Splat(salts[i]), h2));
    _mm256_store_si256(reinterpret_cast<__m256i*>(slot_lanes),
                       MulHiWidth(v, w));
    for (size_t j = 0; j < 4; ++j) {
      out[j][i] = static_cast<uint32_t>(slot_lanes[j]);
    }
  }
}

#undef COCO_AVX2_INLINE

// The whole window on the vector path: groups of four, scalar tail. Only
// call when Avx2WindowHashActive(); keys must be at most 16 bytes and the
// width below 2^32 (the Lemire identity above needs w < 2^32).
template <typename Record, size_t kMaxD>
__attribute__((target("avx2"))) void SlotsWindow(const MultiHash& mh,
                                                 const Record* recs, size_t n,
                                                 uint32_t (*out)[kMaxD]) {
  constexpr size_t kLen = std::remove_cvref_t<decltype(recs[0].key)>::kSize;
  const uint64_t seed = mh.seed();
  const uint64_t* salts = mh.salts();
  const size_t d = mh.d();
  const uint64_t width = mh.width();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const uint8_t* const p[4] = {recs[j].key.data(), recs[j + 1].key.data(),
                                 recs[j + 2].key.data(),
                                 recs[j + 3].key.data()};
    HashSlots4<kLen, kMaxD>(p, seed, salts, d, width, out + j);
  }
  for (; j < n; ++j) mh.Slots(recs[j].key.data(), kLen, out[j]);
}

}  // namespace avx2
#endif  // COCO_HASH_AVX2

// out[j] = MultiHash::Slots of recs[j].key for j < n. Record must expose a
// FixedKey-style `key` member.
template <typename Record, size_t kMaxD>
inline void SlotsWindow(const MultiHash& mh, const Record* recs, size_t n,
                        uint32_t (*out)[kMaxD]) {
#if COCO_HASH_AVX2
  using Key = std::remove_cvref_t<decltype(recs[0].key)>;
  if constexpr (Key::kSize <= 16) {
    if (mh.width() <= 0xFFFFFFFFull && Avx2WindowHashActive()) {
      avx2::SlotsWindow(mh, recs, n, out);
      return;
    }
  }
#endif
  for (size_t j = 0; j < n; ++j) {
    mh.Slots(recs[j].key.data(), recs[j].key.size(), out[j]);
  }
}

}  // namespace coco::hash
