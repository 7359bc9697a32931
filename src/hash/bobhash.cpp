#include "hash/bobhash.h"

#include <cstring>

namespace coco::hash {
namespace {

inline uint32_t Rot(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

inline void Mix(uint32_t& a, uint32_t& b, uint32_t& c) {
  a -= c; a ^= Rot(c, 4);  c += b;
  b -= a; b ^= Rot(a, 6);  a += c;
  c -= b; c ^= Rot(b, 8);  b += a;
  a -= c; a ^= Rot(c, 16); c += b;
  b -= a; b ^= Rot(a, 19); a += c;
  c -= b; c ^= Rot(b, 4);  b += a;
}

inline void Final(uint32_t& a, uint32_t& b, uint32_t& c) {
  c ^= b; c -= Rot(b, 14);
  a ^= c; a -= Rot(c, 11);
  b ^= a; b -= Rot(a, 25);
  c ^= b; c -= Rot(b, 16);
  a ^= c; a -= Rot(c, 4);
  b ^= a; b -= Rot(a, 14);
  c ^= b; c -= Rot(b, 24);
}

}  // namespace

uint32_t BobHash32(const void* data, size_t len, uint32_t seed) {
  const uint8_t* k = static_cast<const uint8_t*>(data);
  uint32_t a = 0xdeadbeef + static_cast<uint32_t>(len) + seed;
  uint32_t b = a;
  uint32_t c = a;

  while (len > 12) {
    uint32_t w0, w1, w2;
    std::memcpy(&w0, k, 4);
    std::memcpy(&w1, k + 4, 4);
    std::memcpy(&w2, k + 8, 4);
    a += w0;
    b += w1;
    c += w2;
    Mix(a, b, c);
    len -= 12;
    k += 12;
  }

  // Tail: assemble remaining bytes little-endian, as in Jenkins' hashlittle
  // byte-at-a-time path (portable regardless of alignment).
  switch (len) {
    case 12: c += static_cast<uint32_t>(k[11]) << 24; [[fallthrough]];
    case 11: c += static_cast<uint32_t>(k[10]) << 16; [[fallthrough]];
    case 10: c += static_cast<uint32_t>(k[9]) << 8; [[fallthrough]];
    case 9:  c += k[8]; [[fallthrough]];
    case 8:  b += static_cast<uint32_t>(k[7]) << 24; [[fallthrough]];
    case 7:  b += static_cast<uint32_t>(k[6]) << 16; [[fallthrough]];
    case 6:  b += static_cast<uint32_t>(k[5]) << 8; [[fallthrough]];
    case 5:  b += k[4]; [[fallthrough]];
    case 4:  a += static_cast<uint32_t>(k[3]) << 24; [[fallthrough]];
    case 3:  a += static_cast<uint32_t>(k[2]) << 16; [[fallthrough]];
    case 2:  a += static_cast<uint32_t>(k[1]) << 8; [[fallthrough]];
    case 1:  a += k[0]; break;
    case 0:  return c;
  }
  Final(a, b, c);
  return c;
}

namespace {

inline uint64_t Fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

}  // namespace

uint64_t Hash64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* const begin = static_cast<const uint8_t*>(data);
  const uint8_t* p = begin;
  uint64_t h = seed ^ (len * 0xc6a4a7935bd1e995ULL);

  while (len >= 8) {
    uint64_t k;
    std::memcpy(&k, p, 8);
    h = (h ^ Fmix64(k)) * 0x9ddfea08eb382d69ULL;
    p += 8;
    len -= 8;
  }
  if (len > 0) {
    // The tail's `len` bytes as a zero-padded little-endian word, built from
    // fixed-size loads that stay inside the input. A variable-length memcpy
    // here doubled the hash of a 13-byte key (20.8 vs 10.1 ns on a 4-vCPU
    // KVM Xeon).
    uint64_t k;
    if (p != begin) {
      // A full word precedes the tail: load the 8 bytes ending at the last
      // one and shift out those already hashed.
      std::memcpy(&k, p + len - 8, 8);
      k >>= 64 - 8 * len;
    } else if (len >= 4) {
      uint32_t lo, hi;  // overlap on lengths 4..7
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + len - 4, 4);
      k = lo | static_cast<uint64_t>(hi) << (8 * (len - 4));
    } else {
      k = p[0] | static_cast<uint64_t>(p[len / 2]) << (8 * (len / 2)) |
          static_cast<uint64_t>(p[len - 1]) << (8 * (len - 1));
    }
    h = (h ^ Fmix64(k | (static_cast<uint64_t>(len) << 56))) *
        0x9ddfea08eb382d69ULL;
  }
  return Fmix64(h);
}

uint64_t HashU64(uint64_t value, uint64_t seed) {
  return Fmix64(value * 0x9ddfea08eb382d69ULL + seed);
}

}  // namespace coco::hash
