// Flow-key types.
//
// The paper's full key k_F is the 104-bit 5-tuple; partial keys k_P are
// arbitrary field subsets and bit prefixes of it (Definition 1). We represent
// keys as explicit big-endian byte buffers so that
//   * hashing is defined on bytes (platform-independent),
//   * an IPv4 bit prefix is a bit prefix of the buffer, and
//   * key types interoperate with every sketch via a single duck-typed
//     interface: data() / size() / operator==.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "common/bytes.h"
#include "hash/bobhash.h"

namespace coco {

// Fixed-width key of N bytes. All concrete fixed keys derive from this.
template <size_t N>
struct FixedKey {
  static constexpr size_t kSize = N;
  // Word-addressable view: keys occupy kWords zero-padded 64-bit words in
  // the sketch bucket arrays (core/bucket_array.h), so key compares
  // operate on whole words and word equality coincides with byte equality.
  static constexpr size_t kWords = (N + 7) / 8;
  static constexpr size_t kPaddedSize = kWords * 8;

  std::array<uint8_t, N> bytes{};

  const uint8_t* data() const { return bytes.data(); }
  uint8_t* data() { return bytes.data(); }
  static constexpr size_t size() { return N; }

  // Word-wise equality of two N-byte keys: compiles to 1-2 unaligned 64-bit
  // loads per side for N <= 16 (overlapping loads for 8 < N < 16) instead
  // of a byte-wise compare. Either side may be a key in place, e.g. a
  // bucket's key words (query::FlowTable::AddKeyBytes).
  static bool BytesEqual(const uint8_t* a, const uint8_t* b) {
    if constexpr (N == 0) {
      return true;
    } else if constexpr (N <= 8) {
      return LoadNative(a, N) == LoadNative(b, N);
    } else if constexpr (N <= 16) {
      return LoadNative64(a) == LoadNative64(b) &&
             LoadNative64(a + N - 8) == LoadNative64(b + N - 8);
    } else {
      return std::memcmp(a, b, N) == 0;
    }
  }

  friend bool operator==(const FixedKey& a, const FixedKey& b) {
    return BytesEqual(a.bytes.data(), b.bytes.data());
  }

  uint64_t Hash(uint64_t seed = 0) const {
    return hash::Hash64(bytes.data(), N, seed);
  }

  std::string ToHex() const { return HexDump(bytes.data(), N); }
};

// The 104-bit 5-tuple full key: SrcIP(4) DstIP(4) SrcPort(2) DstPort(2)
// Proto(1), all network byte order.
struct FiveTuple : FixedKey<13> {
  FiveTuple() = default;
  FiveTuple(uint32_t src_ip, uint32_t dst_ip, uint16_t src_port,
            uint16_t dst_port, uint8_t proto) {
    StoreBE32(bytes.data(), src_ip);
    StoreBE32(bytes.data() + 4, dst_ip);
    StoreBE16(bytes.data() + 8, src_port);
    StoreBE16(bytes.data() + 10, dst_port);
    bytes[12] = proto;
  }

  uint32_t src_ip() const { return LoadBE32(bytes.data()); }
  uint32_t dst_ip() const { return LoadBE32(bytes.data() + 4); }
  uint16_t src_port() const { return LoadBE16(bytes.data() + 8); }
  uint16_t dst_port() const { return LoadBE16(bytes.data() + 10); }
  uint8_t proto() const { return bytes[12]; }

  std::string ToString() const;
};

// 32-bit source-IP key, the full key of the 1-d HHH experiments (Fig. 11).
struct IPv4Key : FixedKey<4> {
  IPv4Key() = default;
  explicit IPv4Key(uint32_t addr) { StoreBE32(bytes.data(), addr); }
  uint32_t addr() const { return LoadBE32(bytes.data()); }
  std::string ToString() const { return Ipv4ToString(addr()); }
};

// 64-bit (SrcIP, DstIP) key, the full key of the 2-d HHH experiments
// (Fig. 12).
struct IpPairKey : FixedKey<8> {
  IpPairKey() = default;
  IpPairKey(uint32_t src, uint32_t dst) {
    StoreBE32(bytes.data(), src);
    StoreBE32(bytes.data() + 4, dst);
  }
  uint32_t src() const { return LoadBE32(bytes.data()); }
  uint32_t dst() const { return LoadBE32(bytes.data() + 4); }
};

// Variable-length key produced by applying a KeySpec mapping g(.) to a full
// key: up to kCapacity bytes of payload plus the significant length in bits.
// Bits beyond `bits` are guaranteed zero by the producers, so equality can
// compare whole buffers; `bits` additionally distinguishes e.g. 10.0.0.0/8
// from 10.0.0.0/16. 16 bytes cover every IPv4 5-tuple partial key.
struct DynKey {
  static constexpr size_t kCapacity = 16;

  std::array<uint8_t, kCapacity> buf{};
  uint16_t bits = 0;

  const uint8_t* data() const { return buf.data(); }
  size_t size() const { return (bits + 7) / 8; }

  friend bool operator==(const DynKey& a, const DynKey& b) {
    return a.bits == b.bits && a.buf == b.buf;
  }

  uint64_t Hash(uint64_t seed = 0) const {
    return hash::Hash64(buf.data(), size(), seed ^ bits);
  }

  std::string ToHex() const { return HexDump(buf.data(), size()); }
};

// A packet as seen by the measurement data plane: a full key plus an update
// weight (packet count 1, or byte count).
struct Packet {
  FiveTuple key;
  uint32_t weight = 1;
};

}  // namespace coco

// std::hash so keys can be used in unordered containers (ground truth, flow
// tables).
namespace std {
template <size_t N>
struct hash<coco::FixedKey<N>> {
  size_t operator()(const coco::FixedKey<N>& k) const { return k.Hash(); }
};
template <>
struct hash<coco::FiveTuple> {
  size_t operator()(const coco::FiveTuple& k) const { return k.Hash(); }
};
template <>
struct hash<coco::IPv4Key> {
  size_t operator()(const coco::IPv4Key& k) const { return k.Hash(); }
};
template <>
struct hash<coco::IpPairKey> {
  size_t operator()(const coco::IpPairKey& k) const { return k.Hash(); }
};
template <>
struct hash<coco::DynKey> {
  size_t operator()(const coco::DynKey& k) const { return k.Hash(); }
};
}  // namespace std
