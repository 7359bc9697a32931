// Partial-key specifications — the mapping g : k_F -> k_P of Definition 1.
//
// A TupleKeySpec selects 5-tuple fields, in any order, with optional
// bit-granularity prefixes on IP fields; it packs a FiveTuple's selected
// bits into one 128-bit PackedKey (Pack) and renders that as a DynKey
// (Apply). Its constructor compiles the field list into runs once: a field
// that follows its neighbour in the 5-tuple joins that neighbour's run, so
// Pack costs one shift and one mask per run. The 5-tuple and (SrcIP, DstIP)
// are one run each, (SrcIP, SrcPort) is two. PrefixSpec / PrefixPairSpec
// are the analogous mappings for the 1-d (SrcIP) and 2-d (SrcIP, DstIP)
// HHH hierarchies. All mappings are deterministic and pure, so the
// subset-sum identity
//   f(e) = sum over {e' : g(e') = e} f(e')
// holds by construction and is property-tested in tests/keys_test.cpp.
#pragma once

#include <compare>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "hash/bobhash.h"
#include "packet/keys.h"

namespace coco::keys {

// Appends bit strings into a DynKey buffer MSB-first. Partial keys are
// bit-packed so that a /28 prefix followed by a port still yields a
// canonical fixed layout with zero padding beyond `bits`.
class BitWriter {
 public:
  explicit BitWriter(DynKey& out) : out_(out) {}

  // Appends the top `bits` bits of the big-endian buffer `data`.
  void Append(const uint8_t* data, uint16_t bits) {
    COCO_CHECK(out_.bits + bits <= DynKey::kCapacity * 8,
               "partial key exceeds key capacity");
    uint16_t offset = out_.bits;
    if (offset % 8 == 0 && bits % 8 == 0) {
      // Byte-aligned fast path: the overwhelmingly common case (field
      // subsets and /8-aligned prefixes).
      std::memcpy(out_.buf.data() + offset / 8, data, bits / 8);
    } else {
      for (uint16_t i = 0; i < bits; ++i) {
        const bool bit = (data[i / 8] >> (7 - i % 8)) & 1;
        if (bit) {
          const uint16_t pos = static_cast<uint16_t>(offset + i);
          out_.buf[pos / 8] |= static_cast<uint8_t>(1u << (7 - pos % 8));
        }
      }
    }
    out_.bits = static_cast<uint16_t>(offset + bits);
  }

 private:
  DynKey& out_;
};

enum class Field : uint8_t {
  kSrcIp,
  kDstIp,
  kSrcPort,
  kDstPort,
  kProto,
};

// Width of a field in bits.
uint16_t FieldBits(Field f);

// One selected field; `prefix_bits` trims IP fields (ignored — kept at full
// width — for ports and proto).
struct FieldSel {
  Field field;
  uint8_t prefix_bits;  // significant bits, <= FieldBits(field)

  FieldSel(Field f, uint8_t bits) : field(f), prefix_bits(bits) {}
  explicit FieldSel(Field f);  // full width
};

// A partial key as one 128-bit value: the selected bits MSB-first from the
// top bit of `hi`, zero below total_bits(). Keys of one spec compare in the
// order query::KeyOrderLess gives their rendered DynKeys.
struct PackedKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend auto operator<=>(const PackedKey&, const PackedKey&) = default;

  // Keyed index hash (query::FlowTable): hash::KeyedFold of the two words.
  uint64_t Hash(uint64_t seed) const { return hash::KeyedFold(hi, lo, seed); }
};

// A partial key of the 5-tuple full key.
class TupleKeySpec {
 public:
  TupleKeySpec(std::string name, std::vector<FieldSel> fields);

  // g(.) — extract, mask, and concatenate the selected fields. The 5-tuple
  // is read as one 128-bit value (SrcIP at the top, Proto ending at bit
  // 24), and each run moves into place with one shift and one mask.
  PackedKey Pack(const FiveTuple& full) const {
    const uint8_t* b = full.data();
    const unsigned __int128 tuple =
        (static_cast<unsigned __int128>(LoadBE64(b)) << 64) |
        (LoadBE64(b + 5) << 24);
    unsigned __int128 acc = 0;
    for (const Run& r : up_runs_) acc |= (tuple << r.shift) & r.mask;
    for (const Run& r : down_runs_) acc |= (tuple >> r.shift) & r.mask;
    return {static_cast<uint64_t>(acc >> 64), static_cast<uint64_t>(acc)};
  }

  // The DynKey of a packed key of this spec: the same bits, big-endian.
  DynKey Render(const PackedKey& packed) const {
    DynKey out;
    StoreBE64(out.buf.data(), packed.hi);
    StoreBE64(out.buf.data() + 8, packed.lo);
    out.bits = total_bits_;
    return out;
  }

  // g(.) as a DynKey.
  DynKey Apply(const FiveTuple& full) const { return Render(Pack(full)); }

  const std::string& name() const { return name_; }
  uint16_t total_bits() const { return total_bits_; }
  const std::vector<FieldSel>& fields() const { return fields_; }

  // The six partial keys measured by default in §7.1: 5-tuple,
  // (SrcIP,DstIP), (SrcIP,SrcPort), (DstIP,DstPort), SrcIP, DstIP.
  static std::vector<TupleKeySpec> DefaultSix();

  // Named constructors for the common specs.
  static TupleKeySpec FullTuple();
  static TupleKeySpec SrcDstIp();
  static TupleKeySpec SrcIpSrcPort();
  static TupleKeySpec DstIpDstPort();
  static TupleKeySpec SrcIp();
  static TupleKeySpec DstIp();
  static TupleKeySpec SrcIpPrefix(uint8_t bits);

 private:
  // Selected bits of the tuple that land next to each other in the packed
  // key: shifted by `shift` toward the top (up_runs_) or the bottom
  // (down_runs_), they are the bits of `mask`. The masks are disjoint.
  struct Run {
    unsigned __int128 mask;
    uint8_t shift;
  };

  std::string name_;
  std::vector<FieldSel> fields_;
  std::vector<Run> up_runs_;
  std::vector<Run> down_runs_;
  uint16_t total_bits_;
};

// Prefix mapping for an IPv4Key full key (1-d HHH): keeps the top `bits`
// bits of the address.
class PrefixSpec {
 public:
  explicit PrefixSpec(uint8_t bits) : bits_(bits) {}

  DynKey Apply(const IPv4Key& full) const;

  uint8_t bits() const { return bits_; }

  // The 33-level source-IP hierarchy (prefix lengths 32 down to 0) of
  // Fig. 11: "32 prefixes + 1 empty key".
  static std::vector<PrefixSpec> Hierarchy();

 private:
  uint8_t bits_;
};

// Prefix-pair mapping for an IpPairKey full key (2-d HHH): independent
// prefixes on source and destination.
class PrefixPairSpec {
 public:
  PrefixPairSpec(uint8_t src_bits, uint8_t dst_bits)
      : src_bits_(src_bits), dst_bits_(dst_bits) {}

  DynKey Apply(const IpPairKey& full) const;

  uint8_t src_bits() const { return src_bits_; }
  uint8_t dst_bits() const { return dst_bits_; }

  // The 33 x 33 = 1089-level hierarchy of Fig. 12.
  static std::vector<PrefixPairSpec> Hierarchy();

 private:
  uint8_t src_bits_;
  uint8_t dst_bits_;
};

}  // namespace coco::keys
