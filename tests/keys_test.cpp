// Unit and property tests for src/packet and src/keys: key layouts, the
// partial-key mappings g(.), bit-level packing, and the subset-sum identity
// of Definition 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "keys/key_spec.h"
#include "packet/keys.h"
#include "query/flow_table.h"
#include "trace/ground_truth.h"

namespace coco {
namespace {

using keys::Field;
using keys::FieldSel;
using keys::PrefixPairSpec;
using keys::PrefixSpec;
using keys::TupleKeySpec;

TEST(FiveTuple, AccessorsRoundTrip) {
  FiveTuple t(0x0a000001, 0xc0a80101, 1234, 443, 6);
  EXPECT_EQ(t.src_ip(), 0x0a000001u);
  EXPECT_EQ(t.dst_ip(), 0xc0a80101u);
  EXPECT_EQ(t.src_port(), 1234);
  EXPECT_EQ(t.dst_port(), 443);
  EXPECT_EQ(t.proto(), 6);
}

TEST(FiveTuple, NetworkByteOrderLayout) {
  FiveTuple t(0x01020304, 0, 0x0506, 0, 0);
  EXPECT_EQ(t.bytes[0], 0x01);  // SrcIP MSB first
  EXPECT_EQ(t.bytes[3], 0x04);
  EXPECT_EQ(t.bytes[8], 0x05);  // SrcPort MSB
}

TEST(FiveTuple, EqualityAndHash) {
  FiveTuple a(1, 2, 3, 4, 5), b(1, 2, 3, 4, 5), c(1, 2, 3, 4, 6);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(std::hash<FiveTuple>{}(a), std::hash<FiveTuple>{}(b));
}

TEST(FiveTuple, ToString) {
  FiveTuple t(0x01020304, 0x05060708, 10, 20, 6);
  EXPECT_EQ(t.ToString(), "1.2.3.4:10->5.6.7.8:20/6");
}

TEST(DynKey, EqualityIncludesBitLength) {
  DynKey a, b;
  a.bits = 8;
  b.bits = 16;  // same zero bytes, different significance
  EXPECT_FALSE(a == b);
  b.bits = 8;
  EXPECT_EQ(a, b);
}

TEST(DynKey, SizeRoundsUp) {
  DynKey k;
  k.bits = 9;
  EXPECT_EQ(k.size(), 2u);
  k.bits = 0;
  EXPECT_EQ(k.size(), 0u);
  k.bits = 8;
  EXPECT_EQ(k.size(), 1u);
}

TEST(TupleKeySpec, FullTupleIsIdentityLayout) {
  FiveTuple t(0x0a0b0c0d, 0x01020304, 80, 443, 17);
  const DynKey k = TupleKeySpec::FullTuple().Apply(t);
  EXPECT_EQ(k.bits, 104);
  EXPECT_EQ(std::memcmp(k.data(), t.data(), 13), 0);
}

TEST(TupleKeySpec, SrcIpExtractsField) {
  FiveTuple t(0xdeadbeef, 0x01020304, 80, 443, 6);
  const DynKey k = TupleKeySpec::SrcIp().Apply(t);
  EXPECT_EQ(k.bits, 32);
  EXPECT_EQ(LoadBE32(k.data()), 0xdeadbeefu);
}

TEST(TupleKeySpec, DstIpDstPortLayout) {
  FiveTuple t(1, 0xc0a80001, 1000, 8080, 6);
  const DynKey k = TupleKeySpec::DstIpDstPort().Apply(t);
  EXPECT_EQ(k.bits, 48);
  EXPECT_EQ(LoadBE32(k.data()), 0xc0a80001u);
  EXPECT_EQ(LoadBE16(k.data() + 4), 8080);
}

TEST(TupleKeySpec, ByteAlignedPrefixMasksTail) {
  FiveTuple t(0x0a0b0c0d, 0, 0, 0, 0);
  const DynKey k = TupleKeySpec::SrcIpPrefix(24).Apply(t);
  EXPECT_EQ(k.bits, 24);
  EXPECT_EQ(k.data()[0], 0x0a);
  EXPECT_EQ(k.data()[1], 0x0b);
  EXPECT_EQ(k.data()[2], 0x0c);
  EXPECT_EQ(k.buf[3], 0x00);  // /24 dropped the last octet entirely
}

TEST(TupleKeySpec, NonByteAlignedPrefixMasksWithinByte) {
  FiveTuple t(0xffffffff, 0, 0, 0, 0);
  const DynKey k = TupleKeySpec::SrcIpPrefix(20).Apply(t);
  EXPECT_EQ(k.bits, 20);
  EXPECT_EQ(k.data()[0], 0xff);
  EXPECT_EQ(k.data()[1], 0xff);
  EXPECT_EQ(k.data()[2], 0xf0);  // top 4 bits of the third octet only
}

TEST(TupleKeySpec, PrefixesOfSameAddressNest) {
  FiveTuple t(0xc0a80155, 0, 0, 0, 0);
  const DynKey k16 = TupleKeySpec::SrcIpPrefix(16).Apply(t);
  const DynKey k24 = TupleKeySpec::SrcIpPrefix(24).Apply(t);
  EXPECT_EQ(std::memcmp(k16.data(), k24.data(), 2), 0);
  EXPECT_NE(k16, k24);  // bit lengths differ even when bytes agree
}

TEST(TupleKeySpec, DefaultSixNamesAndSizes) {
  const auto specs = TupleKeySpec::DefaultSix();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].name(), "5-tuple");
  EXPECT_EQ(specs[0].total_bits(), 104);
  EXPECT_EQ(specs[1].total_bits(), 64);   // (SrcIP, DstIP)
  EXPECT_EQ(specs[2].total_bits(), 48);   // (SrcIP, SrcPort)
  EXPECT_EQ(specs[4].total_bits(), 32);   // SrcIP
}

TEST(PrefixSpec, HierarchyShape) {
  const auto levels = PrefixSpec::Hierarchy();
  ASSERT_EQ(levels.size(), 33u);  // "32 prefixes + 1 empty key"
  EXPECT_EQ(levels.front().bits(), 32);
  EXPECT_EQ(levels.back().bits(), 0);
}

TEST(PrefixSpec, EmptyKeyAggregatesEverything) {
  const PrefixSpec root(0);
  const DynKey a = root.Apply(IPv4Key(0x01010101));
  const DynKey b = root.Apply(IPv4Key(0xffffffff));
  EXPECT_EQ(a, b);
}

TEST(PrefixPairSpec, HierarchyShape) {
  const auto levels = PrefixPairSpec::Hierarchy();
  EXPECT_EQ(levels.size(), 33u * 33u);
}

TEST(PrefixPairSpec, SplitPointDisambiguates) {
  // (8 src bits, 16 dst bits) and (16, 8) can produce the same bytes; the
  // appended split byte must keep them distinct.
  IpPairKey key(0xAAAAAAAA, 0xAAAAAAAA);
  const DynKey a = PrefixPairSpec(8, 16).Apply(key);
  const DynKey b = PrefixPairSpec(16, 8).Apply(key);
  EXPECT_FALSE(a == b);
}

// --- Apply against a bit-by-bit packer -----------------------------------

// The value and width of one 5-tuple field, read through the accessors.
std::pair<uint32_t, uint16_t> FieldValue(const FiveTuple& t, Field f) {
  switch (f) {
    case Field::kSrcIp: return {t.src_ip(), 32};
    case Field::kDstIp: return {t.dst_ip(), 32};
    case Field::kSrcPort: return {t.src_port(), 16};
    case Field::kDstPort: return {t.dst_port(), 16};
    case Field::kProto: return {t.proto(), 8};
  }
  return {0, 0};
}

// g(.) one bit at a time: each field's top prefix_bits bits, MSB-first,
// appended in selection order.
DynKey PackBitByBit(const FiveTuple& t, const std::vector<FieldSel>& sels) {
  DynKey out;
  for (const FieldSel& sel : sels) {
    const auto [value, width] = FieldValue(t, sel.field);
    for (uint16_t i = 0; i < sel.prefix_bits; ++i) {
      if ((value >> (width - 1 - i)) & 1) {
        out.buf[out.bits / 8] |= static_cast<uint8_t>(0x80 >> (out.bits % 8));
      }
      ++out.bits;
    }
  }
  return out;
}

// Pack's two words and Apply against PackBitByBit on 50 random tuples, and
// PackedKey order against query::KeyOrderLess's order of the DynKeys.
void ExpectPacksBitByBit(const std::vector<FieldSel>& sels, Rng& rng) {
  std::string fields;
  for (const FieldSel& sel : sels) {
    fields += std::to_string(static_cast<int>(sel.field)) + "/" +
              std::to_string(sel.prefix_bits) + " ";
  }
  SCOPED_TRACE("fields " + fields);
  const TupleKeySpec spec("random", sels);
  FiveTuple prev;
  for (int k = 0; k < 50; ++k) {
    const FiveTuple t(static_cast<uint32_t>(rng.Next()),
                      static_cast<uint32_t>(rng.Next()),
                      static_cast<uint16_t>(rng.Next()),
                      static_cast<uint16_t>(rng.Next()),
                      static_cast<uint8_t>(rng.Next()));
    const DynKey want = PackBitByBit(t, sels);
    const keys::PackedKey packed = spec.Pack(t);
    ASSERT_EQ(packed.hi, LoadBE64(want.buf.data())) << want.ToHex();
    ASSERT_EQ(packed.lo, LoadBE64(want.buf.data() + 8)) << want.ToHex();
    ASSERT_EQ(spec.Apply(t), want) << spec.Apply(t).ToHex() << " vs "
                                   << want.ToHex();
    EXPECT_EQ(packed < spec.Pack(prev),
              query::KeyOrderLess(want, spec.Apply(prev)));
    prev = t;
  }
}

TEST(TupleKeySpec, ApplyMatchesBitByBitPackerOnRandomSubsets) {
  // Every prefix length 0..32 on SrcIP, each with random field subsets
  // (DstIP whole or with a random prefix), in canonical order, where whole
  // neighbours merge into one run, and again in random order; then all five
  // fields, forwards, backwards and with a field repeated.
  Rng rng(0xb175);
  const Field all[] = {Field::kSrcIp, Field::kDstIp, Field::kSrcPort,
                       Field::kDstPort, Field::kProto};
  for (uint8_t prefix = 0; prefix <= 32; ++prefix) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<FieldSel> sels;
      for (const Field f : all) {
        if (f != Field::kSrcIp && rng.Bernoulli(0.5)) continue;
        uint8_t bits = static_cast<uint8_t>(keys::FieldBits(f));
        if (f == Field::kSrcIp) {
          bits = prefix;
        } else if (f == Field::kDstIp && rng.Bernoulli(0.5)) {
          bits = static_cast<uint8_t>(rng.NextBelow(33));
        }
        sels.push_back(FieldSel(f, bits));
      }
      ExpectPacksBitByBit(sels, rng);
      for (size_t i = sels.size(); i > 1; --i) {
        std::swap(sels[i - 1], sels[rng.NextBelow(i)]);
      }
      ExpectPacksBitByBit(sels, rng);
    }
  }
  std::vector<FieldSel> five = TupleKeySpec::FullTuple().fields();
  ExpectPacksBitByBit(five, rng);
  std::reverse(five.begin(), five.end());
  ExpectPacksBitByBit(five, rng);
  five.push_back(FieldSel(Field::kProto));
  ExpectPacksBitByBit(five, rng);
}

// --- Property: the subset-sum identity of Definition 1 -------------------
// For any partial key spec g and any flow population, aggregating exact
// full-key counts through g must preserve total mass and satisfy
// f(e) = sum of f(e') over g(e') = e. We validate via ExactCounter.

class SubsetSumIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(SubsetSumIdentityTest, MassIsPreservedUnderAggregation) {
  const auto specs = TupleKeySpec::DefaultSix();
  const TupleKeySpec& spec = specs[GetParam()];

  Rng rng(1000 + GetParam());
  trace::ExactCounter<FiveTuple> full;
  for (int i = 0; i < 5000; ++i) {
    FiveTuple t(static_cast<uint32_t>(rng.Next()),
                static_cast<uint32_t>(rng.Next()),
                static_cast<uint16_t>(rng.Next()),
                static_cast<uint16_t>(rng.Next()),
                rng.Bernoulli(0.5) ? 6 : 17);
    full.Add(t, 1 + rng.NextBelow(100));
  }

  const auto partial = full.Aggregate(spec);
  EXPECT_EQ(partial.Total(), full.Total());
  EXPECT_LE(partial.DistinctFlows(), full.DistinctFlows());

  // Spot-check the per-key identity for every partial key.
  std::unordered_map<DynKey, uint64_t> recomputed;
  for (const auto& [key, count] : full.counts()) {
    recomputed[spec.Apply(key)] += count;
  }
  EXPECT_EQ(recomputed.size(), partial.DistinctFlows());
  for (const auto& [key, count] : recomputed) {
    EXPECT_EQ(partial.Count(key), count);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDefaultSpecs, SubsetSumIdentityTest,
                         ::testing::Range(0, 6));

// Prefix hierarchies must nest: level (b) aggregates of level (b+1)
// aggregates equal direct level (b) aggregates.
TEST(PrefixSpec, HierarchyNests) {
  Rng rng(77);
  trace::ExactCounter<IPv4Key> full;
  for (int i = 0; i < 2000; ++i) {
    full.Add(IPv4Key(static_cast<uint32_t>(rng.Next())), 1);
  }
  for (uint8_t bits : {24, 16, 8, 0}) {
    const auto direct = full.Aggregate(PrefixSpec(bits));
    EXPECT_EQ(direct.Total(), full.Total()) << "bits=" << int{bits};
  }
}

// Word-wise FixedKey equality (1-2 unaligned 64-bit loads for N <= 16) must
// agree with byte-wise comparison for every differing-byte position —
// especially inside the overlap region of the two loads for 8 < N < 16.
TEST(FixedKeyEquality, EveryBytePositionDistinguishes) {
  auto check = [](auto key_tag) {
    using K = decltype(key_tag);
    K a{}, b{};
    for (size_t i = 0; i < K::kSize; ++i) a.bytes[i] = static_cast<uint8_t>(i + 1);
    b = a;
    EXPECT_TRUE(a == b);
    for (size_t i = 0; i < K::kSize; ++i) {
      K c = a;
      c.bytes[i] ^= 0x80;
      EXPECT_FALSE(a == c) << "size=" << K::kSize << " byte=" << i;
      EXPECT_FALSE(c == a) << "size=" << K::kSize << " byte=" << i;
    }
  };
  check(FixedKey<1>{});
  check(FixedKey<4>{});   // IPv4Key width: single sub-word load
  check(FixedKey<8>{});   // IpPairKey width: exactly one 64-bit load
  check(FixedKey<13>{});  // FiveTuple width: overlapping loads (bytes 5-7
                          // covered by both)
  check(FixedKey<16>{});  // two exact loads
  check(FixedKey<20>{});  // fallback byte-wise path
}

TEST(FixedKeyEquality, FiveTupleSemanticAgreement) {
  const FiveTuple a(0x0a000001, 0x0a000002, 80, 443, 6);
  const FiveTuple same(0x0a000001, 0x0a000002, 80, 443, 6);
  FiveTuple proto_differs = a;
  proto_differs.bytes[12] = 17;  // last byte: only seen by the second load
  EXPECT_TRUE(a == same);
  EXPECT_FALSE(a == proto_differs);
  EXPECT_EQ(a == same, a.bytes == same.bytes);
  EXPECT_EQ(a == proto_differs, a.bytes == proto_differs.bytes);
}

}  // namespace
}  // namespace coco
