// Tests for IPv6 full keys: layout, partial-key mappings, the subset-sum
// identity, and an end-to-end CocoSketch over the 296-bit full key.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "keys/v6.h"
#include "query/flow_table.h"
#include "trace/ground_truth.h"

namespace coco::keys {
namespace {

V6Tuple MakeV6(uint64_t src_hi, uint64_t src_lo, uint64_t dst_hi,
               uint16_t sport, uint16_t dport) {
  uint8_t src[16] = {}, dst[16] = {};
  StoreBE64(src, src_hi);
  StoreBE64(src + 8, src_lo);
  StoreBE64(dst, dst_hi);
  return V6Tuple(src, dst, sport, dport, 6);
}

TEST(V6Tuple, LayoutAndAccessors) {
  const V6Tuple t = MakeV6(0x20010db800000000ULL, 0x1, 0xfe80000000000000ULL,
                           443, 8080);
  EXPECT_EQ(t.size(), 37u);
  EXPECT_EQ(t.src_ip()[0], 0x20);
  EXPECT_EQ(t.src_ip()[1], 0x01);
  EXPECT_EQ(t.dst_ip()[0], 0xfe);
  EXPECT_EQ(t.src_port(), 443);
  EXPECT_EQ(t.dst_port(), 8080);
  EXPECT_EQ(t.proto(), 6);
}

TEST(V6KeySpec, FullTupleIsIdentity) {
  const V6Tuple t = MakeV6(0x20010db8ULL << 32, 7, 9, 1, 2);
  const WideDynKey k = V6KeySpec::FullTuple().Apply(t);
  EXPECT_EQ(k.bits, 296);
  EXPECT_EQ(std::memcmp(k.data(), t.data(), 37), 0);
}

TEST(V6KeySpec, PrefixMasksAddress) {
  const V6Tuple t = MakeV6(0x20010db8ffffffffULL, 0xffffffffffffffffULL, 0,
                           1, 2);
  const WideDynKey k = V6KeySpec::SrcIpPrefix(48).Apply(t);
  EXPECT_EQ(k.bits, 48);
  EXPECT_EQ(k.data()[0], 0x20);
  EXPECT_EQ(k.data()[3], 0xb8);
  EXPECT_EQ(k.data()[5], 0xff);  // last byte inside the /48
  EXPECT_EQ(k.buf[6], 0x00);     // bits beyond /48 dropped
}

TEST(V6KeySpec, SubsetSumIdentity) {
  Rng rng(1);
  trace::ExactCounter<V6Tuple> full;
  for (int i = 0; i < 3000; ++i) {
    full.Add(MakeV6(rng.Next() >> 16, rng.Next(), rng.Next(),
                    static_cast<uint16_t>(rng.Next()),
                    static_cast<uint16_t>(rng.Next())),
             1 + rng.NextBelow(50));
  }
  for (const auto& spec :
       {V6KeySpec::SrcIp(), V6KeySpec::SrcDstIp(), V6KeySpec::SrcIpPrefix(48),
        V6KeySpec::SrcIpPrefix(64)}) {
    const auto partial = full.Aggregate(spec);
    EXPECT_EQ(partial.Total(), full.Total()) << spec.name();
    EXPECT_LE(partial.DistinctFlows(), full.DistinctFlows());
  }
}

TEST(V6EndToEnd, CocoSketchOverV6FullKey) {
  // 41-byte buckets; the sketch machinery is key-type generic.
  core::CocoSketch<V6Tuple> sketch(KiB(500), 2);
  EXPECT_EQ(core::CocoSketch<V6Tuple>::BucketBytes(), 41u);

  Rng rng(2);
  trace::ExactCounter<V6Tuple> truth;
  // 2000 flows, /48-structured sources, heavy-tailed by rank.
  std::vector<V6Tuple> flows;
  for (int f = 0; f < 2000; ++f) {
    flows.push_back(MakeV6(0x2001000000000000ULL | ((f % 50) << 8),
                           static_cast<uint64_t>(f), rng.Next(),
                           static_cast<uint16_t>(1024 + f), 443));
  }
  for (int i = 0; i < 200000; ++i) {
    const size_t f = rng.NextBelow(1 + rng.NextBelow(flows.size()));
    sketch.Update(flows[f], 1);
    truth.Add(flows[f], 1);
  }

  // Heavy hitters on the full key.
  const uint64_t threshold = truth.Total() / 1000;
  const auto decoded = sketch.Decode();
  size_t heavy = 0, found = 0;
  for (const auto& [key, count] : truth.HeavyHitters(threshold)) {
    ++heavy;
    auto it = decoded.find(key);
    found += (it != decoded.end() && it->second >= threshold);
  }
  ASSERT_GT(heavy, 0u);
  EXPECT_GT(static_cast<double>(found) / heavy, 0.9);

  // And on a /48 source prefix partial key, via the same GROUP BY path.
  const auto by_prefix =
      query::Aggregate(decoded, V6KeySpec::SrcIpPrefix(48));
  const auto exact_prefix = truth.Aggregate(V6KeySpec::SrcIpPrefix(48));
  uint64_t est_total = 0;
  for (const auto& [key, size] : by_prefix) est_total += size;
  EXPECT_EQ(est_total, truth.Total());  // mass conservation through v6 specs
  (void)exact_prefix;
}

}  // namespace
}  // namespace coco::keys
