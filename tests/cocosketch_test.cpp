// Tests for the basic CocoSketch (§4.1): update semantics, mass
// conservation, the at-most-one-copy invariant, unbiasedness over partial
// keys (Lemma 3), the recall bound (Theorem 4), and heavy-hitter quality;
// plus the bucket store underneath it — the key-probe kernels and the
// control-plane counter scans.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "keys/key_spec.h"
#include "packet/keys.h"
#include "query/flow_table.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace coco::core {
namespace {

TEST(CocoSketch, TrackedFlowIsExactWithoutEviction) {
  CocoSketch<IPv4Key> coco(KiB(64), 2);
  for (int i = 0; i < 1000; ++i) coco.Update(IPv4Key(9), 1);
  EXPECT_EQ(coco.Query(IPv4Key(9)), 1000u);
}

TEST(CocoSketch, WeightedUpdates) {
  CocoSketch<IPv4Key> coco(KiB(64), 2);
  coco.Update(IPv4Key(9), 1500);
  coco.Update(IPv4Key(9), 40);
  EXPECT_EQ(coco.Query(IPv4Key(9)), 1540u);
}

TEST(CocoSketch, UnseenKeyIsZero) {
  CocoSketch<IPv4Key> coco(KiB(4), 2);
  EXPECT_EQ(coco.Query(IPv4Key(1)), 0u);
}

TEST(CocoSketch, GeometryFromMemory) {
  // 17-byte buckets (13B key + 4B counter) at d=2.
  CocoSketch<FiveTuple> coco(KiB(500), 2);
  EXPECT_EQ(coco.d(), 2u);
  EXPECT_EQ(coco.l(), KiB(500) / (2 * 17));
  EXPECT_LE(coco.MemoryBytes(), KiB(500));
}

TEST(CocoSketch, TotalMassConservedExactly) {
  // §4.1: each packet updates the value of exactly one bucket, so the sum of
  // all bucket values equals the stream mass — for any d.
  for (size_t d : {1, 2, 3, 4}) {
    CocoSketch<FiveTuple> coco(KiB(16), d);
    trace::TraceConfig config = trace::TraceConfig::CaidaLike(30000);
    const auto trace = trace::GenerateTrace(config);
    uint64_t mass = 0;
    for (const Packet& p : trace) {
      coco.Update(p.key, p.weight);
      mass += p.weight;
    }
    EXPECT_EQ(coco.TotalValue(), mass) << "d=" << d;
  }
}

TEST(CocoSketch, AtMostOneCopyPerKey) {
  // A key never occupies two buckets simultaneously: matches increment in
  // place and replacement only triggers when no bucket matched.
  CocoSketch<IPv4Key> coco(KiB(2), 3);
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    coco.Update(IPv4Key(static_cast<uint32_t>(rng.NextBelow(2000))), 1);
  }
  // Decode merges duplicates by summation; compare against a scan that
  // counts occurrences.
  std::unordered_map<IPv4Key, int> copies;
  const auto decoded = coco.Decode();
  uint64_t decoded_mass = 0;
  for (const auto& [key, v] : decoded) decoded_mass += v;
  EXPECT_EQ(decoded_mass, coco.TotalValue());
  EXPECT_LE(decoded.size(), coco.d() * coco.l());
}

// --- Unbiasedness (Lemma 3) ----------------------------------------------
// Averaged over many independent sketches, the estimate of every flow —
// including on aggregated partial keys — converges to the true size.
class CocoUnbiasednessTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CocoUnbiasednessTest, PartialKeyEstimatesUnbiased) {
  const size_t d = GetParam();
  const int kSeeds = 40;

  // Structured universe: 40 flows across 8 source IPs, so the SrcIP partial
  // key aggregates five 5-tuples each.
  std::vector<FiveTuple> flows;
  std::vector<uint64_t> sizes;
  for (int f = 0; f < 40; ++f) {
    flows.push_back(FiveTuple(0x0a000000u + (f % 8), 0xc0000001, 1000 + f,
                              443, 6));
    sizes.push_back(20 + 13 * f);
  }
  trace::ExactCounter<FiveTuple> truth;
  for (size_t f = 0; f < flows.size(); ++f) truth.Add(flows[f], sizes[f]);
  const keys::TupleKeySpec spec = keys::TupleKeySpec::SrcIp();
  const auto exact_partial = truth.Aggregate(spec);

  // Sketch with fewer buckets than flows, forcing constant replacement.
  const size_t mem = 24 * CocoSketch<FiveTuple>::BucketBytes();

  std::unordered_map<DynKey, double> mean_est;
  for (int seed = 0; seed < kSeeds; ++seed) {
    CocoSketch<FiveTuple> coco(mem, d, 1000 + seed);
    Rng order(seed);
    std::vector<size_t> stream;
    for (size_t f = 0; f < flows.size(); ++f) {
      for (uint64_t i = 0; i < sizes[f]; ++i) stream.push_back(f);
    }
    for (size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[order.NextBelow(i)]);
    }
    for (size_t f : stream) coco.Update(flows[f], 1);

    const auto partial = query::Aggregate(coco.Decode(), spec);
    for (const auto& [key, exact] : exact_partial.counts()) {
      auto it = partial.find(key);
      mean_est[key] +=
          it == partial.end() ? 0.0 : static_cast<double>(it->second);
    }
  }

  // Total mass is conserved exactly, so the aggregate check is strict; the
  // per-key check allows sampling noise over 40 trials.
  double total_mean = 0, total_true = 0;
  for (const auto& [key, exact] : exact_partial.counts()) {
    const double mean = mean_est[key] / kSeeds;
    total_mean += mean;
    total_true += static_cast<double>(exact);
    if (exact > 200) {  // heavier aggregates: tighter relative tolerance
      EXPECT_NEAR(mean, static_cast<double>(exact),
                  0.3 * static_cast<double>(exact))
          << "d=" << d;
    }
  }
  EXPECT_NEAR(total_mean, total_true, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(VaryD, CocoUnbiasednessTest,
                         ::testing::Values(1, 2, 3));

// --- Recall bound (Theorem 4) --------------------------------------------
TEST(CocoSketch, RecallBoundForHeavyFlow) {
  // P[recorded] >= 1 - (1 + l * f/ f̄)^-d. With f = 1% of traffic, d = 2,
  // l = 900, the bound is ~99%; empirically check over repeated runs.
  const size_t d = 2, l = 900;
  const size_t mem = d * l * CocoSketch<IPv4Key>::BucketBytes();
  int recorded = 0;
  const int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    CocoSketch<IPv4Key> coco(mem, d, t + 1);
    Rng rng(t * 31 + 7);
    const uint64_t n = 100000;
    for (uint64_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.01)) {
        coco.Update(IPv4Key(0x0aff0010u), 1);
      } else {
        coco.Update(IPv4Key(static_cast<uint32_t>(rng.Next()) | 1u), 1);
      }
    }
    recorded += coco.Query(IPv4Key(0x0aff0010u)) > 0;
  }
  EXPECT_GE(static_cast<double>(recorded) / kTrials, 0.97);
}

TEST(CocoSketch, HeavyHitterQualityOnTrace) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(200000);
  const auto trace = trace::GenerateTrace(config);
  const auto truth = trace::CountTrace(trace);

  CocoSketch<FiveTuple> coco(KiB(256), 2);
  for (const Packet& p : trace) coco.Update(p.key, p.weight);

  const uint64_t threshold = truth.Total() / 1000;
  const auto decoded = coco.Decode();
  size_t heavy = 0, found = 0;
  double are = 0;
  for (const auto& [key, count] : truth.HeavyHitters(threshold)) {
    ++heavy;
    auto it = decoded.find(key);
    if (it != decoded.end() && it->second >= threshold) ++found;
    const uint64_t est = it == decoded.end() ? 0 : it->second;
    are += std::abs(static_cast<double>(est) - static_cast<double>(count)) /
           static_cast<double>(count);
  }
  ASSERT_GT(heavy, 0u);
  EXPECT_GT(static_cast<double>(found) / heavy, 0.95);
  EXPECT_LT(are / heavy, 0.1);
}

TEST(CocoSketch, DegeneratesToExactWhenOversized) {
  // With far more buckets than flows and d=2 the sketch is near-exact.
  CocoSketch<IPv4Key> coco(MiB(1), 2);
  Rng rng(3);
  std::unordered_map<uint32_t, uint64_t> exact;
  for (int i = 0; i < 20000; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBelow(500));
    coco.Update(IPv4Key(key), 1);
    ++exact[key];
  }
  for (const auto& [key, count] : exact) {
    EXPECT_EQ(coco.Query(IPv4Key(key)), count);
  }
}

TEST(CocoSketch, ClearResets) {
  CocoSketch<IPv4Key> coco(KiB(8), 2);
  coco.Update(IPv4Key(1), 10);
  coco.Clear();
  EXPECT_EQ(coco.Query(IPv4Key(1)), 0u);
  EXPECT_EQ(coco.TotalValue(), 0u);
}

TEST(CocoSketch, ClearedSketchEqualsFreshSketch) {
  // Clear() restarts the replacement RNG too, so the same updates leave a
  // cleared sketch and a new one byte-identical. An 8 KiB sketch replaces
  // keys on most of these records, so a stale RNG shows in the buckets.
  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(20000));
  CocoSketch<FiveTuple> cleared(KiB(8), 2, 7);
  cleared.UpdateBatch(trace.data(), trace.size());
  cleared.Clear();
  cleared.UpdateBatch(trace.data(), trace.size());
  CocoSketch<FiveTuple> fresh(KiB(8), 2, 7);
  fresh.UpdateBatch(trace.data(), trace.size());
  EXPECT_EQ(cleared.SerializeState(), fresh.SerializeState());
}

TEST(CocoSketch, RejectsBadGeometry) {
  EXPECT_DEATH(CocoSketch<FiveTuple>(8, 2), "memory too small");
}

// The probe kernels against planted keys: FindMatch's first-match index,
// KeyEqMask's bit set, and StoreKey's exact padded slot bytes.
template <size_t kSize>
void ExpectProbeKernelsMatchPlantedKeys(uint64_t seed) {
  using Key = FixedKey<kSize>;
  Rng rng(seed);
  auto random_key = [&rng] {
    Key k;
    for (auto& b : k.bytes) b = static_cast<uint8_t>(rng.Next32());
    return k;
  };
  const Key key = random_key();
  const auto probe = BucketArray<Key>::MakeProbe(key);
  for (size_t d = 1; d <= 8; ++d) {
    BucketArray<Key> buckets(d);  // array i's mapped bucket is bucket i
    const size_t idx[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    int want_match = -1;
    uint32_t want_mask = 0;
    for (size_t i = 0; i < d; ++i) {
      const bool planted = rng.NextBelow(2) == 0;
      buckets.SetKey(i, planted ? key : random_key());
      buckets.SetValue(i, static_cast<uint32_t>(rng.NextBelow(3)));
      want_mask |= static_cast<uint32_t>(planted) << i;
      if (want_match < 0 && planted && buckets.Value(i) != 0) {
        want_match = static_cast<int>(i);
      }
    }
    EXPECT_EQ(buckets.FindMatch(idx, d, probe), want_match) << kSize << "B";
    EXPECT_EQ(buckets.KeyEqMask(idx, d, probe), want_mask) << kSize << "B";
    // StoreKey writes the exact padded slot: key bytes, then zero pads.
    uint64_t ones[Key::kWords];
    std::fill(std::begin(ones), std::end(ones), ~uint64_t{0});
    buckets.SetKeyWords(0, ones);
    buckets.StoreKey(0, probe);
    uint64_t want_words[Key::kWords] = {};
    std::memcpy(want_words, key.data(), kSize);
    EXPECT_EQ(std::memcmp(buckets.KeyWords(0), want_words, sizeof(ones)), 0)
        << kSize << "B";
  }
}

TEST(BucketArray, ShortProbeKernelsMatchNaiveCompare) {
  // The register probe: sub-word, single-word, overlapping-tail and full
  // two-word layouts.
  ExpectProbeKernelsMatchPlantedKeys<4>(0xa4);
  ExpectProbeKernelsMatchPlantedKeys<8>(0xa8);
  ExpectProbeKernelsMatchPlantedKeys<13>(0xad);
  ExpectProbeKernelsMatchPlantedKeys<16>(0xb0);
}

TEST(BucketStore, StatsMatchNaiveScan) {
  // Empty, half-full and full counter planes against plain loops.
  for (uint64_t zero_per_mille : {1000, 500, 0}) {
    CocoSketch<FiveTuple> sketch(KiB(16), 3, 0x5ca1);
    auto& buckets = sketch.MutableBuckets();
    Rng rng(zero_per_mille);
    SketchStats want;
    want.per_array_occupied.assign(3, 0);
    for (size_t i = 0; i < buckets.size(); ++i) {
      const uint32_t v = rng.NextBelow(1000) < zero_per_mille ? 0 : rng.Next32();
      buckets.SetValue(i, v);
      want.total_value += v;
      want.max_bucket_value = std::max(want.max_bucket_value, v);
      if (v == 0) continue;
      ++want.buckets_occupied;
      ++want.per_array_occupied[i / sketch.l()];
      if (want.min_occupied_value == 0 || v < want.min_occupied_value) {
        want.min_occupied_value = v;
      }
    }
    const SketchStats got = sketch.Stats();
    EXPECT_EQ(sketch.TotalValue(), want.total_value);
    EXPECT_EQ(got.total_value, want.total_value);
    EXPECT_EQ(got.buckets_occupied, want.buckets_occupied);
    EXPECT_EQ(got.per_array_occupied, want.per_array_occupied);
    EXPECT_EQ(got.max_bucket_value, want.max_bucket_value);
    EXPECT_EQ(got.min_occupied_value, want.min_occupied_value);
  }
}

TEST(BucketStore, TotalValueDoesNotWrap) {
  // Saturated counters overflow 32 bits at once; the 64-bit accumulator
  // carries the full sum.
  CocoSketch<FiveTuple> full(KiB(16), 2, 0x5ca2);
  auto& buckets = full.MutableBuckets();
  for (size_t i = 0; i < buckets.size(); ++i) buckets.SetValue(i, UINT32_MAX);
  const uint64_t want = uint64_t{buckets.size()} * UINT32_MAX;
  EXPECT_EQ(full.TotalValue(), want);
  EXPECT_EQ(full.Stats().total_value, want);
}

}  // namespace
}  // namespace coco::core
