// Tests for the hardware-friendly CocoSketch (§4.2): independent per-array
// updates, per-array unbiasedness (Lemma 4), the median query rule, the
// Theorem 3 error bound empirically, and the exact-vs-approximate division
// ablation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/sizes.h"
#include "core/hw_cocosketch.h"
#include "packet/keys.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace coco::core {
namespace {

TEST(HwCocoSketch, SingleFlowRecorded) {
  HwCocoSketch<IPv4Key> coco(KiB(64), 2);
  for (int i = 0; i < 1000; ++i) coco.Update(IPv4Key(5), 1);
  EXPECT_EQ(coco.Query(IPv4Key(5)), 1000u);
}

TEST(HwCocoSketch, PerArrayValueAlwaysIncrements) {
  // The value stage is unconditional: total per-array mass equals stream
  // mass in EVERY array (unlike basic Coco where a packet touches one array).
  HwCocoSketch<IPv4Key> coco(KiB(4), 3);
  Rng rng(1);
  uint64_t mass = 0;
  for (int i = 0; i < 20000; ++i) {
    coco.Update(IPv4Key(static_cast<uint32_t>(rng.NextBelow(5000))), 1);
    ++mass;
  }
  // Query a key definitely absent: median of zeros.
  EXPECT_EQ(coco.Query(IPv4Key(0xffffffff)), 0u);
  // Mass accounting: MemoryBytes/geometry sanity.
  EXPECT_EQ(coco.d(), 3u);
}

TEST(HwCocoSketch, MedianSuppressesSingleArrayNoise) {
  // A flow recorded in 2 of 3 arrays gets a nonzero median; recorded in only
  // 1 of 3, the median is 0.
  HwCocoSketch<IPv4Key> coco(KiB(16), 3);
  for (int i = 0; i < 100; ++i) coco.Update(IPv4Key(1), 1);
  uint64_t arrays_with_key = 0;
  for (size_t a = 0; a < 3; ++a) {
    arrays_with_key += coco.EstimateInArray(a, IPv4Key(1)) > 0;
  }
  EXPECT_EQ(arrays_with_key, 3u);  // sole flow: owns its bucket everywhere
  EXPECT_EQ(coco.Query(IPv4Key(1)), 100u);
}

// Lemma 4: each array's estimator (V if key owns the bucket, else 0) is
// unbiased, even under heavy collision pressure.
class HwCocoUnbiasednessTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HwCocoUnbiasednessTest, PerArrayEstimateUnbiased) {
  const size_t d = GetParam();
  const int kSeeds = 80;
  // 3 buckets per array, 9 flows — constant eviction pressure.
  const size_t mem = d * 3 * HwCocoSketch<IPv4Key>::BucketBytes();
  const int kFlows = 9;
  std::vector<uint64_t> sizes;
  for (int f = 0; f < kFlows; ++f) sizes.push_back(30 + 25 * f);

  std::vector<double> mean(kFlows, 0.0);
  for (int seed = 0; seed < kSeeds; ++seed) {
    HwCocoSketch<IPv4Key> coco(mem, d, DivisionMode::kExact, 500 + seed);
    Rng order(seed);
    std::vector<uint32_t> stream;
    for (int f = 0; f < kFlows; ++f) {
      for (uint64_t i = 0; i < sizes[f]; ++i) {
        stream.push_back(static_cast<uint32_t>(f));
      }
    }
    for (size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[order.NextBelow(i)]);
    }
    for (uint32_t f : stream) coco.Update(IPv4Key(f), 1);
    for (int f = 0; f < kFlows; ++f) {
      // Average the per-array estimates across arrays AND seeds: each is
      // individually unbiased, so the grand mean converges to the truth.
      double sum = 0;
      for (size_t a = 0; a < d; ++a) {
        sum += static_cast<double>(
            coco.EstimateInArray(a, IPv4Key(static_cast<uint32_t>(f))));
      }
      mean[f] += sum / static_cast<double>(d);
    }
  }
  for (int f = kFlows / 2; f < kFlows; ++f) {  // heavier flows: less variance
    const double m = mean[f] / kSeeds;
    EXPECT_NEAR(m, static_cast<double>(sizes[f]),
                0.30 * static_cast<double>(sizes[f]))
        << "flow " << f << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(VaryD, HwCocoUnbiasednessTest,
                         ::testing::Values(1, 2, 3));

TEST(HwCocoSketch, HeavyHitterQualityOnTrace) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(200000);
  const auto trace = trace::GenerateTrace(config);
  const auto truth = trace::CountTrace(trace);

  HwCocoSketch<FiveTuple> coco(KiB(512), 2);
  for (const Packet& p : trace) coco.Update(p.key, p.weight);

  const uint64_t threshold = truth.Total() / 1000;
  const auto decoded = coco.Decode();
  size_t heavy = 0, found = 0;
  for (const auto& [key, count] : truth.HeavyHitters(threshold)) {
    ++heavy;
    auto it = decoded.find(key);
    found += (it != decoded.end() && it->second >= threshold);
  }
  ASSERT_GT(heavy, 0u);
  EXPECT_GT(static_cast<double>(found) / heavy, 0.85);
}

TEST(HwCocoSketch, ApproximateDivisionCostsLittleAccuracy) {
  // Fig. 18(a): the P4 variant (top-4-bit reciprocal) should track the FPGA
  // variant (exact reciprocal) within a few percent of F1.
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(150000);
  const auto trace = trace::GenerateTrace(config);
  const auto truth = trace::CountTrace(trace);
  const uint64_t threshold = truth.Total() / 1000;

  auto run = [&](DivisionMode mode) {
    HwCocoSketch<FiveTuple> coco(KiB(512), 2, mode, 0x5eed);
    for (const Packet& p : trace) coco.Update(p.key, p.weight);
    const auto decoded = coco.Decode();
    size_t heavy = 0, found = 0;
    for (const auto& [key, count] : truth.HeavyHitters(threshold)) {
      ++heavy;
      auto it = decoded.find(key);
      found += (it != decoded.end() && it->second >= threshold);
    }
    return static_cast<double>(found) / static_cast<double>(heavy);
  };

  const double exact = run(DivisionMode::kExact);
  const double approx = run(DivisionMode::kApproximate);
  EXPECT_GT(exact, 0.8);
  EXPECT_NEAR(approx, exact, 0.05);
}

// Theorem 3 (empirical): with l = 3/eps^2, relative error exceeds
// eps * sqrt(f̄/f) only rarely; larger d lowers the exceedance rate.
TEST(HwCocoSketch, ErrorBoundEmpirical) {
  const double eps = 0.1;
  const size_t l = static_cast<size_t>(3.0 / (eps * eps));  // 300
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(100000);
  config.num_flows = 5000;
  const auto trace = trace::GenerateTrace(config);
  const auto truth = trace::CountTrace(trace);
  const double total = static_cast<double>(truth.Total());

  for (size_t d : {2, 4}) {
    const size_t mem = d * l * HwCocoSketch<FiveTuple>::BucketBytes();
    HwCocoSketch<FiveTuple> coco(mem, d, DivisionMode::kExact, 99);
    for (const Packet& p : trace) coco.Update(p.key, p.weight);

    size_t violations = 0, checked = 0;
    for (const auto& [key, f] : truth.counts()) {
      if (f < 100) continue;  // relative error on tiny flows is meaningless
      ++checked;
      const double fbar = total - static_cast<double>(f);
      const double bound =
          eps * std::sqrt(fbar / static_cast<double>(f));
      const double est = static_cast<double>(coco.Query(key));
      const double rel_err =
          std::abs(est - static_cast<double>(f)) / static_cast<double>(f);
      violations += rel_err >= bound;
    }
    ASSERT_GT(checked, 50u);
    // Chebyshev at l = 3/eps^2 gives <= 1/3 per array; the median over d
    // arrays drives it down sharply. Allow a loose ceiling.
    EXPECT_LT(static_cast<double>(violations) / checked, 0.25) << "d=" << d;
  }
}

TEST(HwCocoSketch, DecodeDropsZeroMedians) {
  HwCocoSketch<FiveTuple> coco(KiB(8), 2);
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(30000);
  const auto trace = trace::GenerateTrace(config);
  for (const Packet& p : trace) coco.Update(p.key, p.weight);
  for (const auto& [key, est] : coco.Decode()) {
    EXPECT_GT(est, 0u);
    EXPECT_EQ(est, coco.Query(key));
  }
}

TEST(HwCocoSketch, ClearResets) {
  HwCocoSketch<IPv4Key> coco(KiB(8), 2);
  coco.Update(IPv4Key(1), 10);
  coco.Clear();
  EXPECT_EQ(coco.Query(IPv4Key(1)), 0u);
  EXPECT_TRUE(coco.Decode().empty());
}

TEST(HwCocoSketch, ClearedSketchEqualsFreshSketch) {
  // As CocoSketch.ClearedSketchEqualsFreshSketch: Clear() restarts the
  // replacement RNG, so a cleared sketch and a new one end byte-identical.
  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(20000));
  HwCocoSketch<FiveTuple> cleared(KiB(8), 2, DivisionMode::kExact, 7);
  cleared.UpdateBatch(trace.data(), trace.size());
  cleared.Clear();
  cleared.UpdateBatch(trace.data(), trace.size());
  HwCocoSketch<FiveTuple> fresh(KiB(8), 2, DivisionMode::kExact, 7);
  fresh.UpdateBatch(trace.data(), trace.size());
  EXPECT_EQ(cleared.SerializeState(), fresh.SerializeState());
}

}  // namespace
}  // namespace coco::core
