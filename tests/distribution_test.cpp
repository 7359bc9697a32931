// Tests for distribution-level metrics (flow size distribution, entropy) and
// table merging, including end-to-end FSD/entropy estimation from a decoded
// CocoSketch.
#include <gtest/gtest.h>

#include "common/sizes.h"
#include "core/cocosketch.h"
#include "metrics/distribution.h"
#include "query/flow_table.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace coco {
namespace {

TEST(FlowSizeHistogram, BucketsByLog2) {
  std::unordered_map<IPv4Key, uint64_t> table;
  table[IPv4Key(1)] = 1;   // bucket 0
  table[IPv4Key(2)] = 2;   // bucket 1
  table[IPv4Key(3)] = 3;   // bucket 1
  table[IPv4Key(4)] = 8;   // bucket 3
  const auto hist = metrics::FlowSizeHistogram(table, 8);
  EXPECT_DOUBLE_EQ(hist[0], 0.25);
  EXPECT_DOUBLE_EQ(hist[1], 0.5);
  EXPECT_DOUBLE_EQ(hist[3], 0.25);
}

TEST(FlowSizeHistogram, ClampsToLastBucket) {
  std::unordered_map<IPv4Key, uint64_t> table;
  table[IPv4Key(1)] = 1u << 30;
  const auto hist = metrics::FlowSizeHistogram(table, 4);
  EXPECT_DOUBLE_EQ(hist[3], 1.0);
}

TEST(FlowSizeHistogram, EmptyTable) {
  const auto hist =
      metrics::FlowSizeHistogram(std::unordered_map<IPv4Key, uint64_t>{}, 4);
  for (double h : hist) EXPECT_DOUBLE_EQ(h, 0.0);
}

TEST(HistogramDistance, IdenticalIsZeroDisjointIsOne) {
  EXPECT_DOUBLE_EQ(metrics::HistogramDistance({0.5, 0.5}, {0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(metrics::HistogramDistance({1.0, 0.0}, {0.0, 1.0}), 1.0);
}

TEST(HistogramDistance, HandlesLengthMismatch) {
  EXPECT_DOUBLE_EQ(metrics::HistogramDistance({1.0}, {1.0, 0.0}), 0.0);
}

TEST(EmpiricalEntropy, UniformIsLogN) {
  std::unordered_map<IPv4Key, uint64_t> table;
  for (uint32_t i = 0; i < 256; ++i) table[IPv4Key(i)] = 10;
  EXPECT_NEAR(metrics::EmpiricalEntropy(table), 8.0, 1e-9);
}

TEST(EmpiricalEntropy, SingleFlowIsZero) {
  std::unordered_map<IPv4Key, uint64_t> table;
  table[IPv4Key(1)] = 1000;
  EXPECT_DOUBLE_EQ(metrics::EmpiricalEntropy(table), 0.0);
}

TEST(DistributionEndToEnd, CocoDecodesUsableFsdAndEntropy) {
  // The decoded table approximates the true table's heavy side; FSD distance
  // and entropy error should be modest at 1MB for a 50k-flow trace.
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(500'000);
  const auto trace = trace::GenerateTrace(config);
  const auto truth = trace::CountTrace(trace);

  core::CocoSketch<FiveTuple> coco(MiB(1), 2);
  for (const Packet& p : trace) coco.Update(p.key, p.weight);
  const auto decoded = coco.Decode();

  const double true_entropy = metrics::EmpiricalEntropy(truth.counts());
  const double est_entropy = metrics::EmpiricalEntropy(decoded);
  EXPECT_NEAR(est_entropy, true_entropy, 0.20 * true_entropy);

  const auto true_hist = metrics::FlowSizeHistogram(truth.counts());
  const auto est_hist = metrics::FlowSizeHistogram(decoded);
  EXPECT_LT(metrics::HistogramDistance(true_hist, est_hist), 0.45);
}

TEST(ByteWeights, GeneratorProducesWireSizes) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(20000);
  config.weight_mode = trace::WeightMode::kBytes;
  const auto trace = trace::GenerateTrace(config);
  uint64_t total = 0;
  for (const Packet& p : trace) {
    ASSERT_GE(p.weight, 64u);
    ASSERT_LE(p.weight, 1500u);
    total += p.weight;
  }
  // Mean of the bimodal model is ~0.4*64 + 0.5*1500 + 0.1*~782 ~ 854 bytes.
  const double mean = static_cast<double>(total) / trace.size();
  EXPECT_NEAR(mean, 854.0, 60.0);
}

TEST(ByteWeights, HeavyHittersByBytesWorkEndToEnd) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(200'000);
  config.weight_mode = trace::WeightMode::kBytes;
  const auto trace = trace::GenerateTrace(config);
  const auto truth = trace::CountTrace(trace);

  core::CocoSketch<FiveTuple> coco(KiB(500), 2);
  for (const Packet& p : trace) coco.Update(p.key, p.weight);
  const uint64_t threshold = truth.Total() / 1000;
  const auto decoded = coco.Decode();
  size_t heavy = 0, found = 0;
  for (const auto& [key, bytes] : truth.HeavyHitters(threshold)) {
    ++heavy;
    auto it = decoded.find(key);
    found += (it != decoded.end() && it->second >= threshold);
  }
  ASSERT_GT(heavy, 0u);
  EXPECT_GT(static_cast<double>(found) / heavy, 0.9);
}

}  // namespace
}  // namespace coco
