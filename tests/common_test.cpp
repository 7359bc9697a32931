// Unit tests for src/common: byte packing, RNG statistics, size formatting,
// quantiles; and for src/metrics: mean accuracy and the ARE's summation
// order.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/sizes.h"
#include "metrics/accuracy.h"

namespace coco {
namespace {

TEST(Bytes, RoundTripBE16) {
  uint8_t buf[2];
  StoreBE16(buf, 0xbeef);
  EXPECT_EQ(LoadBE16(buf), 0xbeef);
  EXPECT_EQ(buf[0], 0xbe);  // big-endian: MSB first
  EXPECT_EQ(buf[1], 0xef);
}

TEST(Bytes, RoundTripBE32) {
  uint8_t buf[4];
  StoreBE32(buf, 0xdeadbeef);
  EXPECT_EQ(LoadBE32(buf), 0xdeadbeefu);
  EXPECT_EQ(buf[0], 0xde);
}

TEST(Bytes, RoundTripBE64) {
  uint8_t buf[8];
  StoreBE64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(LoadBE64(buf), 0x0123456789abcdefULL);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0xef);
}

TEST(Bytes, Ipv4ToString) {
  EXPECT_EQ(Ipv4ToString(0x01020304), "1.2.3.4");
  EXPECT_EQ(Ipv4ToString(0xffffffff), "255.255.255.255");
  EXPECT_EQ(Ipv4ToString(0), "0.0.0.0");
}

TEST(Bytes, HexDump) {
  const uint8_t data[] = {0x00, 0xab, 0xff};
  EXPECT_EQ(HexDump(data, 3), "00abff");
  EXPECT_EQ(HexDump(data, 0), "");
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextBelowCoversSupport) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);  // mean of U[0,1)
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-1.0));
    EXPECT_TRUE(rng.Bernoulli(2.0));
  }
}

TEST(Sizes, Literals) {
  EXPECT_EQ(KiB(1), 1024u);
  EXPECT_EQ(MiB(2), 2u * 1024 * 1024);
}

TEST(Sizes, Format) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(2048), "2.0KB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00MB");
}

TEST(Quantile, Basics) {
  std::vector<uint64_t> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(metrics::Quantile(sorted, 0.0), 1u);
  EXPECT_EQ(metrics::Quantile(sorted, 0.5), 6u);
  EXPECT_EQ(metrics::Quantile(sorted, 1.0), 10u);
  EXPECT_EQ(metrics::Quantile(sorted, 0.95), 10u);
}

TEST(Quantile, QuantileOrFallsBackOnEmptyInput) {
  // Regression: error-CDF paths fed Quantile() an empty per-flow error
  // vector (no flows survived the filter) and indexed element 0 of an
  // empty vector. QuantileOr is the safe entry for such callers.
  const std::vector<uint64_t> empty;
  EXPECT_EQ(metrics::QuantileOr(empty, 0.5), 0u);
  EXPECT_EQ(metrics::QuantileOr(empty, 0.99, 42), 42u);
  const std::vector<uint64_t> one = {7};
  EXPECT_EQ(metrics::QuantileOr(one, 0.5, 99), 7u);  // non-empty: real value
}

TEST(MeanAccuracy, AveragesFields) {
  metrics::Accuracy a;
  a.recall = 1.0;
  a.precision = 0.5;
  a.f1 = 0.6;
  a.are = 0.2;
  metrics::Accuracy b;
  b.recall = 0.0;
  b.precision = 1.0;
  b.f1 = 0.4;
  b.are = 0.4;
  const auto mean = metrics::MeanAccuracy({a, b});
  EXPECT_DOUBLE_EQ(mean.recall, 0.5);
  EXPECT_DOUBLE_EQ(mean.precision, 0.75);
  EXPECT_DOUBLE_EQ(mean.f1, 0.5);
  EXPECT_NEAR(mean.are, 0.3, 1e-12);
}

TEST(MeanAccuracy, EmptyIsZero) {
  const auto mean = metrics::MeanAccuracy({});
  EXPECT_EQ(mean.recall, 0.0);
  EXPECT_EQ(mean.f1, 0.0);
}

TEST(ScoreThreshold, AreDoesNotDependOnTruthOrder) {
  // Relative errors 1, 2^-53 and 2^-53 add up to 1 in that order but to
  // 1 + 2^-52 smallest first, so a sum in the truth's iteration order moves
  // the ARE with the container's order. One truth in two orders must score
  // bit-identically.
  const uint64_t big = uint64_t{1} << 53;
  const std::map<uint64_t, uint64_t> estimates = {
      {1, 8}, {2, big + 1}, {3, big + 1}};
  const std::vector<std::pair<uint64_t, uint64_t>> truth = {
      {1, 4}, {2, big}, {3, big}};
  const std::vector<std::pair<uint64_t, uint64_t>> reordered = {
      {2, big}, {3, big}, {1, 4}};
  const auto a = metrics::ScoreThreshold(estimates, truth, 1);
  const auto b = metrics::ScoreThreshold(estimates, reordered, 1);
  EXPECT_EQ(a.true_count, 3u);
  EXPECT_EQ(a.are, b.are);
  EXPECT_EQ(a.are, (1.0 + 0x1p-52) / 3);
}

}  // namespace
}  // namespace coco
