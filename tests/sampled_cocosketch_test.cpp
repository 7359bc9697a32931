// Tests for the NitroSketch-style sampling front-end.
#include <gtest/gtest.h>

#include <vector>

#include "common/sizes.h"
#include "core/sampled_cocosketch.h"
#include "packet/keys.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace coco::core {
namespace {

TEST(SampledCoco, ProbabilityOneIsPassthrough) {
  SampledCocoSketch<IPv4Key> sampled(KiB(64), 1.0, 2, 42);
  CocoSketch<IPv4Key> plain(KiB(64), 2, 42);
  for (int i = 0; i < 5000; ++i) {
    sampled.Update(IPv4Key(static_cast<uint32_t>(i % 100)), 1);
    plain.Update(IPv4Key(static_cast<uint32_t>(i % 100)), 1);
  }
  for (uint32_t k = 0; k < 100; ++k) {
    EXPECT_EQ(sampled.Query(IPv4Key(k)), plain.Query(IPv4Key(k)));
  }
}

TEST(SampledCoco, InsertedMassIsUnbiased) {
  // Over the whole stream, E[inserted mass] = true mass. Check the sampled
  // total lands within a few percent for a long stream.
  const uint64_t n = 400000;
  for (double p : {0.5, 0.25, 0.1}) {
    SampledCocoSketch<IPv4Key> sampled(MiB(1), p, 2, 7);
    Rng rng(3);
    for (uint64_t i = 0; i < n; ++i) {
      sampled.Update(IPv4Key(static_cast<uint32_t>(rng.NextBelow(64))), 1);
    }
    EXPECT_NEAR(static_cast<double>(sampled.inner().TotalValue()),
                static_cast<double>(n), 0.03 * static_cast<double>(n))
        << "p=" << p;
  }
}

TEST(SampledCoco, HeavyFlowEstimateTracksTruth) {
  SampledCocoSketch<IPv4Key> sampled(KiB(256), 0.2, 2, 9);
  Rng rng(4);
  const uint64_t heavy_count = 100000;
  for (uint64_t i = 0; i < heavy_count; ++i) {
    sampled.Update(IPv4Key(0xbeef), 1);
    sampled.Update(IPv4Key(static_cast<uint32_t>(rng.NextBelow(5000)) + 1),
                   1);
  }
  EXPECT_NEAR(static_cast<double>(sampled.Query(IPv4Key(0xbeef))),
              static_cast<double>(heavy_count),
              0.1 * static_cast<double>(heavy_count));
}

TEST(SampledCoco, HeavyHittersSurviveSampling) {
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(300000));
  const auto truth = trace::CountTrace(trace);
  const uint64_t threshold = truth.Total() / 1000;

  SampledCocoSketch<FiveTuple> sampled(KiB(500), 0.25, 2, 11);
  for (const Packet& p : trace) sampled.Update(p.key, p.weight);
  const auto decoded = sampled.Decode();
  size_t heavy = 0, found = 0;
  for (const auto& [key, count] : truth.HeavyHitters(threshold)) {
    ++heavy;
    auto it = decoded.find(key);
    found += (it != decoded.end() && it->second >= threshold / 2);
  }
  ASSERT_GT(heavy, 0u);
  EXPECT_GT(static_cast<double>(found) / heavy, 0.85);
}

TEST(SampledCoco, ClearResetsState) {
  SampledCocoSketch<IPv4Key> sampled(KiB(16), 0.5, 2);
  for (int i = 0; i < 1000; ++i) sampled.Update(IPv4Key(1), 1);
  sampled.Clear();
  EXPECT_EQ(sampled.Query(IPv4Key(1)), 0u);
  EXPECT_EQ(sampled.inner().TotalValue(), 0u);
}

TEST(SampledCoco, RejectsBadProbability) {
  EXPECT_DEATH(SampledCocoSketch<IPv4Key>(KiB(16), 0.0), "probability");
  EXPECT_DEATH(SampledCocoSketch<IPv4Key>(KiB(16), 1.5), "probability");
}

// The gate is also used standalone by the datapath's degradation ladder
// (ovs/scaleout.cpp), so its contract gets direct coverage.
TEST(SamplingGate, SameSeedSameDecisions) {
  SamplingGate a(0.25, 77), b(0.25, 77);
  for (int i = 0; i < 20000; ++i) {
    const bool admit_a = a.Admit();
    ASSERT_EQ(admit_a, b.Admit()) << "diverged at packet " << i;
    if (admit_a) {
      ASSERT_EQ(a.CompensatedWeight(3), b.CompensatedWeight(3));
    }
  }
}

TEST(SamplingGate, CompensatedMassIsUnbiased) {
  // Sum of compensated weights over admitted packets estimates the offered
  // mass: E[sum] = n * w for every p.
  const int n = 200000;
  for (double p : {0.5, 0.25, 0.1}) {
    SamplingGate gate(p, 13);
    uint64_t admitted = 0, mass = 0;
    for (int i = 0; i < n; ++i) {
      if (!gate.Admit()) continue;
      ++admitted;
      mass += gate.CompensatedWeight(1);
    }
    EXPECT_NEAR(static_cast<double>(admitted), p * n, 0.05 * p * n)
        << "p=" << p;
    EXPECT_NEAR(static_cast<double>(mass), static_cast<double>(n),
                0.03 * static_cast<double>(n))
        << "p=" << p;
  }
}

TEST(SamplingGate, ProbabilityOneAdmitsEverythingUnscaled) {
  SamplingGate gate(1.0, 5);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(gate.Admit());
    ASSERT_EQ(gate.CompensatedWeight(7), 7u);
  }
}

TEST(SamplingGate, ResetRestartsTheDecisionSequence) {
  SamplingGate gate(0.3, 21);
  std::vector<bool> first;
  for (int i = 0; i < 5000; ++i) first.push_back(gate.Admit());
  gate.Reset();
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(gate.Admit(), first[static_cast<size_t>(i)])
        << "diverged at packet " << i;
  }
}

}  // namespace
}  // namespace coco::core
