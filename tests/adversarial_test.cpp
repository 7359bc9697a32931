// Adversarial-workload hardening tests (docs/ROBUSTNESS.md "Threat model &
// adversarial hardening"):
//
//  * the white-box collision generator really crafts full d-way collisions;
//  * the attack monitor confirms collision crafting and churn floods, stays
//    silent on honest Zipf traffic, and distinguishes the two classes;
//  * seed rotation conserves mass, defeats the crafted key set, and
//    composes with the datapath (detect -> alarm -> rotate) without breaking
//    the conservation invariant;
//  * the unbiasedness property (Lemma 3 / Lemma 4) holds on uniform
//    no-heavy-tail traffic — the workload with nowhere to hide — for both
//    variants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/sizes.h"
#include "core/attack_monitor.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"
#include "core/merge.h"
#include "core/seed_rotation.h"
#include "hash/multihash.h"
#include "obs/metrics.h"
#include "ovs/scaleout.h"
#include "packet/keys.h"
#include "query/flow_table.h"
#include "trace/adversarial.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace coco {
namespace {

using core::AttackMonitor;
using core::CocoSketch;
using core::HwCocoSketch;
using Verdict = core::AttackMonitor::Verdict;

constexpr uint64_t kFixedSeed = 0xc0c0;  // the historical fixed-seed deploy

// Honest background with few enough flows that the sketch stays well below
// saturation — the regime where the occupancy-stall signal is meaningful
// (and the regime real per-queue partitions run in; a saturated sketch is
// already a provisioning bug).
std::vector<Packet> HonestTrace(size_t packets, uint64_t seed = 1) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(packets);
  config.num_flows = 300;
  config.num_networks = 32;
  config.seed = seed;
  return trace::GenerateTrace(config);
}

std::vector<FiveTuple> TopFlows(const std::vector<Packet>& packets, size_t n) {
  trace::ExactCounter<FiveTuple> truth;
  for (const Packet& p : packets) truth.Add(p.key, p.weight);
  auto hh = truth.HeavyHitters(1);
  std::sort(hh.begin(), hh.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (hh.size() > n) hh.resize(n);
  std::vector<FiveTuple> keys;
  keys.reserve(hh.size());
  for (const auto& [key, count] : hh) keys.push_back(key);
  return keys;
}

// Drives `packets` through `sketch` while observing the monitor every
// `window` updates; returns the strongest verdict seen.
template <typename Sketch>
Verdict RunMonitored(Sketch* sketch, AttackMonitor* monitor,
                     const std::vector<Packet>& packets, uint64_t window) {
  Verdict strongest = Verdict::kHonest;
  uint64_t since = 0;
  for (const Packet& p : packets) {
    sketch->Update(p.key, p.weight);
    if (++since >= window) {
      since = 0;
      const Verdict v = monitor->ObserveWindow(sketch->Stats());
      if (static_cast<int>(v) > static_cast<int>(strongest)) strongest = v;
    }
  }
  return strongest;
}

// ---- White-box collision crafting ----------------------------------------

TEST(CollisionCraft, CraftedKeysShareAllVictimBuckets) {
  const size_t d = 2;
  const size_t l = 64;  // tiny: l^d = 4096 candidate cost per victim
  std::vector<FiveTuple> victims;
  for (uint32_t v = 0; v < 4; ++v) {
    victims.push_back(FiveTuple(0x0a000000 + v, 0xc0000001, 1000, 443, 6));
  }
  const auto attack = trace::CraftCollisionKeys(
      kFixedSeed, d, l, victims, /*keys_per_victim=*/6,
      /*candidate_budget=*/2'000'000, /*search_seed=*/7);
  ASSERT_EQ(attack.victims_targeted, victims.size());
  ASSERT_EQ(attack.keys.size(), victims.size() * 6);

  // Every crafted key maps to SOME victim's exact slot vector, in all d
  // arrays simultaneously — the property that makes the attack work.
  hash::MultiHash mh(kFixedSeed, d, l);
  std::vector<std::vector<uint32_t>> victim_slots;
  for (const auto& v : victims) {
    std::vector<uint32_t> slots(d);
    mh.Slots(v.data(), v.size(), slots.data());
    victim_slots.push_back(slots);
  }
  for (const auto& key : attack.keys) {
    std::vector<uint32_t> slots(d);
    mh.Slots(key.data(), key.size(), slots.data());
    bool matches_some_victim = false;
    for (const auto& vs : victim_slots) matches_some_victim |= slots == vs;
    EXPECT_TRUE(matches_some_victim);
  }
}

TEST(CollisionCraft, CraftedSetIsWorthlessUnderAnotherSeed) {
  const size_t d = 2;
  const size_t l = 256;
  std::vector<FiveTuple> victims{FiveTuple(1, 2, 3, 4, 6)};
  const auto attack = trace::CraftCollisionKeys(
      kFixedSeed, d, l, victims, 8, 4'000'000, 11);
  ASSERT_GE(attack.keys.size(), 4u);

  // Under a different seed the crafted keys scatter: the chance any one key
  // still fully collides with the victim is l^-d ~ 1.5e-5.
  hash::MultiHash rotated(0x7a7a7a7a, d, l);
  std::vector<uint32_t> vs(d), ks(d);
  rotated.Slots(victims[0].data(), victims[0].size(), vs.data());
  size_t still_colliding = 0;
  for (const auto& key : attack.keys) {
    rotated.Slots(key.data(), key.size(), ks.data());
    still_colliding += (ks == vs);
  }
  EXPECT_EQ(still_colliding, 0u);
}

// ---- Online detection -----------------------------------------------------

AttackMonitor::Options TestMonitorOptions() {
  AttackMonitor::Options o;
  o.min_window_updates = 1024;
  return o;
}

TEST(AttackMonitor, ConfirmsCollisionAttack) {
  CocoSketch<FiveTuple> sketch(KiB(8), 2, kFixedSeed);
  const auto honest = HonestTrace(40'000);
  const auto victims = TopFlows(honest, 8);
  const auto attack = trace::CraftCollisionKeys(
      kFixedSeed, sketch.d(), sketch.l(), victims, 16, 30'000'000, 3);
  ASSERT_GT(attack.victims_targeted, 0u);
  const auto hostile =
      trace::BuildCollisionTrace(honest, attack, 40'000, /*start=*/0.5);

  AttackMonitor monitor(TestMonitorOptions());
  const Verdict v =
      RunMonitored(&sketch, &monitor, hostile.packets, /*window=*/4096);
  EXPECT_EQ(v, Verdict::kCollisionConfirmed);
}

TEST(AttackMonitor, SilentOnHonestZipfTraffic) {
  CocoSketch<FiveTuple> sketch(KiB(8), 2, kFixedSeed);
  AttackMonitor monitor(TestMonitorOptions());
  const Verdict v =
      RunMonitored(&sketch, &monitor, HonestTrace(80'000), 4096);
  EXPECT_FALSE(AttackMonitor::Confirmed(v));
}

TEST(AttackMonitor, ClassifiesFlashCrowdAsChurnFloodNotCollision) {
  // A flash crowd of fresh uncrafted flows saturates the structure and keeps
  // churning it — elevated replacement churn, but no seed-targeted bucket
  // concentration. It must be classified as the seed-INDEPENDENT class
  // (rotation would not help; degradation is the remedy).
  CocoSketch<FiveTuple> sketch(KiB(8), 2, kFixedSeed);
  const auto honest = HonestTrace(30'000);
  const auto hostile = trace::BuildFlashCrowdTrace(
      honest, /*crowd_flows=*/20'000, /*packets_per_flow=*/4, 0.3, 99);

  AttackMonitor monitor(TestMonitorOptions());
  Verdict strongest = Verdict::kHonest;
  uint64_t since = 0;
  bool saw_collision_confirm = false;
  for (const Packet& p : hostile.packets) {
    sketch.Update(p.key, p.weight);
    if (++since >= 4096) {
      since = 0;
      const Verdict v = monitor.ObserveWindow(sketch.Stats());
      saw_collision_confirm |= v == Verdict::kCollisionConfirmed;
      if (static_cast<int>(v) > static_cast<int>(strongest)) strongest = v;
    }
  }
  EXPECT_TRUE(AttackMonitor::Confirmed(strongest));
  EXPECT_FALSE(saw_collision_confirm);
  EXPECT_EQ(strongest, Verdict::kChurnFloodConfirmed);
}

// ---- Seed rotation --------------------------------------------------------

TEST(SeedRotation, ConservesMassAndFlowEstimates) {
  CocoSketch<FiveTuple> sketch(KiB(16), 2, kFixedSeed);
  const auto honest = HonestTrace(60'000);
  uint64_t mass = 0;
  for (const Packet& p : honest) {
    sketch.Update(p.key, p.weight);
    mass += p.weight;
  }
  ASSERT_EQ(sketch.TotalValue(), mass);
  const auto before = sketch.Decode();

  const auto stats = core::RotateSeed(&sketch, uint64_t{0x5eed5eed});
  EXPECT_TRUE(stats.mass_conserved);
  EXPECT_EQ(stats.old_seed, kFixedSeed);
  EXPECT_EQ(stats.new_seed, 0x5eed5eedu);
  EXPECT_EQ(stats.mass_before, mass);
  EXPECT_EQ(stats.mass_after, mass);
  EXPECT_EQ(sketch.seed(), 0x5eed5eedu);
  EXPECT_EQ(sketch.TotalValue(), mass);

  // The decoded view survives the swap: same total, and the replay's
  // heavy-first order keeps the top flows' estimates close (replay into a
  // near-empty structure rarely evicts a heavy key).
  const auto after = sketch.Decode();
  uint64_t after_mass = 0;
  for (const auto& [key, value] : after) after_mass += value;
  EXPECT_EQ(after_mass, mass);
  const auto victims = TopFlows(honest, 5);
  for (const auto& v : victims) {
    const auto it_b = before.find(v);
    const auto it_a = after.find(v);
    ASSERT_NE(it_b, before.end());
    ASSERT_NE(it_a, after.end());
    EXPECT_GT(it_a->second, it_b->second / 2);
  }
}

TEST(SeedRotation, HwVariantConservesReplayedEstimateMass) {
  HwCocoSketch<FiveTuple> sketch(KiB(16), 2, core::DivisionMode::kExact,
                                 kFixedSeed);
  const auto honest = HonestTrace(40'000);
  for (const Packet& p : honest) sketch.Update(p.key, p.weight);

  const auto stats = core::RotateSeed(&sketch, uint64_t{0x5eed5eed});
  // Hw records each update in all d arrays: raw mass after replay is d x the
  // replayed (median-decoded) estimate mass.
  EXPECT_TRUE(stats.mass_conserved);
  EXPECT_EQ(stats.mass_after, sketch.d() * stats.replayed_mass);
  EXPECT_EQ(sketch.seed(), 0x5eed5eedu);
}

TEST(SeedRotation, RecoversAccuracyUnderSustainedAttack) {
  // Fixed seed, attack keeps running: victims' estimates collapse. With the
  // same attack stream but a mid-stream rotation, the crafted set stops
  // colliding and the victims' estimates survive.
  const auto honest = HonestTrace(50'000);
  const auto victims = TopFlows(honest, 6);
  trace::ExactCounter<FiveTuple> truth;

  CocoSketch<FiveTuple> attacked(KiB(16), 2, kFixedSeed);
  CocoSketch<FiveTuple> rotated(KiB(16), 2, kFixedSeed);
  const auto attack = trace::CraftCollisionKeys(
      kFixedSeed, attacked.d(), attacked.l(), victims, 16, 60'000'000, 5);
  ASSERT_GT(attack.victims_targeted, victims.size() / 2);
  const auto hostile =
      trace::BuildCollisionTrace(honest, attack, 100'000, 0.5);
  for (const Packet& p : hostile.packets) truth.Add(p.key, p.weight);

  for (size_t i = 0; i < hostile.packets.size(); ++i) {
    attacked.Update(hostile.packets[i].key, hostile.packets[i].weight);
    rotated.Update(hostile.packets[i].key, hostile.packets[i].weight);
    // Rotate shortly after the attack turns on (the detector's job in the
    // datapath; here the response is applied directly).
    if (i == hostile.attack_start + 8192) {
      const auto stats = core::RotateSeed(&rotated, uint64_t{0xfeedface});
      ASSERT_TRUE(stats.mass_conserved);
    }
  }

  // Sum of victims' absolute estimation errors, both sketches.
  const auto attacked_table = attacked.Decode();
  const auto rotated_table = rotated.Decode();
  auto total_error = [&](const query::FlowTable<FiveTuple>& table) {
    double err = 0;
    for (const auto& v : victims) {
      const auto it = table.find(v);
      const double est =
          it == table.end() ? 0.0 : static_cast<double>(it->second);
      err += std::abs(est - static_cast<double>(truth.Count(v)));
    }
    return err;
  };
  // Rotation must beat riding out the attack on the compromised seed by a
  // wide margin on the targeted flows.
  EXPECT_LT(total_error(rotated_table), total_error(attacked_table) / 2);
}

// ---- Datapath composition (detect -> alarm -> rotate) ---------------------

TEST(DatapathAttack, DetectsRotatesAndConservesPackets) {
  ovs::ScaleoutConfig config;
  config.num_shards = 1;
  config.num_workers = 1;
  config.nic_rate_mpps = 1000.0;  // uncapped: this test is not about pacing
  config.sketch_memory_bytes = KiB(16);
  config.seed = kFixedSeed;
  config.attack_window_packets = 8192;
  config.attack_options.min_window_updates = 1024;
  config.rotate_on_attack = true;
  config.rotation_seed = 0x0123;  // deterministic rotation targets
  obs::Registry registry;
  config.registry = &registry;

  // Craft against the shard-0 sketch's exact geometry and seed.
  CocoSketch<FiveTuple> ref(config.sketch_memory_bytes, 2, config.seed);
  const auto honest = HonestTrace(60'000);
  const auto victims = TopFlows(honest, 8);
  const auto attack = trace::CraftCollisionKeys(
      config.seed, ref.d(), ref.l(), victims, 16, 60'000'000, 13);
  ASSERT_GT(attack.victims_targeted, 0u);
  const auto hostile =
      trace::BuildCollisionTrace(honest, attack, 80'000, 0.4);

  const auto result = ovs::RunScaleout(config, hostile.packets);
  EXPECT_GT(result.health.collision_attacks_confirmed, 0u);
  EXPECT_GT(result.health.seed_rotations, 0u);
  EXPECT_TRUE(result.health.rotation_mass_conserved);
  // Packet conservation holds ACROSS the rotation epoch swap.
  const auto c = ovs::ReadConservation(&registry, config.metrics_prefix);
  EXPECT_TRUE(c.Holds());
  EXPECT_EQ(result.packets_processed, hostile.packets.size());
  // And the merged table still accounts every unit of mass.
  uint64_t merged_mass = 0;
  for (const auto& [key, value] : result.merged_table) merged_mass += value;
  uint64_t offered_mass = 0;
  for (const Packet& p : hostile.packets) offered_mass += p.weight;
  EXPECT_EQ(merged_mass, offered_mass);
}

TEST(DatapathAttack, HonestTrafficNeverTriggersResponse) {
  ovs::ScaleoutConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  config.nic_rate_mpps = 1000.0;
  config.sketch_memory_bytes = KiB(32);
  config.seed = kFixedSeed;
  config.attack_window_packets = 8192;
  config.attack_options.min_window_updates = 1024;
  config.rotate_on_attack = true;
  config.rotation_seed = 0xabc;

  const auto result = ovs::RunScaleout(config, HonestTrace(120'000));
  EXPECT_EQ(result.health.collision_attacks_confirmed, 0u);
  EXPECT_EQ(result.health.churn_floods_confirmed, 0u);
  EXPECT_EQ(result.health.seed_rotations, 0u);
  EXPECT_EQ(result.health.attack_degrade_forced, 0u);
}

// ---- Unbiasedness on uniform no-heavy-tail traffic ------------------------

// Uniform traffic has no heavy hitters to hide behind, so per-flow
// unbiasedness (Lemma 3) is the only accuracy defence. Estimates summed over
// ALL flows are vacuously exact (mass conservation), so the test probes a
// strict subset of flows, across independent trials, and requires the MEAN
// SIGNED error to be centred on zero.
TEST(Unbiasedness, UniformTrafficEstimatesCentredOnZero) {
  const size_t kFlows = 1500;
  const size_t kPackets = 25'000;
  const size_t kProbe = 300;   // strict subset
  const int kTrials = 30;
  const double kTrueSize =
      static_cast<double>(kPackets) / static_cast<double>(kFlows);

  double signed_error_sum = 0;
  size_t samples = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t seed = 0xace0 + static_cast<uint64_t>(trial);
    const auto packets = trace::GenerateUniformTrace(kPackets, kFlows, seed);
    trace::ExactCounter<FiveTuple> truth;
    std::vector<FiveTuple> probe;
    for (const Packet& p : packets) {
      truth.Add(p.key, p.weight);
      if (probe.size() < kProbe &&
          truth.Count(p.key) == p.weight) {  // first sighting
        probe.push_back(p.key);
      }
    }
    CocoSketch<FiveTuple> sketch(KiB(8), 2, seed * 2 + 1);
    for (const Packet& p : packets) sketch.Update(p.key, p.weight);
    const auto table = sketch.Decode();
    for (const auto& key : probe) {
      const auto it = table.find(key);
      const double est =
          it == table.end() ? 0.0 : static_cast<double>(it->second);
      signed_error_sum += est - static_cast<double>(truth.Count(key));
      ++samples;
    }
  }
  const double mean_signed = signed_error_sum / static_cast<double>(samples);
  EXPECT_LT(std::abs(mean_signed), 0.35 * kTrueSize)
      << "mean signed error " << mean_signed << " vs true size " << kTrueSize;
}

TEST(Unbiasedness, HwVariantPerArrayEstimatesCentredOnZero) {
  // Lemma 4: each array of the hardware variant is individually unbiased.
  const size_t kFlows = 1200;
  const size_t kPackets = 20'000;
  const size_t kProbe = 250;
  const int kTrials = 30;
  const double kTrueSize =
      static_cast<double>(kPackets) / static_cast<double>(kFlows);

  double signed_error_sum = 0;
  size_t samples = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t seed = 0xbead + static_cast<uint64_t>(trial);
    const auto packets = trace::GenerateUniformTrace(kPackets, kFlows, seed);
    trace::ExactCounter<FiveTuple> truth;
    std::vector<FiveTuple> probe;
    for (const Packet& p : packets) {
      truth.Add(p.key, p.weight);
      if (probe.size() < kProbe && truth.Count(p.key) == p.weight) {
        probe.push_back(p.key);
      }
    }
    HwCocoSketch<FiveTuple> sketch(KiB(8), 2, core::DivisionMode::kExact,
                                   seed * 2 + 1);
    for (const Packet& p : packets) sketch.Update(p.key, p.weight);
    for (const auto& key : probe) {
      signed_error_sum +=
          static_cast<double>(sketch.EstimateInArray(0, key)) -
          static_cast<double>(truth.Count(key));
      ++samples;
    }
  }
  const double mean_signed = signed_error_sum / static_cast<double>(samples);
  EXPECT_LT(std::abs(mean_signed), 0.35 * kTrueSize)
      << "mean signed error " << mean_signed << " vs true size " << kTrueSize;
}

// ---- Keyed-hashing defaults ----------------------------------------------

TEST(KeyedHashing, DefaultSketchesShareTheProcessSeed) {
  // Default-constructed sketches draw the per-process entropy seed: non-zero,
  // not the historical constant, and shared within the process so merge and
  // restore stay compatible by default.
  CocoSketch<FiveTuple> a(KiB(8));
  CocoSketch<FiveTuple> b(KiB(8));
  EXPECT_EQ(a.seed(), b.seed());
  EXPECT_EQ(a.seed(), ProcessSeed());
  EXPECT_NE(a.seed(), 0u);

  a.Update(FiveTuple(1, 2, 3, 4, 6), 10);
  Rng rng(1);
  EXPECT_TRUE(core::MergeSketches(&b, a, &rng).ok);
  CocoSketch<FiveTuple> c(KiB(8));
  EXPECT_TRUE(c.RestoreState(a.SerializeState()));
}

}  // namespace
}  // namespace coco
