// Tests for the SPSC ring buffer, the OVS datapath simulation, and the
// fault-tolerance layer (overflow policies, degradation ladder, fault
// injection, watchdog + checkpoint recovery).
#include <gtest/gtest.h>

#include <thread>

#include "metrics/accuracy.h"
#include "ovs/degrade.h"
#include "ovs/fault.h"
#include "ovs/scaleout.h"
#include "ovs/spsc_ring.h"
#include "ovs/watchdog.h"
#include "trace/generators.h"

// True when this TU is built under TSan or ASan (COCO_SANITIZE presets).
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__) || \
    __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define COCO_TEST_SANITIZED 1
#else
#define COCO_TEST_SANITIZED 0
#endif

namespace coco::ovs {
namespace {

// A datapath of `shards` shards; RunScaleout runs one worker per shard.
ScaleoutConfig OneWorkerPerShard(size_t shards) {
  ScaleoutConfig config;
  config.num_shards = shards;
  config.num_workers = shards;
  return config;
}

TEST(SpscRing, FifoSingleThread) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_FALSE(ring.TryPush(99));  // full
  int out;
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(ring.PopBatch(&out, 1), 1u);
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(ring.PopBatch(&out, 1), 0u);  // empty
}

TEST(SpscRing, WrapsAround) {
  SpscRing<int> ring(4);
  int out;
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(ring.TryPush(round));
    ASSERT_TRUE(ring.TryPush(round + 1000));
    ASSERT_EQ(ring.PopBatch(&out, 1), 1u);
    EXPECT_EQ(out, round);
    ASSERT_EQ(ring.PopBatch(&out, 1), 1u);
    EXPECT_EQ(out, round + 1000);
  }
}

TEST(SpscRing, TwoThreadStressPreservesSequence) {
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kCount = 300'000;
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!ring.TryPush(i)) {
        std::this_thread::yield();  // single-core machines need the handoff
      }
    }
  });
  uint64_t expected = 0;
  uint64_t value;
  while (expected < kCount) {
    if (ring.PopBatch(&value, 1) == 1) {
      ASSERT_EQ(value, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(ring.PopBatch(&value, 1), 0u);
}

TEST(SpscRing, PopBatchDrainsInOrder) {
  SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ring.TryPush(i));
  int out[16];
  // Batch smaller than occupancy: partial drain.
  EXPECT_EQ(ring.PopBatch(out, 4), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
  // Batch larger than occupancy: returns what's there.
  EXPECT_EQ(ring.PopBatch(out, 16), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[i], i + 4);
  EXPECT_EQ(ring.PopBatch(out, 16), 0u);  // empty
}

TEST(SpscRing, PopBatchTwoThreadStressPreservesSequence) {
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kCount = 300'000;
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!ring.TryPush(i)) {
        std::this_thread::yield();
      }
    }
  });
  uint64_t expected = 0;
  uint64_t batch[32];
  while (expected < kCount) {
    const size_t n = ring.PopBatch(batch, 32);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batch[i], expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(ring.PopBatch(batch, 32), 0u);
}

TEST(SpscRing, PushOrDropCountsDrops) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.PushOrDrop(i));
  EXPECT_EQ(ring.rx_dropped(), 0u);
  EXPECT_FALSE(ring.PushOrDrop(99));
  EXPECT_FALSE(ring.PushOrDrop(100));
  EXPECT_EQ(ring.rx_dropped(), 2u);
  // Dropped records never entered the ring: FIFO contents are untouched.
  int out;
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(ring.PopBatch(&out, 1), 1u);
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(ring.PopBatch(&out, 1), 0u);
}

TEST(SpscRing, SizeApproxTracksOccupancy) {
  SpscRing<int> ring(8);
  EXPECT_EQ(ring.SizeApprox(), 0u);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.TryPush(i));
  EXPECT_EQ(ring.SizeApprox(), 5u);
  int out;
  ASSERT_EQ(ring.PopBatch(&out, 1), 1u);
  ASSERT_EQ(ring.PopBatch(&out, 1), 1u);
  EXPECT_EQ(ring.SizeApprox(), 3u);
  // Wrap-around does not confuse the occupancy.
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(ring.TryPush(round));
    ASSERT_EQ(ring.PopBatch(&out, 1), 1u);
    EXPECT_EQ(ring.SizeApprox(), 3u);
  }
}

TEST(DegradeLadder, HysteresisBand) {
  DegradeLadder ladder(0.75, 0.25, 100);  // engage >= 75, release <= 25
  EXPECT_FALSE(ladder.OnOccupancy(50));
  EXPECT_FALSE(ladder.OnOccupancy(74));
  EXPECT_TRUE(ladder.OnOccupancy(75));  // cross high: degrade
  EXPECT_EQ(ladder.enter_events(), 1u);
  // Inside the band, the mode is sticky — no flapping.
  EXPECT_TRUE(ladder.OnOccupancy(50));
  EXPECT_TRUE(ladder.OnOccupancy(26));
  EXPECT_FALSE(ladder.OnOccupancy(25));  // cross low: back to exact
  EXPECT_FALSE(ladder.OnOccupancy(74));  // band again, still exact
  EXPECT_TRUE(ladder.OnOccupancy(90));
  EXPECT_EQ(ladder.enter_events(), 2u);
}

TEST(DegradeLadder, TruncationCannotCollapseTheHysteresisBand) {
  // Regression: high=0.9, low=0.89 on a 16-slot ring both truncate to 14,
  // which made occupancy 14 enter AND exit degraded mode on alternating
  // polls — a transition storm with no hysteresis. The constructor must
  // keep low strictly below high after truncation.
  DegradeLadder ladder(0.9, 0.89, 16);
  EXPECT_LT(ladder.low_mark(), ladder.high_mark());
  EXPECT_EQ(ladder.high_mark(), 14u);
  EXPECT_EQ(ladder.low_mark(), 13u);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(ladder.OnOccupancy(14));
  EXPECT_EQ(ladder.enter_events(), 1u);  // pre-fix: 5 enters + 5 exits
  EXPECT_EQ(ladder.exit_events(), 0u);
  EXPECT_FALSE(ladder.OnOccupancy(13));  // the band still releases below
  EXPECT_EQ(ladder.exit_events(), 1u);
}

TEST(DegradeLadder, ExitEventsTrackReleases) {
  DegradeLadder ladder(0.75, 0.25, 100);
  EXPECT_EQ(ladder.exit_events(), 0u);
  ladder.OnOccupancy(80);
  ladder.OnOccupancy(20);
  ladder.OnOccupancy(90);
  EXPECT_EQ(ladder.enter_events(), 2u);
  EXPECT_EQ(ladder.exit_events(), 1u);  // still degraded after the last poll
}

TEST(DegradeLadder, SameSequenceSameCounters) {
  // Determinism contract for the health counters: identical occupancy
  // sequences yield identical ladder decisions and transition counts.
  const size_t occ[] = {10, 80, 90, 30, 20, 76, 75, 10, 99, 0};
  DegradeLadder a(0.75, 0.25, 100);
  DegradeLadder b(0.75, 0.25, 100);
  for (size_t o : occ) EXPECT_EQ(a.OnOccupancy(o), b.OnOccupancy(o));
  EXPECT_EQ(a.enter_events(), b.enter_events());
  EXPECT_EQ(a.enter_events(), 3u);
}

TEST(StallDetector, FiresOncePerEpisodeAndRearms) {
  StallDetector det(100);
  EXPECT_FALSE(det.Observe(0, 0, true));
  EXPECT_FALSE(det.Observe(0, 99, true));   // not yet timed out
  EXPECT_TRUE(det.Observe(0, 100, true));   // stall detected
  EXPECT_FALSE(det.Observe(0, 500, true));  // same episode: no re-fire
  EXPECT_FALSE(det.Observe(7, 600, true));  // progress: re-arm
  EXPECT_FALSE(det.Observe(7, 650, true));
  EXPECT_TRUE(det.Observe(7, 700, true));   // second episode
}

TEST(StallDetector, IdleQueueIsNotAStall) {
  StallDetector det(100);
  EXPECT_FALSE(det.Observe(42, 0, false));
  // Frozen progress with no pending work is a drained queue, not a stall.
  EXPECT_FALSE(det.Observe(42, 1000, false));
  EXPECT_TRUE(det.Observe(42, 1001, true));
}

TEST(CheckpointStore, KeepsTwoNewestImages) {
  CheckpointStore store;
  EXPECT_TRUE(store.Candidates().empty());
  store.Put(1, 1000, {1, 2, 3});
  store.Put(2, 2000, {4, 5, 6});
  store.Put(3, 3000, {7, 8, 9});
  const auto images = store.Candidates();
  ASSERT_EQ(images.size(), 2u);
  EXPECT_EQ(images[0].seq, 3u);  // newest first
  EXPECT_EQ(images[0].progress, 3000u);
  EXPECT_EQ(images[1].seq, 2u);
  EXPECT_EQ(store.count(), 3u);
}

TEST(FaultInjector, EventsFireOnceAtTheirTrigger) {
  FaultPlan plan;
  plan.stalls.push_back({0, 1000, 50});
  plan.kills.push_back({1, 2000});
  FaultInjector injector(plan);
  EXPECT_EQ(injector.StallMs(0, 999), 0u);
  EXPECT_EQ(injector.StallMs(1, 5000), 0u);  // wrong queue
  EXPECT_EQ(injector.StallMs(0, 1000), 50u);
  EXPECT_EQ(injector.StallMs(0, 2000), 0u);  // fired once
  EXPECT_FALSE(injector.ShouldKill(1, 1999));
  EXPECT_FALSE(injector.ShouldKill(0, 9999));
  EXPECT_TRUE(injector.ShouldKill(1, 2000));
  EXPECT_FALSE(injector.ShouldKill(1, 3000));
  EXPECT_EQ(injector.stalls_fired(), 1u);
  EXPECT_EQ(injector.kills_fired(), 1u);
}

TEST(FaultInjector, CorruptionIsDeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 0xabc;
  plan.corruptions.push_back({0, 2});
  const std::vector<uint8_t> original(128, 0x5a);

  FaultInjector a(plan);
  std::vector<uint8_t> image_a = original;
  EXPECT_FALSE(a.MaybeCorrupt(0, 1, &image_a));  // wrong seq
  EXPECT_EQ(image_a, original);
  EXPECT_TRUE(a.MaybeCorrupt(0, 2, &image_a));
  EXPECT_NE(image_a, original);

  FaultInjector b(plan);  // same plan, fresh injector: identical flips
  std::vector<uint8_t> image_b = original;
  EXPECT_TRUE(b.MaybeCorrupt(0, 2, &image_b));
  EXPECT_EQ(image_a, image_b);
  EXPECT_EQ(a.corruptions_fired(), 1u);
}

TEST(Datapath, ProcessesEveryPacket) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(50000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(2);
  dp.nic_rate_mpps = 1000.0;  // effectively unpaced
  const auto result = RunScaleout(dp, trace);
  EXPECT_EQ(result.packets_processed, trace.size());
  EXPECT_GT(result.mpps, 0.0);
}

TEST(Datapath, NicRateCapsThroughput) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(60000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(2);
  dp.nic_rate_mpps = 2.0;  // deliberately slow NIC
  const auto result = RunScaleout(dp, trace);
  EXPECT_EQ(result.packets_processed, trace.size());
  EXPECT_LE(result.mpps, 2.3);  // cap plus scheduling slack
  // Pacing fidelity degrades when the host has fewer cores than datapath
  // threads (each thread gets time slices, not a core); allow generous slack
  // below the cap while still requiring the datapath to move.
  EXPECT_GE(result.mpps, 0.3);
}

TEST(Datapath, ForwardingOnlyModeWorks) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(30000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(1);
  dp.with_sketch = false;
  dp.nic_rate_mpps = 1000.0;
  const auto result = RunScaleout(dp, trace);
  EXPECT_EQ(result.packets_processed, trace.size());
  EXPECT_DOUBLE_EQ(result.measurement_cpu_fraction, 0.0);
}

TEST(Datapath, MergedTableConservesMass) {
  // Each packet lands in exactly one shard and the epoch fold conserves
  // mass, so the merged decode's total equals the stream mass.
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(40000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(3);
  dp.nic_rate_mpps = 1000.0;
  const auto result = RunScaleout(dp, trace);
  uint64_t mass = 0;
  for (const auto& [key, size] : result.merged_table) mass += size;
  EXPECT_EQ(mass, trace.size());  // unit weights
  EXPECT_FALSE(result.merged_table.empty());
}

TEST(Datapath, NoSketchMeansNoTable) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(5000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(1);
  dp.with_sketch = false;
  dp.nic_rate_mpps = 1000.0;
  const auto result = RunScaleout(dp, trace);
  EXPECT_TRUE(result.merged_table.empty());
}

TEST(Datapath, ReportsBatchFillStatistics) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(40000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(2);
  dp.nic_rate_mpps = 1000.0;  // unpaced: consumer sees backlog, batches fill
  dp.drain_batch = 32;
  const auto result = RunScaleout(dp, trace);
  EXPECT_EQ(result.packets_processed, trace.size());
  EXPECT_GT(result.batches_drained, 0u);
  EXPECT_GE(result.avg_batch_fill, 1.0);
  EXPECT_LE(result.avg_batch_fill, 32.0);
  // Consistency: packets = batches * average fill.
  EXPECT_NEAR(result.avg_batch_fill * static_cast<double>(
                                          result.batches_drained),
              static_cast<double>(result.packets_processed), 0.5);
}

TEST(Datapath, DrainBatchOfOneStillProcessesEverything) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(20000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(1);
  dp.nic_rate_mpps = 1000.0;
  dp.drain_batch = 1;  // degenerate batching == per-packet drain
  const auto result = RunScaleout(dp, trace);
  EXPECT_EQ(result.packets_processed, trace.size());
  EXPECT_DOUBLE_EQ(result.avg_batch_fill, 1.0);
  uint64_t mass = 0;
  for (const auto& [key, size] : result.merged_table) mass += size;
  EXPECT_EQ(mass, trace.size());
}

TEST(Datapath, MeasurementOverheadIsSmall) {
  // The paper reports <1.8% CPU overhead at line rate; with a paced NIC the
  // consumer is mostly idle-polling, so the sketch-update share of its
  // cycles must be small.
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(50000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(1);
  dp.nic_rate_mpps = 1.0;
#if COCO_TEST_SANITIZED
  // Sanitizer instrumentation inflates the update path's cycle share; the
  // CPU-fraction bound is only meaningful on uninstrumented builds.
  GTEST_SKIP() << "cpu-fraction bound not meaningful under sanitizers";
#endif
  const auto result = RunScaleout(dp, trace);
  EXPECT_LT(result.measurement_cpu_fraction, 0.10);
}

TEST(Datapath, FaultFreeRunReportsCleanHealth) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(20000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(2);
  dp.nic_rate_mpps = 1000.0;
  const auto result = RunScaleout(dp, trace);
  const DatapathHealth& h = result.health;
  EXPECT_EQ(h.packets_exact, trace.size());
  EXPECT_EQ(h.rx_dropped, 0u);
  EXPECT_EQ(h.packets_degraded, 0u);
  EXPECT_DOUBLE_EQ(h.degraded_fraction, 0.0);
  EXPECT_EQ(h.stalls_injected + h.kills_injected + h.stalls_detected, 0u);
  EXPECT_EQ(h.checkpoints_taken + h.restores + h.packets_lost_estimate, 0u);
}

TEST(Datapath, DropModeNeverBlocksAndAccountsEveryPacket) {
  // A stalled consumer behind a tiny ring in kDropNewest mode: producers
  // must finish regardless (drops instead of backpressure), and the
  // accounting identity exact + degraded + dropped == offered must hold.
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(40000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(1);
  dp.nic_rate_mpps = 1000.0;  // unpaced: the producer outruns the stall
  dp.ring_capacity = 64;
  dp.overflow = OverflowPolicy::kDropNewest;
  // after_packets = 0: fire at the first drained batch. In drop mode the
  // unpaced producer may push (and drop) nearly the whole trace before the
  // consumer's progress counter reaches any higher trigger.
  dp.faults.stalls.push_back({0, 0, 150});
  const auto result = RunScaleout(dp, trace);
  const DatapathHealth& h = result.health;
  EXPECT_EQ(h.stalls_injected, 1u);
  EXPECT_GT(h.rx_dropped, 0u);  // 150 ms into a 64-slot ring must overflow
  EXPECT_EQ(h.packets_degraded, 0u);  // ladder not enabled here
  EXPECT_EQ(h.packets_exact + h.packets_degraded + h.rx_dropped,
            trace.size());
  EXPECT_EQ(result.packets_processed + h.rx_dropped, trace.size());
  // What was drained is exactly what the merged table accounts for.
  EXPECT_EQ(metrics::TotalMass(result.merged_table),
            result.packets_processed);
}

TEST(Datapath, DegradationLadderEngagesUnderOverloadAndRecovers) {
  // Same overload shape, but with the ladder enabled: the backlog after the
  // stall pushes occupancy past the high watermark, so the consumer switches
  // to sampled updates until it has drained back below the low watermark.
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(50000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(1);
  dp.nic_rate_mpps = 1000.0;
  dp.ring_capacity = 256;
  dp.overflow = OverflowPolicy::kDropNewest;
  dp.degrade_enabled = true;
  dp.faults.stalls.push_back({0, 0, 150});  // first-batch stall builds backlog
  const auto result = RunScaleout(dp, trace);
  const DatapathHealth& h = result.health;
  EXPECT_GE(h.degrade_enter_events, 1u);  // woke up to a full ring
  EXPECT_GT(h.packets_degraded, 0u);
  EXPECT_GT(h.degraded_fraction, 0.0);
  EXPECT_LE(h.degraded_fraction, 1.0);
  // Accounting identity: every offered packet is exact, degraded, or dropped.
  EXPECT_EQ(h.packets_exact + h.packets_degraded + h.rx_dropped,
            trace.size());
  // Compensated sampling keeps the recorded mass unbiased: the merged total
  // must sit near exact + degraded (within sampling noise), not near
  // exact + p * degraded as naive dropping would give.
  const double expected =
      static_cast<double>(h.packets_exact + h.packets_degraded);
  EXPECT_NEAR(static_cast<double>(metrics::TotalMass(result.merged_table)),
              expected,
              0.5 * static_cast<double>(h.packets_degraded) + 200.0);
}

TEST(Datapath, ConsumerStallIsDetectedAndRunCompletes) {
  // Backpressure mode + watchdog: an injected 300 ms stall freezes the
  // queue's progress counter long enough for the watchdog to flag it, and
  // the run still completes losslessly once the consumer wakes.
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(30000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(1);
  dp.nic_rate_mpps = 1000.0;
  dp.ring_capacity = 512;
  dp.watchdog_timeout_ms = 50;
  dp.faults.stalls.push_back({0, 1000, 300});
  const auto result = RunScaleout(dp, trace);
  const DatapathHealth& h = result.health;
  EXPECT_EQ(h.stalls_injected, 1u);
  EXPECT_GE(h.stalls_detected, 1u);
  EXPECT_EQ(h.restores, 0u);  // stalled, not dead: no respawn
  EXPECT_EQ(result.packets_processed, trace.size());
  EXPECT_EQ(metrics::TotalMass(result.merged_table), trace.size());
}

TEST(Datapath, ConsumerKillRecoversFromCheckpoint) {
  // The headline recovery scenario: kill one of two measurement threads
  // halfway through its share of the trace. The watchdog must respawn it
  // from the last checkpoint, the run must complete (no hang), and the
  // merged table's mass must be exactly the fault-free mass minus the
  // reported bounded loss (unit weights + value conservation make the bound
  // tight here).
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(60000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(2);
  dp.nic_rate_mpps = 1000.0;
  dp.ring_capacity = 1024;
  dp.checkpoint_interval = 2000;
  dp.watchdog_timeout_ms = 50;

  const uint64_t fault_free_mass = [&] {
    const auto r = RunScaleout(dp, trace);
    return metrics::TotalMass(r.merged_table);
  }();
  EXPECT_EQ(fault_free_mass, trace.size());  // lossless baseline

  dp.faults.kills.push_back({0, trace.size() / dp.num_shards / 2});
  const auto result = RunScaleout(dp, trace);
  const DatapathHealth& h = result.health;
  EXPECT_EQ(h.kills_injected, 1u);
  EXPECT_EQ(h.restores, 1u);
  EXPECT_GT(h.checkpoints_taken, 0u);
  EXPECT_GT(h.packets_lost_estimate, 0u);
  // Bounded loss: at most one checkpoint interval plus the drain batches
  // that landed between checkpoint and kill.
  EXPECT_LE(h.packets_lost_estimate,
            dp.checkpoint_interval + 2 * dp.drain_batch);
  const uint64_t mass = metrics::TotalMass(result.merged_table);
  EXPECT_EQ(mass + h.packets_lost_estimate, fault_free_mass);
}

TEST(Datapath, CorruptCheckpointFallsBackToOlderImage) {
  // Corrupt the newest checkpoint the killed consumer would restore from:
  // recovery must reject it (checksum) and fall back to the previous image,
  // widening — but still honoring — the bounded-loss accounting.
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(60000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(2);
  dp.nic_rate_mpps = 1000.0;
  dp.ring_capacity = 1024;
  dp.checkpoint_interval = 2000;
  dp.watchdog_timeout_ms = 50;
  const uint64_t kill_at = trace.size() / dp.num_shards / 2;  // 15000
  dp.faults.kills.push_back({0, kill_at});
  // Checkpoints land every >= 2000 drained packets, so the newest image
  // before a kill at 15000 is deterministically seq 7 (~14000).
  dp.faults.corruptions.push_back({0, 7});
  const auto result = RunScaleout(dp, trace);
  const DatapathHealth& h = result.health;
  EXPECT_EQ(h.kills_injected, 1u);
  EXPECT_EQ(h.restores, 1u);
  EXPECT_EQ(h.checkpoints_rejected, 1u);  // corrupt image refused
  // Fallback restores the older image: loss spans roughly two checkpoint
  // intervals instead of one.
  EXPECT_GT(h.packets_lost_estimate, dp.checkpoint_interval);
  EXPECT_LE(h.packets_lost_estimate,
            2 * dp.checkpoint_interval + 2 * dp.drain_batch);
  EXPECT_EQ(metrics::TotalMass(result.merged_table) +
                h.packets_lost_estimate,
            trace.size());
}

TEST(Datapath, InjectedFaultCountersAreSeedStable) {
  // Same seed, same plan, two runs: every plan-driven health counter must
  // match exactly (occupancy-driven ones like rx_dropped are timing-
  // dependent by nature and are covered by their accounting identities).
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(30000);
  const auto trace = trace::GenerateTrace(config);
  ScaleoutConfig dp = OneWorkerPerShard(2);
  dp.nic_rate_mpps = 1000.0;
  dp.checkpoint_interval = 2000;
  dp.watchdog_timeout_ms = 50;
  dp.faults.stalls.push_back({1, 2000, 100});
  dp.faults.kills.push_back({0, 5000});
  const auto a = RunScaleout(dp, trace);
  const auto b = RunScaleout(dp, trace);
  EXPECT_EQ(a.health.stalls_injected, b.health.stalls_injected);
  EXPECT_EQ(a.health.kills_injected, b.health.kills_injected);
  EXPECT_EQ(a.health.restores, b.health.restores);
  EXPECT_EQ(a.health.checkpoints_rejected, b.health.checkpoints_rejected);
  // The exact kill/checkpoint progress points drift with batch fill, so the
  // loss estimate itself is not run-stable — but the accounting identities
  // are: backpressure drains every packet exactly once, and recorded mass
  // plus the reported loss reconstructs the offered count.
  for (const auto* r : {&a, &b}) {
    EXPECT_EQ(r->health.packets_exact, trace.size());
    EXPECT_EQ(metrics::TotalMass(r->merged_table) +
                  r->health.packets_lost_estimate,
              trace.size());
  }
}

}  // namespace
}  // namespace coco::ovs
