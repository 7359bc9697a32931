// Concurrency battery for the datapath, ovs::RunScaleout (DESIGN.md §7):
// steering determinism and balance, the union of shard decodes against a
// monolithic sketch, epochs (a writer waits at a mark only until the
// reader recycles, per-epoch and per-shard conservation, no torn reads,
// epochs at fixed trace positions), a killed worker's shard restored
// across epochs and respawned with stall detection off, seed rotation
// surviving epoch swaps, the merged table against a one-thread union
// (pinned across versions), accuracy independent of the shard count, and
// the discovery-based conservation check across runtime-variable shard
// counts.
//
// The datapath runs one worker per shard, so shard counts scale with
// COCO_TEST_THREADS (CI runs the battery at 2 and at the host's hardware
// concurrency); every threaded test also runs under TSan and ASan via
// scripts/run_sanitizers.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "hash/bobhash.h"
#include "keys/key_spec.h"
#include "metrics/accuracy.h"
#include "obs/metrics.h"
#include "ovs/epoch.h"
#include "ovs/scaleout.h"
#include "ovs/steering.h"
#include "packet/keys.h"
#include "query/evaluation.h"
#include "trace/adversarial.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace coco::ovs {
namespace {

using core::CocoSketch;

// Shard-count knob for the concurrency tests. CI exports
// COCO_TEST_THREADS=2 and =<hardware concurrency> on the scalar legs.
size_t TestThreads() {
  if (const char* env = std::getenv("COCO_TEST_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<size_t>(v);
  }
  return 4;
}

uint64_t TraceWeight(const std::vector<Packet>& trace) {
  uint64_t total = 0;
  for (const Packet& p : trace) total += p.weight;
  return total;
}

// What RunScaleout must collect, computed on one thread: steer the trace
// with the run's steering seed (derived from the sketch seed when unset, as
// RunScaleout does), UpdateBatch each shard's packets of each epoch (trace
// records [(E - 1) * I, E * I) for I = rotation_interval_packets, the last
// epoch running to the end; one epoch when I is 0) into a fresh sketch of
// its own, and sum the decodes.
query::FlowTable<FiveTuple> UnionOfShardDecodes(
    const ScaleoutConfig& config, const std::vector<Packet>& trace) {
  const size_t S = config.num_shards;
  const size_t I = config.rotation_interval_packets;
  uint64_t steer_seed = config.steering_seed;
  if (steer_seed == 0) {
    uint64_t mix = config.seed;
    steer_seed = SplitMix64(mix);
  }
  const FlowSteering steering(steer_seed, S);
  query::FlowTable<FiveTuple> table;
  for (size_t s = 0; s < S; ++s) {
    for (size_t begin = 0; begin < trace.size();) {
      const size_t end = I == 0 ? trace.size()
                                : std::min(trace.size(), begin + I);
      std::vector<Packet> packets;
      for (; begin < end; ++begin) {
        if (steering.Shard(trace[begin].key) == s) {
          packets.push_back(trace[begin]);
        }
      }
      CocoSketch<FiveTuple> sketch(config.sketch_memory_bytes / S, config.d,
                                   config.seed);
      sketch.UpdateBatch(packets.data(), packets.size());
      sketch.DecodeInto(&table);
    }
  }
  return table;
}

// Mean relative error of a decoded table over the n largest true flows.
double TopFlowError(const query::FlowTable<FiveTuple>& table,
                    const trace::ExactCounter<FiveTuple>& truth, size_t n) {
  std::vector<std::pair<uint64_t, FiveTuple>> top;
  for (const auto& [key, count] : truth.counts()) top.push_back({count, key});
  std::sort(top.begin(), top.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  n = std::min(n, top.size());
  double err_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const auto it = table.find(top[i].second);
    const double est =
        it == table.end() ? 0.0 : static_cast<double>(it->second);
    err_sum += std::abs(est - static_cast<double>(top[i].first)) /
               static_cast<double>(top[i].first);
  }
  return err_sum / static_cast<double>(n);
}

// ---- Flow steering --------------------------------------------------------

TEST(Steering, DeterministicPureFunctionOfSeedAndShards) {
  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(5000));
  const FlowSteering a(42, 8), b(42, 8), other_seed(43, 8);
  bool any_differs_across_seeds = false;
  for (const Packet& p : trace) {
    const size_t s = a.Shard(p.key);
    ASSERT_LT(s, 8u);
    // Two instances with the same (seed, shards) agree on every key — the
    // property that makes shard ownership meaningful across restarts.
    ASSERT_EQ(s, b.Shard(p.key));
    any_differs_across_seeds |= s != other_seed.Shard(p.key);
  }
  EXPECT_TRUE(any_differs_across_seeds);
}

TEST(Steering, BalancedOverFlows) {
  const size_t shards = 8;
  const FlowSteering steering(7, shards);
  std::vector<size_t> hist(shards, 0);
  Rng rng(11);
  const size_t flows = 100000;
  for (size_t i = 0; i < flows; ++i) {
    const FiveTuple key(static_cast<uint32_t>(rng.Next()),
                        static_cast<uint32_t>(rng.Next()),
                        static_cast<uint16_t>(rng.Next()),
                        static_cast<uint16_t>(rng.Next()), 6);
    ++hist[steering.Shard(key)];
  }
  const double mean = static_cast<double>(flows) / shards;
  for (size_t s = 0; s < shards; ++s) {
    EXPECT_GT(hist[s], mean * 0.9) << "shard " << s;
    EXPECT_LT(hist[s], mean * 1.1) << "shard " << s;
  }
}

// ---- Union of shard decodes vs a monolithic sketch (no threads) -----------

TEST(ShardMerge, SteeredShardsMergeToMonolithicFidelity) {
  // Steer a trace into S single-writer shard sketches that split one
  // memory budget, collect them as RunScaleout does — the union of their
  // decodes — and compare with a monolithic sketch of the whole budget over
  // the same trace: exact mass conservation, and the monolithic sketch's
  // own error level on the heaviest flows and on heavy hitters. The budget
  // is small enough that the monolithic sketch itself errs.
  const size_t S = 4;
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(120000));
  const uint64_t seed = 0xfeed;
  const FlowSteering steering(21, S);

  CocoSketch<FiveTuple> mono(KiB(32), 2, seed);
  std::vector<std::unique_ptr<CocoSketch<FiveTuple>>> shards;
  for (size_t s = 0; s < S; ++s) {
    shards.push_back(
        std::make_unique<CocoSketch<FiveTuple>>(KiB(32) / S, 2, seed));
  }
  for (const Packet& p : trace) {
    mono.Update(p.key, p.weight);
    shards[steering.Shard(p.key)]->Update(p.key, p.weight);
  }

  query::FlowTable<FiveTuple> merged;
  uint64_t shard_mass = 0;
  for (const auto& sk : shards) {
    sk->DecodeInto(&merged);
    shard_mass += sk->TotalValue();
  }
  const uint64_t total = TraceWeight(trace);
  EXPECT_EQ(mono.TotalValue(), total);
  EXPECT_EQ(shard_mass, total);
  EXPECT_EQ(metrics::TotalMass(merged), total);

  const auto truth = trace::CountTrace(trace);
  const auto mono_table = mono.Decode();
  const double mono_err = TopFlowError(mono_table, truth, 20);
  const double merged_err = TopFlowError(merged, truth, 20);
  EXPECT_LE(merged_err, 2 * mono_err + 0.01)
      << "monolithic " << mono_err;

  const auto specs = keys::TupleKeySpec::DefaultSix();
  const auto mono_hh = metrics::MeanAccuracy(
      query::ScoreHeavyHittersPerKey(mono_table, truth, specs, 1e-3));
  const auto merged_hh = metrics::MeanAccuracy(
      query::ScoreHeavyHittersPerKey(merged, truth, specs, 1e-3));
  EXPECT_GE(merged_hh.f1, mono_hh.f1 - 0.01);
  EXPECT_LE(merged_hh.are, 2 * mono_hh.are + 0.01);
}

// ---- Epoch rotation -------------------------------------------------------

TEST(Epoch, RotateBlocksUntilRecycled) {
  // The writer retires epoch 1 at once. At its next mark the reader still
  // holds epoch 1, so the writer, on a second thread, waits in Rotate, and
  // writes nothing more, until the reader has taken epoch 1 and recycled
  // its sketch.
  EpochShard<FiveTuple> shard(KiB(64), 2, 7);
  const FiveTuple key(1, 2, 3, 4, 6);
  shard.active()->Update(key, 10);
  EXPECT_FALSE(shard.Rotate(10));  // the spare was ready: no wait

  shard.active()->Update(key, 5);
  std::atomic<bool> rotated{false};
  std::thread writer([&] {
    shard.Rotate(5);
    rotated.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(rotated.load());

  auto pub = shard.TakePublished();
  ASSERT_NE(pub.sketch, nullptr);
  EXPECT_EQ(pub.applied_weight, 10u);
  // Per-epoch conservation: the published sketch's mass equals the weight
  // the writer says it applied.
  EXPECT_EQ(pub.sketch->TotalValue(), pub.applied_weight);
  // Taken but not yet recycled: the writer has no spare, so it still waits.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(rotated.load());

  shard.Recycle(std::move(pub.sketch));
  writer.join();
  EXPECT_TRUE(rotated.load());
  auto pub2 = shard.TakePublished();
  ASSERT_NE(pub2.sketch, nullptr);
  EXPECT_EQ(pub2.applied_weight, 5u);
  EXPECT_EQ(pub2.sketch->TotalValue(), 5u);
  EXPECT_EQ(shard.active()->TotalValue(), 0u);  // the recycled one, cleared
}

TEST(Scaleout, RotationUnderLoadConservesMassPerEpoch) {
  // Epochs rotate while the workers are mid-stream. Each collected epoch
  // must be internally consistent (sketch mass == writer-side applied
  // weight: no torn reads, no lost or double-applied batches), the epochs
  // must partition the whole trace's mass exactly, and every shard must
  // account for each record steered to it.
  const size_t S = std::max<size_t>(TestThreads(), 2);
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(120000));
  obs::Registry registry;
  ScaleoutConfig config;
  config.num_shards = S;
  config.num_workers = S;
  config.nic_rate_mpps = 2.0;  // stretch the run so epochs land mid-stream
  config.rotation_interval_packets = 10000;
  config.registry = &registry;
  const ScaleoutResult result = RunScaleout(config, trace);

  EXPECT_EQ(result.packets_processed, trace.size());
  EXPECT_TRUE(result.single_writer_ok);
  EXPECT_GE(result.rotations, 1u);
  ASSERT_GE(result.epochs.size(), 2u);  // at least one mid-run + final sweep

  uint64_t epoch_mass = 0;
  for (const EpochRecord& rec : result.epochs) {
    EXPECT_EQ(rec.sketch_mass, rec.applied_weight) << "epoch " << rec.epoch;
    epoch_mass += rec.sketch_mass;
  }
  const uint64_t total = TraceWeight(trace);
  EXPECT_EQ(epoch_mass, total);
  EXPECT_EQ(result.total_sketch_mass, total);
  EXPECT_EQ(metrics::TotalMass(result.merged_table), total);

  const ConservationView view = ReadConservation(&registry, "scaleout");
  EXPECT_TRUE(view.Holds());
  EXPECT_EQ(view.offered, trace.size());
  for (size_t s = 0; s < S; ++s) {
    const std::string q = "scaleout.q" + std::to_string(s) + ".";
    EXPECT_EQ(registry.GetCounter(q + "offered")->Value(),
              registry.GetCounter(q + "exact")->Value() +
                  registry.GetCounter(q + "degraded")->Value() +
                  registry.GetCounter(q + "rx_dropped")->Value())
        << "shard " << s;
  }
}

TEST(Scaleout, MidRunEpochsArePureFunctionsOfTheTrace) {
  // Mid-run epoch E holds trace records [(E - 1) * I, E * I) in every shard
  // and the final sweep holds the rest, whatever the thread timing: each
  // producer marks its shard's epoch boundaries in the shard's stream, and
  // each worker rotates at its marks, also for an epoch with no records of
  // its shard. Records weigh their bytes, so a record on the wrong side of
  // a boundary changes two epochs' weights. Fault-free, backpressured,
  // uncapped runs, 20 per case; at I = 500 a worker reaches its next mark
  // before the collector has taken its previous epoch, and waits there.
  trace::TraceConfig trace_config = trace::TraceConfig::CaidaLike(60'000);
  trace_config.weight_mode = trace::WeightMode::kBytes;
  const auto trace = trace::GenerateTrace(trace_config);
  const size_t N = trace.size();
  for (const auto& [S, I] : std::vector<std::pair<size_t, size_t>>{
           {1, 7'500}, {2, 7'500}, {8, 7'500}, {2, 500}}) {
    ScaleoutConfig config;
    config.num_shards = S;
    config.num_workers = S;
    config.rotation_interval_packets = I;
    const size_t marks = (N - 1) / I;
    std::vector<uint64_t> weights(marks + 1, 0);
    for (size_t i = 0; i < N; ++i) {
      weights[std::min(i / I, marks)] += trace[i].weight;
    }
    const auto reference = UnionOfShardDecodes(config, trace);
    uint64_t waits = 0;
    for (int run = 0; run < 20; ++run) {
      SCOPED_TRACE(testing::Message()
                   << "S = " << S << ", I = " << I << ", run " << run);
      const ScaleoutResult result = RunScaleout(config, trace);
      waits += result.health.epoch_waits;
      std::vector<uint64_t> applied, masses;
      for (const EpochRecord& rec : result.epochs) {
        applied.push_back(rec.applied_weight);
        masses.push_back(rec.sketch_mass);
      }
      EXPECT_EQ(applied, weights);
      EXPECT_EQ(masses, weights);
      EXPECT_EQ(result.rotations, S * marks);
      EXPECT_EQ(result.merged_table, reference);
    }
    // 119 collections of two sketches each outlast 20 runs of 500-record
    // epochs: the wait path ran.
    if (I == 500) {
      EXPECT_GT(waits, 0u);
    }
  }
}

TEST(Scaleout, WritersNotStalledByMissingCollector) {
  // No collector at all (rotation_interval_packets == 0): writers run the
  // whole trace against their active sketches and the final sweep publishes
  // everything. Rotation machinery must impose nothing on this path.
  ScaleoutConfig config;
  config.num_shards = std::min<size_t>(TestThreads(), 4);
  config.num_workers = config.num_shards;
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(60000));
  const ScaleoutResult result = RunScaleout(config, trace);
  EXPECT_EQ(result.packets_processed, trace.size());
  EXPECT_EQ(result.rotations, 0u);
  ASSERT_EQ(result.epochs.size(), 1u);  // the final sweep only
  EXPECT_EQ(result.total_sketch_mass, TraceWeight(trace));
  EXPECT_EQ(metrics::TotalMass(result.merged_table), TraceWeight(trace));
}

TEST(Scaleout, DropModeConservationIncludesRxDrops) {
  // Without epochs, and with a 10,000-record interval: a full ring drops
  // records but never an epoch mark, so every shard rotates at each of the
  // 7 boundaries and every epoch's sketch mass is its applied weight.
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(80000));
  for (const uint64_t interval : {0, 10'000}) {
    SCOPED_TRACE(testing::Message() << "interval " << interval);
    ScaleoutConfig config;
    config.num_shards = std::min<size_t>(TestThreads(), 2);
    config.num_workers = config.num_shards;
    config.ring_capacity = 256;
    config.overflow = OverflowPolicy::kDropNewest;
    config.rotation_interval_packets = interval;
    obs::Registry registry;
    config.registry = &registry;
    const ScaleoutResult result = RunScaleout(config, trace);
    EXPECT_EQ(result.packets_processed + result.rx_dropped, trace.size());
    const ConservationView view = ReadConservation(&registry, "scaleout");
    EXPECT_TRUE(view.Holds());
    EXPECT_EQ(view.offered, trace.size());
    EXPECT_EQ(view.rx_dropped, result.rx_dropped);

    const uint64_t marks = interval == 0 ? 0 : (trace.size() - 1) / interval;
    EXPECT_EQ(result.rotations, config.num_shards * marks);
    ASSERT_EQ(result.epochs.size(), marks + 1);
    for (const EpochRecord& rec : result.epochs) {
      EXPECT_EQ(rec.sketch_mass, rec.applied_weight) << "epoch " << rec.epoch;
    }
  }
}

TEST(Scaleout, WatchdogStaysQuietOnHealthyRun) {
  ScaleoutConfig config;
  config.num_shards = std::min<size_t>(TestThreads(), 2);
  config.num_workers = config.num_shards;
  config.watchdog_timeout_ms = 200;
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(40000));
  const ScaleoutResult result = RunScaleout(config, trace);
  EXPECT_EQ(result.health.stalls_detected, 0u);
  EXPECT_EQ(result.packets_processed, trace.size());
}

// ---- Faults, checkpoints and seed rotation on the multi-core path -------

TEST(Scaleout, KilledWorkerRestoresEveryOwnedShardAcrossEpochs) {
  // Four shards on four workers, epochs rotating mid-run: killing shard 0's
  // worker loses shard 0's sketch state and nothing else, so shard 0 alone
  // comes back from its newest checkpoint of the ACTIVE epoch. Epochs here
  // are shorter than the checkpoint interval, so most epochs end without a
  // checkpoint: restoring an image of an epoch the collector already took
  // would count its records twice and break the mass identity below.
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(120000));
  obs::Registry registry;
  ScaleoutConfig config;
  config.num_shards = 4;
  config.num_workers = 4;
  config.nic_rate_mpps = 2.0;  // stretch the run so epochs land mid-stream
  config.rotation_interval_packets = 4000;
  config.checkpoint_interval = 3000;
  config.watchdog_timeout_ms = 50;
  config.faults.kills.push_back({0, 12000});
  config.registry = &registry;
  const ScaleoutResult result = RunScaleout(config, trace);
  const DatapathHealth& h = result.health;

  EXPECT_EQ(h.kills_injected, 1u);
  EXPECT_EQ(h.restores, 1u);
  for (size_t s = 0; s < config.num_shards; ++s) {
    EXPECT_EQ(registry
                  .GetCounter("scaleout.q" + std::to_string(s) + ".restores")
                  ->Value(),
              s == 0 ? 1u : 0u)
        << "shard " << s;
  }
  EXPECT_GT(h.checkpoints_taken, 0u);
  EXPECT_GE(result.rotations, 1u);
  EXPECT_GE(result.epochs.size(), 2u);
  EXPECT_EQ(result.packets_processed, trace.size());

  for (const EpochRecord& rec : result.epochs) {
    EXPECT_EQ(rec.sketch_mass, rec.applied_weight) << "epoch " << rec.epoch;
  }
  EXPECT_EQ(result.total_sketch_mass + h.packets_lost_estimate,
            TraceWeight(trace));
  EXPECT_EQ(metrics::TotalMass(result.merged_table), result.total_sketch_mass);
  EXPECT_TRUE(ReadConservation(&registry).Holds());
}

TEST(Scaleout, KilledWorkerRespawnsWithStallDetectionOff) {
  // watchdog_timeout_ms switches stall detection only: a killed worker is
  // respawned and its shard restored with the knob at 0, and a 300 ms stall
  // on the other shard goes unflagged.
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(200000));
  ScaleoutConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  config.checkpoint_interval = 2000;
  config.watchdog_timeout_ms = 0;
  config.faults.kills.push_back({0, 20000});
  config.faults.stalls.push_back({1, 20000, 300});
  const ScaleoutResult result = RunScaleout(config, trace);
  const DatapathHealth& h = result.health;

  EXPECT_EQ(h.restores, 1u);
  EXPECT_EQ(h.stalls_detected, 0u);
  EXPECT_EQ(result.packets_processed, trace.size());
  EXPECT_EQ(result.total_sketch_mass + h.packets_lost_estimate,
            TraceWeight(trace));
}

TEST(Scaleout, SeedRotationSurvivesEpochSwapsAndFoldsPerSeed) {
  // A collision attack crafted against shard 0 only (victims and crafted
  // keys both steer there), with epochs rotating mid-run. Shard 0 rotates
  // onto a fresh seed; every later epoch swap must keep that seed — a spare
  // built on the attacked seed would hand the attacker the shard back and
  // force another rotation — and the collector still sees two seeds: shard
  // 0's and shard 1's, which hashes with the configured seed.
  ScaleoutConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  config.sketch_memory_bytes = KiB(32);
  config.seed = 0xc0c0;
  config.steering_seed = 0x51ee;
  config.nic_rate_mpps = 2.0;
  config.rotation_interval_packets = 8000;
  config.attack_window_packets = 4096;
  config.attack_options.min_window_updates = 1024;
  config.rotate_on_attack = true;
  config.rotation_seed = 0x0123;
  obs::Registry registry;
  config.registry = &registry;

  trace::TraceConfig honest_config = trace::TraceConfig::CaidaLike(60'000);
  honest_config.num_flows = 300;
  honest_config.num_networks = 32;
  honest_config.seed = 1;
  const auto honest = trace::GenerateTrace(honest_config);
  const FlowSteering steering(config.steering_seed, config.num_shards);
  const auto truth = trace::CountTrace(honest);
  std::vector<std::pair<uint64_t, FiveTuple>> top;
  for (const auto& [key, count] : truth.counts()) top.push_back({count, key});
  std::sort(top.begin(), top.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<FiveTuple> victims;
  for (const auto& [count, key] : top) {
    if (steering.Shard(key) == 0 && victims.size() < 6) victims.push_back(key);
  }
  const CocoSketch<FiveTuple> shard_sketch(
      config.sketch_memory_bytes / config.num_shards, config.d, config.seed);
  auto attack = trace::CraftCollisionKeys(config.seed, shard_sketch.d(),
                                          shard_sketch.l(), victims, 16,
                                          30'000'000, 13);
  std::erase_if(attack.keys, [&](const FiveTuple& k) {
    return steering.Shard(k) != 0;
  });
  ASSERT_FALSE(attack.keys.empty());
  const auto hostile =
      trace::BuildCollisionTrace(honest, attack, 60'000, /*start=*/0.2);

  const ScaleoutResult result = RunScaleout(config, hostile.packets);
  const DatapathHealth& h = result.health;
  EXPECT_GT(h.collision_attacks_confirmed, 0u);
  EXPECT_EQ(h.seed_rotations, 1u);
  EXPECT_TRUE(h.rotation_mass_conserved);
  EXPECT_EQ(registry.GetCounter("scaleout.q1.seed_rotations")->Value(), 0u);
  EXPECT_GE(result.rotations, 2u);

  // Mass survives the rotation and every collection: nothing is dropped.
  const uint64_t total = TraceWeight(hostile.packets);
  for (const EpochRecord& rec : result.epochs) {
    EXPECT_EQ(rec.sketch_mass, rec.applied_weight) << "epoch " << rec.epoch;
  }
  EXPECT_EQ(result.total_sketch_mass, total);
  EXPECT_EQ(metrics::TotalMass(result.merged_table), total);
  EXPECT_TRUE(ReadConservation(&registry).Holds());
  // The final sweep still sees two seeds: shard 0's rotated one survived
  // the epoch swaps that followed the rotation.
  EXPECT_EQ(result.epochs.back().seeds, 2u);
}

TEST(Scaleout, PinnedMergedTableMatchesAcrossVersions) {
  // Each shard has exactly one writer and collection sums the shards'
  // decodes, so without mid-run epochs the merged table is a pure function
  // of the trace: the union computed on one thread, whatever the thread
  // timing. First the default config (4 shards, uncapped).
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(200'000));
  const ScaleoutConfig defaults;
  EXPECT_EQ(RunScaleout(defaults, trace).merged_table,
            UnionOfShardDecodes(defaults, trace));

  // Then the benchmark's switch-path shape: 2 shards x 2 workers, 512 KiB,
  // d=2, fixed seeds, pinned by an order-independent digest of the table's
  // (key, value) entries.
  ScaleoutConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  config.nic_rate_mpps = 0.0;
  config.sketch_memory_bytes = KiB(512);
  config.d = 2;
  config.seed = 0x5eed;
  config.steering_seed = 0x57ee;
  config.rotation_interval_packets = 0;
  const ScaleoutResult result = RunScaleout(config, trace);
  EXPECT_EQ(result.merged_table, UnionOfShardDecodes(config, trace));

  uint64_t digest = result.merged_table.size();
  for (const auto& [key, value] : result.merged_table) {
    uint64_t state = hash::Hash64(key.data(), key.size(), 0x64696765ULL) ^
                     (value * 0x9e3779b97f4a7c15ULL);
    digest += SplitMix64(state);
  }
  EXPECT_EQ(result.merged_table.size(), 9189u);
  EXPECT_EQ(digest, 0x07c7f765fba5e6f7ULL) << std::hex << digest;
}

TEST(Scaleout, ProducersSteerEachRecordToItsFlowSteeringShard) {
  // Every record reaches the shard FlowSteering maps it to, in trace order,
  // whatever the chunk edges. Producer j mod S fills chunk j of the shard
  // ids, one ring's capacity of records, so with a 64-slot ring traces of
  // 63, 64, 65, S * 64 + 1 and 10,007 records leave some producers without
  // a chunk and end on chunks of varying owners. Mid-run epochs mark inside
  // a chunk (I = 96) and on chunk edges (I = 64); records weigh their bytes,
  // so a record on the wrong side of a mark changes two epochs' masses.
  // Traces of 0, 1, 7 and 100,003 records run on the default ring, and
  // one drop-mode run and one NIC-capped run, where the producers pace
  // their bursts, close the test.
  trace::TraceConfig trace_config = trace::TraceConfig::CaidaLike(100'003);
  trace_config.weight_mode = trace::WeightMode::kBytes;
  const auto full = trace::GenerateTrace(trace_config);
  const auto check = [](const ScaleoutConfig& base,
                        const std::vector<Packet>& trace) {
    const size_t N = trace.size();
    const size_t I = base.rotation_interval_packets;
    SCOPED_TRACE(testing::Message()
                 << base.num_shards << " shards, " << N << " records, ring "
                 << base.ring_capacity << ", I = " << I);
    obs::Registry registry;
    ScaleoutConfig config = base;
    config.registry = &registry;
    const ScaleoutResult result = RunScaleout(config, trace);

    const FlowSteering steering(config.steering_seed, config.num_shards);
    std::vector<uint64_t> steered(config.num_shards, 0);
    for (const Packet& p : trace) ++steered[steering.Shard(p.key)];
    for (size_t s = 0; s < config.num_shards; ++s) {
      EXPECT_EQ(registry.GetCounter("scaleout.q" + std::to_string(s) +
                                    ".offered")
                    ->Value(),
                steered[s])
          << "shard " << s;
    }
    const ConservationView view = ReadConservation(&registry);
    EXPECT_TRUE(view.Holds());
    EXPECT_EQ(view.offered, N);

    const size_t marks = I == 0 || N == 0 ? 0 : (N - 1) / I;
    EXPECT_EQ(result.rotations, config.num_shards * marks);
    ASSERT_EQ(result.epochs.size(), marks + 1);
    for (const EpochRecord& rec : result.epochs) {
      EXPECT_EQ(rec.sketch_mass, rec.applied_weight) << "epoch " << rec.epoch;
    }
    // Dropped records leave the sketches timing-dependent.
    if (config.overflow == OverflowPolicy::kDropNewest) return;
    EXPECT_EQ(result.merged_table, UnionOfShardDecodes(config, trace));
    std::vector<uint64_t> weights(marks + 1, 0);
    for (size_t i = 0; i < N; ++i) {
      weights[I == 0 ? 0 : std::min(i / I, marks)] += trace[i].weight;
    }
    for (size_t e = 0; e <= marks; ++e) {
      EXPECT_EQ(result.epochs[e].applied_weight, weights[e]) << "epoch " << e;
    }
  };
  const auto prefix = [&](size_t n) {
    return std::vector<Packet>(full.begin(), full.begin() + n);
  };

  ScaleoutConfig config;
  config.steering_seed = 0x51ed;
  for (const size_t S : {1, 3, 8}) {
    config.num_shards = S;
    config.num_workers = S;
    for (const size_t n : {0, 1, 7, 100'003}) check(config, prefix(n));
  }

  config.ring_capacity = 64;
  for (const size_t S : {1, 2, 3, 8}) {
    config.num_shards = S;
    config.num_workers = S;
    for (const uint64_t I : {0, 96, 64}) {
      config.rotation_interval_packets = I;
      for (const size_t n : {size_t{63}, size_t{64}, size_t{65}, S * 64 + 1,
                             size_t{10'007}}) {
        check(config, prefix(n));
      }
    }
  }

  config.num_shards = 3;
  config.num_workers = 3;
  config.rotation_interval_packets = 96;
  config.overflow = OverflowPolicy::kDropNewest;
  check(config, prefix(10'007));

  config.ring_capacity = ScaleoutConfig{}.ring_capacity;
  config.rotation_interval_packets = 0;
  config.overflow = OverflowPolicy::kBackpressure;
  config.nic_rate_mpps = 20.0;
  check(config, prefix(100'000));
}

TEST(Scaleout, AccuracyDoesNotDependOnShardCount) {
  // One 512 KiB budget at d=2 split over S = 1, 2, 4, 8 shards, no mid-run
  // epochs, fixed seeds, 1M CAIDA-like packets. Steered
  // shards hold disjoint flows and the union of their decodes keeps every
  // shard's recording capacity, so heavy-hitter F1 at 1e-4 over the six
  // default keys must not move with S beyond sampling noise. A collection
  // that keeps one shard's capacity (a position-wise fold into one
  // shard-sized sketch) drops F1 to ~0.9, ~0.7 and ~0.5 at S = 2, 4, 8.
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(1'000'000));
  const auto truth = trace::CountTrace(trace);
  const auto specs = keys::TupleKeySpec::DefaultSix();
  double f1_one_shard = 0.0;
  for (const size_t S : {1, 2, 4, 8}) {
    ScaleoutConfig config;
    config.num_shards = S;
    config.num_workers = S;
    config.nic_rate_mpps = 0.0;
    config.sketch_memory_bytes = KiB(512);
    config.d = 2;
    config.seed = 0xacc0;
    config.steering_seed = 0x5a1e;
    config.rotation_interval_packets = 0;
    const ScaleoutResult result = RunScaleout(config, trace);
    ASSERT_EQ(result.total_sketch_mass, TraceWeight(trace));
    const double f1 =
        metrics::MeanAccuracy(query::ScoreHeavyHittersPerKey(
                                  result.merged_table, truth, specs, 1e-4))
            .f1;
    if (S == 1) f1_one_shard = f1;
    EXPECT_NEAR(f1, f1_one_shard, 0.01) << "S = " << S;
  }
}

// ---- Conservation across runtime-variable shard counts --------------------

TEST(Conservation, DiscoveryCoversResizedQueuePool) {
  // Two runs against ONE registry with different widths: a 4-shard run, then
  // a 2-shard run. The discovery scan keeps every shard that ever counted,
  // so q2/q3 keep the first run's mass in the sum.
  obs::Registry registry;
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(20000));
  ScaleoutConfig config;
  config.registry = &registry;
  config.num_shards = 4;
  config.num_workers = 4;
  RunScaleout(config, trace);
  config.num_shards = 2;
  config.num_workers = 2;
  RunScaleout(config, trace);

  const ConservationView discovered = ReadConservation(&registry);
  EXPECT_TRUE(discovered.Holds());
  EXPECT_EQ(discovered.offered, 2 * trace.size());

  // Dashboards read the CURRENT width from the gauge instead of baking it
  // into call sites.
  EXPECT_EQ(registry.GetGauge("scaleout.run.num_shards")->Value(), 2.0);
}

}  // namespace
}  // namespace coco::ovs
