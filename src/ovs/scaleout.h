// Multi-core scale-out datapath (DESIGN.md "Multi-core scale-out"; ROADMAP
// NUMA/multi-core item).
//
// The classic ovs::DatapathSim stripes the trace round-robin over a handful
// of queue-private sketches. This layer is the tens-of-cores shape:
//
//   * RSS flow steering (ovs/steering.h): shard = hash(full key), so every
//     flow's packets converge on one shard, every shard's sketch has exactly
//     one writer, and the batched update path runs lock-free per core.
//   * Shard-group topology with a pluggable placement cost model: shards are
//     placed onto workers (and workers onto NUMA-style groups) by
//     PlaceShards; a worker polls only the shards it owns.
//   * Proportional polling: a worker drains its owned rings fullest-first
//     with a drain budget proportional to occupancy, so a skewed shard
//     cannot starve its siblings on the same core.
//   * Bounded work stealing: a worker whose own rings are empty may claim a
//     backlogged foreign ring's consumer token (SpscRing::TryAcquireConsumer)
//     and pop up to steal_batches batches. Stolen records are RE-STEERED to
//     the thief's primary shard — applied to a sketch only the thief ever
//     writes — so the single-writer invariant holds even while helping.
//     (Re-steering splits a flow's mass across shards exactly like network-
//     wide sharding does; the PR 4 merge keeps the combined decode unbiased
//     and mass-conserving.)
//   * Epoch-based rotation (ovs/epoch.h): the collector requests an epoch;
//     each writer triple-buffer-swaps its sketch at a batch boundary (O(1),
//     never blocking on readers) and the collector merges the published
//     shard sketches via core/merge.h — readers never stall writers.
//   * Degrade/watchdog integration: the PR 2 ladder runs per shard
//     (occupancy-hysteresis sampled updates with compensated weights), and
//     an optional stall watchdog (ovs/watchdog.h StallDetector) flags frozen
//     workers.
//
// Conservation contract (tests/scaleout_test.cpp): every offered record is
// counted exactly once — offered == exact + degraded + rx_dropped across ALL
// per-shard counters (ReadConservation's discovery overload; with stealing
// the per-queue balance intentionally does NOT hold, only the global sum
// does), and the total sketch mass over all published epochs plus the final
// sweep equals the total weight applied.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "ovs/spsc_ring.h"
#include "ovs/steering.h"
#include "packet/keys.h"

namespace coco::ovs {

struct ScaleoutConfig {
  size_t num_shards = 4;
  size_t num_workers = 4;  // 1 <= workers <= shards
  size_t num_groups = 1;   // NUMA socket stand-ins for the placement model
  PlacementCost placement_cost;  // null = uniform (balanced block placement)

  // NIC pacing shared by all producers; 0 disables the cap entirely (offline
  // replay / the scaling bench, where the compute path is the object).
  double nic_rate_mpps = 0.0;

  size_t sketch_memory_bytes = 512 * 1024;  // split across shards
  size_t d = 2;
  // One seed for every shard sketch — epoch publication merges shards
  // sketch-level (core/merge.h), which requires seed equality.
  uint64_t seed = 0x5ca1e0;
  // 0 = derive from `seed` (domain-separated inside FlowSteering).
  uint64_t steering_seed = 0;

  size_t ring_capacity = 4096;
  size_t drain_batch = 32;
  OverflowPolicy overflow = OverflowPolicy::kBackpressure;

  // Degradation ladder, per shard (see DatapathConfig for semantics).
  bool degrade_enabled = false;
  double degrade_high_watermark = 0.75;
  double degrade_low_watermark = 0.25;
  double degrade_sample_prob = 0.25;

  // Work stealing: a worker with nothing of its own to drain steals from the
  // fullest foreign ring whose occupancy is >= steal_threshold * capacity,
  // at most steal_batches batches per steal. 0 batches or `false` disables.
  bool stealing_enabled = true;
  double steal_threshold = 0.5;
  size_t steal_batches = 4;

  // Epoch rotation: the collector requests a rotation every
  // `rotation_interval_packets` globally drained packets and merges the
  // published shard sketches. 0 = no mid-run epochs (one final sweep).
  uint64_t rotation_interval_packets = 0;

  // Stall watchdog over per-worker progress (flag-only; the scale-out layer
  // has no kill/respawn faults — that machinery stays in DatapathSim).
  // 0 = off.
  uint64_t watchdog_timeout_ms = 0;

  // Live metrics under `<prefix>.q<shard>.*` / `<prefix>.run.*`
  // (docs/OBSERVABILITY.md "Scale-out metrics"). nullptr disables.
  obs::Registry* registry = nullptr;
  std::string metrics_prefix = "scaleout";
};

// One collected epoch (or the final quiescent sweep, epoch id = last
// requested + 1).
struct EpochRecord {
  uint64_t epoch = 0;
  size_t shards_published = 0;
  // Writer-side accounting: total weight applied into the published sketches
  // during the epoch. Exactly equals sketch_mass when nothing saturated —
  // the no-torn-reads / conservation invariant of the rotation tests.
  uint64_t applied_weight = 0;
  uint64_t sketch_mass = 0;       // sum of TotalValue over published shards
  uint64_t merge_conflicts = 0;   // probabilistic key resolutions in the fold
};

struct ScaleoutResult {
  double mpps = 0.0;
  uint64_t packets_processed = 0;  // exact + degraded (excludes rx drops)
  uint64_t packets_exact = 0;
  uint64_t packets_degraded = 0;
  uint64_t rx_dropped = 0;

  uint64_t steal_events = 0;    // bounded steals executed
  uint64_t stolen_records = 0;  // records re-steered to a thief's shard

  uint64_t rotations = 0;          // successful per-shard epoch swaps
  uint64_t rotation_refusals = 0;  // TryRotate declined (reader lagging)
  uint64_t stalls_detected = 0;    // watchdog flags (0 when watchdog off)

  // False if the per-sketch writer-exclusion probe ever saw two workers in
  // an apply section of the same sketch concurrently — the single-writer
  // invariant, checked structurally (TSan checks it at the byte level).
  bool single_writer_ok = true;

  // Every collected epoch in order, final sweep last. Sum of sketch_mass
  // over the records equals packets_processed's applied weight.
  std::vector<EpochRecord> epochs;
  uint64_t total_sketch_mass = 0;

  // Decode of every epoch's merged sketch, accumulated — the control-plane
  // flow table over the whole run.
  std::unordered_map<FiveTuple, uint64_t> merged_table;

  ShardTopology topology;
};

// Runs the trace through the scale-out datapath. Records are pre-steered by
// full-key hash into per-shard producer lists (the NIC's RSS stage); one
// producer thread per shard paces and pushes, `num_workers` workers drain.
// Guaranteed to terminate for any config: backpressure producers are always
// eventually drained (their owner polls until producer-done and empty), and
// rotation refusals never block a writer.
ScaleoutResult RunScaleout(const ScaleoutConfig& config,
                           const std::vector<Packet>& trace);

}  // namespace coco::ovs
