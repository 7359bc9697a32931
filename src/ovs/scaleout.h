// The OVS-style datapath (§6 / Appendix B, Fig. 15(a); DESIGN.md §7).
//
// One producer thread per shard (standing in for a DPDK poll-mode Rx thread
// on one NIC queue) pushes packet headers into the shard's SPSC ring, and
// one worker thread per shard polls that ring and updates the shard's
// CocoSketch: the paper's deployment, one measurement thread per Rx ring.
// The NIC line rate is an optional token bucket shared by the producers, so
// NIC-capped runs saturate at the cap once enough threads are added — the
// shape of Fig. 15(a) — and uncapped runs measure the compute path itself.
//
//   * RSS flow steering (ovs/steering.h), done by the producers: shard =
//     hash(full key), so every flow's packets converge on one shard, in
//     trace order. Worker s is the only consumer of ring s and the only
//     writer of shard s's sketch, so the batched update path runs lock-free
//     per core and no answer depends on thread timing.
//   * The control plane is RunScaleout's calling thread, one loop that
//     respawns killed workers, flags stalled shards and collects epochs
//     until every worker is done.
//   * Epochs at fixed trace positions (ovs/epoch.h): each producer marks
//     every epoch boundary in its shard's stream, each writer swaps its
//     triple-buffered sketch when it reaches a mark, and the control plane
//     adds every shard's published decode to one table: the union of
//     decodes. Steered shards hold disjoint flows, so each keeps its full
//     recording capacity and no seed has to match.
//   * Fault tolerance (docs/ROBUSTNESS.md): ring overflow policies, a per-
//     shard graceful-degradation ladder, periodic per-shard checkpoints,
//     respawn of a killed worker from its shard's newest valid checkpoint,
//     and optional stall detection. Faults are scripted deterministically
//     via FaultPlan (ovs/fault.h), indexed by shard.
//   * Adversarial hardening: windowed attack detection per shard, with seed
//     rotation (core/seed_rotation.h) on a confirmed collision attack.
//
// Conservation contract (tests/scaleout_test.cpp): every offered record is
// counted exactly once — offered == exact + degraded + rx_dropped for every
// shard, and so across all per-shard counters (ReadConservation) — and the
// total sketch mass over all collected epochs plus packets_lost_estimate
// equals the total weight applied.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/attack_monitor.h"
#include "obs/metrics.h"
#include "ovs/fault.h"
#include "ovs/spsc_ring.h"
#include "packet/keys.h"
#include "query/flow_table.h"

namespace coco::ovs {

struct ScaleoutConfig {
  size_t num_shards = 4;
  // Checked and otherwise unused (e2ebench/harness.h sets them): the
  // datapath runs one worker per shard, so num_workers must equal
  // num_shards, 1 <= num_groups <= num_workers, and stealing_enabled must
  // stay false.
  size_t num_workers = 4;
  size_t num_groups = 1;
  bool stealing_enabled = false;

  // NIC pacing shared by all producers; 0 disables the cap entirely (offline
  // replay / the scaling bench, where the compute path is the object).
  double nic_rate_mpps = 0.0;

  bool with_sketch = true;  // false = plain forwarding ("OVS w/o")
  size_t sketch_memory_bytes = 512 * 1024;  // split across shards
  size_t d = 2;
  // Hash seed of every shard sketch; only a seed rotation moves a shard
  // off it.
  uint64_t seed = 0x5ca1e0;
  // 0 = derive from `seed` (domain-separated inside FlowSteering).
  uint64_t steering_seed = 0;

  size_t ring_capacity = 4096;
  size_t drain_batch = 32;  // max records popped per ring poll
  // Producer behavior on a full ring: backpressure (spin) or drop + count.
  OverflowPolicy overflow = OverflowPolicy::kBackpressure;

  // Graceful-degradation ladder, per shard: when ring occupancy reaches
  // 3/4 of the ring capacity, the worker switches to sampled updates (each
  // record kept with probability 1/4, its weight compensated by 4 so
  // estimates stay unbiased), and steps back to exact updates once
  // occupancy falls to 1/4 of it.
  bool degrade_enabled = false;

  // Mid-run epoch E holds trace records [(E - 1) * I, E * I) of every shard
  // for I = `rotation_interval_packets` and each E * I below the trace
  // length; the final sweep holds the rest. 0 = no mid-run epochs.
  uint64_t rotation_interval_packets = 0;

  // Periodic checkpointing: every `checkpoint_interval` records applied to a
  // shard, its writer serializes the shard's sketch for crash recovery. An
  // epoch rotation starts a fresh checkpoint store. 0 = off.
  uint64_t checkpoint_interval = 0;

  // Stall detection: a shard whose progress is frozen this long while work
  // remains is flagged as stalled. 0 = off. Killed workers are respawned
  // (and their shards restored from the newest valid checkpoint) either way.
  uint64_t watchdog_timeout_ms = 0;

  // Scripted faults, each keyed to one shard's progress (empty = fault-free).
  FaultPlan faults;

  // Windowed attack detection (core/attack_monitor.h): every
  // `attack_window_packets` records applied to a shard, its writer
  // snapshots the shard's sketch stats and classifies the window. 0 = off.
  uint64_t attack_window_packets = 0;
  core::AttackMonitor::Options attack_options;

  // Escalation on a confirmed COLLISION attack: rotate the shard's sketch to
  // a fresh seed (decode once, replay, mass conserved); later epochs of the
  // shard keep the new seed. A collision confirmed again after a rotation
  // (adaptive attacker), or a confirmed churn flood (seed-independent),
  // instead forces the degrade ladder on — the last resort, only available
  // when degrade_enabled is set. The forced degradation lifts after
  // sustained honest windows.
  bool rotate_on_attack = false;
  // 0 = rotate onto fresh entropy (the attacker must not be able to predict
  // the next seed). Nonzero gives deterministic rotation targets for tests,
  // derived per shard and per rotation.
  uint64_t rotation_seed = 0;

  // Live metrics under `<prefix>.q<shard>.*` / `<prefix>.run.*`
  // (docs/OBSERVABILITY.md). nullptr disables instrumentation entirely
  // (zero hot-path cost). The registry must outlive RunScaleout.
  obs::Registry* registry = nullptr;
  std::string metrics_prefix = "scaleout";
};

// The conservation invariant read live from the registry: a record offered
// to a shard ends up exact, degraded, or rx_dropped — nowhere else. Offered
// is incremented before the ring push, so Accounted() <= offered holds
// mid-run (HoldsLive; modulo relaxed-counter propagation between cores) and
// equality holds once the datapath is quiescent (Holds).
struct ConservationView {
  uint64_t offered = 0;
  uint64_t exact = 0;
  uint64_t degraded = 0;
  uint64_t rx_dropped = 0;

  uint64_t Accounted() const { return exact + degraded + rx_dropped; }
  bool Holds() const { return Accounted() == offered; }
  bool HoldsLive() const { return Accounted() <= offered; }
};

// Scans the registry for every `<prefix>.q<i>.*` counter, so shards retired
// by a pool resize between runs against one registry keep their mass in the
// sum. `<prefix>.run.num_shards` carries the CURRENT width for dashboards.
ConservationView ReadConservation(obs::Registry* registry,
                                  const std::string& prefix = "scaleout");

// Robustness observability: every counter the fault-tolerance layer
// maintains. In a fault-free, non-degraded run all fields stay zero except
// packets_exact.
struct DatapathHealth {
  uint64_t rx_dropped = 0;         // producer drops (kDropNewest only)
  uint64_t packets_exact = 0;      // drained + applied at full fidelity
  uint64_t packets_degraded = 0;   // drained while the ladder was engaged
  double degraded_fraction = 0.0;  // degraded / (exact + degraded)
  uint64_t degrade_enter_events = 0;  // exact -> degraded transitions
  uint64_t stalls_injected = 0;       // FaultPlan stalls that fired
  uint64_t kills_injected = 0;        // FaultPlan kills that fired
  uint64_t stalls_detected = 0;       // stall detections (per shard)
  uint64_t checkpoints_taken = 0;
  uint64_t checkpoints_rejected = 0;  // restore candidates failing checksum
  uint64_t restores = 0;              // shards rebuilt after a worker respawn
  uint64_t epoch_waits = 0;  // marks where a worker waited for the collector
  // Measurement loss from crash recovery: records applied to a shard after
  // its restored checkpoint was taken (their sketch state died with the
  // worker). Recorded mass plus this bound reconstructs the applied weight
  // for unit-weight traces.
  uint64_t packets_lost_estimate = 0;
  // Adversarial hardening (attack_window_packets > 0):
  uint64_t attack_windows_suspicious = 0;  // threshold crossings (pre-confirm)
  uint64_t collision_attacks_confirmed = 0;
  uint64_t churn_floods_confirmed = 0;
  uint64_t seed_rotations = 0;             // seed swaps executed
  uint64_t attack_degrade_forced = 0;      // last-resort ladder activations
  // False only if some rotation's replay failed to conserve sketch mass.
  bool rotation_mass_conserved = true;
};

// One collected epoch (or the final quiescent sweep, epoch id = number of
// mid-run epochs + 1).
struct EpochRecord {
  uint64_t epoch = 0;
  // Writer-side accounting: total weight applied into the published sketches
  // during the epoch. Exactly equals sketch_mass when nothing saturated —
  // the no-torn-reads / conservation invariant of the rotation tests.
  uint64_t applied_weight = 0;
  uint64_t sketch_mass = 0;       // sum of TotalValue over published shards
  size_t seeds = 0;               // distinct hash seeds among the shards
};

struct ScaleoutResult {
  // Records processed per second of the datapath's clock, which runs from
  // the start gate (every thread spawned) to the last join: producer-side
  // steering, ring handoff, sketch updates and mid-run epoch collection. It
  // excludes sketch allocation, thread spawn and the final decode.
  double mpps = 0.0;
  uint64_t packets_processed = 0;  // exact + degraded (excludes rx drops)
  uint64_t rx_dropped = 0;         // == health.rx_dropped

  // Sketch-update share of worker cycles (0 without a sketch; estimated from
  // every 8th batch of each shard), and the batched-drain statistics:
  // avg_batch_fill is records per non-empty pop — near 1 when workers
  // outrun the NIC, approaching drain_batch under backlog.
  double measurement_cpu_fraction = 0.0;
  uint64_t batches_drained = 0;
  double avg_batch_fill = 0.0;
  DatapathHealth health;

  uint64_t rotations = 0;  // per-shard epoch swaps: shards x mid-run epochs

  // False if the per-sketch writer-exclusion probe ever saw two threads in
  // an apply section of the same sketch concurrently — the single-writer
  // invariant, checked structurally (TSan checks it at the byte level).
  bool single_writer_ok = true;

  // Every collected epoch in order, final sweep last.
  std::vector<EpochRecord> epochs;
  uint64_t total_sketch_mass = 0;

  // Union of every epoch's shard decodes, accumulated — the
  // control-plane flow table over the whole run (empty without a sketch).
  query::FlowTable<FiveTuple> merged_table;
};

// Runs the trace through the datapath. The producers are the NIC's RSS
// stage: they steer the trace by full-key hash into one shard-id byte per
// record (so at most 256 shards), in chunks of one ring's capacity, chunk j
// filled by producer j mod S. Each producer walks every chunk once its owner
// has filled it, pushes its own shard's records in trace order, paced by
// the NIC cap, and marks each epoch boundary. One worker per shard drains.
// The calling thread is the control plane, so the run starts no threads
// beyond those and the replacements for killed workers. It sleeps until a
// worker publishes an epoch or exits, and with stall detection wakes every
// 1 ms. Guaranteed to terminate for any config and FaultPlan: drops never
// block producers, backpressured producers are always eventually drained,
// the calling thread respawns every killed worker, a worker waits at a mark
// only until every shard has reached the mark before it, and a producer
// waits only on a chunk's owner that walks more than S chunks behind it,
// having filled its own chunks through S chunks past its walk.
ScaleoutResult RunScaleout(const ScaleoutConfig& config,
                           const std::vector<Packet>& trace);

}  // namespace coco::ovs
