#include "ovs/scaleout.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <semaphore>
#include <string_view>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/cycle_clock.h"
#include "common/rng.h"
#include "core/cocosketch.h"
#include "core/sampled_cocosketch.h"
#include "core/seed_rotation.h"
#include "obs/sketch_metrics.h"
#include "ovs/degrade.h"
#include "ovs/epoch.h"
#include "ovs/steering.h"
#include "ovs/watchdog.h"

namespace coco::ovs {
namespace {

using Sketch = core::CocoSketch<FiveTuple>;

// Worker lifecycle, advanced by the worker itself and observed by the
// control loop on the calling thread. kExited means an injected kill took
// the worker down and it needs a respawn; kDone means it finished for good.
constexpr int kRunning = 0;
constexpr int kExited = 1;
constexpr int kDone = 2;

// Sketch-update time is read on every kTimedBatchStride-th batch of a shard
// and scaled up: two cycle-counter reads on every batch cost the uncapped
// datapath ~5% of its rate on a 4-vCPU KVM host.
constexpr uint64_t kTimedBatchStride = 8;

// The degrade ladder's hysteresis band, as fractions of ring capacity, and
// the probability that a degraded update keeps a record (its weight is
// compensated by the inverse).
constexpr double kDegradeHighWatermark = 0.75;
constexpr double kDegradeLowWatermark = 0.25;
constexpr double kDegradeSampleProb = 0.25;

// Per-shard registry handles, resolved before the threads start (the
// registry lock never appears on a hot path). All null when uninstrumented;
// every use is pointer-guarded.
struct ShardMetrics {
  obs::Counter* offered = nullptr;
  obs::Counter* exact = nullptr;
  obs::Counter* degraded = nullptr;
  obs::Counter* rx_dropped = nullptr;
  obs::Counter* degrade_enter = nullptr;
  obs::Counter* degrade_exit = nullptr;
  obs::Counter* stalls_detected = nullptr;
  obs::Counter* restores = nullptr;
  obs::Counter* checkpoints = nullptr;
  obs::Counter* checkpoint_bytes = nullptr;
  obs::Counter* checkpoints_rejected = nullptr;
  obs::Counter* attack_suspicious = nullptr;
  obs::Counter* attack_collision = nullptr;
  obs::Counter* attack_churn_flood = nullptr;
  obs::Counter* seed_rotations = nullptr;
  obs::Counter* attack_degrade_forced = nullptr;
  obs::Counter* epoch_waits = nullptr;
  obs::Histogram* batch_fill = nullptr;
  obs::Histogram* drain_cycles = nullptr;
  obs::Gauge* occupancy = nullptr;
  obs::Gauge* epoch = nullptr;
  std::string base;  // "<prefix>.q<s>", empty when uninstrumented
};

ShardMetrics ResolveShardMetrics(obs::Registry* registry,
                                 const std::string& prefix, size_t s) {
  ShardMetrics m;
  if (registry == nullptr) return m;
  m.base = prefix + ".q" + std::to_string(s);
  const auto counter = [&](const char* leaf) {
    return registry->GetCounter(m.base + "." + leaf);
  };
  m.offered = counter("offered");
  m.exact = counter("exact");
  m.degraded = counter("degraded");
  m.rx_dropped = counter("rx_dropped");
  m.degrade_enter = counter("degrade_enter");
  m.degrade_exit = counter("degrade_exit");
  m.stalls_detected = counter("stalls_detected");
  m.restores = counter("restores");
  m.checkpoints = counter("checkpoints");
  m.checkpoint_bytes = counter("checkpoint_bytes");
  m.checkpoints_rejected = counter("checkpoints_rejected");
  m.attack_suspicious = counter("attack_suspicious");
  m.attack_collision = counter("attack_collision");
  m.attack_churn_flood = counter("attack_churn_flood");
  m.seed_rotations = counter("seed_rotations");
  m.attack_degrade_forced = counter("attack_degrade_forced");
  m.epoch_waits = counter("epoch_waits");
  m.batch_fill = registry->GetHistogram(m.base + ".batch_fill");
  m.drain_cycles = registry->GetHistogram(m.base + ".drain_cycles");
  m.occupancy = registry->GetGauge(m.base + ".occupancy");
  m.epoch = registry->GetGauge(m.base + ".epoch");
  return m;
}

void Bump(obs::Counter* counter, uint64_t n = 1) {
  if (counter != nullptr) counter->Add(n);
}

// Everything one shard owns, its worker thread included. Not movable
// (atomics), so RunScaleout holds shards behind unique_ptr. The
// writer-owned fields are touched only by the shard's worker; a respawned
// worker inherits them after the control loop has joined the dead one.
struct Shard {
  Shard(const ScaleoutConfig& c, size_t memory_bytes, size_t s,
        ShardMetrics metrics, uint64_t epoch_marks)
      : ring(c.ring_capacity),
        sketches(memory_bytes, c.d, c.seed),
        m(std::move(metrics)),
        marks(epoch_marks),
        seed(c.seed),
        ladder(kDegradeHighWatermark, kDegradeLowWatermark, c.ring_capacity),
        monitor(c.attack_options) {
    if (c.degrade_enabled) {
      gate.emplace(kDegradeSampleProb,
                   c.seed ^ (0xdeadbeefULL + s * 0x9e3779b9ULL));
    }
  }

  SpscRing<Packet> ring;
  EpochShard<FiveTuple> sketches;
  ShardMetrics m;
  std::vector<uint64_t> marks;  // ring push count at each epoch boundary
  std::atomic<uint64_t> marked{0};  // marks published (release store)
  std::atomic<bool> producer_done{false};
  std::atomic<uint64_t> progress{0};  // records popped and applied
  std::atomic<uint64_t> epoch_done{0};  // epochs this shard has published
  // Writer-exclusion probe: 0 = free, 1 = a worker inside an apply
  // section. A failed claim means two threads raced one sketch: a
  // replacement worker ran before the control loop joined the killed one.
  std::atomic<uint32_t> writer{0};

  // ---- writer-owned ----
  uint64_t seed;              // current hash seed; moves on seed rotation
  uint64_t epoch_weight = 0;  // weight applied to the active sketch
  uint64_t epoch_start = 0;   // progress when the active epoch began
  CheckpointStore checkpoints;  // images of the active epoch only
  uint64_t checkpoint_seq = 0;  // never reset: fault plans address it
  uint64_t last_checkpoint = 0;
  DegradeLadder ladder;
  std::optional<core::SamplingGate> gate;
  bool degraded = false;  // effective mode of the last batch
  core::AttackMonitor monitor;
  uint64_t last_window = 0;
  bool attack_degrade = false;  // ladder forced on (last-resort response)
  uint64_t honest_streak = 0;   // consecutive honest windows while forced
  uint64_t batches = 0;
  uint64_t update_cycles = 0;  // scaled up from the timed batches
  // The counters kept for this shard: by its writer, except
  // stalls_detected, which only the control loop writes.
  DatapathHealth health;

  // The shard's worker, declared after everything it uses: its lifecycle
  // status and thread handle. Only the calling thread swaps the handle.
  std::atomic<int> worker_status{kRunning};
  std::thread worker;
};

// Collects one epoch: adds every source sketch's decode to `table` — the
// union of the shards' decodes — and returns the epoch's record. RSS
// steering gives the shards disjoint flows, so every shard keeps its own
// recording capacity and no seed has to match.
template <typename SketchPtr>
EpochRecord CollectEpoch(uint64_t epoch, uint64_t applied_weight,
                         const std::vector<SketchPtr>& sources,
                         query::FlowTable<FiveTuple>* table) {
  EpochRecord rec;
  rec.epoch = epoch;
  rec.applied_weight = applied_weight;
  std::vector<uint64_t> seeds;
  for (const auto& sketch : sources) {
    rec.sketch_mass += sketch->TotalValue();
    sketch->DecodeInto(table);
    if (std::find(seeds.begin(), seeds.end(), sketch->seed()) == seeds.end()) {
      seeds.push_back(sketch->seed());
    }
  }
  rec.seeds = seeds.size();
  return rec;
}

void AddHealth(const DatapathHealth& from, DatapathHealth* to) {
  to->packets_exact += from.packets_exact;
  to->packets_degraded += from.packets_degraded;
  to->stalls_detected += from.stalls_detected;
  to->checkpoints_taken += from.checkpoints_taken;
  to->checkpoints_rejected += from.checkpoints_rejected;
  to->restores += from.restores;
  to->epoch_waits += from.epoch_waits;
  to->packets_lost_estimate += from.packets_lost_estimate;
  to->attack_windows_suspicious += from.attack_windows_suspicious;
  to->collision_attacks_confirmed += from.collision_attacks_confirmed;
  to->churn_floods_confirmed += from.churn_floods_confirmed;
  to->seed_rotations += from.seed_rotations;
  to->attack_degrade_forced += from.attack_degrade_forced;
  to->rotation_mass_conserved &= from.rotation_mass_conserved;
}

}  // namespace

ConservationView ReadConservation(obs::Registry* registry,
                                  const std::string& prefix) {
  COCO_CHECK(registry != nullptr, "conservation check needs a registry");
  const std::string stem = prefix + ".q";
  ConservationView view;
  registry->ForEachCounter([&](std::string_view name, const obs::Counter& c) {
    if (name.substr(0, stem.size()) != stem) return;
    // Expect `<stem><digits>.<leaf>`.
    std::string_view rest = name.substr(stem.size());
    size_t digits = 0;
    while (digits < rest.size() && rest[digits] >= '0' && rest[digits] <= '9') {
      ++digits;
    }
    if (digits == 0 || digits >= rest.size() || rest[digits] != '.') return;
    const std::string_view leaf = rest.substr(digits + 1);
    if (leaf == "offered") {
      view.offered += c.Value();
    } else if (leaf == "exact") {
      view.exact += c.Value();
    } else if (leaf == "degraded") {
      view.degraded += c.Value();
    } else if (leaf == "rx_dropped") {
      view.rx_dropped += c.Value();
    }
  });
  return view;
}

ScaleoutResult RunScaleout(const ScaleoutConfig& config,
                           const std::vector<Packet>& trace) {
  const size_t S = config.num_shards;
  COCO_CHECK(S >= 1 && config.num_workers == S,
             "scale-out runs one worker per shard: workers must equal shards");
  COCO_CHECK(config.num_groups >= 1 && config.num_groups <= config.num_workers,
             "groups must satisfy 1 <= groups <= workers");
  COCO_CHECK(!config.stealing_enabled,
             "stealing_enabled must be false: only a shard's worker drains it");
  COCO_CHECK(S <= 256, "shard ids are one byte: at most 256 shards");
  const size_t drain_batch = config.drain_batch < 1 ? 1 : config.drain_batch;
  const size_t per_shard_memory = config.sketch_memory_bytes / S;
  const bool checkpointing =
      config.with_sketch && config.checkpoint_interval != 0;
  const bool attack_detection =
      config.with_sketch && config.attack_window_packets != 0;

  ScaleoutResult result;

  // RSS stage, run by the producers (below): one shard-id byte per record.
  uint64_t steer_seed = config.steering_seed;
  if (steer_seed == 0) {
    uint64_t mix = config.seed;
    steer_seed = SplitMix64(mix);
  }
  const FlowSteering steering(steer_seed, S);
  const size_t N = trace.size();
  std::vector<uint8_t> shard_of(N);
  // Chunks each producer has filled (release store), a cache line each.
  struct alignas(64) ChunkCount { std::atomic<size_t> filled{0}; };
  std::vector<ChunkCount> counts(S);

  // Mid-run epoch E holds trace records [(E - 1) * I, E * I) for E * I < N.
  const uint64_t interval = config.rotation_interval_packets;
  const uint64_t marks = interval == 0 || N == 0 ? 0 : (N - 1) / interval;

  // Triple-buffered per-shard sketches, on the configured hash seed until a
  // seed rotation moves a shard off it.
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(S);
  for (size_t s = 0; s < S; ++s) {
    shards.push_back(std::make_unique<Shard>(
        config, per_shard_memory, s,
        ResolveShardMetrics(config.registry, config.metrics_prefix, s),
        marks));
  }
  const size_t chunk = shards[0]->ring.capacity();
  const size_t chunks = (N + chunk - 1) / chunk;

  FaultInjector injector(config.faults);
  const bool have_faults = !config.faults.Empty();

  std::atomic<uint64_t> issued{0};  // NIC token accounting (rate-capped mode)
  std::atomic<uint64_t> busy_cycles{0};
  std::atomic<bool> single_writer_violated{false};
  // Released by each epoch publish and worker exit; the control loop waits.
  std::counting_semaphore<> wake(0);

  // Start gate: no producer or worker proceeds until every thread has been
  // spawned. Without it, on a host that serializes threads onto few cores,
  // the first producer/worker pair can drain its whole shard before the
  // remaining threads exist, and the wall clock would charge thread-spawn
  // latency to the datapath.
  std::atomic<bool> start_gate{false};

  Stopwatch wall;
  const double rate_pps = config.nic_rate_mpps * 1e6;
  const bool drop_mode = config.overflow == OverflowPolicy::kDropNewest;

  // ---- Producers: one per shard ring (single-producer invariant). Chunk j
  // of `shard_of`, one ring's capacity of ids, belongs to producer j mod S:
  // filling it takes less time than a worker needs to drain a full ring.
  // Producer s walks the ids in trace order, pushes its shard's records (so
  // each shard sees them in trace order) and marks each epoch boundary.
  // Before it walks chunk j it fills its own chunks through j + S, then
  // yields until chunk j's owner has counted that chunk. So no producer
  // waits on one that waits on it: an owner short of chunk j walks below
  // chunk j - S, and a producer blocked on a full ring has filled every
  // chunk another producer needs to reach its worker's pending mark. With a
  // rate cap it paces against the shared NIC token bucket. The NIC delivers
  // in bursts of up to drain_batch records, like a DPDK rx burst: one token
  // claim and one clock read per burst, so the producers themselves never
  // become the cap. ----
  std::vector<std::thread> producers;
  producers.reserve(S);
  for (size_t s = 0; s < S; ++s) {
    producers.emplace_back([&, s] {
      while (!start_gate.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      Shard& sh = *shards[s];
      std::vector<const Packet*> burst(drain_batch);
      size_t own = s;     // this producer's next chunk to fill
      size_t next = 0;    // next trace index to look at
      size_t walked = 0;  // end of the chunks cleared to walk
      size_t stop = marks == 0 ? N : interval;  // next epoch boundary, or N
      uint64_t marked = 0;
      for (;;) {
        size_t n = 0;
        while (n < drain_batch && next < stop) {
          if (next == walked) {
            const size_t j = next / chunk;
            for (; own < chunks && own <= j + S; own += S) {
              const size_t end = std::min(N, (own + 1) * chunk);
              for (size_t i = own * chunk; i < end; ++i) {
                shard_of[i] =
                    static_cast<uint8_t>(steering.Shard(trace[i].key));
              }
              counts[s].filled.store(own / S + 1, std::memory_order_release);
            }
            while (counts[j % S].filled.load(std::memory_order_acquire) <=
                   j / S) {
              std::this_thread::yield();
            }
            walked = std::min(N, walked + chunk);
          }
          for (const size_t end = std::min(stop, walked);
               next < end && n < drain_batch; ++next) {
            burst[n] = &trace[next];
            n += shard_of[next] == s;
          }
        }
        if (n == 0) {
          if (stop == N) break;
          // An epoch boundary: the mark is the ring's push count, and takes
          // no ring slot, so a full ring never drops it.
          sh.marks[marked] = sh.ring.pushed();
          sh.marked.store(++marked, std::memory_order_release);
          stop = interval < N - stop ? stop + interval : N;
          continue;
        }
        if (rate_pps > 0) {
          // Wait until the NIC would have delivered the burst's last record.
          const uint64_t last =
              issued.fetch_add(n, std::memory_order_relaxed) + n - 1;
          while (static_cast<double>(last) >=
                 wall.ElapsedSeconds() * rate_pps) {
            std::this_thread::yield();
          }
        }
        for (size_t i = 0; i < n; ++i) {
          // Offered before the record can surface anywhere else (ring, drop
          // counter), so the live registry view never over-accounts.
          Bump(sh.m.offered);
          if (drop_mode) {
            if (!sh.ring.PushOrDrop(*burst[i])) Bump(sh.m.rx_dropped);
          } else {
            while (!sh.ring.TryPush(*burst[i])) std::this_thread::yield();
          }
        }
      }
      sh.producer_done.store(true, std::memory_order_release);
    });
  }

  // ---- Workers: worker s is the only consumer of ring s and the only
  // writer of shard s's sketch. `respawned` is the crash-recovery entry:
  // the replacement for a killed worker first rebuilds the shard's sketch
  // from its newest checkpoint that passes validation. ----
  const auto worker_fn = [&](size_t s, bool respawned) {
    while (!start_gate.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    Shard& sh = *shards[s];
    const uint64_t thread_begin = ReadCycleCounter();
    std::vector<Packet> batch(drain_batch);

    const auto take_checkpoint = [&] {
      auto image = sh.sketches.active()->SerializeState();
      const uint64_t seq = ++sh.checkpoint_seq;
      injector.MaybeCorrupt(s, seq, &image);
      const size_t image_bytes = image.size();
      const uint64_t progress = sh.progress.load(std::memory_order_relaxed);
      sh.checkpoints.Put(seq, progress, std::move(image));
      ++sh.health.checkpoints_taken;
      Bump(sh.m.checkpoints);
      Bump(sh.m.checkpoint_bytes, image_bytes);
      sh.last_checkpoint = progress;
    };

    // The dead worker's sketch state died with it (in the real topology the
    // measurement process is gone): restore the newest valid image of the
    // active epoch, else start the epoch empty. Records applied after the
    // restored image was taken are the loss reported to the control plane.
    const auto restore = [&] {
      ++sh.health.restores;
      Bump(sh.m.restores);
      if (!config.with_sketch) return;
      Sketch* sk = sh.sketches.active();
      const uint64_t progress = sh.progress.load(std::memory_order_relaxed);
      bool restored = false;
      for (const auto& image : sh.checkpoints.Candidates()) {
        if (sk->RestoreState(image.bytes)) {
          sh.health.packets_lost_estimate += progress - image.progress;
          restored = true;
          break;
        }
        ++sh.health.checkpoints_rejected;
        Bump(sh.m.checkpoints_rejected);
      }
      if (!restored) {
        sk->Clear();
        sh.health.packets_lost_estimate += progress - sh.epoch_start;
      }
      sh.epoch_weight = sk->TotalValue();
      sh.monitor.Reset(sk->Stats());
    };

    // Last-resort escalation shared by both attack classes: force the
    // degradation ladder on (if the operator enabled it at all). Lifts after
    // sustained honest windows — see the kHonest branch below.
    const auto force_degrade = [&] {
      if (!config.degrade_enabled || sh.attack_degrade) return;
      sh.attack_degrade = true;
      sh.honest_streak = 0;
      ++sh.health.attack_degrade_forced;
      Bump(sh.m.attack_degrade_forced);
    };

    // Attack detection runs at window boundaries on the shard's writer, so
    // a seed rotation swaps the active sketch with no reader racing it.
    const auto observe_attack_window = [&] {
      Sketch* sk = sh.sketches.active();
      sh.last_window = sh.progress.load(std::memory_order_relaxed);
      const core::AttackMonitor::Verdict verdict =
          sh.monitor.ObserveWindow(sk->Stats());
      if (!sh.m.base.empty()) {
        obs::PublishAttackSignals(config.registry, sh.m.base + ".attack",
                                  sh.monitor);
      }
      switch (verdict) {
        case core::AttackMonitor::Verdict::kHonest:
          if (sh.attack_degrade &&
              ++sh.honest_streak >=
                  2 * static_cast<uint64_t>(
                          sh.monitor.options().confirm_windows)) {
            sh.attack_degrade = false;
            sh.honest_streak = 0;
          }
          break;
        case core::AttackMonitor::Verdict::kSuspicious:
          sh.honest_streak = 0;
          ++sh.health.attack_windows_suspicious;
          Bump(sh.m.attack_suspicious);
          break;
        case core::AttackMonitor::Verdict::kCollisionConfirmed: {
          sh.honest_streak = 0;
          ++sh.health.collision_attacks_confirmed;
          Bump(sh.m.attack_collision);
          if (!config.rotate_on_attack) {
            // Rotation disabled by the operator: degradation is the only
            // remedy left on the ladder.
            force_degrade();
            break;
          }
          const uint64_t rotation = sh.health.seed_rotations++;
          if (rotation > 0) {
            // The attacker re-learned a rotated seed (adaptive white-box);
            // rotating alone is not holding, so also engage the ladder.
            force_degrade();
          }
          uint64_t mix = config.rotation_seed ^
                         (static_cast<uint64_t>(s) << 32) ^ (rotation + 1);
          sh.seed = config.rotation_seed != 0 ? SplitMix64(mix) : RandomSeed();
          if (!core::RotateSeed(sk, sh.seed).mass_conserved) {
            sh.health.rotation_mass_conserved = false;
          }
          Bump(sh.m.seed_rotations);
          // The sketch under the counters just changed wholesale; judge the
          // next window against the fresh baseline, and checkpoint the new
          // seed at once so a crash right after rotation restores it.
          sh.monitor.Reset(sk->Stats());
          if (checkpointing) take_checkpoint();
          break;
        }
        case core::AttackMonitor::Verdict::kChurnFloodConfirmed:
          // Seed-independent flood: rotation would not help, degrade does.
          sh.honest_streak = 0;
          ++sh.health.churn_floods_confirmed;
          Bump(sh.m.attack_churn_flood);
          force_degrade();
          break;
      }
    };

    // Applies batch[0, n) to the shard's active sketch, guarded by the
    // writer-exclusion probe, then runs the per-batch bookkeeping:
    // checkpoints, attack windows and injected faults fire at batch
    // boundaries (deterministic in applied records, not wall time). Returns
    // true when an injected kill takes this worker down. Kept out of line:
    // with one call site GCC 12 -O3 inlines it, cold checkpoint, attack and
    // fault code included, into a 12 KB polling loop, which cost 6-7% of
    // the uncapped rate at 2 shards, 512 KiB, d=2 on a 4-vCPU KVM Xeon.
    const auto apply = [&](size_t n, bool degraded_mode)
                           __attribute__((noinline)) -> bool {
      uint32_t expected = 0;
      const bool claimed = sh.writer.compare_exchange_strong(
          expected, 1, std::memory_order_acq_rel, std::memory_order_relaxed);
      if (!claimed) {
        single_writer_violated.store(true, std::memory_order_relaxed);
      }
      const bool timed =
          config.with_sketch && sh.batches % kTimedBatchStride == 0;
      const uint64_t t0 = timed ? ReadCycleCounter() : 0;
      if (config.with_sketch) {
        Sketch* sk = sh.sketches.active();
        if (degraded_mode) {
          for (size_t i = 0; i < n; ++i) {
            if (sh.gate->Admit()) {
              const uint32_t cw = sh.gate->CompensatedWeight(batch[i].weight);
              sk->Update(batch[i].key, cw);
              sh.epoch_weight += cw;
            }
          }
        } else {
          sk->UpdateBatch(batch.data(), n);
          for (size_t i = 0; i < n; ++i) sh.epoch_weight += batch[i].weight;
        }
      }
      const uint64_t cycles = timed ? ReadCycleCounter() - t0 : 0;
      if (claimed) sh.writer.store(0, std::memory_order_release);

      (degraded_mode ? sh.health.packets_degraded : sh.health.packets_exact) +=
          n;
      ++sh.batches;
      sh.update_cycles += cycles * kTimedBatchStride;
      const uint64_t progress =
          sh.progress.load(std::memory_order_relaxed) + n;
      sh.progress.store(progress, std::memory_order_relaxed);
      if (sh.m.exact) {
        (degraded_mode ? sh.m.degraded : sh.m.exact)->Add(n);
        sh.m.batch_fill->Observe(n);
        if (timed) sh.m.drain_cycles->Observe(cycles);
      }
      if (checkpointing &&
          progress - sh.last_checkpoint >= config.checkpoint_interval) {
        take_checkpoint();
      }
      if (attack_detection &&
          progress - sh.last_window >= config.attack_window_packets) {
        observe_attack_window();
      }
      if (!have_faults) return false;
      if (const uint32_t ms = injector.StallMs(s, progress)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      }
      return injector.ShouldKill(s, progress);
    };

    // Rotates at each epoch mark reached (waiting while the collector holds
    // the previous epoch) and returns how many records precede the next.
    // The head is read before the mark count, and a mark is published
    // before any later push, so no unseen mark lies among `ready` records.
    // Checkpoints go with the retired epoch; a spare built before a seed
    // rotation is rebuilt on the shard's seed. Out of line, as apply is.
    const auto room = [&]() __attribute__((noinline)) -> size_t {
      for (;;) {
        const size_t ready = sh.ring.SizeApprox();
        const uint64_t done = sh.epoch_done.load(std::memory_order_relaxed);
        if (done == sh.marked.load(std::memory_order_acquire)) return ready;
        const uint64_t progress = sh.progress.load(std::memory_order_relaxed);
        if (progress < sh.marks[done]) return sh.marks[done] - progress;
        if (sh.sketches.Rotate(sh.epoch_weight)) {
          ++sh.health.epoch_waits;
          Bump(sh.m.epoch_waits);
        }
        sh.epoch_weight = 0;
        sh.epoch_start = progress;
        sh.checkpoints.Clear();
        Sketch* sk = sh.sketches.active();
        if (sk->seed() != sh.seed) {
          *sk = Sketch(per_shard_memory, config.d, sh.seed);
        }
        if (attack_detection) sh.monitor.Reset(sk->Stats());
        sh.epoch_done.store(done + 1, std::memory_order_release);
        if (sh.m.epoch) sh.m.epoch->Set(static_cast<double>(done + 1));
        wake.release();
      }
    };

    if (respawned) restore();

    bool killed = false;
    uint64_t idle_streak = 0;
    while (!killed) {
      const size_t max =
          marks == 0 ? drain_batch : std::min(drain_batch, room());
      // Occupancy is sampled before the pop (and after any wait at a mark)
      // so the ladder sees the backlog this batch was drained from.
      const size_t occupancy =
          config.degrade_enabled ? sh.ring.SizeApprox() : 0;
      const size_t n = sh.ring.PopBatch(batch.data(), max);
      if (sh.m.occupancy) {
        sh.m.occupancy->Set(static_cast<double>(sh.ring.SizeApprox()));
      }
      if (n != 0) {
        idle_streak = 0;
        // The ladder observes occupancy even while the attack response
        // holds the mode degraded, so its own hysteresis state stays
        // current.
        const bool degraded_mode =
            (config.degrade_enabled && sh.ladder.OnOccupancy(occupancy)) ||
            sh.attack_degrade;
        if (degraded_mode != sh.degraded) {
          sh.degraded = degraded_mode;
          Bump(degraded_mode ? sh.m.degrade_enter : sh.m.degrade_exit);
        }
        killed = apply(n, degraded_mode);
        continue;
      }
      // Done: producer done (all marks published), ring empty, marks served.
      if (sh.producer_done.load(std::memory_order_acquire) &&
          sh.ring.SizeApprox() == 0 &&
          sh.epoch_done.load(std::memory_order_relaxed) == marks) {
        break;
      }
      // A worker whose ring stayed empty for 64 polls (its producer paced
      // or descheduled) backs off from yield to a 50us sleep: on an
      // oversubscribed host a spinning worker takes CPU from the threads
      // that have work, and at the 13 Mpps NIC cap a producer needs over
      // 300us to fill a default 4096-slot ring.
      if (++idle_streak > 64) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        std::this_thread::yield();
      }
    }

    busy_cycles.fetch_add(ReadCycleCounter() - thread_begin,
                          std::memory_order_relaxed);
    sh.worker_status.store(killed ? kExited : kDone, std::memory_order_release);
    wake.release();
  };

  for (size_t s = 0; s < S; ++s) {
    shards[s]->worker = std::thread(worker_fn, s, false);
  }

  // Everyone is spawned; open the gate and start the measured clock.
  wall.Restart();
  start_gate.store(true, std::memory_order_release);

  // ---- Control plane, on the calling thread, until every worker is done:
  // (a) join a killed worker and start its replacement (join-before-respawn
  // keeps each shard single-writer at all times); (b) with a stall timeout,
  // flag shards whose progress froze while work remained; (c) collect epoch
  // E once every shard has published it. It sleeps until a publish or a
  // worker exit, and with stall detection at most 1 ms. ----
  const bool detect_stalls = config.watchdog_timeout_ms != 0;
  std::vector<StallDetector> detectors(
      S, StallDetector(config.watchdog_timeout_ms));
  std::vector<EpochRecord> epochs;
  query::FlowTable<FiveTuple> merged_table;
  uint64_t collected = 0;  // mid-run epochs collected
  for (;;) {
    const uint64_t now_ms = static_cast<uint64_t>(wall.ElapsedSeconds() * 1e3);
    bool all_done = true;
    bool published = collected < marks;  // by every shard: epoch collected+1
    for (size_t s = 0; s < S; ++s) {
      Shard& sh = *shards[s];
      published &= sh.epoch_done.load(std::memory_order_acquire) > collected;
      const int status = sh.worker_status.load(std::memory_order_acquire);
      if (status == kDone) continue;
      all_done = false;
      if (status == kExited) {
        sh.worker.join();
        sh.worker_status.store(kRunning, std::memory_order_release);
        sh.worker = std::thread(worker_fn, s, true);
      }
      const bool pending = !sh.producer_done.load(std::memory_order_acquire) ||
                           sh.ring.SizeApprox() != 0;
      if (detect_stalls &&
          detectors[s].Observe(sh.progress.load(std::memory_order_relaxed),
                               now_ms, pending)) {
        ++sh.health.stalls_detected;
        Bump(sh.m.stalls_detected);
      }
    }

    if (published) {
      // A shard holds one published epoch at most, so each slot holds this
      // one. Recycle (its Clear() runs here) releases the shard's next mark.
      std::vector<std::unique_ptr<Sketch>> taken;
      uint64_t weight = 0;
      for (auto& sh : shards) {
        auto pub = sh->sketches.TakePublished();
        weight += pub.applied_weight;
        taken.push_back(std::move(pub.sketch));
      }
      epochs.push_back(CollectEpoch(++collected, weight, taken, &merged_table));
      for (size_t s = 0; s < S; ++s) {
        shards[s]->sketches.Recycle(std::move(taken[s]));
      }
      if (config.registry != nullptr) {
        config.registry->GetGauge(config.metrics_prefix + ".run.epoch")
            ->Set(static_cast<double>(collected));
      }
      continue;
    }
    if (all_done) break;
    if (detect_stalls) {
      (void)wake.try_acquire_for(std::chrono::milliseconds(1));
    } else {
      wake.acquire();
    }
  }
  for (auto& t : producers) t.join();
  for (auto& sh : shards) sh->worker.join();
  const double seconds = wall.ElapsedSeconds();

  // ---- Final quiescent sweep: the active sketches, collected as one last
  // epoch. Every worker served every mark, and the loop collected each
  // mid-run epoch, so none is left published. ----
  std::vector<const Sketch*> sources;
  uint64_t weight = 0;
  for (const auto& sh : shards) {
    sources.push_back(sh->sketches.active());
    weight += sh->epoch_weight;
  }
  epochs.push_back(CollectEpoch(collected + 1, weight, sources, &merged_table));

  DatapathHealth& health = result.health;
  uint64_t update_cycles = 0;
  for (const auto& sh : shards) {
    AddHealth(sh->health, &health);
    health.rx_dropped += sh->ring.rx_dropped();
    health.degrade_enter_events += sh->ladder.enter_events();
    result.batches_drained += sh->batches;
    result.rotations += sh->epoch_done.load(std::memory_order_relaxed);
    update_cycles += sh->update_cycles;
  }
  health.stalls_injected = injector.stalls_fired();
  health.kills_injected = injector.kills_fired();
  result.rx_dropped = health.rx_dropped;
  result.packets_processed = health.packets_exact + health.packets_degraded;
  if (result.packets_processed != 0) {
    health.degraded_fraction =
        static_cast<double>(health.packets_degraded) /
        static_cast<double>(result.packets_processed);
  }
  result.mpps = seconds == 0.0
                    ? 0.0
                    : static_cast<double>(result.packets_processed) /
                          seconds / 1e6;
  if (result.batches_drained != 0) {
    result.avg_batch_fill = static_cast<double>(result.packets_processed) /
                            static_cast<double>(result.batches_drained);
  }
  if (busy_cycles.load() != 0) {
    result.measurement_cpu_fraction =
        static_cast<double>(update_cycles) /
        static_cast<double>(busy_cycles.load());
  }
  result.single_writer_ok = !single_writer_violated.load();
  result.epochs = std::move(epochs);
  for (const EpochRecord& rec : result.epochs) {
    result.total_sketch_mass += rec.sketch_mass;
  }
  result.merged_table = std::move(merged_table);

  // End-of-run publication: per-shard sketch introspection gauges plus the
  // run-level rates. Counters were maintained live above; these are the
  // quantities that only make sense at quiescence.
  if (config.registry != nullptr) {
    if (config.with_sketch) {
      for (const auto& sh : shards) {
        obs::PublishSketchStats(config.registry, sh->m.base + ".sketch",
                                sh->sketches.active()->Stats());
      }
    }
    const std::string run = config.metrics_prefix + ".run.";
    const auto gauge = [&](const char* leaf, double value) {
      config.registry->GetGauge(run + leaf)->Set(value);
    };
    gauge("mpps", result.mpps);
    gauge("measurement_cpu_fraction", result.measurement_cpu_fraction);
    gauge("avg_batch_fill", result.avg_batch_fill);
    gauge("degraded_fraction", health.degraded_fraction);
    // Current pool width, for dashboards; ReadConservation deliberately
    // ignores it and sums every q<i> that ever counted.
    gauge("num_shards", static_cast<double>(S));
    gauge("rotations", static_cast<double>(result.rotations));
  }
  return result;
}

}  // namespace coco::ovs
