// Overload resilience: what each overflow policy trades away when a
// measurement thread falls behind (docs/ROBUSTNESS.md).
//
// The overload is an injected 25 ms consumer stall behind a small ring, with
// the producer paced at the NIC rate — the simulated equivalent of a core
// being stolen by the scheduler mid-burst. Three policies ride the same
// fault:
//   backpressure — producer spins, nothing lost, offered rate collapses;
//   drop-newest  — producer never blocks; the stall window's arrivals
//                  (minus one ring) are counted and dropped;
//   drop+degrade — same, plus the consumer wakes to a full ring, crosses the
//                  high watermark, and works it off in sampled mode with
//                  compensated weights — recorded mass stays an unbiased
//                  estimate of what it processed.
//
// A second table shows the crash-recovery accounting: a consumer killed
// mid-run is respawned from its last checkpoint, and recorded mass plus the
// reported bounded-loss estimate reconstructs the offered mass exactly.
#include "harness.h"
#include "obs/snapshot.h"
#include "ovs/scaleout.h"

using namespace coco;
using namespace coco::bench;

namespace {

ovs::ScaleoutConfig BaseConfig() {
  ovs::ScaleoutConfig dp;
  dp.num_shards = 1;
  dp.num_workers = 1;
  dp.nic_rate_mpps = 4.0;  // paced: the stall window bounds the loss
  dp.ring_capacity = 1024;
  dp.sketch_memory_bytes = KiB(512);
  // after_packets = 0 fires the stall at the first drained batch — in drop
  // mode a higher trigger could race the producer's drops.
  dp.faults.stalls.push_back({0, 0, 25});
  return dp;
}

}  // namespace

int main() {
  const auto trace = trace::GenerateTrace(
      trace::TraceConfig::CaidaLike(BenchPackets(400'000)));
  std::printf(
      "Overload policies under an injected 25 ms consumer stall "
      "(%zu pkts at 4 Mpps, 1024-slot ring)\n",
      trace.size());

  ovs::ScaleoutConfig backpressure = BaseConfig();

  ovs::ScaleoutConfig drop = BaseConfig();
  drop.overflow = ovs::OverflowPolicy::kDropNewest;

  ovs::ScaleoutConfig degrade = drop;
  degrade.degrade_enabled = true;

  std::vector<double> mpps, dropped, processed_pct, degraded_pct, mass_pct;
  for (const auto& config : {backpressure, drop, degrade}) {
    const auto r = ovs::RunScaleout(config, trace);
    mpps.push_back(r.mpps);
    dropped.push_back(static_cast<double>(r.health.rx_dropped));
    processed_pct.push_back(100.0 *
                            static_cast<double>(r.packets_processed) /
                            static_cast<double>(trace.size()));
    degraded_pct.push_back(100.0 * r.health.degraded_fraction);
    mass_pct.push_back(100.0 *
                       static_cast<double>(metrics::TotalMass(r.merged_table)) /
                       static_cast<double>(trace.size()));
  }

  PrintHeader("Policy comparison");
  PrintColumns("policy", {"backpr", "drop", "drop+deg"});
  PrintRow("mpps", mpps, " %8.2f");
  PrintRow("rx_drop", dropped, " %8.0f");
  PrintRow("proc%", processed_pct, " %8.2f");
  PrintRow("degr%", degraded_pct, " %8.2f");
  PrintRow("mass%", mass_pct, " %8.2f");

  // Crash recovery: kill the consumer halfway, restore from checkpoint. The
  // run publishes into a metrics registry so the accounting below can also be
  // read back from counters alone (docs/OBSERVABILITY.md).
  obs::Registry registry;
  ovs::ScaleoutConfig crash;
  crash.num_shards = 1;
  crash.num_workers = 1;
  crash.nic_rate_mpps = 1000.0;
  crash.ring_capacity = 1024;
  crash.sketch_memory_bytes = KiB(512);
  crash.checkpoint_interval = 4096;
  crash.watchdog_timeout_ms = 50;
  crash.faults.kills.push_back({0, trace.size() / 2});
  crash.registry = &registry;
  const auto r = ovs::RunScaleout(crash, trace);
  const uint64_t mass = metrics::TotalMass(r.merged_table);

  PrintHeader("Crash recovery accounting (kill at 50%, ckpt every 4096)");
  std::printf("offered            %12zu\n", trace.size());
  std::printf("recorded mass      %12llu\n",
              static_cast<unsigned long long>(mass));
  std::printf("lost (bounded)     %12llu\n",
              static_cast<unsigned long long>(r.health.packets_lost_estimate));
  std::printf("mass + lost        %12llu   (== offered)\n",
              static_cast<unsigned long long>(mass +
                                              r.health.packets_lost_estimate));
  std::printf("checkpoints taken  %12llu, restores %llu\n",
              static_cast<unsigned long long>(r.health.checkpoints_taken),
              static_cast<unsigned long long>(r.health.restores));

  // The same story from the registry: packet conservation plus the
  // checkpoint byte volume, all from counters the datapath kept live.
  const auto view = ovs::ReadConservation(&registry, crash.metrics_prefix);
  std::printf("registry conserve  %12llu = %llu exact + %llu degraded + "
              "%llu dropped -> %s\n",
              static_cast<unsigned long long>(view.offered),
              static_cast<unsigned long long>(view.exact),
              static_cast<unsigned long long>(view.degraded),
              static_cast<unsigned long long>(view.rx_dropped),
              view.Holds() ? "OK" : "VIOLATED");
  std::printf("checkpoint bytes   %12llu\n",
              static_cast<unsigned long long>(
                  registry
                      .GetCounter(crash.metrics_prefix + ".q0.checkpoint_bytes")
                      ->Value()));

  std::printf("\nmetrics snapshot of the crash run:\n%s\n",
              obs::ToJson(obs::CaptureSnapshot(registry), /*pretty=*/false)
                  .c_str());

  std::printf(
      "\nExpected shape: backpressure records 100%% of mass, pushing the\n"
      "stall back onto the wire; drop-newest never blocks and loses the\n"
      "stall window's arrivals (mass%% tracks proc%%); with the ladder a\n"
      "slice of the backlog is processed in sampled mode (degr%% > 0) and\n"
      "mass%% still tracks proc%% — compensation keeps it unbiased. The crash\n"
      "run reconstructs offered mass exactly from recorded + bounded loss.\n");
  return 0;
}
