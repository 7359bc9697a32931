// Software-switch deployment example: CocoSketch behind an OVS-style
// multi-threaded datapath (ring buffers + polling measurement threads, as in
// Appendix B), with a NIC line-rate cap. Shows the end-to-end path from
// packets on the wire to partial-key answers, plus the measurement CPU cost
// and the live observability layer (docs/OBSERVABILITY.md).
//
// Two runs:
//   1. fault-free backpressure run — health counters all land in `exact`;
//   2. faulted run (drop-newest ring, injected worker stall, degradation
//      ladder, checkpoints + a mid-run kill) with an epoch every 50,000
//      trace records — every robustness path fires, the metrics registry
//      still reconstructs the offered packet count from exact + degraded +
//      rx_dropped per shard, and each of the 8 epochs' sketch mass equals
//      the weight its shards applied.
//
// Both runs publish into an obs::Registry; the final snapshot is exported
// as JSON to stdout (or to the file given as argv[1]). Exits 1 if the
// conservation or an epoch check fails.
//
// Build & run:  ./build/examples/ovs_pipeline [metrics-out.json]
#include <cstdio>
#include <string_view>

#include "common/sizes.h"
#include "core/cocosketch.h"
#include "keys/key_spec.h"
#include "obs/snapshot.h"
#include "ovs/scaleout.h"
#include "query/flow_table.h"
#include "trace/generators.h"

using namespace coco;

namespace {

void PrintHealth(const ovs::ScaleoutResult& result,
                 const ovs::ScaleoutConfig& config) {
  std::printf("  drained  : %llu packets\n",
              static_cast<unsigned long long>(result.packets_processed));
  std::printf("  rate     : %.2f Mpps (NIC cap %.1f)\n", result.mpps,
              config.nic_rate_mpps);
  std::printf("  upd CPU  : %.2f%% of measurement-thread cycles\n",
              100.0 * result.measurement_cpu_fraction);
  const ovs::DatapathHealth& h = result.health;
  std::printf("  health   : exact %llu, degraded %llu (%.2f%%), dropped %llu\n",
              static_cast<unsigned long long>(h.packets_exact),
              static_cast<unsigned long long>(h.packets_degraded),
              100.0 * h.degraded_fraction,
              static_cast<unsigned long long>(h.rx_dropped));
  std::printf("  faults   : stalls %llu (detected %llu), kills %llu, "
              "restores %llu, est. lost %llu\n",
              static_cast<unsigned long long>(h.stalls_injected),
              static_cast<unsigned long long>(h.stalls_detected),
              static_cast<unsigned long long>(h.kills_injected),
              static_cast<unsigned long long>(h.restores),
              static_cast<unsigned long long>(h.packets_lost_estimate));
}

}  // namespace

int main(int argc, char** argv) {
  const char* metrics_sink = argc > 1 ? argv[1] : "-";
  const auto packets =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(400'000));

  // ---- Run 1: fault-free backpressure datapath --------------------------
  obs::Registry clean_registry;
  ovs::ScaleoutConfig config;
  config.num_shards = 2;          // two Rx queues (RSS shards)...
  config.num_workers = 2;         // ...each drained by its own worker
  config.nic_rate_mpps = 13.0;    // 40GbE at the trace's mean packet size
  config.with_sketch = true;
  config.sketch_memory_bytes = KiB(512);
  config.registry = &clean_registry;

  std::printf("running %zu packets through a %zu-shard datapath...\n",
              packets.size(), config.num_shards);
  const auto result = ovs::RunScaleout(config, packets);
  PrintHealth(result, config);

  // The datapath adds up its shard sketches' decodes on exit — query that
  // control-plane table directly.
  const auto by_dst =
      query::Aggregate(result.merged_table, keys::TupleKeySpec::DstIp());
  std::printf("\ntop destinations across the datapath's traffic:\n");
  for (const auto& [key, size] : query::TopRows(by_dst, 5)) {
    std::printf("  %-16s %10llu pkts\n",
                Ipv4ToString(LoadBE32(key.data())).c_str(),
                static_cast<unsigned long long>(size));
  }

  // ---- Run 2: every robustness path firing, metrics still conserve ------
  obs::Registry registry;
  ovs::ScaleoutConfig faulty = config;
  faulty.registry = &registry;
  // Pace the wire slowly enough that the run outlives the injected stall —
  // otherwise the whole trace arrives inside the stall window and nothing is
  // left to exercise the checkpoint/kill/restore paths.
  faulty.nic_rate_mpps = 1.0;
  faulty.ring_capacity = 256;
  faulty.overflow = ovs::OverflowPolicy::kDropNewest;
  faulty.degrade_enabled = true;
  faulty.checkpoint_interval = 4096;
  faulty.watchdog_timeout_ms = 50;
  faulty.rotation_interval_packets = 50'000;
  faulty.faults.stalls.push_back({0, 0, 100});  // first-batch stall: backlog
  faulty.faults.kills.push_back({1, packets.size() / faulty.num_shards / 2});

  std::printf("\nre-running with injected faults "
              "(drop-newest ring, 100 ms stall on q0, kill on q1)...\n");
  const auto faulted = ovs::RunScaleout(faulty, packets);
  PrintHealth(faulted, faulty);

  // Conservation, read live from the registry rather than ScaleoutResult:
  // offered == exact + degraded + rx_dropped once quiescent.
  const auto view = ovs::ReadConservation(&registry, faulty.metrics_prefix);
  std::printf("  conserve : offered %llu == exact %llu + degraded %llu + "
              "dropped %llu -> %s\n",
              static_cast<unsigned long long>(view.offered),
              static_cast<unsigned long long>(view.exact),
              static_cast<unsigned long long>(view.degraded),
              static_cast<unsigned long long>(view.rx_dropped),
              view.Holds() ? "OK" : "VIOLATED");

  // Epoch E holds trace records [(E - 1) * 50,000, E * 50,000): every mark
  // reaches its worker, also through drops, the stall and the respawn.
  bool epochs_ok = faulted.epochs.size() == 8;
  for (const auto& rec : faulted.epochs) {
    const bool ok = rec.sketch_mass == rec.applied_weight;
    epochs_ok &= ok;
    std::printf("  epoch %-3llu: applied %llu, sketch mass %llu%s\n",
                static_cast<unsigned long long>(rec.epoch),
                static_cast<unsigned long long>(rec.applied_weight),
                static_cast<unsigned long long>(rec.sketch_mass),
                ok ? "" : " -> MISMATCH");
  }
  std::printf("  epochs   : %zu collected (8 expected), %llu waits at a mark "
              "-> %s\n",
              faulted.epochs.size(),
              static_cast<unsigned long long>(faulted.health.epoch_waits),
              epochs_ok ? "OK" : "VIOLATED");

  // Export the faulted run's full snapshot as machine-readable JSON: one
  // compact line on stdout, or the pretty form written to the named file.
  const bool to_stdout = std::string_view(metrics_sink) == "-";
  std::printf("\nmetrics snapshot (%s):\n",
              to_stdout ? "stdout" : metrics_sink);
  std::FILE* out = to_stdout ? stdout : std::fopen(metrics_sink, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write metrics snapshot to %s\n",
                 metrics_sink);
    return 1;
  }
  std::fputs(
      obs::ToJson(obs::CaptureSnapshot(registry), /*pretty=*/!to_stdout)
          .c_str(),
      out);
  if (to_stdout) {
    std::fputc('\n', out);
  } else {
    std::fclose(out);
  }
  return view.Holds() && epochs_ok ? 0 : 1;
}
