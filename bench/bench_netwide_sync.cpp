// bench_netwide_sync — the three quantitative claims of the network-wide
// aggregation layer (docs/NETWIDE.md), and what its sync costs:
//
//   1. Accuracy: a sketch-level merge of k shards matches a monolithic
//      sketch of the same total memory — heavy-hitter F1 within a small
//      margin and per-aggregate mean signed error ≈ 0 (the merge is
//      unbiased, core/merge.h).
//   2. Delta sync: on a skewed CAIDA-like trace, per-epoch dirty-bucket
//      deltas cost a fraction of shipping the full image every epoch.
//   3. Resilience: an agent/collector run with injected frame faults
//      (drop + corruption) and one agent restart still converges with the
//      conservation counters balanced.
//   4. Sync cost per epoch at e2ebench's netwide_mawi geometry: the median
//      export and collector-tick time, written to BENCH_netwide_sync.json.
//
// Exits nonzero if any of the three claims fails, or if the sync-cost run
// fails to sync or to conserve mass, so the bench doubles as a regression
// gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "core/merge.h"
#include "harness.h"
#include "keys/key_spec.h"
#include "metrics/accuracy.h"
#include "net/agent.h"
#include "net/collector.h"
#include "net/delta.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "ovs/fault.h"
#include "query/flow_table.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

using namespace coco;
using Sketch = core::CocoSketch<FiveTuple>;

namespace {

// Sized so even an 8-way split leaves each shard enough buckets for the
// trace's heavy hitters — the accuracy table isolates merge-induced error,
// not under-provisioning.
constexpr size_t kTotalMem = KiB(128);

// ---- 1. merged vs monolithic accuracy -------------------------------------

bool BenchMergedAccuracy(const std::vector<Packet>& trace,
                         const trace::ExactCounter<FiveTuple>& truth) {
  bench::PrintHeader("merged k-shard vs monolithic (equal total memory)");
  const keys::TupleKeySpec spec = keys::TupleKeySpec::SrcIp();
  const auto exact = truth.Aggregate(spec);
  // Heavy-hitter threshold sits well above the smallest shard's per-bucket
  // mass scale: an 8-way split packs the same mass into 1/8 of the buckets,
  // so aggregates near that scale churn from resolution loss alone, which
  // is not what the merge rule is on trial for. The mean-signed-error
  // column is the unbiasedness check and uses every heavy aggregate.
  const uint64_t threshold = truth.Total() / 100;
  const int kTrials = 5;

  std::printf("%-12s %8s %8s %12s\n", "config", "F1", "ARE",
              "mean-signed-e");
  bool ok = true;
  double f1_mono = 0;
  for (size_t shards : {1, 2, 4, 8}) {
    double f1 = 0, are = 0, signed_err = 0;
    size_t heavy = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const uint64_t seed = 0xc0c0 + trial;
      std::vector<Sketch> shard;
      for (size_t s = 0; s < shards; ++s) {
        shard.emplace_back(kTotalMem / shards, 2, seed);
      }
      for (size_t i = 0; i < trace.size(); ++i) {
        shard[i % shards].Update(trace[i].key, trace[i].weight);
      }
      Sketch merged(kTotalMem / shards, 2, seed);
      Rng rng(0x6e7 + trial);
      for (const auto& s : shard) {
        if (!core::MergeSketches(&merged, s, &rng).ok) {
          std::fprintf(stderr, "merge rejected matching shards!\n");
          return false;
        }
      }
      const auto table = query::Aggregate(merged.Decode(), spec);
      const auto score =
          metrics::ScoreThreshold(table, exact.counts(), threshold);
      f1 += score.f1 / kTrials;
      are += score.are / kTrials;
      for (const auto& [key, exact_size] : exact.counts()) {
        if (exact_size < threshold) continue;
        auto it = table.find(key);
        const uint64_t est = it == table.end() ? 0 : it->second;
        signed_err += (static_cast<double>(est) -
                       static_cast<double>(exact_size)) /
                      static_cast<double>(exact_size);
        if (trial == 0) ++heavy;
      }
    }
    signed_err /= static_cast<double>(kTrials * (heavy == 0 ? 1 : heavy));
    char label[32];
    std::snprintf(label, sizeof(label), "%zu-shard", shards);
    std::printf("%-12s %8.4f %8.4f %12.4f\n",
                shards == 1 ? "monolithic" : label, f1, are, signed_err);
    if (shards == 1) {
      f1_mono = f1;
    } else if (f1 < f1_mono - 0.1) {
      std::fprintf(stderr, "FAIL: %zu-shard F1 %.4f << monolithic %.4f\n",
                   shards, f1, f1_mono);
      ok = false;
    }
  }
  return ok;
}

// ---- 2. delta vs full sync bytes ------------------------------------------

bool BenchDeltaBytes(const std::vector<Packet>& trace) {
  bench::PrintHeader("delta sync vs full images (per-epoch bytes)");
  const size_t kEpochs = 10;
  Sketch sketch(kTotalMem, 2);
  sketch.EnableDeltaTracking();
  const size_t full_bytes = sketch.SerializeState().size();
  const size_t per_epoch = trace.size() / kEpochs;

  uint64_t delta_total = 0;
  std::printf("%-8s %12s %12s %8s\n", "epoch", "delta-B", "full-B", "ratio");
  for (size_t e = 0; e < kEpochs; ++e) {
    const size_t begin = e * per_epoch;
    const size_t end = e + 1 == kEpochs ? trace.size() : begin + per_epoch;
    for (size_t i = begin; i < end; ++i) {
      sketch.Update(trace[i].key, trace[i].weight);
    }
    const auto delta = net::BuildDeltaPayload(sketch, e);
    sketch.ClearDirtyFlags();
    delta_total += delta.size();
    std::printf("%-8zu %12zu %12zu %8.3f\n", e + 1, delta.size(),
                full_bytes,
                static_cast<double>(delta.size()) /
                    static_cast<double>(full_bytes));
  }
  const uint64_t full_total = static_cast<uint64_t>(full_bytes) * kEpochs;
  std::printf("total    %12llu %12llu %8.3f\n",
              static_cast<unsigned long long>(delta_total),
              static_cast<unsigned long long>(full_total),
              static_cast<double>(delta_total) /
                  static_cast<double>(full_total));
  if (delta_total >= full_total) {
    std::fprintf(stderr,
                 "FAIL: delta sync (%llu B) not cheaper than full sync "
                 "(%llu B)\n",
                 static_cast<unsigned long long>(delta_total),
                 static_cast<unsigned long long>(full_total));
    return false;
  }
  return true;
}

// ---- 3. faulted transport convergence -------------------------------------

bool BenchFaultedConvergence(const std::vector<Packet>& trace) {
  bench::PrintHeader("faulted sync: drops + corruption + agent restart");
  const int kAgents = 3;
  const size_t kEpochs = 4;

  ovs::FaultPlan plan;
  plan.frames.push_back({1, 2, ovs::FrameFault::Action::kDrop});
  plan.frames.push_back({2, 2, ovs::FrameFault::Action::kCorrupt});
  plan.frames.push_back({3, 3, ovs::FrameFault::Action::kDrop});
  net::LoopbackHub hub(plan);
  obs::Registry registry;
  auto ct = hub.MakeCollectorTransport();
  net::Collector<Sketch>::Options copt;
  copt.memory_bytes = kTotalMem;
  net::Collector<Sketch> collector(copt, &ct, &registry);

  std::vector<std::unique_ptr<Sketch>> sketches;
  std::vector<net::LoopbackAgentTransport> transports;
  transports.reserve(kAgents);
  std::vector<std::unique_ptr<net::Agent<Sketch>>> agents;
  for (int i = 0; i < kAgents; ++i) {
    sketches.push_back(std::make_unique<Sketch>(kTotalMem, 2));
    transports.push_back(hub.MakeAgentTransport(i + 1));
    net::Agent<Sketch>::Options o;
    o.id = i + 1;
    o.resend_after_ticks = 4;
    agents.push_back(std::make_unique<net::Agent<Sketch>>(
        o, sketches[i].get(), &transports[i], &registry));
  }

  const auto converge = [&] {
    for (int t = 0; t < 3000; ++t) {
      bool synced = true;
      for (auto& a : agents) {
        a->Tick();
        synced &= a->Synced() && a->last_acked_epoch() > 0;
      }
      collector.Tick();
      if (synced) return;
    }
  };

  const size_t per_epoch = trace.size() / kEpochs;
  for (size_t e = 0; e < kEpochs; ++e) {
    const size_t begin = e * per_epoch;
    const size_t end = e + 1 == kEpochs ? trace.size() : begin + per_epoch;
    for (size_t i = begin; i < end; ++i) {
      sketches[i % kAgents]->Update(trace[i].key, trace[i].weight);
    }
    for (auto& a : agents) a->ExportEpoch();
    converge();
    if (e == 0) {
      // Restart agent 1 with a fresh sketch and epoch counter.
      agents[0].reset();
      sketches[0] = std::make_unique<Sketch>(kTotalMem, 2);
      net::Agent<Sketch>::Options o;
      o.id = 1;
      o.resend_after_ticks = 4;
      agents[0] = std::make_unique<net::Agent<Sketch>>(
          o, sketches[0].get(), &transports[0], &registry);
    }
  }
  for (int extra = 0;
       extra < 8 && collector.LastEpochOf(1) != agents[0]->epoch(); ++extra) {
    agents[0]->ExportEpoch();
    converge();
  }

  uint64_t sketch_mass = 0;
  for (auto& s : sketches) sketch_mass += s->TotalValue();
  const auto c = collector.CheckConservation();
  const auto stats = hub.Stats();
  std::printf("faults fired: %llu (dropped %llu, corrupted %llu); retries "
              "%llu; nacks %llu\n",
              static_cast<unsigned long long>(
                  hub.faults().frame_faults_fired()),
              static_cast<unsigned long long>(stats.frames_dropped),
              static_cast<unsigned long long>(stats.frames_corrupted),
              static_cast<unsigned long long>(
                  registry.GetCounter("net.agent1.frames_retried")->Value() +
                  registry.GetCounter("net.agent2.frames_retried")->Value() +
                  registry.GetCounter("net.agent3.frames_retried")->Value()),
              static_cast<unsigned long long>(
                  registry.GetCounter("net.collector.nacks_sent")->Value()));
  std::printf("conservation: reported=%llu replica=%llu merged=%llu "
              "(sketches hold %llu)\n",
              static_cast<unsigned long long>(c.reported_mass),
              static_cast<unsigned long long>(c.replica_mass),
              static_cast<unsigned long long>(c.merged_mass),
              static_cast<unsigned long long>(sketch_mass));
  if (!c.Holds() || c.replica_mass != sketch_mass) {
    std::fprintf(stderr, "FAIL: conservation violated after faulted run\n");
    return false;
  }
  std::printf("converged: conservation balanced\n");
  return true;
}

// ---- 4. sync cost per epoch -------------------------------------------------

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// 4 agents x 512 KiB, a MAWI-like trace dealt round-robin, 120 epochs. Per
// epoch, times every agent's ExportEpoch (build and frame the delta) and the
// collector's Ticks until every agent is acked (validate and apply). Between
// epochs the collector decodes its merged view, as a console statement
// would, so each epoch meets the caches a real one meets. Epoch 1 ships full
// images and is left out of the medians.
bool BenchSyncCost() {
  bench::PrintHeader("sync cost per epoch (netwide_mawi geometry)");
  constexpr size_t kAgents = 4;
  constexpr size_t kEpochs = 120;
  constexpr size_t kPasses = 3;
  constexpr size_t kAgentMem = KiB(512);
  const auto trace = trace::GenerateTrace(
      trace::TraceConfig::MawiLike(bench::BenchPackets(2'000'000)));
  const auto ms_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  std::vector<double> export_ms, tick_ms;
  for (size_t pass = 0; pass < kPasses; ++pass) {
    net::LoopbackHub hub;
    obs::Registry registry;
    auto ct = hub.MakeCollectorTransport();
    net::Collector<Sketch>::Options copt;
    copt.memory_bytes = kAgentMem;
    net::Collector<Sketch> collector(copt, &ct, &registry);
    std::vector<std::unique_ptr<Sketch>> sketches;
    std::vector<net::LoopbackAgentTransport> transports;
    transports.reserve(kAgents);
    std::vector<std::unique_ptr<net::Agent<Sketch>>> agents;
    for (size_t i = 0; i < kAgents; ++i) {
      sketches.push_back(std::make_unique<Sketch>(kAgentMem, 2));
      transports.push_back(hub.MakeAgentTransport(i + 1));
      net::Agent<Sketch>::Options o;
      o.id = static_cast<uint32_t>(i + 1);
      agents.push_back(std::make_unique<net::Agent<Sketch>>(
          o, sketches[i].get(), &transports[i], &registry));
    }

    uint64_t mass = 0;
    const size_t per_epoch = trace.size() / kEpochs;
    for (size_t e = 0; e < kEpochs; ++e) {
      const size_t begin = e * per_epoch;
      const size_t end = e + 1 == kEpochs ? trace.size() : begin + per_epoch;
      for (size_t i = begin; i < end; ++i) {
        sketches[i % kAgents]->Update(trace[i].key, trace[i].weight);
        mass += trace[i].weight;
      }
      const auto start = std::chrono::steady_clock::now();
      for (auto& a : agents) a->ExportEpoch();
      const double exported = ms_since(start);
      double ticked = 0;
      bool synced = false;
      for (int round = 0; round < 64 && !synced; ++round) {
        const auto tick = std::chrono::steady_clock::now();
        collector.Tick();
        ticked += ms_since(tick);
        synced = true;
        for (auto& a : agents) {
          a->Tick();
          synced &= a->Synced();
        }
      }
      if (!synced) {
        std::fprintf(stderr, "FAIL: agents did not sync in epoch %zu\n",
                     e + 1);
        return false;
      }
      if (e > 0) {
        export_ms.push_back(exported);
        tick_ms.push_back(ticked);
      }
      collector.DecodeMerged();
    }
    const auto c = collector.CheckConservation();
    if (!c.Holds() || c.replica_mass != mass) {
      std::fprintf(stderr, "FAIL: conservation violated in the sync run\n");
      return false;
    }
  }

  const double export_median = MedianOf(export_ms);
  const double tick_median = MedianOf(tick_ms);
  std::printf("%zu agents x %s, %zu packets, %zu epochs x %zu passes\n",
              kAgents, FormatBytes(kAgentMem).c_str(), trace.size(), kEpochs,
              kPasses);
  std::printf("%-24s %10s\n", "median per epoch", "ms");
  std::printf("%-24s %10.3f\n", "export (all agents)", export_median);
  std::printf("%-24s %10.3f\n", "collector tick", tick_median);

  bench::BenchJson json("netwide_sync");
  json.Context("packets", std::to_string(trace.size()));
  json.Context("agents", std::to_string(kAgents));
  json.Context("agent_memory", FormatBytes(kAgentMem));
  json.Context("epochs", std::to_string(kEpochs));
  json.Context("trace", "mawi-like, round-robin");
  json.Metric("netwide_sync/export/epochs_per_s", 1e3 / export_median);
  json.Metric("netwide_sync/collector_tick/epochs_per_s", 1e3 / tick_median);
  const char* json_path = std::getenv("COCO_BENCH_JSON");
  json.Write(json_path ? json_path : "BENCH_netwide_sync.json");
  return true;
}

}  // namespace

int main() {
  const size_t packets = bench::BenchPackets(400'000);
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(packets));
  trace::ExactCounter<FiveTuple> truth;
  for (const Packet& p : trace) truth.Add(p.key, p.weight);
  std::printf("bench_netwide_sync: %zu packets, %zu flows, total memory %s\n",
              trace.size(), truth.counts().size(),
              FormatBytes(kTotalMem).c_str());

  bool ok = true;
  ok &= BenchMergedAccuracy(trace, truth);
  ok &= BenchDeltaBytes(trace);
  ok &= BenchFaultedConvergence(trace);
  ok &= BenchSyncCost();
  std::printf("\nbench_netwide_sync: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
