// Observability layer: metric primitives, registry semantics, the snapshot
// and its exact JSON text, and the live conservation invariant read off an
// instrumented (and faulted) datapath run.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/sizes.h"
#include "obs/metrics.h"
#include "obs/sketch_metrics.h"
#include "obs/snapshot.h"
#include "ovs/scaleout.h"
#include "trace/generators.h"

namespace coco::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Counter, ConcurrentIncrementsAreNotLost) {
  // Run under the thread sanitizer preset too (scripts/run_sanitizers.sh):
  // the relaxed RMWs must be data-race free and lose no increments.
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100'000;
  Counter c;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  g.Set(0.75);
  g.Set(0.5);
  EXPECT_DOUBLE_EQ(g.Value(), 0.5);
}

TEST(Histogram, BucketIndexMatchesBitWidth) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), 64u);
}

TEST(Histogram, BucketUpperBoundsAreInclusiveBoundaries) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(63),
            (uint64_t{1} << 63) - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(64), UINT64_MAX);
  // Every value lands in the bucket whose bound covers it and whose
  // predecessor's bound does not.
  for (uint64_t v : {0ull, 1ull, 2ull, 5ull, 1023ull, 1024ull, 123456789ull}) {
    const size_t i = Histogram::BucketIndex(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(i)) << v;
    if (i > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(i - 1)) << v;
    }
  }
}

TEST(Histogram, ObserveTracksCountSumAndBuckets) {
  Histogram h;
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull}) h.Observe(v);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 106u);
  EXPECT_EQ(h.BucketCount(0), 1u);  // the zero
  EXPECT_EQ(h.BucketCount(1), 1u);  // 1
  EXPECT_EQ(h.BucketCount(2), 2u);  // 2, 3
  EXPECT_EQ(h.BucketCount(7), 1u);  // 100 in [64,127]
}

TEST(Histogram, ApproxQuantileIsBucketUpperBound) {
  Histogram h;
  EXPECT_EQ(h.ApproxQuantile(0.5), 0u);  // empty -> 0
  for (int i = 0; i < 98; ++i) h.Observe(1);
  h.Observe(1000);
  h.Observe(1000);
  EXPECT_EQ(h.ApproxQuantile(0.5), 1u);
  // The two 1000s live in bucket bit_width(1000)=10, bound 1023.
  EXPECT_EQ(h.ApproxQuantile(1.0), 1023u);
}

TEST(Registry, GetIsCreateOrGetWithStablePointers) {
  Registry r;
  Counter* a = r.GetCounter("a.b");
  EXPECT_EQ(a->Value(), 0u);
  a->Add(3);
  EXPECT_EQ(r.GetCounter("a.b"), a);  // same handle on re-lookup
  EXPECT_EQ(r.GetCounter("a.b")->Value(), 3u);
  // Counters, gauges and histograms are separate namespaces: the same name
  // can exist in each without collision.
  r.GetGauge("a.b")->Set(1.5);
  r.GetHistogram("a.b")->Observe(7);
  EXPECT_EQ(r.GetCounter("a.b")->Value(), 3u);
}

TEST(Registry, ValidNameRejectsCharactersThatWouldNeedJsonEscaping) {
  EXPECT_TRUE(Registry::ValidName("ovs.q0.rx_dropped"));
  EXPECT_TRUE(Registry::ValidName("A-Z_09."));
  EXPECT_FALSE(Registry::ValidName(""));
  EXPECT_FALSE(Registry::ValidName("has space"));
  EXPECT_FALSE(Registry::ValidName("quote\"inside"));
  EXPECT_FALSE(Registry::ValidName("back\\slash"));
}

Registry* PopulateRegistry(Registry* r) {
  r->GetCounter("dp.q0.offered")->Add(1000);
  r->GetCounter("dp.q0.exact")->Add(990);
  r->GetCounter("dp.q0.rx_dropped")->Add(10);
  r->GetGauge("dp.run.mpps")->Set(3.25);
  r->GetGauge("dp.run.fraction")->Set(0.123456789012345);
  Histogram* h = r->GetHistogram("dp.q0.batch_fill");
  for (uint64_t v : {0ull, 1ull, 5ull, 32ull, 33ull}) h->Observe(v);
  return r;
}

TEST(Snapshot, CaptureCopiesEveryMetric) {
  Registry r;
  PopulateRegistry(&r);
  const Snapshot snap = CaptureSnapshot(r);
  EXPECT_EQ(snap.counters.at("dp.q0.offered"), 1000u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("dp.run.mpps"), 3.25);
  const HistogramSnapshot& h = snap.histograms.at("dp.q0.batch_fill");
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 71u);
  // Only non-empty buckets are kept, ascending by bound.
  ASSERT_EQ(h.buckets.size(), 4u);
  EXPECT_EQ(h.buckets[0], (std::pair<uint64_t, uint64_t>{0, 1}));
  EXPECT_EQ(h.buckets[1], (std::pair<uint64_t, uint64_t>{1, 1}));
  EXPECT_EQ(h.buckets[2], (std::pair<uint64_t, uint64_t>{7, 1}));
  EXPECT_EQ(h.buckets[3], (std::pair<uint64_t, uint64_t>{63, 2}));
}

// ToJson's exact text in both forms: names sorted within each section,
// gauges at %.17g (0.1 prints its full binary value, so any reader gets the
// same double back), histograms with their non-empty buckets only.
TEST(Snapshot, JsonRoundTripsBothForms) {
  Registry r;
  PopulateRegistry(&r);
  r.GetGauge("dp.run.tenth")->Set(0.1);
  const Snapshot snap = CaptureSnapshot(r);
  EXPECT_EQ(ToJson(snap, /*pretty=*/true),
            "{\n"
            "  \"counters\": {\n"
            "    \"dp.q0.exact\": 990,\n"
            "    \"dp.q0.offered\": 1000,\n"
            "    \"dp.q0.rx_dropped\": 10\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"dp.run.fraction\": 0.123456789012345,\n"
            "    \"dp.run.mpps\": 3.25,\n"
            "    \"dp.run.tenth\": 0.10000000000000001\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"dp.q0.batch_fill\": {\"count\": 5, \"sum\": 71, "
            "\"buckets\": [[0, 1], [1, 1], [7, 1], [63, 2]]}\n"
            "  }\n"
            "}\n");
  EXPECT_EQ(ToJson(snap, /*pretty=*/false),
            "{\"counters\": {\"dp.q0.exact\": 990,\"dp.q0.offered\": 1000,"
            "\"dp.q0.rx_dropped\": 10},"
            "\"gauges\": {\"dp.run.fraction\": 0.123456789012345,"
            "\"dp.run.mpps\": 3.25,\"dp.run.tenth\": 0.10000000000000001},"
            "\"histograms\": {\"dp.q0.batch_fill\": {\"count\": 5, "
            "\"sum\": 71, \"buckets\": [[0, 1], [1, 1], [7, 1], [63, 2]]}}}");
}

TEST(Snapshot, EmptyRegistryRoundTrips) {
  Registry r;
  const Snapshot snap = CaptureSnapshot(r);
  EXPECT_EQ(ToJson(snap, /*pretty=*/true),
            "{\n  \"counters\": {\n  },\n  \"gauges\": {\n  },\n"
            "  \"histograms\": {\n  }\n}\n");
  EXPECT_EQ(ToJson(snap, /*pretty=*/false),
            "{\"counters\": {},\"gauges\": {},\"histograms\": {}}");
}

TEST(SketchMetrics, PublishesGaugesUnderPrefix) {
  core::SketchStats stats;
  stats.buckets_total = 100;
  stats.buckets_occupied = 40;
  stats.load_factor = 0.4;
  stats.total_value = 12345;
  stats.per_array_occupied = {25, 15};
  Registry r;
  PublishSketchStats(&r, "sk", stats);
  EXPECT_DOUBLE_EQ(r.GetGauge("sk.load_factor")->Value(), 0.4);
  EXPECT_DOUBLE_EQ(r.GetGauge("sk.buckets_occupied")->Value(), 40.0);
  EXPECT_DOUBLE_EQ(r.GetGauge("sk.array0.occupied")->Value(), 25.0);
  EXPECT_DOUBLE_EQ(r.GetGauge("sk.array1.occupied")->Value(), 15.0);
}

// The acceptance invariant: on a faulted datapath run (drop-newest overflow,
// injected stall, degradation ladder, checkpoint + kill + restore), every
// queue's offered counter equals exact + degraded + rx_dropped at
// quiescence, read purely from the registry.
TEST(Conservation, HoldsPerQueueOnFaultedRun) {
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(60000));
  Registry registry;
  ovs::ScaleoutConfig dp;
  dp.num_shards = 2;
  dp.num_workers = 2;
  dp.metrics_prefix = "ovs";
  dp.nic_rate_mpps = 1000.0;
  dp.ring_capacity = 256;
  dp.sketch_memory_bytes = KiB(128);
  dp.overflow = ovs::OverflowPolicy::kDropNewest;
  dp.degrade_enabled = true;
  dp.checkpoint_interval = 4096;
  dp.watchdog_timeout_ms = 50;
  dp.faults.stalls.push_back({0, 0, 30});
  dp.faults.kills.push_back({1, trace.size() / dp.num_shards / 2});
  dp.registry = &registry;
  const auto result = ovs::RunScaleout(dp, trace);

  // Aggregate view first: offered must equal the trace (RSS split).
  const auto view = ovs::ReadConservation(&registry, dp.metrics_prefix);
  EXPECT_EQ(view.offered, trace.size());
  EXPECT_TRUE(view.Holds())
      << "offered " << view.offered << " != " << view.exact << " + "
      << view.degraded << " + " << view.rx_dropped;
  EXPECT_TRUE(view.HoldsLive());

  // And per queue, via single-queue reads of the same counters.
  for (size_t q = 0; q < dp.num_shards; ++q) {
    const std::string p = "ovs.q" + std::to_string(q) + ".";
    const uint64_t offered = registry.GetCounter(p + "offered")->Value();
    const uint64_t exact = registry.GetCounter(p + "exact")->Value();
    const uint64_t degraded = registry.GetCounter(p + "degraded")->Value();
    const uint64_t dropped = registry.GetCounter(p + "rx_dropped")->Value();
    EXPECT_EQ(offered, exact + degraded + dropped) << "queue " << q;
    EXPECT_GT(offered, 0u) << "queue " << q;
  }

  // The registry totals agree with the health struct the run reports.
  EXPECT_EQ(view.exact, result.health.packets_exact);
  EXPECT_EQ(view.degraded, result.health.packets_degraded);
  EXPECT_EQ(view.rx_dropped, result.health.rx_dropped);

  // End-of-run publications: sketch occupancy gauges and run-level gauges.
  EXPECT_GT(registry.GetGauge("ovs.q0.sketch.load_factor")->Value(), 0.0);
  EXPECT_GT(registry.GetGauge("ovs.run.mpps")->Value(), 0.0);
}

// Fault-free instrumented run: nothing lands in degraded or dropped, and the
// batch-fill histogram saw every drained packet.
TEST(Conservation, FaultFreeRunIsAllExact) {
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(30000));
  Registry registry;
  ovs::ScaleoutConfig dp;
  dp.num_shards = 1;
  dp.num_workers = 1;
  dp.metrics_prefix = "ovs";
  dp.nic_rate_mpps = 1000.0;
  dp.registry = &registry;
  const auto result = ovs::RunScaleout(dp, trace);
  EXPECT_EQ(result.packets_processed, trace.size());

  const auto view = ovs::ReadConservation(&registry, dp.metrics_prefix);
  EXPECT_EQ(view.offered, trace.size());
  EXPECT_EQ(view.exact, trace.size());
  EXPECT_EQ(view.degraded, 0u);
  EXPECT_EQ(view.rx_dropped, 0u);
  EXPECT_EQ(registry.GetHistogram("ovs.q0.batch_fill")->Sum(), trace.size());
}

}  // namespace
}  // namespace coco::obs
