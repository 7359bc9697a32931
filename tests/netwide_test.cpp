// Network-wide aggregation tests (docs/NETWIDE.md): sketch-level merge
// unbiasedness against shard-then-decode ground truth, delta-sync payloads,
// wire-frame hostility, the agent/collector protocol over the loopback
// transport under injected faults, and a TCP smoke test.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"
#include "core/merge.h"
#include "core/state_image.h"
#include "keys/key_spec.h"
#include "net/agent.h"
#include "net/collector.h"
#include "net/delta.h"
#include "net/frame.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "packet/keys.h"
#include "query/flow_table.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace coco::net {
namespace {

using core::CocoSketch;
using core::HwCocoSketch;
using core::MergeSketches;
using core::MergeStats;

// ---- Sketch-level merge ---------------------------------------------------

TEST(Merge, MassConservedExactly) {
  // Position-wise bucket sums conserve total mass deterministically (the
  // probabilistic part only decides which KEY keeps the mass).
  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(40000));
  CocoSketch<FiveTuple> a(KiB(8), 2, 77), b(KiB(8), 2, 77);
  for (size_t i = 0; i < trace.size(); ++i) {
    (i % 2 ? a : b).Update(trace[i].key, trace[i].weight);
  }
  const uint64_t total = a.TotalValue() + b.TotalValue();
  Rng rng(9);
  const MergeStats stats = MergeSketches(&a, b, &rng);
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(a.TotalValue(), total);
  EXPECT_EQ(stats.saturated, 0u);
  EXPECT_GT(stats.matched + stats.copied + stats.conflicts, 0u);
}

TEST(Merge, MismatchRejected) {
  Rng rng(1);
  CocoSketch<FiveTuple> base(KiB(8), 2, 77);
  base.Update(FiveTuple(1, 2, 3, 4, 6), 100);
  const auto before = base.SerializeState();

  CocoSketch<FiveTuple> other_d(KiB(8), 4, 77);
  EXPECT_FALSE(MergeSketches(&base, other_d, &rng).ok);
  CocoSketch<FiveTuple> other_l(KiB(16), 2, 77);
  EXPECT_FALSE(MergeSketches(&base, other_l, &rng).ok);
  CocoSketch<FiveTuple> other_seed(KiB(8), 2, 78);
  EXPECT_FALSE(MergeSketches(&base, other_seed, &rng).ok);
  EXPECT_EQ(base.SerializeState(), before);
}

TEST(Merge, SeedMismatchFlaggedDistinctlyFromGeometry) {
  // A foreign-seed shard is a misconfiguration hazard (silently wrong key
  // attribution), so the refusal carries its own flag — callers surface it
  // separately from a plain geometry mismatch.
  Rng rng(1);
  CocoSketch<FiveTuple> base(KiB(8), 2, 77);
  base.Update(FiveTuple(1, 2, 3, 4, 6), 100);

  CocoSketch<FiveTuple> other_seed(KiB(8), 2, 78);
  other_seed.Update(FiveTuple(5, 6, 7, 8, 6), 9);
  const MergeStats seed_stats = MergeSketches(&base, other_seed, &rng);
  EXPECT_FALSE(seed_stats.ok);
  EXPECT_TRUE(seed_stats.seed_mismatch);

  CocoSketch<FiveTuple> other_d(KiB(8), 4, 77);
  const MergeStats geo_stats = MergeSketches(&base, other_d, &rng);
  EXPECT_FALSE(geo_stats.ok);
  EXPECT_FALSE(geo_stats.seed_mismatch);
}

TEST(Merge, ValueSaturatesInsteadOfWrapping) {
  CocoSketch<IPv4Key> a(KiB(1), 1, 5), b(KiB(1), 1, 5);
  auto& ab = a.MutableBuckets();
  auto& bb = b.MutableBuckets();
  ab.SetKey(0, IPv4Key(1));
  ab.SetValue(0, UINT32_MAX - 10);
  bb.SetKey(0, IPv4Key(1));
  bb.SetValue(0, 100);
  Rng rng(1);
  const MergeStats stats = MergeSketches(&a, b, &rng);
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.saturated, 1u);
  EXPECT_EQ(a.Buckets().Value(0), UINT32_MAX);
}

// The acceptance-criterion property test: over repeated trials, estimates
// decoded from a merged k-shard sketch are unbiased for every partial-key
// aggregate — mean signed error ≈ 0 — exactly like a single sketch
// (tests/cocosketch_test.cpp, Lemma 3). Ground truth is the shard-then-
// decode path: exact per-shard counts summed.
TEST(Merge, PartialKeyEstimatesStayUnbiasedAfterMerge) {
  const int kTrials = 40;
  const int kShards = 3;

  // Structured universe: 40 flows across 8 source IPs.
  std::vector<FiveTuple> flows;
  std::vector<uint64_t> sizes;
  for (int f = 0; f < 40; ++f) {
    flows.push_back(
        FiveTuple(0x0a000000u + (f % 8), 0xc0000001, 1000 + f, 443, 6));
    sizes.push_back(20 + 13 * f);
  }
  trace::ExactCounter<FiveTuple> truth;
  for (size_t f = 0; f < flows.size(); ++f) truth.Add(flows[f], sizes[f]);
  const keys::TupleKeySpec spec = keys::TupleKeySpec::SrcIp();
  const auto exact_partial = truth.Aggregate(spec);

  // Each shard undersized (8 buckets/array) so replacement is constant and
  // the merge sees plenty of key conflicts.
  const size_t mem = 16 * CocoSketch<FiveTuple>::BucketBytes();

  std::unordered_map<DynKey, double> mean_est;
  uint64_t conflicts = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t seed = 1000 + trial;
    std::vector<CocoSketch<FiveTuple>> shards;
    for (int s = 0; s < kShards; ++s) shards.emplace_back(mem, 2, seed);

    // Shuffle one packet stream and deal it round-robin across shards.
    Rng order(trial);
    std::vector<size_t> stream;
    for (size_t f = 0; f < flows.size(); ++f) {
      for (uint64_t i = 0; i < sizes[f]; ++i) stream.push_back(f);
    }
    for (size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[order.NextBelow(i)]);
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      shards[i % kShards].Update(flows[stream[i]], 1);
    }

    uint64_t shard_mass = 0;
    for (const auto& s : shards) shard_mass += s.TotalValue();

    CocoSketch<FiveTuple> merged(mem, 2, seed);
    Rng merge_rng(0xabc0 + trial);
    for (const auto& s : shards) {
      const MergeStats stats = MergeSketches(&merged, s, &merge_rng);
      ASSERT_TRUE(stats.ok);
      conflicts += stats.conflicts;
    }
    ASSERT_EQ(merged.TotalValue(), shard_mass);  // conservation, every trial

    for (const auto& [key, est] : query::Aggregate(merged.Decode(), spec)) {
      mean_est[key] += static_cast<double>(est) / kTrials;
    }
  }
  EXPECT_GT(conflicts, 0u) << "regime too easy: no conflicts exercised";

  double exact_total = 0, est_total = 0;
  for (const auto& [key, exact] : exact_partial.counts()) {
    exact_total += static_cast<double>(exact);
    est_total += mean_est[key];
    if (exact >= 1500) {  // heavy aggregates: per-key mean within 30%
      EXPECT_NEAR(mean_est[key], static_cast<double>(exact), 0.3 * exact);
    }
  }
  // Mass conservation makes the summed mean exact, so the signed errors
  // cancel globally — the sharp version of "mean signed error ≈ 0".
  EXPECT_NEAR(est_total, exact_total, 1e-6 * exact_total);
}

// Merged k-shard heavy-hitter quality matches a monolithic sketch given the
// same total memory.
TEST(Merge, HeavyHitterF1ComparableToMonolithic) {
  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(80000));
  trace::ExactCounter<FiveTuple> truth;
  uint64_t mass = 0;
  for (const Packet& p : trace) {
    truth.Add(p.key, p.weight);
    mass += p.weight;
  }
  // Threshold well above the merged sketch's per-bucket mass scale: the
  // merged sketch packs the same mass into 1/kShards of the buckets, so
  // flows near that scale churn regardless of the merge rule. The claim
  // under test is that *heavy hitters* survive merging, not that a quarter
  // of the buckets can resolve quarter-scale flows.
  const uint64_t threshold = mass / 100;

  const int kShards = 4;
  const size_t shard_mem = KiB(16);

  const auto f1 = [&](const query::FlowTable<FiveTuple>& decoded) {
    size_t tp = 0, fp = 0, fn = 0;
    for (const auto& [key, est] : decoded) {
      if (est < threshold) continue;
      (truth.counts().count(key) && truth.counts().at(key) >= threshold ? tp
                                                                        : fp)++;
    }
    for (const auto& [key, exact] : truth.counts()) {
      if (exact < threshold) continue;
      auto it = decoded.find(key);
      uint64_t est = it == decoded.end() ? 0 : it->second;
      if (est < threshold) fn++;
    }
    return tp == 0 ? 0.0 : 2.0 * tp / (2.0 * tp + fp + fn);
  };
  // A single seed is noisy (one unlucky conflict can evict a borderline
  // heavy hitter), so compare the *mean* F1 over several independent runs —
  // that is the quantity the unbiasedness argument constrains.
  double f1_mono_sum = 0, f1_merged_sum = 0;
  const int kTrials = 5;
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t seed = 42 + 100 * trial;
    CocoSketch<FiveTuple> mono(kShards * shard_mem, 2, seed);
    std::vector<CocoSketch<FiveTuple>> shards;
    for (int s = 0; s < kShards; ++s) shards.emplace_back(shard_mem, 2, seed + 1);
    for (size_t i = 0; i < trace.size(); ++i) {
      mono.Update(trace[i].key, trace[i].weight);
      shards[i % kShards].Update(trace[i].key, trace[i].weight);
    }
    CocoSketch<FiveTuple> merged(shard_mem, 2, seed + 1);
    Rng rng(7 + trial);
    for (const auto& s : shards) {
      ASSERT_TRUE(MergeSketches(&merged, s, &rng).ok);
    }
    f1_mono_sum += f1(mono.Decode());
    f1_merged_sum += f1(merged.Decode());
  }
  const double f1_mono = f1_mono_sum / kTrials;
  const double f1_merged = f1_merged_sum / kTrials;
  EXPECT_GT(f1_mono, 0.8);
  EXPECT_GE(f1_merged, f1_mono - 0.1)
      << "merged=" << f1_merged << " mono=" << f1_mono;
}

TEST(Merge, HwVariantMergesPerArray) {
  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(20000));
  HwCocoSketch<FiveTuple> a(KiB(8), 2, core::DivisionMode::kExact, 7);
  HwCocoSketch<FiveTuple> b(KiB(8), 2, core::DivisionMode::kExact, 7);
  for (size_t i = 0; i < trace.size(); ++i) {
    (i % 2 ? a : b).Update(trace[i].key, trace[i].weight);
  }
  // The Hw variant has no TotalValue(): every array absorbs the full stream
  // independently, so per-array bucket sums are the conserved quantity.
  auto array_mass = [](const HwCocoSketch<FiveTuple>& s, size_t array) {
    uint64_t total = 0;
    for (size_t j = 0; j < s.l(); ++j) {
      total += s.Buckets().Value(array * s.l() + j);
    }
    return total;
  };
  const uint64_t total0 = array_mass(a, 0) + array_mass(b, 0);
  const uint64_t total1 = array_mass(a, 1) + array_mass(b, 1);
  Rng rng(3);
  ASSERT_TRUE(MergeSketches(&a, b, &rng).ok);
  EXPECT_EQ(array_mass(a, 0), total0);
  EXPECT_EQ(array_mass(a, 1), total1);

  HwCocoSketch<FiveTuple> approx(KiB(8), 2, core::DivisionMode::kApproximate,
                                 7);
  EXPECT_FALSE(MergeSketches(&a, approx, &rng).ok);  // division-mode mismatch
}

// ---- Delta sync -----------------------------------------------------------

TEST(Delta, RoundTripReplicatesExactState) {
  CocoSketch<FiveTuple> sketch(KiB(8), 2, 77);
  sketch.EnableDeltaTracking();
  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(20000));
  for (size_t i = 0; i < trace.size() / 2; ++i) {
    sketch.Update(trace[i].key, trace[i].weight);
  }
  CocoSketch<FiveTuple> replica(KiB(8), 2, 77);
  ASSERT_TRUE(replica.RestoreState(sketch.SerializeState()));
  sketch.ClearDirtyFlags();

  for (size_t i = trace.size() / 2; i < trace.size(); ++i) {
    sketch.Update(trace[i].key, trace[i].weight);
  }
  const auto delta = BuildDeltaPayload(sketch, 1);
  DeltaInfo info;
  ASSERT_EQ(ApplyDeltaPayload(delta, replica.TotalValue(), &replica, &info),
            DeltaApply::kApplied);
  EXPECT_EQ(info.base_epoch, 1u);
  EXPECT_EQ(info.total_value, sketch.TotalValue());
  EXPECT_EQ(replica.SerializeState(), sketch.SerializeState());
  EXPECT_EQ(replica.TotalValue(), sketch.TotalValue());
}

TEST(Delta, SparseUpdatesCompressAgainstFullImage) {
  CocoSketch<FiveTuple> sketch(KiB(64), 2, 77);
  sketch.EnableDeltaTracking();
  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(20000));
  for (const Packet& p : trace) sketch.Update(p.key, p.weight);
  sketch.ClearDirtyFlags();
  // A small epoch touching one hot flow: the delta covers d buckets, not the
  // whole table.
  for (int i = 0; i < 50; ++i) sketch.Update(FiveTuple(1, 2, 3, 4, 6), 1);
  const auto delta = BuildDeltaPayload(sketch, 1);
  const auto full = BuildFullPayload(sketch);
  EXPECT_LT(delta.size() * 10, full.size());
  // The agent sizes the full image from the geometry without sealing one.
  EXPECT_EQ(sketch.StateImageBytes(), full.size());
  DeltaInfo info;
  ASSERT_TRUE(PeekDeltaInfo<CocoSketch<FiveTuple>>(delta, &info));
  EXPECT_LE(info.entry_count, 2u * sketch.d());
}

TEST(Delta, StructuralGarbageRejectedWithoutSideEffects) {
  CocoSketch<FiveTuple> sketch(KiB(4), 2, 77);
  sketch.EnableDeltaTracking();
  for (uint32_t i = 0; i < 500; ++i) {
    sketch.Update(FiveTuple(i, 2, 3, 4, 6), 1 + i % 9);
  }
  CocoSketch<FiveTuple> replica(KiB(4), 2, 77);
  ASSERT_TRUE(replica.RestoreState(sketch.SerializeState()));
  const auto before = replica.SerializeState();
  const uint64_t mass = replica.TotalValue();
  const auto good = BuildDeltaPayload(sketch, 0);
  ASSERT_GT(good.size(), kDeltaHeaderBytes);

  using Sketch = CocoSketch<FiveTuple>;
  const auto apply = [&](const std::vector<uint8_t>& payload) {
    return ApplyDeltaPayload(payload, mass, &replica, nullptr);
  };
  // Truncated.
  std::vector<uint8_t> truncated(good.begin(), good.end() - 3);
  EXPECT_EQ(apply(truncated), DeltaApply::kMalformed);
  // Geometry lies.
  auto bad_geom = good;
  StoreBE32(bad_geom.data(), 7);
  EXPECT_EQ(apply(bad_geom), DeltaApply::kMalformed);
  // Out-of-range bucket index.
  auto bad_index = good;
  StoreBE32(bad_index.data() + kDeltaHeaderBytes, 0x7fffffff);
  EXPECT_EQ(apply(bad_index), DeltaApply::kMalformed);
  // Non-ascending indices (needs at least two entries).
  DeltaInfo info;
  ASSERT_TRUE(PeekDeltaInfo<Sketch>(good, &info));
  if (info.entry_count >= 2) {
    auto disorder = good;
    const size_t entry = DeltaEntryBytes<Sketch>();
    std::vector<uint8_t> tmp(entry);
    std::memcpy(tmp.data(), disorder.data() + kDeltaHeaderBytes, entry);
    std::memcpy(disorder.data() + kDeltaHeaderBytes,
                disorder.data() + kDeltaHeaderBytes + entry, entry);
    std::memcpy(disorder.data() + kDeltaHeaderBytes + entry, tmp.data(),
                entry);
    EXPECT_EQ(apply(disorder), DeltaApply::kMalformed);
  }
  // Empty.
  EXPECT_EQ(apply({}), DeltaApply::kMalformed);
  EXPECT_EQ(replica.SerializeState(), before);
}

// The conservation check alone catches a well-formed delta whose reported
// total is off by one (or a replica mass that has drifted), and it refuses
// before the first bucket is written.
TEST(Delta, ForgedTotalRejectedWithoutSideEffects) {
  CocoSketch<FiveTuple> sketch(KiB(8), 2, 77);
  sketch.EnableDeltaTracking();
  for (uint32_t i = 0; i < 2000; ++i) {
    sketch.Update(FiveTuple(i % 301, 2, 3, 4, 6), 1 + i % 9);
  }
  CocoSketch<FiveTuple> replica(KiB(8), 2, 77);
  ASSERT_TRUE(replica.RestoreState(sketch.SerializeState()));
  sketch.ClearDirtyFlags();
  for (uint32_t i = 0; i < 200; ++i) {
    sketch.Update(FiveTuple(i % 401, 2, 3, 4, 6), 1 + i % 5);
  }
  const uint64_t mass = replica.TotalValue();
  const auto before = replica.SerializeState();
  const auto good = BuildDeltaPayload(sketch, 1);
  for (const uint64_t forged_total :
       {sketch.TotalValue() - 1, sketch.TotalValue() + 1}) {
    auto forged = good;
    StoreBE64(forged.data() + 20, forged_total);
    EXPECT_EQ(ApplyDeltaPayload(forged, mass, &replica, nullptr),
              DeltaApply::kMassMismatch);
    EXPECT_EQ(replica.SerializeState(), before);
  }
  EXPECT_EQ(ApplyDeltaPayload(good, mass + 1, &replica, nullptr),
            DeltaApply::kMassMismatch);
  EXPECT_EQ(replica.SerializeState(), before);

  DeltaInfo info;
  ASSERT_EQ(ApplyDeltaPayload(good, mass, &replica, &info),
            DeltaApply::kApplied);
  EXPECT_EQ(info.total_value, sketch.TotalValue());
  EXPECT_EQ(replica.SerializeState(), sketch.SerializeState());
}

TEST(Delta, DirtyTrackingIsPreciseForPointUpdates) {
  CocoSketch<FiveTuple> sketch(KiB(64), 2, 77);
  sketch.EnableDeltaTracking();
  sketch.ClearDirtyFlags();
  sketch.Update(FiveTuple(9, 9, 9, 9, 6), 5);
  size_t dirty = 0;
  for (uint64_t word : sketch.DirtyBits()) dirty += std::popcount(word);
  EXPECT_GE(dirty, 1u);
  EXPECT_LE(dirty, sketch.d());
}

// ---- Wire frames ----------------------------------------------------------

TEST(Frame, EncodeDecodeRoundTrip) {
  Frame in;
  in.type = FrameType::kDelta;
  in.agent_id = 42;
  in.epoch = 0x1122334455ull;
  in.payload = {1, 2, 3, 4, 5};
  const auto bytes = EncodeFrame(in);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 5);

  Frame out;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), &out, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.agent_id, in.agent_id);
  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(Frame, ReaderReassemblesByteAtATime) {
  const auto a = EncodeControlFrame(FrameType::kHeartbeat, 1, 7);
  const auto b = EncodeFrame(
      {FrameType::kFullState, 2, 9, std::vector<uint8_t>(100, 0xab)});
  FrameReader reader;
  for (uint8_t byte : a) reader.Feed(&byte, 1);
  for (uint8_t byte : b) reader.Feed(&byte, 1);
  auto f1 = reader.Next();
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, FrameType::kHeartbeat);
  auto f2 = reader.Next();
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->agent_id, 2u);
  EXPECT_EQ(f2->payload.size(), 100u);
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.bad_bytes(), 0u);
}

TEST(Frame, ReaderResyncsAfterGarbageAndCorruption) {
  const auto good = EncodeControlFrame(FrameType::kAck, 3, 1);
  auto corrupt = EncodeFrame(
      {FrameType::kFullState, 3, 2, std::vector<uint8_t>(64, 0x55)});
  corrupt[kFrameHeaderBytes + 10] ^= 0x80;  // payload bit flip
  FrameReader reader;
  std::vector<uint8_t> stream = {'g', 'a', 'r', 'b', 'C', 'O'};  // noise
  stream.insert(stream.end(), corrupt.begin(), corrupt.end());
  stream.insert(stream.end(), good.begin(), good.end());
  reader.Feed(stream);
  auto frame = reader.Next();
  ASSERT_TRUE(frame.has_value());  // only the good frame survives
  EXPECT_EQ(frame->type, FrameType::kAck);
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_GT(reader.bad_bytes(), 0u);
}

TEST(Frame, RejectsUnknownVersionTypeAndAbsurdLength) {
  auto frame = EncodeControlFrame(FrameType::kHello, 1, 0);
  Frame out;
  size_t consumed = 0;

  auto bad_version = frame;
  StoreBE16(bad_version.data() + 4, kFrameVersion + 1);
  EXPECT_EQ(DecodeFrame(bad_version.data(), bad_version.size(), &out,
                        &consumed),
            DecodeStatus::kBad);

  auto bad_type = frame;
  bad_type[6] = 99;
  EXPECT_EQ(DecodeFrame(bad_type.data(), bad_type.size(), &out, &consumed),
            DecodeStatus::kBad);

  auto bad_len = frame;
  StoreBE32(bad_len.data() + 20, kMaxFramePayload + 1);
  EXPECT_EQ(DecodeFrame(bad_len.data(), bad_len.size(), &out, &consumed),
            DecodeStatus::kBad);
}

// ---- Agent/collector protocol over loopback -------------------------------

using Sketch = CocoSketch<FiveTuple>;
using NetAgent = Agent<Sketch>;
using NetCollector = Collector<Sketch>;

constexpr size_t kMem = KiB(16);

Collector<Sketch>::Options CollectorOptions() {
  Collector<Sketch>::Options o;
  o.memory_bytes = kMem;
  o.d = 2;
  return o;
}

// Runs the protocol until every agent has an acked epoch (or gives up).
void Converge(std::vector<NetAgent*> agents, NetCollector* collector,
              int max_ticks = 600) {
  for (int t = 0; t < max_ticks; ++t) {
    for (auto* a : agents) a->Tick();
    collector->Tick();
    bool synced = true;
    for (auto* a : agents) synced &= a->Synced() && a->last_acked_epoch() > 0;
    if (synced) return;
  }
}

TEST(Netwide, LoopbackEndToEndMatchesGroundTruth) {
  LoopbackHub hub;
  obs::Registry registry;
  auto ct = hub.MakeCollectorTransport();
  NetCollector collector(CollectorOptions(), &ct, &registry);

  const int kAgents = 3;
  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(30000));
  std::vector<Sketch> sketches;
  std::vector<LoopbackAgentTransport> transports;
  sketches.reserve(kAgents);
  transports.reserve(kAgents);
  std::vector<std::unique_ptr<NetAgent>> agents;
  uint64_t mass = 0;
  for (int i = 0; i < kAgents; ++i) {
    sketches.emplace_back(kMem, 2);
    transports.push_back(hub.MakeAgentTransport(i + 1));
    NetAgent::Options o;
    o.id = i + 1;
    agents.push_back(std::make_unique<NetAgent>(o, &sketches[i],
                                                &transports[i], &registry));
  }
  for (size_t i = 0; i < trace.size(); ++i) {
    sketches[i % kAgents].Update(trace[i].key, trace[i].weight);
    mass += trace[i].weight;
  }
  for (auto& a : agents) a->ExportEpoch();
  std::vector<NetAgent*> raw;
  for (auto& a : agents) raw.push_back(a.get());
  Converge(raw, &collector);

  for (auto& a : agents) {
    EXPECT_TRUE(a->Synced());
    EXPECT_EQ(a->last_acked_epoch(), 1u);
  }
  EXPECT_EQ(collector.AgentCount(), static_cast<size_t>(kAgents));
  const auto c = collector.CheckConservation();
  EXPECT_TRUE(c.Holds());
  EXPECT_EQ(c.replica_mass, mass);

  // SQL over the network-wide sketch answers with the full stream's mass.
  std::string error;
  const auto result = collector.Query(
      "SELECT SrcIP, SUM(Size) FROM flows GROUP BY SrcIP "
      "ORDER BY SUM(Size) DESC LIMIT 5",
      &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_EQ(result->rows.size(), 5u);

  // The same replicas give the same answer: a merge depends only on the
  // replicas and the merge seed, not on how many merges ran before it.
  const auto first = collector.DecodeMerged();
  EXPECT_TRUE(collector.CheckConservation().Holds());
  EXPECT_TRUE(collector.DecodeMerged() == first)
      << "two merges of the same replicas decoded differently";
}

TEST(Netwide, SaturationCountIsPerMerge) {
  // Two agents record the same flow at 3e9 each, so every merge clamps that
  // flow's bucket at UINT32_MAX. CheckConservation reports the clamps of its
  // own merge, however many merges (checks, decodes) ran before it.
  LoopbackHub hub;
  obs::Registry registry;
  auto ct = hub.MakeCollectorTransport();
  NetCollector collector(CollectorOptions(), &ct, &registry);
  Sketch a(kMem, 2), b(kMem, 2);
  auto ta = hub.MakeAgentTransport(1);
  auto tb = hub.MakeAgentTransport(2);
  NetAgent agent_a({.id = 1}, &a, &ta, &registry);
  NetAgent agent_b({.id = 2}, &b, &tb, &registry);
  const FiveTuple flow(1, 2, 3, 4, 6);
  a.Update(flow, 3'000'000'000u);
  b.Update(flow, 3'000'000'000u);
  agent_a.ExportEpoch();
  agent_b.ExportEpoch();
  Converge({&agent_a, &agent_b}, &collector);
  ASSERT_EQ(collector.AgentCount(), 2u);

  EXPECT_EQ(collector.CheckConservation().saturated, 1u);
  EXPECT_EQ(collector.CheckConservation().saturated, 1u);
  collector.DecodeMerged();
  const auto c = collector.CheckConservation();
  EXPECT_EQ(c.saturated, 1u);
  EXPECT_EQ(c.replica_mass, 6'000'000'000u);
  EXPECT_EQ(c.merged_mass, uint64_t{UINT32_MAX});
  EXPECT_TRUE(c.Holds());  // the clamp is the one legal discrepancy
}

TEST(Netwide, SecondEpochShipsDeltaNotFull) {
  LoopbackHub hub;
  obs::Registry registry;
  auto ct = hub.MakeCollectorTransport();
  NetCollector collector(CollectorOptions(), &ct, &registry);
  Sketch sketch(kMem, 2);
  auto at = hub.MakeAgentTransport(1);
  NetAgent agent({.id = 1}, &sketch, &at, &registry);

  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(20000));
  for (const Packet& p : trace) sketch.Update(p.key, p.weight);
  agent.ExportEpoch();
  Converge({&agent}, &collector);
  ASSERT_EQ(agent.last_acked_epoch(), 1u);
  EXPECT_EQ(registry.GetCounter("net.agent1.fulls_sent")->Value(), 1u);

  // Touch a handful of flows; epoch 2 must go out as a (much smaller) delta.
  for (int i = 0; i < 20; ++i) sketch.Update(FiveTuple(5, 6, 7, 8, 6), 2);
  agent.ExportEpoch();
  Converge({&agent}, &collector);
  ASSERT_EQ(agent.last_acked_epoch(), 2u);
  EXPECT_EQ(registry.GetCounter("net.agent1.deltas_sent")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("net.collector.deltas_applied")->Value(), 1u);
  EXPECT_LT(registry.GetGauge("net.agent1.delta_ratio")->Value(), 0.5);
  EXPECT_TRUE(collector.CheckConservation().Holds());
  EXPECT_EQ(collector.CheckConservation().replica_mass, sketch.TotalValue());
}

// The delta `sketch` should ship against an earlier SerializeState() image:
// every bucket whose image changed, ascending, in the delta entry layout.
std::vector<uint8_t> ImageDiffPayload(const Sketch& sketch,
                                      const std::vector<uint8_t>& before,
                                      uint64_t base_epoch) {
  const auto after = sketch.SerializeState();
  const size_t bucket = Sketch::BucketBytes();
  std::vector<uint8_t> out(kDeltaHeaderBytes);
  uint32_t count = 0;
  for (size_t i = 0; i < sketch.d() * sketch.l(); ++i) {
    const size_t at = core::kStateHeaderBytes + i * bucket;
    if (std::memcmp(before.data() + at, after.data() + at, bucket) == 0) {
      continue;
    }
    uint8_t index[4];
    StoreBE32(index, static_cast<uint32_t>(i));
    out.insert(out.end(), index, index + 4);
    out.insert(out.end(), after.begin() + at, after.begin() + at + bucket);
    ++count;
  }
  StoreBE32(out.data(), static_cast<uint32_t>(sketch.d()));
  StoreBE32(out.data() + 4, static_cast<uint32_t>(sketch.l()));
  StoreBE32(out.data() + 8, count);
  StoreBE64(out.data() + 12, base_epoch);
  StoreBE64(out.data() + 20, sketch.TotalValue());
  StoreBE64(out.data() + 28, sketch.seed());
  return out;
}

uint32_t EntryCount(const std::vector<uint8_t>& delta) {
  DeltaInfo info;
  EXPECT_TRUE(PeekDeltaInfo<Sketch>(delta, &info));
  return info.entry_count;
}

// The dirty bitmap is exact: with every weight >= 1 a bucket's image changes
// iff its bit is set, so the delta must equal the image diff byte for byte.
// Each geometry's d*l (60, 240, 963) leaves the last bitmap word partial.
TEST(Delta, PayloadEqualsImageDiff) {
  for (const auto& [memory, d] :
       {std::pair{KiB(1), size_t{1}}, {KiB(4), 2}, {KiB(16), 3}}) {
    Sketch sketch(memory, d, 77);
    sketch.EnableDeltaTracking();
    const size_t buckets = sketch.d() * sketch.l();
    ASSERT_NE(buckets % 64, 0u);
    Rng rng(memory + d);
    for (uint64_t epoch = 0; epoch < 8; ++epoch) {
      const auto before = sketch.SerializeState();
      const size_t updates = rng.NextBelow(2 * buckets);
      for (size_t u = 0; u < updates; ++u) {
        sketch.Update(
            FiveTuple(static_cast<uint32_t>(rng.NextBelow(3 * buckets)), 2,
                      3, 4, 6),
            1 + static_cast<uint32_t>(rng.NextBelow(1000)));
      }
      EXPECT_EQ(BuildDeltaPayload(sketch, epoch),
                ImageDiffPayload(sketch, before, epoch))
          << "d*l=" << buckets << " epoch " << epoch;
      sketch.ClearDirtyFlags();
      EXPECT_EQ(EntryCount(BuildDeltaPayload(sketch, epoch)), 0u);
    }
    // Every bucket, and not one tail bit more: the delta rebuilds the whole
    // sketch on an empty replica.
    sketch.MarkAllDirty();
    const auto all = BuildDeltaPayload(sketch, 0);
    EXPECT_EQ(EntryCount(all), buckets);
    Sketch replica(memory, d, 77);
    ASSERT_EQ(ApplyDeltaPayload(all, 0, &replica, nullptr),
              DeltaApply::kApplied);
    EXPECT_EQ(replica.SerializeState(), sketch.SerializeState());
  }

  // Through the protocol: epoch 2's delta is dropped (hello is the link's
  // frame 1, epoch 1's full image frame 2), epoch 3 supersedes it, and its
  // one delta carries both epochs' changes.
  ovs::FaultPlan plan;
  plan.frames.push_back({1, 3, ovs::FrameFault::Action::kDrop});
  LoopbackHub hub(plan);
  obs::Registry registry;
  auto ct = hub.MakeCollectorTransport();
  auto options = CollectorOptions();
  options.memory_bytes = KiB(4);
  NetCollector collector(options, &ct, &registry);
  Sketch sketch(KiB(4), 2);
  auto at = hub.MakeAgentTransport(1);
  NetAgent agent({.id = 1}, &sketch, &at, &registry);
  Rng rng(5);
  const auto ingest = [&](int packets) {
    for (int i = 0; i < packets; ++i) {
      sketch.Update(FiveTuple(static_cast<uint32_t>(rng.NextBelow(600)), 2,
                              3, 4, 6),
                    1 + static_cast<uint32_t>(rng.NextBelow(100)));
    }
  };
  ingest(400);
  agent.ExportEpoch();
  Converge({&agent}, &collector);
  ASSERT_EQ(agent.last_acked_epoch(), 1u);
  const auto acked = sketch.SerializeState();
  ingest(20);
  agent.ExportEpoch();
  ingest(20);
  agent.ExportEpoch();
  Converge({&agent}, &collector);

  EXPECT_EQ(hub.Stats().frames_dropped, 1u);
  EXPECT_EQ(agent.last_acked_epoch(), 3u);
  const auto counter = [&](const char* name) {
    return registry.GetCounter(name)->Value();
  };
  EXPECT_EQ(counter("net.agent1.fulls_sent"), 1u);
  EXPECT_EQ(counter("net.collector.deltas_applied"), 1u);
  EXPECT_EQ(counter("net.collector.nacks_sent"), 0u);
  EXPECT_EQ(registry.GetHistogram("net.collector.delta_entries")->Sum(),
            EntryCount(ImageDiffPayload(sketch, acked, 1)));
  EXPECT_EQ(collector.MergedSketch().SerializeState(),
            sketch.SerializeState());
}

// A structurally valid delta whose reported total is off by one, in a frame
// with a correct checksum: only the conservation check can refuse it.
TEST(Netwide, ForgedDeltaMassIsNackedAndReplicaUntouched) {
  LoopbackHub hub;
  obs::Registry registry;
  auto ct = hub.MakeCollectorTransport();
  NetCollector collector(CollectorOptions(), &ct, &registry);
  Sketch sketch(kMem, 2);
  auto at = hub.MakeAgentTransport(7);
  NetAgent agent({.id = 7}, &sketch, &at, &registry);
  for (uint32_t i = 0; i < 5000; ++i) {
    sketch.Update(FiveTuple(i % 97, 2, 3, 4, 6), 1 + i % 13);
  }
  agent.ExportEpoch();
  Converge({&agent}, &collector);
  ASSERT_EQ(agent.last_acked_epoch(), 1u);
  const auto counter = [&](const std::string& name) {
    return registry.GetCounter(name)->Value();
  };
  const auto table = collector.DecodeMerged();
  const uint64_t mass = collector.CheckConservation().replica_mass;
  const uint64_t rejected = counter("net.collector.frames_rejected");
  const uint64_t nacks = counter("net.collector.nacks_sent");

  sketch.Update(FiveTuple(1, 1, 1, 1, 6), 100);
  auto forged = BuildDeltaPayload(sketch, 1);
  StoreBE64(forged.data() + 20, sketch.TotalValue() + 1);
  ASSERT_TRUE(at.Send(EncodeFrame({FrameType::kDelta, 7, 2, forged})));
  collector.Tick();

  EXPECT_EQ(counter("net.collector.conservation_failures"), 1u);
  EXPECT_EQ(counter("net.collector.frames_rejected"), rejected + 1);
  EXPECT_EQ(counter("net.collector.nacks_sent"), nacks + 1);
  EXPECT_EQ(collector.LastEpochOf(7), 1u);
  EXPECT_TRUE(collector.DecodeMerged() == table);
  const auto c = collector.CheckConservation();
  EXPECT_TRUE(c.Holds());
  EXPECT_EQ(c.replica_mass, mass);

  // The nack demands a full image, which brings the replica level with the
  // sketch again.
  agent.Tick();
  EXPECT_EQ(counter("net.agent7.nacks_received"), 1u);
  agent.ExportEpoch();
  Converge({&agent}, &collector);
  EXPECT_EQ(agent.last_acked_epoch(), 2u);
  EXPECT_EQ(counter("net.agent7.fulls_sent"), 2u);
  EXPECT_EQ(counter("net.collector.conservation_failures"), 1u);
  EXPECT_TRUE(collector.CheckConservation().Holds());
  EXPECT_EQ(collector.CheckConservation().replica_mass, sketch.TotalValue());
  EXPECT_EQ(collector.MergedSketch().SerializeState(),
            sketch.SerializeState());
}

TEST(Netwide, RecoversFromDropCorruptDuplicateAndDelay) {
  // Hello is each link's frame 1, the first sync frame is 2. Hit agent 1's
  // sync with a drop, agent 2's with corruption, duplicate agent 3's, and
  // delay (reorder past the heartbeat) agent 4's.
  ovs::FaultPlan plan;
  plan.frames.push_back({1, 2, ovs::FrameFault::Action::kDrop});
  plan.frames.push_back({2, 2, ovs::FrameFault::Action::kCorrupt});
  plan.frames.push_back({3, 2, ovs::FrameFault::Action::kDuplicate});
  plan.frames.push_back({4, 2, ovs::FrameFault::Action::kDelay, 2});
  LoopbackHub hub(plan);
  obs::Registry registry;
  auto ct = hub.MakeCollectorTransport();
  NetCollector collector(CollectorOptions(), &ct, &registry);

  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(20000));
  std::vector<Sketch> sketches;
  std::vector<LoopbackAgentTransport> transports;
  sketches.reserve(4);
  transports.reserve(4);
  std::vector<std::unique_ptr<NetAgent>> agents;
  uint64_t mass = 0;
  for (int i = 0; i < 4; ++i) {
    sketches.emplace_back(kMem, 2);
    transports.push_back(hub.MakeAgentTransport(i + 1));
    NetAgent::Options o;
    o.id = i + 1;
    o.resend_after_ticks = 4;
    agents.push_back(std::make_unique<NetAgent>(o, &sketches[i],
                                                &transports[i], &registry));
  }
  for (size_t i = 0; i < trace.size(); ++i) {
    sketches[i % 4].Update(trace[i].key, trace[i].weight);
    mass += trace[i].weight;
  }
  for (auto& a : agents) a->ExportEpoch();
  std::vector<NetAgent*> raw;
  for (auto& a : agents) raw.push_back(a.get());
  Converge(raw, &collector);

  for (auto& a : agents) EXPECT_TRUE(a->Synced());
  EXPECT_EQ(hub.faults().frame_faults_fired(), 4u);
  const auto stats = hub.Stats();
  EXPECT_EQ(stats.frames_dropped, 1u);
  EXPECT_EQ(stats.frames_corrupted, 1u);
  EXPECT_EQ(stats.frames_duplicated, 1u);
  EXPECT_EQ(stats.frames_delayed, 1u);
  // Dropped/corrupted syncs were retried; the duplicate was re-acked, not
  // double-applied; corruption showed up as skipped bytes, never state.
  EXPECT_GE(registry.GetCounter("net.agent1.frames_retried")->Value() +
                registry.GetCounter("net.agent2.frames_retried")->Value(),
            2u);
  EXPECT_GE(registry.GetCounter("net.collector.frames_duplicate")->Value(),
            1u);
  EXPECT_GT(registry.GetGauge("net.collector.bad_bytes")->Value(), 0.0);
  const auto c = collector.CheckConservation();
  EXPECT_TRUE(c.Holds());
  EXPECT_EQ(c.replica_mass, mass);
}

TEST(Netwide, AgentRestartConvergesViaFullResync) {
  LoopbackHub hub;
  obs::Registry registry;
  auto ct = hub.MakeCollectorTransport();
  NetCollector collector(CollectorOptions(), &ct, &registry);
  auto at = hub.MakeAgentTransport(1);

  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(20000));
  uint64_t pre_restart_epochs = 0;
  {
    Sketch sketch(kMem, 2);
    NetAgent agent({.id = 1}, &sketch, &at, &registry);
    for (size_t i = 0; i < trace.size() / 2; ++i) {
      sketch.Update(trace[i].key, trace[i].weight);
    }
    for (int e = 0; e < 3; ++e) {
      agent.ExportEpoch();
      Converge({&agent}, &collector);
    }
    pre_restart_epochs = agent.last_acked_epoch();
    ASSERT_EQ(pre_restart_epochs, 3u);
  }

  // Restart: fresh sketch, fresh epoch counter, same identity. The restarted
  // agent's early epochs collide with the collector's history; nacked deltas
  // force fulls until its epoch overtakes, then the replica snaps to the new
  // sketch.
  Sketch sketch(kMem, 2);
  NetAgent agent({.id = 1}, &sketch, &at, &registry);
  uint64_t mass = 0;
  for (size_t i = trace.size() / 2; i < trace.size(); ++i) {
    sketch.Update(trace[i].key, trace[i].weight);
    mass += trace[i].weight;
  }
  for (int e = 0; e < 6; ++e) {
    agent.ExportEpoch();
    Converge({&agent}, &collector);
  }
  EXPECT_GT(collector.LastEpochOf(1), pre_restart_epochs);
  const auto c = collector.CheckConservation();
  EXPECT_TRUE(c.Holds());
  EXPECT_EQ(c.replica_mass, mass);
}

// Satellite: fuzz-style hostility. A link that speaks garbage — truncated,
// corrupted, spliced, and replayed frames — must never crash the collector
// or mutate replica state, and the conservation invariant must survive.
TEST(Netwide, CollectorSurvivesHostileFrames) {
  LoopbackHub hub;
  obs::Registry registry;
  auto ct = hub.MakeCollectorTransport();
  NetCollector collector(CollectorOptions(), &ct, &registry);
  Sketch sketch(kMem, 2);
  auto at = hub.MakeAgentTransport(7);
  NetAgent agent({.id = 7}, &sketch, &at, &registry);
  for (uint32_t i = 0; i < 5000; ++i) {
    sketch.Update(FiveTuple(i % 97, 2, 3, 4, 6), 1 + i % 13);
  }
  agent.ExportEpoch();
  Converge({&agent}, &collector);
  ASSERT_EQ(agent.last_acked_epoch(), 1u);
  const uint64_t good_mass = sketch.TotalValue();

  // Keep valid templates to mutate: the full-state frame and a delta.
  const auto full_frame = EncodeFrame(
      {FrameType::kFullState, 7, 1, BuildFullPayload(sketch)});
  const auto delta_frame = EncodeFrame(
      {FrameType::kDelta, 7, 1, BuildDeltaPayload(sketch, 0)});

  auto hostile = hub.MakeAgentTransport(7);
  Rng rng(0xf00d);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint8_t> bytes;
    switch (iter % 6) {
      case 0:  // pure garbage, sometimes magic-prefixed
        bytes.resize(1 + rng.NextBelow(200));
        for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next32());
        if (iter % 12 == 0 && bytes.size() >= 4) {
          std::memcpy(bytes.data(), kFrameMagic, 4);
        }
        break;
      case 1:  // truncated valid frame
        bytes.assign(full_frame.begin(),
                     full_frame.begin() +
                         static_cast<ptrdiff_t>(
                             1 + rng.NextBelow(full_frame.size() - 1)));
        break;
      case 2:  // bit-flipped valid frame
        bytes = full_frame;
        bytes[rng.NextBelow(bytes.size())] ^=
            static_cast<uint8_t>(1 + rng.NextBelow(255));
        break;
      case 3:  // replayed (stale) full frame — valid, must be dup-acked
        bytes = full_frame;
        break;
      case 4:  // replayed delta with stale epoch
        bytes = delta_frame;
        break;
      case 5:  // spliced: tail of one frame, head of another
        bytes.assign(full_frame.end() - 40, full_frame.end());
        bytes.insert(bytes.end(), delta_frame.begin(),
                     delta_frame.begin() + 40);
        break;
    }
    hostile.Send(bytes);
    if (iter % 7 == 0) collector.Tick();
  }
  collector.Tick();

  // Still alive, replica untouched, books balanced.
  EXPECT_EQ(collector.LastEpochOf(7), 1u);
  const auto c = collector.CheckConservation();
  EXPECT_TRUE(c.Holds());
  EXPECT_EQ(c.replica_mass, good_mass);
  EXPECT_EQ(
      registry.GetCounter("net.collector.conservation_failures")->Value(),
      0u);
  // The storm was noticed: skipped bytes and/or duplicate frames counted.
  EXPECT_TRUE(
      registry.GetGauge("net.collector.bad_bytes")->Value() > 0.0 ||
      registry.GetCounter("net.collector.frames_duplicate")->Value() > 0);

  // And the link still works afterwards.
  sketch.Update(FiveTuple(1, 1, 1, 1, 6), 100);
  agent.ExportEpoch();
  Converge({&agent}, &collector);
  EXPECT_EQ(agent.last_acked_epoch(), 2u);
  EXPECT_TRUE(collector.CheckConservation().Holds());
}

// Satellite (adversarial hardening): an agent measuring under a different
// hash seed must never be aggregated — its payloads map mass onto the wrong
// buckets. The collector nacks every full image and delta from it, counts
// the mismatches, and the network-wide view contains only the honest agent's
// mass.
TEST(Netwide, ForeignSeedAgentRejectedNeverAggregated) {
  LoopbackHub hub;
  obs::Registry registry;
  auto ct = hub.MakeCollectorTransport();
  auto options = CollectorOptions();
  options.seed = 0x1234;
  NetCollector collector(options, &ct, &registry);

  Sketch good(kMem, 2, 0x1234);
  Sketch rogue(kMem, 2, 0x4321);  // misconfigured vantage point
  auto good_t = hub.MakeAgentTransport(1);
  auto rogue_t = hub.MakeAgentTransport(2);
  NetAgent good_agent({.id = 1}, &good, &good_t, &registry);
  NetAgent rogue_agent({.id = 2}, &rogue, &rogue_t, &registry);

  uint64_t good_mass = 0;
  for (uint32_t i = 0; i < 4000; ++i) {
    good.Update(FiveTuple(i % 61, 2, 3, 4, 6), 1 + i % 7);
    good_mass += 1 + i % 7;
    rogue.Update(FiveTuple(i % 61, 2, 3, 4, 6), 1 + i % 7);
  }
  good_agent.ExportEpoch();
  rogue_agent.ExportEpoch();
  // The rogue can never converge (every payload is nacked, and the demanded
  // full resync is nacked too), so run a bounded number of rounds.
  for (int t = 0; t < 300; ++t) {
    good_agent.Tick();
    rogue_agent.Tick();
    collector.Tick();
  }

  EXPECT_EQ(good_agent.last_acked_epoch(), 1u);
  EXPECT_EQ(rogue_agent.last_acked_epoch(), 0u);
  EXPECT_GT(registry.GetCounter("net.collector.seed_mismatches")->Value(),
            0u);
  // Conservation holds over the replicas that exist, and the rogue's mass is
  // nowhere in the books.
  const auto c = collector.CheckConservation();
  EXPECT_TRUE(c.Holds());
  EXPECT_EQ(c.replica_mass, good_mass);
}

// Threaded loopback: agents on their own threads against a collector thread,
// exercising the hub mutex under TSan.
TEST(Netwide, ThreadedAgentsConverge) {
  LoopbackHub hub;
  obs::Registry registry;
  auto ct = hub.MakeCollectorTransport();
  NetCollector collector(CollectorOptions(), &ct, &registry);

  const int kAgents = 3;
  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(15000));
  uint64_t mass = 0;
  for (const Packet& p : trace) mass += p.weight;

  // Agents and the collector keep ticking until every agent thread has seen
  // its ack. No tick budget: thread start-up and scheduling under a
  // sanitizer can outlast any fixed count. The deadline only turns a hang
  // into a failed assertion.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::atomic<int> acked{0};
  std::vector<std::thread> threads;
  threads.reserve(kAgents);
  for (int i = 0; i < kAgents; ++i) {
    threads.emplace_back([&, i] {
      Sketch sketch(kMem, 2);
      auto at = hub.MakeAgentTransport(i + 1);
      NetAgent::Options o;
      o.id = i + 1;
      NetAgent agent(o, &sketch, &at, &registry);
      for (size_t p = i; p < trace.size(); p += kAgents) {
        sketch.Update(trace[p].key, trace[p].weight);
      }
      agent.ExportEpoch();
      while (!(agent.Synced() && agent.last_acked_epoch() == 1) &&
             std::chrono::steady_clock::now() < deadline) {
        agent.Tick();
        std::this_thread::yield();
      }
      if (agent.Synced() && agent.last_acked_epoch() == 1) acked.fetch_add(1);
      EXPECT_EQ(agent.last_acked_epoch(), 1u);
    });
  }
  while (acked.load() < kAgents &&
         std::chrono::steady_clock::now() < deadline) {
    collector.Tick();
    std::this_thread::yield();
  }
  for (auto& t : threads) t.join();
  collector.Tick();
  const auto c = collector.CheckConservation();
  EXPECT_TRUE(c.Holds());
  EXPECT_EQ(c.replica_mass, mass);
}

// ---- TCP transport --------------------------------------------------------

TEST(Tcp, RawFrameReaderValidatesAndResyncs) {
  RawFrameReader reader;
  const auto good = EncodeControlFrame(FrameType::kHeartbeat, 9, 4);
  std::vector<uint8_t> stream = {0x00, 0xff, 0x13};
  stream.insert(stream.end(), good.begin(), good.end());
  reader.Feed(stream.data(), stream.size());
  std::vector<uint8_t> frame;
  ASSERT_TRUE(reader.Next(&frame));
  EXPECT_EQ(frame, good);
  EXPECT_FALSE(reader.Next(&frame));
  EXPECT_EQ(reader.bad_bytes(), 3u);
}

TEST(Tcp, EndToEndOverLocalSocket) {
  TcpCollectorTransport ct(0);
  if (!ct.ok()) GTEST_SKIP() << "cannot bind a local TCP socket here";
  obs::Registry registry;
  NetCollector collector(CollectorOptions(), &ct, &registry);

  TcpAgentTransport at("127.0.0.1", ct.port());
  Sketch sketch(kMem, 2);
  NetAgent agent({.id = 1}, &sketch, &at, &registry);
  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(10000));
  uint64_t mass = 0;
  for (const Packet& p : trace) {
    sketch.Update(p.key, p.weight);
    mass += p.weight;
  }
  // Let the nonblocking connect complete before the first export.
  for (int t = 0; t < 200 && !at.Connected(); ++t) {
    agent.Tick();
    collector.Tick();
  }
  if (!at.Connected()) GTEST_SKIP() << "local TCP connect not permitted here";
  agent.ExportEpoch();
  for (int t = 0; t < 2000 && !(agent.Synced() &&
                                agent.last_acked_epoch() == 1); ++t) {
    agent.Tick();
    collector.Tick();
  }
  EXPECT_EQ(agent.last_acked_epoch(), 1u);
  const auto c = collector.CheckConservation();
  EXPECT_TRUE(c.Holds());
  EXPECT_EQ(c.replica_mass, mass);

  // Epoch 2 rides a delta over the same connection.
  sketch.Update(FiveTuple(3, 3, 3, 3, 6), 9);
  agent.ExportEpoch();
  for (int t = 0; t < 2000 && !(agent.Synced() &&
                                agent.last_acked_epoch() == 2); ++t) {
    agent.Tick();
    collector.Tick();
  }
  EXPECT_EQ(agent.last_acked_epoch(), 2u);
  EXPECT_GE(registry.GetCounter("net.agent1.deltas_sent")->Value(), 1u);
}

TEST(Tcp, BackoffGrowsWhileCollectorIsDown) {
  // Connect to a port that (almost surely) has no listener; the agent must
  // stay disconnected and widen its retry interval instead of spinning.
  TcpAgentOptions o;
  o.backoff_initial_ms = 1;
  o.backoff_max_ms = 16;
  TcpAgentTransport at("127.0.0.1", 1, o);
  for (int t = 0; t < 50; ++t) {
    at.Tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(at.Connected());
  EXPECT_GT(at.current_backoff_ms(), o.backoff_initial_ms);
  EXPECT_LE(at.current_backoff_ms(), o.backoff_max_ms);
}

}  // namespace
}  // namespace coco::net
