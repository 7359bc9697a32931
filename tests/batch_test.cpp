// State-equality tests for the batched update fast path: UpdateBatch must be
// packet-for-packet identical to per-packet Update() — same buckets, same RNG
// consumption order — so the sketch state after any batch segmentation of a
// trace is byte-identical to the per-packet run, for one- and two-word keys
// (8-byte IpPairKey, 13-byte FiveTuple), at every depth and memory size from
// L1-resident to larger than L2. Decode, stats, merge and state images agree
// too, and pinned checksums hold the sealed state fixed across versions of
// the code.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"
#include "core/merge.h"
#include "trace/generators.h"

namespace coco::core {
namespace {

const std::vector<Packet>& TestTrace() {
  static const std::vector<Packet> trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(60'000));
  return trace;
}

// UpdateBatch accepts any record with .key/.weight; Rekey maps the CAIDA-like
// trace onto the other key widths.
template <typename Key>
struct KeyedPacket {
  Key key;
  uint32_t weight = 1;
};

template <typename Key, typename MakeKey>
std::vector<KeyedPacket<Key>> Rekey(MakeKey make_key) {
  std::vector<KeyedPacket<Key>> out;
  for (const Packet& p : TestTrace()) out.push_back({make_key(p.key), p.weight});
  return out;
}

// Feeds `trace` to `sketch` in consecutive chunks cycling through
// `chunk_sizes` — exercises full windows, ragged tails, and sub-window
// batches.
template <typename SketchT>
void FeedInChunks(SketchT& sketch, const std::vector<Packet>& trace,
                  const std::vector<size_t>& chunk_sizes) {
  size_t i = 0, c = 0;
  while (i < trace.size()) {
    const size_t n = std::min(chunk_sizes[c % chunk_sizes.size()],
                              trace.size() - i);
    sketch.UpdateBatch(trace.data() + i, n);
    i += n;
    ++c;
  }
}

// Per-packet vs whole-trace batched ingest of `trace` at every depth and
// at memory sizes from L1-resident (24 KiB) to larger than L2 (500 KiB, the
// Fig. 14 operating point); the key width is the trace's.
template <typename Key, typename Record>
void ExpectBatchedMatchesPerPacket(const std::vector<Record>& trace,
                                   uint64_t seed) {
  for (size_t mem : {KiB(24), KiB(192), KiB(500)}) {
    for (size_t d : {1, 2, 4, 8}) {
      CocoSketch<Key> per_packet(mem, d, seed + d);
      CocoSketch<Key> batched(mem, d, seed + d);
      for (const Record& r : trace) per_packet.Update(r.key, r.weight);
      batched.UpdateBatch(trace.data(), trace.size());
      EXPECT_EQ(per_packet.SerializeState(), batched.SerializeState())
          << Key::kSize << "-byte keys, d=" << d << " mem=" << mem;
    }
  }
}

TEST(BatchUpdate, CocoStateMatchesScalarAcrossD) {
  const auto& trace = TestTrace();
  for (size_t d : {1, 2, 3, 4}) {
    CocoSketch<FiveTuple> scalar(KiB(64), d, 0xabcd);
    CocoSketch<FiveTuple> batched(KiB(64), d, 0xabcd);
    for (const Packet& p : trace) scalar.Update(p.key, p.weight);
    FeedInChunks(batched, trace, {32});
    EXPECT_EQ(scalar.SerializeState(), batched.SerializeState())
        << "d=" << d;
  }
}

TEST(BatchUpdate, FiveTupleMatchesPerPacketAcrossDepthsAndMemory) {
  ExpectBatchedMatchesPerPacket<FiveTuple>(TestTrace(), 0xc0c0);
}

TEST(BatchUpdate, SingleWordKeyMatchesPerPacket) {
  // 8-byte keys: the single-word register probe.
  ExpectBatchedMatchesPerPacket<IpPairKey>(
      Rekey<IpPairKey>([](const FiveTuple& k) {
        return IpPairKey(k.src_ip(), k.dst_ip());
      }),
      0x8b);
}

TEST(BatchUpdate, CocoStateMatchesScalarRaggedChunks) {
  const auto& trace = TestTrace();
  CocoSketch<FiveTuple> scalar(KiB(32), 2, 0x777);
  CocoSketch<FiveTuple> batched(KiB(32), 2, 0x777);
  for (const Packet& p : trace) scalar.Update(p.key, p.weight);
  // Mix of sub-window, exact-window, and multi-window chunks, including 1.
  FeedInChunks(batched, trace, {1, 7, 32, 3, 57, 128, 31});
  EXPECT_EQ(scalar.SerializeState(), batched.SerializeState());
}

TEST(BatchUpdate, CocoSpanOverloadAndEmptyBatch) {
  const auto& trace = TestTrace();
  CocoSketch<FiveTuple> a(KiB(16), 2, 0x11);
  CocoSketch<FiveTuple> b(KiB(16), 2, 0x11);
  a.UpdateBatch(std::span<const Packet>(trace.data(), 1000));
  a.UpdateBatch(std::span<const Packet>{});  // no-op
  b.UpdateBatch(trace.data(), 1000);
  EXPECT_EQ(a.SerializeState(), b.SerializeState());
  EXPECT_EQ(a.TotalValue(), b.TotalValue());
}

TEST(BatchUpdate, CocoMassConservedThroughBatches) {
  const auto& trace = TestTrace();
  CocoSketch<FiveTuple> sketch(KiB(16), 3, 0x5);
  uint64_t mass = 0;
  for (const Packet& p : trace) mass += p.weight;
  FeedInChunks(sketch, trace, {32});
  EXPECT_EQ(sketch.TotalValue(), mass);
}

TEST(BatchUpdate, HwStateMatchesScalar) {
  const auto& trace = TestTrace();
  for (auto division : {DivisionMode::kExact, DivisionMode::kApproximate}) {
    HwCocoSketch<FiveTuple> scalar(KiB(64), 2, division, 0xbeef);
    HwCocoSketch<FiveTuple> batched(KiB(64), 2, division, 0xbeef);
    for (const Packet& p : trace) scalar.Update(p.key, p.weight);
    FeedInChunks(batched, trace, {5, 32, 64, 1});
    EXPECT_EQ(scalar.SerializeState(), batched.SerializeState());
  }
}

TEST(BatchUpdate, HwMatchesPerPacketAcrossModesAndDepths) {
  const auto& trace = TestTrace();
  for (auto division : {DivisionMode::kExact, DivisionMode::kApproximate}) {
    for (size_t d : {1, 2, 4}) {
      HwCocoSketch<FiveTuple> per_packet(KiB(96), d, division, 0xbe + d);
      HwCocoSketch<FiveTuple> batched(KiB(96), d, division, 0xbe + d);
      for (const Packet& p : trace) per_packet.Update(p.key, p.weight);
      batched.UpdateBatch(trace.data(), trace.size());
      EXPECT_EQ(per_packet.SerializeState(), batched.SerializeState())
          << "d=" << d;
    }
  }
}

TEST(BatchUpdate, HwSerializeRestoreRoundTrip) {
  const auto& trace = TestTrace();
  HwCocoSketch<FiveTuple> a(KiB(32), 2, DivisionMode::kExact, 0x9);
  a.UpdateBatch(trace.data(), 10'000);
  HwCocoSketch<FiveTuple> b(KiB(32), 2, DivisionMode::kExact, 0x9);
  ASSERT_TRUE(b.RestoreState(a.SerializeState()));
  EXPECT_EQ(a.SerializeState(), b.SerializeState());
  HwCocoSketch<FiveTuple> wrong_d(KiB(32), 1, DivisionMode::kExact, 0x9);
  EXPECT_FALSE(wrong_d.RestoreState(a.SerializeState()));
}

TEST(BatchUpdate, CocoSerializeRestoreRoundTrip) {
  const auto& trace = TestTrace();
  CocoSketch<FiveTuple> source(KiB(64), 2, 0x1111);
  source.UpdateBatch(trace.data(), trace.size());
  const auto image = source.SerializeState();
  CocoSketch<FiveTuple> restored(KiB(64), 2, 0x1111);
  ASSERT_TRUE(restored.RestoreState(image));
  EXPECT_EQ(restored.SerializeState(), image);
  // A truncated image is rejected without touching state.
  std::vector<uint8_t> truncated(image.begin(), image.end() - 5);
  CocoSketch<FiveTuple> untouched(KiB(64), 2, 0x1111);
  EXPECT_FALSE(untouched.RestoreState(truncated));
  EXPECT_EQ(untouched.TotalValue(), 0u);
}

TEST(BatchUpdate, QueriesAgreeAfterBatchedIngest) {
  // Sanity beyond byte equality: a tracked heavy flow queries identically
  // through either ingest path.
  const auto& trace = TestTrace();
  CocoSketch<FiveTuple> scalar(KiB(128), 2, 0xd0);
  CocoSketch<FiveTuple> batched(KiB(128), 2, 0xd0);
  for (const Packet& p : trace) scalar.Update(p.key, p.weight);
  FeedInChunks(batched, trace, {32});
  for (size_t i = 0; i < trace.size(); i += 997) {
    EXPECT_EQ(scalar.Query(trace[i].key), batched.Query(trace[i].key));
  }
}

TEST(BatchUpdate, DecodeAndScansAgreeAfterBatchedIngest) {
  // The control-plane readouts — decode and the counter scans behind
  // TotalValue and Stats — agree through either ingest path.
  const auto& trace = TestTrace();
  CocoSketch<FiveTuple> per_packet(KiB(64), 2, 0xdec0);
  CocoSketch<FiveTuple> batched(KiB(64), 2, 0xdec0);
  for (const Packet& p : trace) per_packet.Update(p.key, p.weight);
  batched.UpdateBatch(trace.data(), trace.size());
  EXPECT_EQ(per_packet.Decode(), batched.Decode());
  EXPECT_EQ(per_packet.TotalValue(), batched.TotalValue());
  const SketchStats want = per_packet.Stats();
  const SketchStats got = batched.Stats();
  EXPECT_EQ(got.buckets_occupied, want.buckets_occupied);
  EXPECT_EQ(got.per_array_occupied, want.per_array_occupied);
  EXPECT_EQ(got.total_value, want.total_value);
  EXPECT_EQ(got.max_bucket_value, want.max_bucket_value);
  EXPECT_EQ(got.min_occupied_value, want.min_occupied_value);
  EXPECT_EQ(got.key_replacements, want.key_replacements);
  EXPECT_EQ(got.updates, want.updates);
  EXPECT_EQ(got.pass1_misses, want.pass1_misses);
}

TEST(BatchUpdate, MergeAgreesAfterBatchedIngest) {
  const auto& trace = TestTrace();
  const size_t half = trace.size() / 2;
  std::vector<uint8_t> images[2];
  for (int batched = 0; batched < 2; ++batched) {
    CocoSketch<FiveTuple> a(KiB(64), 2, 0x3e);
    CocoSketch<FiveTuple> b(KiB(64), 2, 0x3e);
    if (batched == 1) {
      a.UpdateBatch(trace.data(), half);
      b.UpdateBatch(trace.data() + half, trace.size() - half);
    } else {
      for (size_t i = 0; i < half; ++i) a.Update(trace[i].key, trace[i].weight);
      for (size_t i = half; i < trace.size(); ++i) {
        b.Update(trace[i].key, trace[i].weight);
      }
    }
    Rng merge_rng(0x3e77);  // identical draw sequence for both paths
    ASSERT_TRUE(MergeSketches(&a, b, &merge_rng).ok);
    images[batched] = a.SerializeState();
  }
  EXPECT_EQ(images[0], images[1]);
}

// The sealed checksum word (bytes 32-40 of the image, big-endian) covers
// the whole body, so pinning it pins every bucket after a fixed trace.
// Agents and collectors exchange these images between processes, so a
// change here means builds no longer agree on what an image holds.
TEST(PinnedState, SealedChecksumsMatchAcrossVersions) {
  const std::vector<Packet> caida =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(60'000));
  const std::vector<Packet> mawi =
      trace::GenerateTrace(trace::TraceConfig::MawiLike(60'000));
  auto checksum = [](const auto& sketch) {
    return LoadBE64(sketch.SerializeState().data() + 32);
  };
  auto expect_coco = [&](size_t mem, size_t d, uint64_t seed,
                         const std::vector<Packet>& trace, uint64_t want) {
    CocoSketch<FiveTuple> per_packet(mem, d, seed);
    CocoSketch<FiveTuple> batched(mem, d, seed);
    for (const Packet& p : trace) per_packet.Update(p.key, p.weight);
    batched.UpdateBatch(trace.data(), trace.size());
    EXPECT_EQ(checksum(per_packet), want) << std::hex << "seed=" << seed;
    EXPECT_EQ(checksum(batched), want) << std::hex << "seed=" << seed;
  };
  expect_coco(KiB(500), 2, 0xc0c0, caida, 0xa055e800e8b1ce38ULL);
  expect_coco(KiB(192), 4, 0xc0c4, caida, 0x18a1b7c0fa73de18ULL);
  expect_coco(KiB(500), 2, 0xc0c0, mawi, 0x2f1ce33a9dee88a2ULL);

  auto expect_hw = [&](DivisionMode division, uint64_t want) {
    HwCocoSketch<FiveTuple> per_packet(KiB(96), 2, division, 0xbe02);
    HwCocoSketch<FiveTuple> batched(KiB(96), 2, division, 0xbe02);
    for (const Packet& p : caida) per_packet.Update(p.key, p.weight);
    batched.UpdateBatch(caida.data(), caida.size());
    EXPECT_EQ(checksum(per_packet), want) << std::hex << "hw";
    EXPECT_EQ(checksum(batched), want) << std::hex << "hw";
  };
  expect_hw(DivisionMode::kExact, 0x8b26edc0cf03b5c7ULL);
  expect_hw(DivisionMode::kApproximate, 0x6ee4164cbe1592d6ULL);
}

}  // namespace
}  // namespace coco::core
