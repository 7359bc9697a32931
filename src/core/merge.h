// Sketch-level merge for network-wide aggregation (docs/NETWIDE.md).
//
// Agents at different vantage points each run a CocoSketch over their slice
// of the traffic; the collector combines them WITHOUT decoding by summing the
// bucket arrays position-wise. Both sketches must share geometry (d, l) and
// hash seed, so bucket i of array j maps the same key set in both.
//
// Per bucket pair ((k1,v1), (k2,v2)):
//   * one side empty            -> copy the other;
//   * k1 == k2                  -> keep the key, sum the values;
//   * conflict (k1 != k2)       -> value v1+v2, key k2 with probability
//                                  v2/(v1+v2), else k1.
//
// Unbiasedness sketch (the §4 argument survives the merge): before merging,
// E[mass decoded for flow e from shard s] = f_s(e) for every flow and shard
// (Lemma 3 per shard). The conflict rule redistributes the pair's combined
// mass v1+v2 to k1 or k2 in proportion to their contributions, so
// E[mass attributed to k1 | v1, v2] = (v1+v2) * v1/(v1+v2) = v1 and likewise
// for k2 — the merge is mass-conserving in expectation per key, hence the
// merged decode stays unbiased for every flow and, by linearity, for every
// partial-key aggregate. Property-tested against shard-then-decode ground
// truth in tests/netwide_test.cpp.
//
// Caveat: after a merge a flow may occupy several buckets of the basic
// CocoSketch (one inherited from each shard), which its point Query() — first
// match wins — under-reports. Decode() sums duplicate keys, so the decode +
// aggregate query path (the one the collector serves) is unaffected. The
// hardware variant already allows duplicates across arrays and is merged with
// the same per-array rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"

namespace coco::core {

struct MergeStats {
  bool ok = false;          // false: geometry/seed mismatch, dst untouched
  // Set when the merge was refused specifically because the two sketches
  // hash with different seeds. Position-wise merging of foreign-seed arrays
  // would attribute mass to the wrong key sets silently — callers (the
  // collector, cocotool merge) surface this case distinctly in obs and
  // error messages instead of lumping it in with geometry mismatches.
  bool seed_mismatch = false;
  uint64_t matched = 0;     // same key both sides
  uint64_t copied = 0;      // one side empty
  uint64_t conflicts = 0;   // probabilistic key resolution ran
  uint64_t saturated = 0;   // value clamped at UINT32_MAX
};

namespace internal {

// The shared bucket-pair rule for occupied source slot `i` (callers skip
// empty source slots). `dst` accumulates `src`.
template <typename BucketArrayT>
void MergeSlot(BucketArrayT* dst, const BucketArrayT& src, size_t i, Rng* rng,
               MergeStats* stats) {
  const uint32_t src_value = src.Value(i);
  if (dst->Value(i) == 0) {
    dst->CopySlotFrom(src, i, i);
    ++stats->copied;
    return;
  }
  const uint64_t sum =
      static_cast<uint64_t>(dst->Value(i)) + static_cast<uint64_t>(src_value);
  if (dst->KeyEquals(i, src.KeyWords(i))) {
    ++stats->matched;
  } else {
    ++stats->conflicts;
    // Keep src's key with probability src.value / (dst.value + src.value) —
    // exact integer arithmetic, no doubles.
    if (rng->NextBelow(sum) < src_value) dst->SetKeyWords(i, src.KeyWords(i));
  }
  if (sum > UINT32_MAX) {
    dst->SetValue(i, UINT32_MAX);
    ++stats->saturated;
  } else {
    dst->SetValue(i, static_cast<uint32_t>(sum));
  }
}

template <typename Sketch>
MergeStats MergeBucketArrays(Sketch* dst, const Sketch& src, Rng* rng) {
  MergeStats stats;
  if (dst->d() != src.d() || dst->l() != src.l()) {
    return stats;  // ok == false, dst untouched
  }
  if (dst->seed() != src.seed()) {
    stats.seed_mismatch = true;
    return stats;  // ok == false, dst untouched
  }
  auto& dst_buckets = dst->MutableBuckets();
  const auto& src_buckets = src.Buckets();
  // Empty source slots consume no RNG draw, so skipping them keeps the
  // draw sequence of the pairwise rule.
  for (size_t i = 0; i < src_buckets.size(); ++i) {
    if (src_buckets.Value(i) != 0) {
      MergeSlot(&dst_buckets, src_buckets, i, rng, &stats);
    }
  }
  dst->MarkAllDirty();
  stats.ok = true;
  return stats;
}

}  // namespace internal

// Merge `src` into `dst`. Returns stats with ok == false (and dst untouched)
// when geometry or hash seed differ.
template <typename Key>
MergeStats MergeSketches(CocoSketch<Key>* dst, const CocoSketch<Key>& src,
                         Rng* rng) {
  return internal::MergeBucketArrays(dst, src, rng);
}

template <typename Key>
MergeStats MergeSketches(HwCocoSketch<Key>* dst, const HwCocoSketch<Key>& src,
                         Rng* rng) {
  if (dst->division() != src.division()) return MergeStats{};
  return internal::MergeBucketArrays(dst, src, rng);
}

// N-way merge: fold every source into `dst`, accumulating stats. All
// sources must share geometry and seed with dst; the first incompatible
// source stops the fold with ok == false (dst then holds the partial merge
// of the sources before it).
template <typename Sketch>
MergeStats MergeAll(Sketch* dst, const std::vector<const Sketch*>& sources,
                    Rng* rng) {
  MergeStats total;
  total.ok = true;
  for (const Sketch* src : sources) {
    const MergeStats s = MergeSketches(dst, *src, rng);
    if (!s.ok) {
      total.ok = false;
      total.seed_mismatch = s.seed_mismatch;
      return total;
    }
    total.matched += s.matched;
    total.copied += s.copied;
    total.conflicts += s.conflicts;
    total.saturated += s.saturated;
  }
  return total;
}

}  // namespace coco::core
