// Hardware-friendly CocoSketch (§4.2) — circular dependencies removed.
//
// Each of the d arrays runs an independent d=1 instance of stochastic
// variance minimization: the mapped bucket's value is ALWAYS incremented
// (no dependence on the key comparison) and the key is replaced with
// probability w / V_new (no dependence across arrays). This matches what an
// RMT pipeline or a fully pipelined FPGA design can execute at line rate.
//
// Because a flow may now be recorded in several arrays, queries take the
// median of the per-array estimates (value if the key occupies its mapped
// bucket, else 0) — the control-plane rule of §4.3. Each per-array estimate
// is unbiased (Lemma 4) with variance f(e)·f̄(e)/l (Lemma 5); the median
// sharpens the tail per Theorem 3.
//
// Division mode selects how the replacement probability is realized:
//   kExact       — full-width reciprocal (FPGA variant, §6.1);
//   kApproximate — Tofino math-unit top-4-bit reciprocal (P4 variant, §6.2).
//
// Every array writes its mapped bucket, so TotalValue() is d times the
// stream mass and delta-sync deltas are up to d times larger than
// CocoSketch's for the same traffic.
//
// Storage, batching, delta tracking and the control plane come from the
// shared bucket store (core/bucket_store.h), as for CocoSketch. The d key
// compares run in one mask up front; that is safe before the increments
// because array i only ever writes bucket range [i*l, (i+1)*l): no array's
// key write can affect another array's compare.
#pragma once

#include <cstdint>
#include <utility>

#include "common/rng.h"
#include "core/bucket_store.h"
#include "hw/approx_divider.h"
#include "query/flow_table.h"

namespace coco::core {

enum class DivisionMode {
  kExact,        // FPGA variant
  kApproximate,  // P4 / Tofino variant
};

// Median of v[0, n), the mean of the middle two for even n; sorts v. An
// insertion sort: n is at most d.
inline uint64_t Median(uint64_t* v, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    for (size_t j = i; j > 0 && v[j] < v[j - 1]; --j) std::swap(v[j], v[j - 1]);
  }
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// §4.3's estimate from the per-array estimates est[0, d): the median of the
// arrays recording the flow (non-zero entries), 0 if none. Reorders est.
inline uint64_t MedianOfRecorded(uint64_t* est, size_t d) {
  size_t recorded = 0;
  for (size_t i = 0; i < d; ++i) {
    if (est[i] != 0) est[recorded++] = est[i];
  }
  return recorded == 0 ? 0 : Median(est, recorded);
}

template <typename Key>
class HwCocoSketch : public BucketStore<HwCocoSketch<Key>, Key> {
  using Base = BucketStore<HwCocoSketch<Key>, Key>;
  friend Base;

 public:
  // Default seed is per-process entropy; see CocoSketch's constructor note.
  HwCocoSketch(size_t memory_bytes, size_t d = 2,
               DivisionMode division = DivisionMode::kExact,
               uint64_t seed = ProcessSeed())
      : Base(memory_bytes, d, seed), division_(division) {}

  // Per-array estimate: V if the key owns its mapped bucket, else 0
  // (the estimator of Lemma 4).
  uint64_t EstimateInArray(size_t array, const Key& key) const {
    uint64_t est[Base::kMaxD];
    ArrayEstimates(key.data(), est);
    return est[array];
  }

  // §4.3: "since one flow may appear in multiple arrays, we will take the
  // median estimated size in different arrays as its final estimated size" —
  // the median is over the arrays actually recording the flow (average of
  // the middle two when that count is even). Flows recorded nowhere query
  // as 0. The strictly unbiased Lemma-4 estimator (0 for absent arrays) is
  // available per array via EstimateInArray.
  uint64_t Query(const Key& key) const {
    uint64_t est[Base::kMaxD];
    ArrayEstimates(key.data(), est);
    return MedianOfRecorded(est, d_);
  }

  // The strict Lemma-4 median: absent arrays contribute 0. Unbiased per
  // array and tail-bounded per Theorem 3 (used by the Fig. 17(b) error-CDF
  // analysis); under-reports flows recorded in fewer than d/2 arrays, which
  // is why the reporting path above conditions on recorded arrays instead.
  uint64_t UnbiasedQuery(const Key& key) const {
    uint64_t est[Base::kMaxD];
    ArrayEstimates(key.data(), est);
    return Median(est, d_);
  }

  // Full-key flow table: every key recorded anywhere, scored by Query().
  // A key is scored where it is first seen, in the first array that records
  // it, and inserted only with a non-zero estimate (a key that owns none
  // of its mapped buckets is indistinguishable from an unrecorded flow).
  // Keys are read in place from the key plane; rows come in bucket order.
  query::FlowTable<Key> Decode() const {
    query::FlowTable<Key> out;
    out.reserve(buckets_.size());
    for (size_t array = 0; array < d_; ++array) {
      for (size_t i = array * l_; i < (array + 1) * l_; ++i) {
        if (buckets_.Value(i) == 0) continue;
        const uint8_t* key = buckets_.KeyBytes(i);
        uint64_t est[Base::kMaxD];
        ArrayEstimates(key, est);
        size_t first = 0;
        while (first < d_ && est[first] == 0) ++first;
        if (first == array) out.AddKeyBytes(key, MedianOfRecorded(est, d_));
      }
    }
    return out;
  }

  DivisionMode division() const { return division_; }

 private:
  static constexpr uint64_t kRngSalt = 0x5eedf11d;

  using Base::buckets_;
  using Base::d_;
  using Base::Indices;
  using Base::key_replacements_;
  using Base::l_;
  using Base::pass1_misses_;
  using Base::rng_;
  using Base::updates_;

  // Per-array estimates of the key whose bytes start at `key`.
  void ArrayEstimates(const uint8_t* key, uint64_t* est) const {
    size_t idx[Base::kMaxD];
    Indices(key, idx);
    const typename BucketArray<Key>::Probe probe(key);
    for (size_t i = 0; i < d_; ++i) {
      const uint32_t v = buckets_.Value(idx[i]);
      est[i] = v != 0 && buckets_.KeyMatches(idx[i], probe) ? v : 0;
    }
  }

  // The §4.2 per-array rule on the key's absolute bucket indices: the d key
  // compares happen in one mask up front (arrays write disjoint bucket
  // ranges, so no increment or key write below can invalidate it); the RNG
  // draws run in array order.
  template <size_t kD = 0>
  [[gnu::always_inline]] inline void UpdateAt(const size_t* idx,
                                              const Key& key,
                                              uint32_t weight) {
    const size_t d = kD == 0 ? d_ : kD;
    const auto probe = BucketArray<Key>::MakeProbe(key);
    const uint32_t eq = buckets_.KeyEqMask(idx, d, probe);
    ++updates_;
    // "Pass-1 miss" for the hardware variant: the flow's key owned none of
    // its d mapped buckets when the packet arrived.
    if (eq == 0) ++pass1_misses_;
    for (size_t i = 0; i < d; ++i) {
      // Value stage: unconditional increment — no dependence on the key.
      buckets_.AddValue(idx[i], weight);
      this->MarkDirty(idx[i]);
      if ((eq >> i) & 1) continue;  // matching key needs no replacement draw
      // Key stage: replace w.p. weight / V_new via reciprocal comparison,
      // exactly as the hardware pipelines execute it.
      const uint32_t recip =
          division_ == DivisionMode::kExact
              ? hw::ApproxDivider::ExactReciprocal(buckets_.Value(idx[i]))
              : hw::ApproxDivider::Reciprocal(buckets_.Value(idx[i]));
      const uint64_t threshold = static_cast<uint64_t>(recip) * weight;
      if (static_cast<uint64_t>(rng_.Next32()) < threshold) {
        buckets_.StoreKey(idx[i], probe);
        ++key_replacements_;
      }
    }
  }

  DivisionMode division_;
};

}  // namespace coco::core
