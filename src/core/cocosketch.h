// Basic CocoSketch (§4.1) — stochastic variance minimization over d choices.
//
// Data structure: d arrays of l (key, value) buckets with independent hash
// functions. Per packet (e, w):
//   1. if e matches a mapped bucket in any array, add w to that bucket;
//   2. otherwise add w to the smallest mapped bucket and replace its key
//      with probability w / V_new (Theorem 1's variance-minimizing rule,
//      restricted to the d mapped buckets — "power of d choices").
// Exactly one value and at most one key are written per packet.
//
// With d == total bucket count this degenerates to Unbiased SpaceSaving;
// with small d (2-4) the update cost is O(d) while estimates stay unbiased
// with bounded variance (§5). Unbiasedness over arbitrary partial keys is
// property-tested in tests/cocosketch_test.cpp.
//
// Storage, batching, delta tracking and the control plane come from the
// shared bucket store (core/bucket_store.h); this header holds the §4.1
// update rule and the queries.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "core/bucket_store.h"
#include "query/flow_table.h"

namespace coco::core {

template <typename Key>
class CocoSketch : public BucketStore<CocoSketch<Key>, Key> {
  using Base = BucketStore<CocoSketch<Key>, Key>;
  friend Base;

 public:
  // The default seed is per-process entropy (coco::ProcessSeed) so a
  // white-box adversary cannot precompute colliding key sets against a
  // deployment; pass an explicit seed for deterministic tests/benches and
  // for cross-process aggregation (or set COCO_SEED).
  CocoSketch(size_t memory_bytes, size_t d = 2, uint64_t seed = ProcessSeed())
      : Base(memory_bytes, d, seed) {}

  // Point query: the tracked value, 0 if untracked. (A key occupies at most
  // one bucket at a time: matches are incremented in place and replacement
  // writes only happen when no bucket matched.)
  uint64_t Query(const Key& key) const {
    size_t idx[Base::kMaxD];
    Indices(key.data(), idx);
    const int match =
        buckets_.FindMatch(idx, d_, BucketArray<Key>::MakeProbe(key));
    return match < 0 ? 0 : buckets_.Value(idx[match]);
  }

  // Step 3 of the workflow (Fig. 1): the (FullKey, Size) table of all
  // recorded flows, input to the partial-key query front-end. Rows come in
  // bucket order.
  query::FlowTable<Key> Decode() const {
    query::FlowTable<Key> out;
    DecodeInto(&out);
    return out;
  }

  // Adds every occupied bucket to *table, summing keys already there: the
  // union of several sketches' decodes is one table (ovs::RunScaleout
  // collects its shards this way). Keys are read in place from the key
  // plane (query::FlowTable::AddKeyBytes).
  void DecodeInto(query::FlowTable<Key>* table) const {
    table->reserve(table->size() + buckets_.size());
    const uint32_t* values = buckets_.values();
    for (size_t i = 0; i < buckets_.size(); ++i) {
      if (values[i] != 0) table->AddKeyBytes(buckets_.KeyBytes(i), values[i]);
    }
  }

 private:
  static constexpr uint64_t kRngSalt = 0x5eedf00d;

  using Base::buckets_;
  using Base::d_;
  using Base::Indices;
  using Base::key_replacements_;
  using Base::pass1_misses_;
  using Base::rng_;
  using Base::updates_;

  // The update rule of §4.1 on the key's absolute bucket indices.
  template <size_t kD = 0>
  [[gnu::always_inline]] inline void UpdateAt(const size_t* idx,
                                              const Key& key,
                                              uint32_t weight) {
    const size_t d = kD == 0 ? d_ : kD;
    const auto probe = BucketArray<Key>::MakeProbe(key);
    ++updates_;
    // Pass 1: if the flow is already tracked, increment it — variance
    // increment zero (Theorem 2).
    const int match = buckets_.FindMatch(idx, d, probe);
    if (match >= 0) {
      buckets_.AddValue(idx[match], weight);
      this->MarkDirty(idx[match]);
      return;
    }
    ++pass1_misses_;
    // Pass 2: smallest mapped bucket, ties broken uniformly at random
    // (reservoir over equal minima, as §4.1 specifies).
    size_t chosen = idx[0];
    size_t ties = 1;
    for (size_t i = 1; i < d; ++i) {
      const uint32_t v = buckets_.Value(idx[i]);
      const uint32_t best = buckets_.Value(chosen);
      if (v < best) {
        chosen = idx[i];
        ties = 1;
      } else if (v == best) {
        ++ties;
        if (rng_.NextBelow(ties) == 0) chosen = idx[i];
      }
    }
    buckets_.AddValue(chosen, weight);
    this->MarkDirty(chosen);
    // Replace with probability weight / V_new, computed in exact integer
    // arithmetic: replace iff rand32 * V < weight * 2^32.
    if (static_cast<uint64_t>(rng_.Next32()) * buckets_.Value(chosen) <
        (static_cast<uint64_t>(weight) << 32)) {
      buckets_.StoreKey(chosen, probe);
      ++key_replacements_;
    }
  }
};

}  // namespace coco::core
