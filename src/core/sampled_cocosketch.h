// Sampling front-end for CocoSketch — the NitroSketch-style extension the
// paper's related-work section points at ("the sampling approach used in
// NitroSketch can further improve the throughput. We leave this for future
// work", §8).
//
// Update semantics: each packet is processed with probability p; processed
// packets carry weight w/p, so every flow's expected inserted mass is exactly
// its true mass and CocoSketch's unbiasedness (Lemma 3) is preserved end to
// end. Skipping uses geometric countdowns — one RNG draw per PROCESSED
// packet rather than per packet — which is where the speedup comes from.
//
// The cost is variance: inserted mass per flow is a scaled Binomial, adding
// f(e)·w·(1-p)/p on top of the sketch's own variance. The ablation bench
// (bench_ablation_sampling) quantifies the resulting throughput/F1 tradeoff.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/rng.h"
#include "core/cocosketch.h"

namespace coco::core {

// The sampling state on its own: geometric skip countdown plus unbiased
// weight compensation. Extracted from SampledCocoSketch so other layers can
// apply the identical compensation logic to any sketch — the OVS datapath's
// graceful-degradation ladder runs one of these per shard while overloaded
// (src/ovs/degrade.h).
class SamplingGate {
 public:
  SamplingGate(double probability, uint64_t seed)
      : probability_(probability),
        inverse_(1.0 / probability),
        seed_(seed),
        rng_(seed) {
    COCO_CHECK(probability > 0.0 && probability <= 1.0,
               "sample probability out of (0, 1]");
    countdown_ = NextGap();
  }

  // True when the current packet should be processed. Skips cost no RNG
  // draw — the geometric countdown is where the speedup comes from.
  bool Admit() {
    if (probability_ >= 1.0) return true;
    if (countdown_ > 0) {
      --countdown_;
      return false;
    }
    countdown_ = NextGap();
    return true;
  }

  // Weight an admitted packet must carry so every flow's expected inserted
  // mass equals its true mass: w/p, fractional part rounded stochastically
  // to keep integer counters unbiased too.
  uint32_t CompensatedWeight(uint32_t weight) {
    if (probability_ >= 1.0) return weight;
    const double scaled = static_cast<double>(weight) * inverse_;
    const uint32_t base = static_cast<uint32_t>(scaled);
    const double frac = scaled - static_cast<double>(base);
    return base + (rng_.Bernoulli(frac) ? 1 : 0);
  }

  // Rewinds the gate to its as-constructed state: the decision sequence
  // replays from the start, so a Clear()ed sketch is indistinguishable from
  // a freshly built one.
  void Reset() {
    rng_.Seed(seed_);
    countdown_ = NextGap();
  }

  double probability() const { return probability_; }

 private:
  // Geometric(p) gap: number of packets to skip before the next processed
  // one. floor(log(U)/log(1-p)) with U ~ (0,1].
  uint64_t NextGap() {
    if (probability_ >= 1.0) return 0;
    const double u = 1.0 - rng_.NextDouble();  // (0, 1]
    return static_cast<uint64_t>(std::log(u) / std::log(1.0 - probability_));
  }

  double probability_;
  double inverse_;
  uint64_t seed_;
  Rng rng_;
  uint64_t countdown_ = 0;
};

template <typename Key>
class SampledCocoSketch {
 public:
  SampledCocoSketch(size_t memory_bytes, double sample_probability,
                    size_t d = 2, uint64_t seed = ProcessSeed())
      : gate_(sample_probability, seed ^ 0x5a3b1e),
        sketch_(memory_bytes, d, seed) {}

  void Update(const Key& key, uint32_t weight) {
    if (!gate_.Admit()) return;
    sketch_.Update(key, gate_.CompensatedWeight(weight));
  }

  uint64_t Query(const Key& key) const { return sketch_.Query(key); }

  query::FlowTable<Key> Decode() const { return sketch_.Decode(); }

  void Clear() {
    sketch_.Clear();
    gate_.Reset();
  }

  size_t MemoryBytes() const { return sketch_.MemoryBytes(); }
  double sample_probability() const { return gate_.probability(); }
  const CocoSketch<Key>& inner() const { return sketch_; }

 private:
  SamplingGate gate_;
  CocoSketch<Key> sketch_;
};

}  // namespace coco::core
