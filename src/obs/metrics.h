// Observability primitives: named counters, gauges, and log-bucketed
// latency histograms, cheap enough for the datapath's hot loops.
//
// Design constraints (docs/OBSERVABILITY.md):
//   * Hot-path writes are single relaxed atomic RMWs — no locks, no
//     allocation, no seq-cst fences. Counters tolerate torn cross-metric
//     reads; each individual value is always consistent.
//   * Metric handles (Counter*, Gauge*, Histogram*) are stable for the
//     lifetime of the Registry, so instrumented code resolves names once
//     (outside the hot loop) and then works through raw pointers.
//   * Histogram buckets are powers of two: bucket index is bit_width(v),
//     so Observe() is a handful of instructions and the bucket array is
//     fixed-size — no dynamic boundaries to configure or serialize.
//
// The Registry is the composition root: subsystems register under dotted
// names ("ovs.q0.exact", "core.sketch.load_factor"); obs/snapshot.h
// captures the whole registry and renders it as JSON.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/check.h"

namespace coco::obs {

// Monotone event count. Writers from any thread; reads are racy-but-atomic.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-write-wins instantaneous value (occupancy, load factor, fraction).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Log2-bucketed histogram of non-negative integer samples (cycles, batch
// sizes, bytes). Bucket i holds samples whose bit width is i, i.e. values in
// [2^(i-1), 2^i); bucket 0 holds exact zeros. 64-bit samples need at most
// kBuckets = 65 buckets, so the footprint is one cache-friendly flat array.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Observe(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  // 0 -> 0, 1 -> 1, [2,3] -> 2, [4,7] -> 3, ... [2^63, 2^64) -> 64.
  static size_t BucketIndex(uint64_t value) {
    return static_cast<size_t>(std::bit_width(value));
  }

  // Largest value bucket `i` can hold (inclusive).
  static uint64_t BucketUpperBound(size_t i) {
    COCO_CHECK(i < kBuckets, "histogram bucket index out of range");
    if (i == 0) return 0;
    if (i >= 64) return UINT64_MAX;
    return (uint64_t{1} << i) - 1;
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    COCO_CHECK(i < kBuckets, "histogram bucket index out of range");
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Upper bound of the bucket containing the q-quantile sample (0 when the
  // histogram is empty) — a factor-of-two estimate, which is what log
  // buckets buy. Control-plane only; walks all buckets under racy reads.
  uint64_t ApproxQuantile(double q) const {
    COCO_CHECK(q >= 0.0 && q <= 1.0, "quantile out of range");
    const uint64_t total = Count();
    if (total == 0) return 0;
    const uint64_t rank = static_cast<uint64_t>(
        q * static_cast<double>(total - 1));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += BucketCount(i);
      if (seen > rank) return BucketUpperBound(i);
    }
    return BucketUpperBound(kBuckets - 1);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Named-metric registry. Get* is create-or-get under a mutex (registration
// is control-plane); returned pointers stay valid until the Registry dies.
// Counters, gauges, and histograms live in separate namespaces. Names are
// restricted to [A-Za-z0-9._-] so ToJson never needs escaping.
class Registry {
 public:
  Counter* GetCounter(std::string_view name) {
    return GetOrCreate(&counters_, name);
  }
  Gauge* GetGauge(std::string_view name) { return GetOrCreate(&gauges_, name); }
  Histogram* GetHistogram(std::string_view name) {
    return GetOrCreate(&histograms_, name);
  }

  // Snapshot support: invokes fn(name, metric&) for every registered metric,
  // in name order (std::map), under the registry lock. The callbacks read
  // relaxed-atomic values, so holding the lock does not stall writers.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    ForEach(counters_, fn);
  }
  template <typename Fn>
  void ForEachGauge(Fn&& fn) const {
    ForEach(gauges_, fn);
  }
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    ForEach(histograms_, fn);
  }

  static bool ValidName(std::string_view name) {
    if (name.empty()) return false;
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
      if (!ok) return false;
    }
    return true;
  }

 private:
  template <typename T>
  using Map = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  template <typename T>
  T* GetOrCreate(Map<T>* map, std::string_view name) {
    COCO_CHECK(ValidName(name), "metric names are [A-Za-z0-9._-]+");
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map->find(name);
    if (it == map->end()) {
      it = map->emplace(std::string(name), std::make_unique<T>()).first;
    }
    return it->second.get();
  }

  template <typename T, typename Fn>
  void ForEach(const Map<T>& map, Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, metric] : map) fn(name, *metric);
  }

  mutable std::mutex mu_;
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<Histogram> histograms_;
};

}  // namespace coco::obs
