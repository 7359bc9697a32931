// Exact reference counting used to score every experiment.
//
// ExactCounter is a plain hash map from key to true size; it provides the
// derived sets each task needs: heavy hitters above a threshold (Fig. 8/9),
// heavy changes between two windows (Fig. 10), and per-level aggregates for
// the HHH hierarchies (Fig. 11/12). It is deliberately simple — correctness
// of the scorer matters more than its speed.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "packet/keys.h"

namespace coco::trace {

template <typename Key>
class ExactCounter {
 public:
  void Add(const Key& key, uint64_t weight) { counts_[key] += weight; }

  uint64_t Count(const Key& key) const {
    auto it = counts_.find(key);
    return it == counts_.end() ? 0 : it->second;
  }

  uint64_t Total() const {
    uint64_t total = 0;
    for (const auto& [key, count] : counts_) total += count;
    return total;
  }

  size_t DistinctFlows() const { return counts_.size(); }

  // Flows with size >= threshold.
  std::vector<std::pair<Key, uint64_t>> HeavyHitters(uint64_t threshold) const {
    std::vector<std::pair<Key, uint64_t>> out;
    for (const auto& [key, count] : counts_) {
      if (count >= threshold) out.emplace_back(key, count);
    }
    return out;
  }

  // Flows whose size changed by >= threshold between `this` and `other`
  // (union of both key sets).
  std::vector<std::pair<Key, uint64_t>> HeavyChanges(
      const ExactCounter& other, uint64_t threshold) const {
    std::vector<std::pair<Key, uint64_t>> out;
    for (const auto& [key, count] : counts_) {
      const uint64_t b = other.Count(key);
      const uint64_t diff = count > b ? count - b : b - count;
      if (diff >= threshold) out.emplace_back(key, diff);
    }
    for (const auto& [key, count] : other.counts_) {
      if (counts_.count(key)) continue;  // already handled above
      if (count >= threshold) out.emplace_back(key, count);
    }
    return out;
  }

  // Re-aggregates this counter under a partial-key mapping g(.) —
  // the ground-truth counterpart of the query engine's GROUP BY. The output
  // key type is whatever the spec produces.
  template <typename Spec>
  auto Aggregate(const Spec& spec) const {
    using OutKey = decltype(spec.Apply(std::declval<const Key&>()));
    ExactCounter<OutKey> out;
    for (const auto& [key, count] : counts_) {
      out.Add(spec.Apply(key), count);
    }
    return out;
  }

  const std::unordered_map<Key, uint64_t>& counts() const { return counts_; }

 private:
  std::unordered_map<Key, uint64_t> counts_;
};

// Counts a full trace under the identity key (5-tuple).
inline ExactCounter<FiveTuple> CountTrace(const std::vector<Packet>& trace) {
  ExactCounter<FiveTuple> counter;
  for (const Packet& p : trace) counter.Add(p.key, p.weight);
  return counter;
}

}  // namespace coco::trace
