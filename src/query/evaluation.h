// Shared evaluation drivers for the experiment harness: run a task over a
// set of partial keys and score it against exact ground truth. Used by the
// bench binaries and integration tests so each figure's code stays a thin
// parameter sweep.
#pragma once

#include <cstdint>
#include <vector>

#include "keys/key_spec.h"
#include "metrics/accuracy.h"
#include "query/flow_table.h"
#include "trace/ground_truth.h"

namespace coco::query {

// Scores a decoded full-key table (a FlowTable, or a baseline's map) on
// heavy hitters for each partial key in `specs`. The threshold is
// `fraction` of the total traffic (the paper uses 1e-4). Returns one
// Accuracy per spec, in order.
template <typename Table, typename Key, typename Spec>
std::vector<metrics::Accuracy> ScoreHeavyHittersPerKey(
    const Table& decoded, const trace::ExactCounter<Key>& truth,
    const std::vector<Spec>& specs, double fraction) {
  const uint64_t threshold =
      static_cast<uint64_t>(fraction * static_cast<double>(truth.Total()));
  std::vector<metrics::Accuracy> scores;
  scores.reserve(specs.size());
  for (const Spec& spec : specs) {
    const FlowTable<DynKey> est = Aggregate(decoded, spec);
    const trace::ExactCounter<DynKey> exact = truth.Aggregate(spec);
    scores.push_back(
        metrics::ScoreThreshold(est, exact.counts(), threshold));
  }
  return scores;
}

// Heavy-change scoring across two windows, per partial key. A flow is a
// heavy change when its size differs by >= fraction * total(before+after)/2.
template <typename Table, typename Key, typename Spec>
std::vector<metrics::Accuracy> ScoreHeavyChangesPerKey(
    const Table& decoded_before, const Table& decoded_after,
    const trace::ExactCounter<Key>& truth_before,
    const trace::ExactCounter<Key>& truth_after,
    const std::vector<Spec>& specs, double fraction) {
  const uint64_t total =
      (truth_before.Total() + truth_after.Total()) / 2;
  const uint64_t threshold =
      static_cast<uint64_t>(fraction * static_cast<double>(total));
  std::vector<metrics::Accuracy> scores;
  scores.reserve(specs.size());
  for (const Spec& spec : specs) {
    const FlowTable<DynKey> est = AbsDiff(Aggregate(decoded_before, spec),
                                          Aggregate(decoded_after, spec));
    const trace::ExactCounter<DynKey> exact_before =
        truth_before.Aggregate(spec);
    const trace::ExactCounter<DynKey> exact_after =
        truth_after.Aggregate(spec);
    std::unordered_map<DynKey, uint64_t> exact_diff;
    for (const auto& [key, diff] :
         exact_before.HeavyChanges(exact_after, 1)) {
      exact_diff.emplace(key, diff);
    }
    scores.push_back(metrics::ScoreThreshold(est, exact_diff, threshold));
  }
  return scores;
}

}  // namespace coco::query
