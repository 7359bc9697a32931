// Accuracy metrics of §7.1: Recall Rate, Precision Rate, F1 Score, and
// Average Relative Error, computed against exact ground truth.
//
// Conventions (matching the paper):
//   * "correct flows" are the ground-truth flows meeting the task threshold;
//   * "reported flows" are what the algorithm emits (estimate >= threshold);
//   * ARE is computed over the query set Ψ = the correct flows, using the
//     algorithm's estimate (0 when the flow was not reported at all).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace coco::metrics {

struct Accuracy {
  double recall = 0.0;
  double precision = 0.0;
  double f1 = 0.0;
  double are = 0.0;
  size_t true_count = 0;      // |correct flows|
  size_t reported_count = 0;  // |reported flows|
};

// Generic scorer: `estimates` maps every reported key to its estimated size,
// `truth` maps every real key to its exact size; a key is "correct" when its
// true size >= threshold and "reported" when its estimate >= threshold.
// Either side is any key -> size map with find() (a query::FlowTable, an
// exact counter's std::unordered_map), each typed on its own. The relative
// errors are summed in sorted order, so the ARE does not depend on the
// truth's iteration order down to the last bit.
template <typename Estimates, typename Truth>
Accuracy ScoreThreshold(const Estimates& estimates, const Truth& truth,
                        uint64_t threshold) {
  Accuracy acc;
  size_t correct_reported = 0;
  std::vector<double> errors;

  for (const auto& [key, true_size] : truth) {
    if (true_size < threshold) continue;
    ++acc.true_count;
    auto it = estimates.find(key);
    const uint64_t est = it == estimates.end() ? 0 : it->second;
    if (est >= threshold) ++correct_reported;
    errors.push_back(static_cast<double>(est > true_size ? est - true_size
                                                         : true_size - est) /
                     static_cast<double>(true_size));
  }
  std::sort(errors.begin(), errors.end());
  double are_sum = 0.0;
  for (const double e : errors) are_sum += e;
  for (const auto& [key, est] : estimates) {
    if (est >= threshold) ++acc.reported_count;
  }

  acc.recall = acc.true_count == 0
                   ? 1.0
                   : static_cast<double>(correct_reported) /
                         static_cast<double>(acc.true_count);
  acc.precision = acc.reported_count == 0
                      ? 1.0
                      : static_cast<double>(correct_reported) /
                            static_cast<double>(acc.reported_count);
  acc.f1 = (acc.recall + acc.precision) == 0.0
               ? 0.0
               : 2.0 * acc.recall * acc.precision /
                     (acc.recall + acc.precision);
  acc.are = acc.true_count == 0 ? 0.0
                                : are_sum / static_cast<double>(acc.true_count);
  return acc;
}

// Total recorded mass of a flow table. This is the conservation observable
// the robustness layer accounts against (docs/ROBUSTNESS.md): a lossless
// exact run conserves offered mass exactly, and after a crash recovery the
// merged table's mass must sit within the reported bounded-loss estimate of
// the fault-free run's.
template <typename Table>
uint64_t TotalMass(const Table& table) {
  uint64_t total = 0;
  for (const auto& [key, size] : table) total += size;
  return total;
}

// Averages a set of per-key accuracies (the paper reports the mean over the
// six partial keys).
Accuracy MeanAccuracy(const std::vector<Accuracy>& parts);

// Absolute-error distribution support for the CDF plots of Fig. 17: returns
// the sorted |est - true| values over all ground-truth flows.
template <typename Estimates, typename Truth>
std::vector<uint64_t> AbsoluteErrors(const Estimates& estimates,
                                     const Truth& truth) {
  std::vector<uint64_t> errors;
  errors.reserve(truth.size());
  for (const auto& [key, true_size] : truth) {
    auto it = estimates.find(key);
    const uint64_t est = it == estimates.end() ? 0 : it->second;
    errors.push_back(est > true_size ? est - true_size : true_size - est);
  }
  std::sort(errors.begin(), errors.end());
  return errors;
}

// Value at a given cumulative probability in a sorted sample. Precondition:
// the sample is non-empty (COCO_CHECK). Callers fed from possibly-empty
// ground-truth tables (AbsoluteErrors of an empty truth map is empty) must
// use QuantileOr instead.
uint64_t Quantile(const std::vector<uint64_t>& sorted, double q);

// Total variant of Quantile for possibly-empty samples: returns `fallback`
// instead of tripping the non-empty precondition. The CDF paths built on
// AbsoluteErrors use this so an empty truth table yields a zeroed row, not
// an abort.
uint64_t QuantileOr(const std::vector<uint64_t>& sorted, double q,
                    uint64_t fallback = 0);

}  // namespace coco::metrics
