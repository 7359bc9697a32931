// Distribution-level metrics: flow size distribution (FSD) and empirical
// entropy — the §1 measurement tasks beyond point queries. Computed from any
// (key -> size) table, so a decoded sketch and exact ground truth are scored
// through the same code path.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace coco::metrics {

// Log2-bucketed flow size histogram: fraction of flows whose size lands in
// [2^i, 2^{i+1}). Buckets beyond `buckets-1` are clamped into the last one.
template <typename Table>
std::vector<double> FlowSizeHistogram(const Table& table,
                                      size_t buckets = 24) {
  std::vector<double> hist(buckets, 0.0);
  if (table.empty()) return hist;
  for (const auto& [key, size] : table) {
    if (size == 0) continue;
    size_t b = 0;
    uint64_t s = size;
    while (s > 1 && b + 1 < buckets) {
      s >>= 1;
      ++b;
    }
    hist[b] += 1.0;
  }
  const double n = static_cast<double>(table.size());
  for (double& h : hist) h /= n;
  return hist;
}

// Total-variation distance between two histograms (0 = identical, 1 = fully
// disjoint).
inline double HistogramDistance(const std::vector<double>& a,
                                const std::vector<double>& b) {
  double tv = 0.0;
  const size_t n = a.size() < b.size() ? b.size() : a.size();
  for (size_t i = 0; i < n; ++i) {
    const double x = i < a.size() ? a[i] : 0.0;
    const double y = i < b.size() ? b[i] : 0.0;
    tv += std::abs(x - y);
  }
  return tv / 2.0;
}

// Shannon entropy (bits) of the traffic's flow-size distribution:
// -sum_i (f_i/N) log2 (f_i/N), where N is total mass.
template <typename Table>
double EmpiricalEntropy(const Table& table) {
  double total = 0.0;
  for (const auto& [key, size] : table) total += static_cast<double>(size);
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (const auto& [key, size] : table) {
    if (size == 0) continue;
    const double p = static_cast<double>(size) / total;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace coco::metrics
