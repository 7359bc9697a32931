// Figure 17: CDF of absolute per-flow error under different d values —
// (a) basic CocoSketch (d = 2,3,4 and USS), (b) hardware-friendly CocoSketch
// (d = 1..4). 500 KB, full-key (5-tuple) flows.
#include "harness.h"

using namespace coco;
using namespace coco::bench;

namespace {

void PrintCdfTail(const std::string& name,
                  const std::vector<uint64_t>& sorted_errors) {
  std::printf("%-10s", name.c_str());
  // QuantileOr: an empty error sample (empty ground-truth table, e.g. a
  // zero-packet COCO_BENCH_PACKETS run) prints a zeroed row instead of
  // tripping Quantile's non-empty precondition.
  for (double q : {0.95, 0.96, 0.97, 0.98, 0.99, 0.999}) {
    std::printf(" %8llu", static_cast<unsigned long long>(
                              metrics::QuantileOr(sorted_errors, q)));
  }
  std::printf(sorted_errors.empty() ? "  (no flows)\n" : "\n");
}

}  // namespace

int main() {
  const size_t memory = KiB(500);
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(BenchPackets()));
  const auto truth = trace::CountTrace(trace);
  std::printf("Figure 17: absolute-error CDF tails (%zu pkts, %s)\n",
              trace.size(), FormatBytes(memory).c_str());

  PrintHeader("Fig 17(a): basic CocoSketch — error at CDF quantiles");
  std::printf("%-10s %8s %8s %8s %8s %8s %8s\n", "", "p95", "p96", "p97",
              "p98", "p99", "p99.9");
  for (size_t d : {2, 3, 4}) {
    core::CocoSketch<FiveTuple> coco(memory, d);
    for (const Packet& p : trace) coco.Update(p.key, p.weight);
    const auto errors = metrics::AbsoluteErrors(coco.Decode(), truth.counts());
    PrintCdfTail("d=" + std::to_string(d), errors);
  }
  {
    sketch::UnbiasedSpaceSaving<FiveTuple> uss(memory);
    for (const Packet& p : trace) uss.Update(p.key, p.weight);
    const auto errors = metrics::AbsoluteErrors(uss.Decode(), truth.counts());
    PrintCdfTail("USS", errors);
  }

  PrintHeader("Fig 17(b): hardware-friendly CocoSketch — error at quantiles");
  std::printf("%-10s %8s %8s %8s %8s %8s %8s\n", "", "p95", "p96", "p97",
              "p98", "p99", "p99.9");
  for (size_t d : {1, 2, 3, 4}) {
    core::HwCocoSketch<FiveTuple> coco(memory, d);
    for (const Packet& p : trace) coco.Update(p.key, p.weight);
    // The paper's per-flow error uses the strict Lemma-4 median estimator
    // (absent arrays count as 0) — the one Theorem 3's bound is stated for.
    std::unordered_map<FiveTuple, uint64_t> estimates;
    estimates.reserve(truth.DistinctFlows());
    for (const auto& [key, count] : truth.counts()) {
      estimates.emplace(key, coco.UnbiasedQuery(key));
    }
    const auto errors = metrics::AbsoluteErrors(estimates, truth.counts());
    PrintCdfTail("d=" + std::to_string(d), errors);
  }

  std::printf(
      "\nExpected shape (paper): larger d concentrates errors (smaller "
      "mid-CDF\nquantiles) but fattens the extreme tail (worst 0.1%%) — "
      "Theorem 3's\nd/l tradeoff.\n");
  return 0;
}
