// Figure 18(b): CocoSketch vs the full-key-sketch strawmen of §2.3 on two
// keys — SrcIP (the full key here) and its 24-bit prefix (partial key),
// 6 MB total memory, ARE over all distinct flows.
//
//   Ours      — one CocoSketch on SrcIP; /24 recovered by aggregation.
//   2*Elastic — one Elastic sketch per key (the per-key baseline).
//   Lossy     — one full-key Elastic; /24 recovered by aggregating only the
//               flows recorded in the heavy part.
//   Full      — one full-key Elastic; /24 recovered by querying ALL 256
//               possible full keys under each prefix and summing.
#include <cmath>

#include "harness.h"

using namespace coco;
using namespace coco::bench;

namespace {

// `est` is a query::FlowTable or a baseline's std::unordered_map.
template <typename Table>
double Are(const Table& est, const trace::ExactCounter<DynKey>& exact) {
  double sum = 0;
  for (const auto& [key, true_size] : exact.counts()) {
    auto it = est.find(key);
    const uint64_t e = it == est.end() ? 0 : it->second;
    sum += std::abs(static_cast<double>(e) - static_cast<double>(true_size)) /
           static_cast<double>(true_size);
  }
  return sum / static_cast<double>(exact.DistinctFlows());
}

}  // namespace

int main() {
  const size_t memory = MiB(6);
  const keys::PrefixSpec full_spec(32), partial_spec(24);

  // This experiment needs a wide, lightly clustered SrcIP population (the
  // paper's CAIDA slice has ~10^6 sources): with few sources the "Full"
  // strawman's 256 light-part probes per prefix hit mostly-zero cells and
  // its error cannot accumulate.
  // Defaults to a longer trace than the other benches: the Full strawman's
  // error accumulation only shows once the light part carries real
  // occupancy, which needs >~500k distinct sources.
  trace::TraceConfig config =
      trace::TraceConfig::CaidaLike(BenchPackets(4'000'000));
  config.num_flows = std::max<size_t>(config.num_flows,
                                      config.num_packets / 8);
  config.num_networks = 8192;
  config.network_alpha = 0.3;
  const auto packets = trace::GenerateTrace(config);
  trace::ExactCounter<IPv4Key> truth;
  for (const Packet& p : packets) truth.Add(IPv4Key(p.key.src_ip()), p.weight);
  const auto exact32 = truth.Aggregate(full_spec);
  const auto exact24 = truth.Aggregate(partial_spec);
  std::printf(
      "Figure 18(b): full-key strawmen, %zu pkts, %s, %zu /32 flows, %zu /24 "
      "flows\n",
      packets.size(), FormatBytes(memory).c_str(), exact32.DistinctFlows(),
      exact24.DistinctFlows());

  // --- Ours: one CocoSketch on the full key -------------------------------
  double ours32, ours24;
  {
    core::CocoSketch<IPv4Key> coco(memory, 2);
    for (const Packet& p : packets) {
      coco.Update(IPv4Key(p.key.src_ip()), p.weight);
    }
    const auto table = coco.Decode();
    ours32 = Are(query::Aggregate(table, full_spec), exact32);
    ours24 = Are(query::Aggregate(table, partial_spec), exact24);
  }

  // --- 2*Elastic: one sketch per key ---------------------------------------
  double twoe32, twoe24;
  {
    sketch::ElasticSketch<DynKey> e32(memory / 2), e24(memory / 2);
    for (const Packet& p : packets) {
      const IPv4Key key(p.key.src_ip());
      e32.Update(full_spec.Apply(key), p.weight);
      e24.Update(partial_spec.Apply(key), p.weight);
    }
    twoe32 = Are(e32.Decode(), exact32);
    twoe24 = Are(e24.Decode(), exact24);
  }

  // --- Lossy & Full: one full-key Elastic ----------------------------------
  double lossy32, lossy24, full32, full24;
  {
    sketch::ElasticSketch<DynKey> elastic(memory);
    for (const Packet& p : packets) {
      elastic.Update(full_spec.Apply(IPv4Key(p.key.src_ip())), p.weight);
    }
    const auto decoded = elastic.Decode();
    lossy32 = Are(decoded, exact32);
    full32 = lossy32;  // on the full key both recover the same estimates

    // Lossy: aggregate only the recorded flows.
    std::unordered_map<DynKey, uint64_t> lossy_partial;
    for (const auto& [key, est] : decoded) {
      IPv4Key addr(LoadBE32(key.data()));
      lossy_partial[partial_spec.Apply(addr)] += est;
    }
    lossy24 = Are(lossy_partial, exact24);

    // Full: for each true /24, query all 256 host extensions.
    std::unordered_map<DynKey, uint64_t> full_partial;
    for (const auto& [prefix, true_size] : exact24.counts()) {
      const uint32_t base = static_cast<uint32_t>(LoadBE32(prefix.buf.data()));
      uint64_t sum = 0;
      for (uint32_t host = 0; host < 256; ++host) {
        sum += elastic.Query(full_spec.Apply(IPv4Key(base | host)));
      }
      full_partial[prefix] = sum;
    }
    full24 = Are(full_partial, exact24);
  }

  PrintHeader("Fig 18(b): ARE on full key (/32) and partial key (/24)");
  std::printf("%-12s %10s %10s\n", "solution", "32-bit", "24-bit");
  std::printf("%-12s %10.4f %10.4f\n", "Ours", ours32, ours24);
  std::printf("%-12s %10.4f %10.4f\n", "2*Elastic", twoe32, twoe24);
  std::printf("%-12s %10.4f %10.4f\n", "Lossy", lossy32, lossy24);
  std::printf("%-12s %10.4f %10.4f\n", "Full", full32, full24);

  std::printf(
      "\nExpected shape (paper): Ours accurate on BOTH keys (<0.02) while "
      "every\nfull-key-sketch strawman is ~an order of magnitude worse: "
      "Lossy loses the\nlight-part mass, Full accumulates one noisy probe "
      "per possible host (>1 ARE\nat the paper's 27M-packet scale; raise "
      "COCO_BENCH_PACKETS to push the light\npart into saturation and "
      "reproduce the blow-up).\n");
  return 0;
}
