// Hardware deployment walkthrough: compile the hardware-friendly CocoSketch
// to the mini P4 IR, validate it against the per-stage resource budgets,
// print the pipeline listing, execute packets through the interpreter, and
// answer a partial-key query from the decoded register state — the full
// §6.2 story in one runnable program.
//
// Build & run:  ./build/examples/p4_pipeline
#include <cstdio>

#include "common/sizes.h"
#include "keys/key_spec.h"
#include "p4/coco_program.h"
#include "query/flow_table.h"
#include "trace/generators.h"

using namespace coco;

int main() {
  // Compile for d = 2 and 500 KB of register state.
  p4::P4CocoSketch sketch(KiB(500), 2, /*approx_division=*/true);
  std::printf("%s", p4::Dump(sketch.program()).c_str());

  const std::string diag = p4::Validate(sketch.program(), p4::StageBudget{});
  std::printf("\nstage validation: %s\n",
              diag.empty() ? "OK (fits per-stage ALU/hash/math/RNG budgets)"
                           : diag.c_str());
  std::printf("stages used: %zu of 12\n\n", sketch.program().stages.size());

  // Run traffic through the interpreted pipeline.
  const auto packets =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(300'000));
  for (const Packet& p : packets) sketch.Update(p.key, p.weight);

  // Control plane: decode register state, aggregate a partial key.
  const auto table = sketch.Decode();
  const auto by_src = query::Aggregate(table, keys::TupleKeySpec::SrcIp());
  std::printf("decoded %zu full-key flows from the register arrays\n",
              table.size());
  std::printf("top sources recovered from switch state:\n");
  for (const auto& [key, size] : query::TopRows(by_src, 3)) {
    std::printf("  %-16s %10llu pkts\n",
                Ipv4ToString(LoadBE32(key.data())).c_str(),
                static_cast<unsigned long long>(size));
  }
  return 0;
}
