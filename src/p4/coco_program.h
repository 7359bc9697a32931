// The hardware-friendly CocoSketch compiled to the mini P4 IR, plus the
// control-plane decoder — i.e. the paper's §6.2 Tofino program, executable
// in software through p4::Interpreter.
//
// Pipeline layout (d = 2):
//   stage 0  hash        idx_i = h_i(key)            (hash units)
//   stage 1  value       V_i = value_i[idx_i] += w   (1 stateful ALU/array)
//   stage 2+i probability recip = ~2^32/V_i; thr = sat(recip*w);
//             cond_i = rand32 < thr                  (math + RNG units)
//   stage .. key_i       if cond_i: key_i[idx_i] = key   (4 word-ALUs)
//
// Note there is no key-match check in the data plane: when the arriving key
// already owns the bucket, the conditional write rewrites the same bytes —
// a no-op — so the match gateway of the software version is simply dropped.
// Each register array is touched in exactly one stage and dataflow is
// strictly forward: this is what "removing circular dependencies" (§3.3)
// buys, and p4::Validate checks it mechanically.
#pragma once

#include "core/hw_cocosketch.h"
#include "p4/program.h"
#include "packet/keys.h"
#include "query/flow_table.h"

namespace coco::p4 {

// Builds the CocoSketch data-plane program: d value arrays and d key arrays
// of `buckets` cells each. `approx_division` selects the Tofino math-unit
// reciprocal (true) or the FPGA full divider (false).
Program BuildCocoProgram(size_t d, size_t buckets, bool approx_division);

// Facade owning the program + interpreter with the library-standard sketch
// interface. Equivalence with core::HwCocoSketch is tested in
// tests/p4_test.cpp.
class P4CocoSketch {
 public:
  static constexpr size_t kKeyWords = 4;  // 13-byte 5-tuple padded to 16B

  P4CocoSketch(size_t memory_bytes, size_t d = 2, bool approx_division = true,
               uint64_t seed = 0x94);

  void Update(const FiveTuple& key, uint32_t weight);

  // Median-over-recorded-arrays estimate, as in HwCocoSketch.
  uint64_t Query(const FiveTuple& key) const;

  query::FlowTable<FiveTuple> Decode() const;

  void Clear();

  size_t d() const { return d_; }
  size_t l() const { return l_; }
  const Program& program() const { return interpreter_.program(); }

  // The logical hardware footprint (matches HwCocoSketch accounting).
  size_t MemoryBytes() const {
    return d_ * l_ * core::HwCocoSketch<FiveTuple>::BucketBytes();
  }

 private:
  // Per-array estimates of the key whose zero-padded words are `words`.
  void ArrayEstimates(const uint32_t* words, uint64_t* est) const;

  size_t d_;
  size_t l_;
  Interpreter interpreter_;
  std::vector<uint32_t> phv_;
};

}  // namespace coco::p4
