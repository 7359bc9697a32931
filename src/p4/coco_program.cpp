#include "p4/coco_program.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace coco::p4 {
namespace {

// PHV layout: [0..3] key words, [4] weight, then 6 scratch containers per
// array: idx, val, recip, rand, thr, cond.
constexpr PhvReg kKeyBase = 0;
constexpr PhvReg kWeight = 4;
constexpr PhvReg kScratchBase = 5;
constexpr uint16_t kScratchStride = 6;

struct ArrayRegs {
  PhvReg idx, val, recip, rand, thr, cond;
};

ArrayRegs RegsFor(size_t array) {
  const PhvReg base =
      static_cast<PhvReg>(kScratchBase + array * kScratchStride);
  return {base,
          static_cast<PhvReg>(base + 1),
          static_cast<PhvReg>(base + 2),
          static_cast<PhvReg>(base + 3),
          static_cast<PhvReg>(base + 4),
          static_cast<PhvReg>(base + 5)};
}

}  // namespace

Program BuildCocoProgram(size_t d, size_t buckets, bool approx_division) {
  COCO_CHECK(d >= 1 && d <= 4, "d out of range for the pipeline budget");
  COCO_CHECK(buckets >= 1, "empty arrays");

  Program prog;
  prog.name = "cocosketch-hw";
  prog.phv_containers =
      static_cast<uint16_t>(kScratchBase + d * kScratchStride);

  // Value arrays first (ids 0..d-1), then key arrays (ids d..2d-1).
  for (size_t i = 0; i < d; ++i) {
    prog.arrays.push_back({"value" + std::to_string(i), buckets, 0});
  }
  for (size_t i = 0; i < d; ++i) {
    prog.arrays.push_back({"key" + std::to_string(i), buckets,
                           P4CocoSketch::kKeyWords});
  }

  // Stage 0: all index hashes.
  Stage hash_stage{"hash", {}};
  for (size_t i = 0; i < d; ++i) {
    Instruction ins{};
    ins.op = Op::kHash;
    ins.dst = RegsFor(i).idx;
    ins.src = kKeyBase;
    ins.count = P4CocoSketch::kKeyWords;
    ins.imm = static_cast<uint32_t>(i);
    hash_stage.instructions.push_back(ins);
  }
  prog.stages.push_back(std::move(hash_stage));

  // Stage 1: unconditional value increments (the dependency removal: the
  // value update does not look at the key).
  Stage value_stage{"value", {}};
  for (size_t i = 0; i < d; ++i) {
    Instruction ins{};
    ins.op = Op::kRegAdd;
    ins.array = static_cast<uint16_t>(i);
    ins.index = RegsFor(i).idx;
    ins.src = kWeight;
    ins.dst = RegsFor(i).val;
    value_stage.instructions.push_back(ins);
  }
  prog.stages.push_back(std::move(value_stage));

  // One probability stage per array (one math unit and one RNG per stage).
  for (size_t i = 0; i < d; ++i) {
    const ArrayRegs r = RegsFor(i);
    Stage prob{"prob" + std::to_string(i), {}};
    Instruction recip{};
    recip.op = approx_division ? Op::kRecipApprox : Op::kRecipExact;
    recip.dst = r.recip;
    recip.src = r.val;
    prob.instructions.push_back(recip);
    Instruction rnd{};
    rnd.op = Op::kRand;
    rnd.dst = r.rand;
    prob.instructions.push_back(rnd);
    Instruction thr{};
    thr.op = Op::kSatMul;
    thr.dst = r.thr;
    thr.src = r.recip;
    thr.src2 = kWeight;
    prob.instructions.push_back(thr);
    Instruction cond{};
    cond.op = Op::kLess;
    cond.dst = r.cond;
    cond.src = r.rand;
    cond.src2 = r.thr;
    prob.instructions.push_back(cond);
    prog.stages.push_back(std::move(prob));
  }

  // One key-write stage per array (4 word-ALUs each, a full stage).
  for (size_t i = 0; i < d; ++i) {
    const ArrayRegs r = RegsFor(i);
    Stage key{"key" + std::to_string(i), {}};
    Instruction wr{};
    wr.op = Op::kKeyWriteCond;
    wr.array = static_cast<uint16_t>(d + i);
    wr.index = r.idx;
    wr.src = kKeyBase;
    wr.count = P4CocoSketch::kKeyWords;
    wr.src2 = r.cond;
    key.instructions.push_back(wr);
    prog.stages.push_back(std::move(key));
  }

  return prog;
}

P4CocoSketch::P4CocoSketch(size_t memory_bytes, size_t d,
                           bool approx_division, uint64_t seed)
    : d_(d),
      l_(memory_bytes / (d * core::HwCocoSketch<FiveTuple>::BucketBytes())),
      interpreter_(BuildCocoProgram(d, std::max<size_t>(1, l_),
                                    approx_division),
                   seed) {
  COCO_CHECK(l_ >= 1, "memory too small for one bucket per array");
  const std::string diag = Validate(interpreter_.program(), StageBudget{});
  COCO_CHECK(diag.empty(), diag.c_str());
  phv_.assign(interpreter_.program().phv_containers, 0);
}

void P4CocoSketch::Update(const FiveTuple& key, uint32_t weight) {
  std::fill(phv_.begin(), phv_.end(), 0);
  std::memcpy(&phv_[kKeyBase], key.data(), FiveTuple::kSize);
  phv_[kWeight] = weight;
  interpreter_.Execute(phv_);
}

void P4CocoSketch::ArrayEstimates(const uint32_t* words, uint64_t* est) const {
  for (size_t i = 0; i < d_; ++i) {
    // Must mirror the interpreter's kHash semantics exactly.
    const size_t bucket =
        hash::BobHash32(words, kKeyWords * sizeof(uint32_t),
                        static_cast<uint32_t>(i * 0x9e3779b9u + 0x5eed)) %
        l_;
    const uint32_t value =
        interpreter_.ValueArray(static_cast<uint16_t>(i))[bucket];
    const uint32_t* stored =
        interpreter_.KeyWords(static_cast<uint16_t>(d_ + i), bucket);
    est[i] = value != 0 && std::equal(words, words + kKeyWords, stored)
                 ? value
                 : 0;
  }
}

uint64_t P4CocoSketch::Query(const FiveTuple& key) const {
  uint32_t words[kKeyWords] = {};
  std::memcpy(words, key.data(), FiveTuple::kSize);
  uint64_t est[4];
  ArrayEstimates(words, est);
  return core::MedianOfRecorded(est, d_);
}

// As HwCocoSketch::Decode: each key is scored in the first array that
// records it and inserted only with a non-zero estimate. The key bytes are
// read in place from the key array's zero-padded words.
query::FlowTable<FiveTuple> P4CocoSketch::Decode() const {
  query::FlowTable<FiveTuple> out;
  out.reserve(d_ * l_);
  for (size_t array = 0; array < d_; ++array) {
    const auto& values = interpreter_.ValueArray(static_cast<uint16_t>(array));
    for (size_t b = 0; b < l_; ++b) {
      if (values[b] == 0) continue;
      const uint32_t* words =
          interpreter_.KeyWords(static_cast<uint16_t>(d_ + array), b);
      uint64_t est[4];
      ArrayEstimates(words, est);
      size_t first = 0;
      while (first < d_ && est[first] == 0) ++first;
      if (first == array) {
        out.AddKeyBytes(reinterpret_cast<const uint8_t*>(words),
                        core::MedianOfRecorded(est, d_));
      }
    }
  }
  return out;
}

void P4CocoSketch::Clear() { interpreter_.ResetState(); }

}  // namespace coco::p4
