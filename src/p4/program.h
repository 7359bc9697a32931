// A miniature P4 / RMT match-action pipeline: IR, interpreter, and stage
// validator (§6.2).
//
// The paper deploys the hardware-friendly CocoSketch as a Tofino P4 program.
// This module models that target closely enough to EXECUTE the same update
// logic under hardware rules:
//   * a packet is a PHV (packet header vector) of 32-bit container words;
//   * a program is a sequence of stages; data flows strictly forward;
//   * per stage, instructions run on the PHV; stateful register arrays are
//     touched through single read-add-write "stateful ALU" instructions;
//   * no variable-by-variable multiply/divide: probabilities are realized
//     with the RAND / RECIP (math unit) / threshold-compare idiom;
//   * wide flow keys live as K parallel 32-bit register arrays written by
//     one conditional key-write instruction (K parallel ALUs).
//
// StageValidator enforces the per-stage resource discipline (ALU/hash
// budgets, forward-only dependencies), mirroring hw::RmtPipelineModel's
// placement constraints at the instruction level. coco_program.cpp builds
// the CocoSketch data plane in this IR; tests verify it is observationally
// equivalent to core::HwCocoSketch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hash/bobhash.h"

namespace coco::p4 {

// PHV container index (32-bit word).
using PhvReg = uint16_t;

enum class Op : uint8_t {
  kConst,        // phv[dst] = imm
  kHash,         // phv[dst] = BobHash(seed=imm, phv[src..src+count-1]) % mod
  kRegAdd,       // reg[array][phv[index]] += phv[src]; phv[dst] = new value
  kRegRead,      // phv[dst] = reg[array][phv[index]]
  kRand,         // phv[dst] = 32-bit PRNG draw
  kRecipApprox,  // phv[dst] = approx(2^32 / phv[src])   (math unit)
  kRecipExact,   // phv[dst] = floor(2^32 / phv[src])    (FPGA full divider)
  kSatMul,       // phv[dst] = sat32(phv[src] * phv[src2])
  kLess,         // phv[dst] = phv[src] < phv[src2]
  kKeyCompare,   // phv[dst] = (key words @ phv[index] == phv[src..])
  kKeyWriteCond, // if phv[src2]: key words @ phv[index] = phv[src..]
};

struct Instruction {
  Op op;
  PhvReg dst = 0;
  PhvReg src = 0;    // first source container (kHash/kKey*: base of a run)
  PhvReg src2 = 0;   // second source / condition
  PhvReg index = 0;  // container holding the register-array index
  uint32_t imm = 0;  // constant / hash seed index
  uint16_t array = 0;   // register-array id (kReg* / kKey*)
  uint16_t count = 0;   // number of source containers (kHash / kKey*)
};

struct Stage {
  std::string name;
  std::vector<Instruction> instructions;
};

// A value register array (32-bit cells) or a key array (key_words parallel
// 32-bit cells per bucket).
struct RegisterArrayDecl {
  std::string name;
  size_t length = 0;
  uint16_t key_words = 0;  // 0 = plain value array
};

struct Program {
  std::string name;
  uint16_t phv_containers = 0;
  std::vector<RegisterArrayDecl> arrays;
  std::vector<Stage> stages;
};

// Per-stage hardware budget for validation, in instruction counts.
struct StageBudget {
  size_t stateful_alus = 4;   // kRegAdd + key-word writes count against this
  size_t hash_units = 6;
  size_t math_units = 1;      // kRecip*
  size_t rng_units = 1;
};

// Human-readable listing of a program (stages, instructions, register
// arrays) — the P4-source-level view, used by examples and debugging.
std::string Dump(const Program& program);

// Checks structural legality of a program:
//   * every stage within the budget;
//   * strict forward dataflow: a stage never reads a register array written
//     in a LATER stage, and never touches the same array twice;
//   * PHV/array references in range.
// Returns an empty string when valid, else a diagnostic.
std::string Validate(const Program& program, const StageBudget& budget);

// Interprets a program over PHVs. Register state lives here.
class Interpreter {
 public:
  explicit Interpreter(const Program& program, uint64_t seed = 0x94);

  // Runs all stages on a PHV (the parsed packet + scratch containers).
  // The PHV must have program.phv_containers entries.
  void Execute(std::vector<uint32_t>& phv);

  // Direct state access for decoding and tests.
  const std::vector<uint32_t>& ValueArray(uint16_t array) const;
  // The key words of bucket i of a key array.
  const uint32_t* KeyWords(uint16_t array, size_t bucket) const;

  const Program& program() const { return program_; }

  void ResetState();

 private:
  struct ArrayState {
    RegisterArrayDecl decl;
    std::vector<uint32_t> cells;  // length * max(1, key_words)
  };

  const Program program_;
  std::vector<ArrayState> state_;
  Rng rng_;
};

}  // namespace coco::p4
