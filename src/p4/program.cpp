#include "p4/program.h"

#include <limits>
#include <set>

#include "common/check.h"
#include "hw/approx_divider.h"

namespace coco::p4 {
namespace {

bool TouchesArray(Op op) {
  return op == Op::kRegAdd || op == Op::kRegRead || op == Op::kKeyCompare ||
         op == Op::kKeyWriteCond;
}

}  // namespace

namespace {

const char* OpName(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kHash: return "hash";
    case Op::kRegAdd: return "reg_add";
    case Op::kRegRead: return "reg_read";
    case Op::kRand: return "rand";
    case Op::kRecipApprox: return "recip~";
    case Op::kRecipExact: return "recip";
    case Op::kSatMul: return "sat_mul";
    case Op::kLess: return "less";
    case Op::kKeyCompare: return "key_cmp";
    case Op::kKeyWriteCond: return "key_wr?";
  }
  return "?";
}

}  // namespace

std::string Dump(const Program& program) {
  std::string out = "program " + program.name + "\n";
  for (const RegisterArrayDecl& a : program.arrays) {
    out += "  register " + a.name + "[" + std::to_string(a.length) + "]";
    if (a.key_words > 0) {
      out += " key<" + std::to_string(a.key_words) + " words>";
    }
    out += "\n";
  }
  for (const Stage& s : program.stages) {
    out += "  stage " + s.name + ":\n";
    for (const Instruction& ins : s.instructions) {
      out += "    ";
      out += OpName(ins.op);
      out += " dst=phv" + std::to_string(ins.dst);
      if (TouchesArray(ins.op)) {
        out += " array=" + program.arrays[ins.array].name + "[phv" +
               std::to_string(ins.index) + "]";
      }
      out += " src=phv" + std::to_string(ins.src);
      if (ins.op == Op::kSatMul || ins.op == Op::kLess ||
          ins.op == Op::kKeyWriteCond) {
        out += ",phv" + std::to_string(ins.src2);
      }
      if (ins.op == Op::kConst || ins.op == Op::kHash) {
        out += " imm=" + std::to_string(ins.imm);
      }
      out += "\n";
    }
  }
  return out;
}

std::string Validate(const Program& program, const StageBudget& budget) {
  // Track the last stage in which each array is referenced; RMT dataflow
  // allows an array to live in exactly one stage, so two stages touching the
  // same array is illegal.
  std::vector<int> array_stage(program.arrays.size(), -1);

  for (size_t s = 0; s < program.stages.size(); ++s) {
    const Stage& stage = program.stages[s];
    size_t alus = 0, hashes = 0, maths = 0, rngs = 0;
    std::set<uint16_t> arrays_here;

    for (const Instruction& ins : stage.instructions) {
      if (ins.dst >= program.phv_containers ||
          ins.src >= program.phv_containers ||
          ins.src2 >= program.phv_containers ||
          ins.index >= program.phv_containers) {
        return stage.name + ": PHV container out of range";
      }
      if (TouchesArray(ins.op)) {
        if (ins.array >= program.arrays.size()) {
          return stage.name + ": register array out of range";
        }
        const auto& decl = program.arrays[ins.array];
        if ((ins.op == Op::kKeyCompare || ins.op == Op::kKeyWriteCond) !=
            (decl.key_words > 0)) {
          return stage.name + ": key op on value array (or vice versa)";
        }
        if (array_stage[ins.array] >= 0 &&
            array_stage[ins.array] != static_cast<int>(s)) {
          return stage.name + ": array '" + decl.name +
                 "' referenced from two stages";
        }
        array_stage[ins.array] = static_cast<int>(s);
        arrays_here.insert(ins.array);
      }
      switch (ins.op) {
        case Op::kRegAdd:
          ++alus;
          break;
        case Op::kKeyWriteCond:
          alus += program.arrays[ins.array].key_words;  // parallel word ALUs
          break;
        case Op::kHash:
          ++hashes;
          break;
        case Op::kRecipApprox:
        case Op::kRecipExact:
          ++maths;
          break;
        case Op::kRand:
          ++rngs;
          break;
        default:
          break;
      }
    }
    if (alus > budget.stateful_alus) {
      return stage.name + ": stateful ALU budget exceeded";
    }
    if (hashes > budget.hash_units) {
      return stage.name + ": hash unit budget exceeded";
    }
    if (maths > budget.math_units) {
      return stage.name + ": math unit budget exceeded";
    }
    if (rngs > budget.rng_units) {
      return stage.name + ": RNG budget exceeded";
    }
  }
  return "";
}

Interpreter::Interpreter(const Program& program, uint64_t seed)
    : program_(program), rng_(seed) {
  state_.reserve(program_.arrays.size());
  for (const RegisterArrayDecl& decl : program_.arrays) {
    ArrayState st;
    st.decl = decl;
    st.cells.assign(decl.length * std::max<uint16_t>(1, decl.key_words), 0);
    state_.push_back(std::move(st));
  }
}

void Interpreter::ResetState() {
  for (ArrayState& st : state_) {
    std::fill(st.cells.begin(), st.cells.end(), 0);
  }
}

void Interpreter::Execute(std::vector<uint32_t>& phv) {
  COCO_CHECK(phv.size() == program_.phv_containers, "PHV size mismatch");
  for (const Stage& stage : program_.stages) {
    for (const Instruction& ins : stage.instructions) {
      switch (ins.op) {
        case Op::kConst:
          phv[ins.dst] = ins.imm;
          break;
        case Op::kHash: {
          // Hash the run of containers [src, src+count) as bytes.
          phv[ins.dst] = hash::BobHash32(
              &phv[ins.src], ins.count * sizeof(uint32_t),
              static_cast<uint32_t>(ins.imm * 0x9e3779b9u + 0x5eed));
          break;
        }
        case Op::kRegAdd: {
          ArrayState& st = state_[ins.array];
          uint32_t& cell = st.cells[phv[ins.index] % st.decl.length];
          cell += phv[ins.src];
          phv[ins.dst] = cell;
          break;
        }
        case Op::kRegRead: {
          ArrayState& st = state_[ins.array];
          phv[ins.dst] = st.cells[phv[ins.index] % st.decl.length];
          break;
        }
        case Op::kRand:
          phv[ins.dst] = rng_.Next32();
          break;
        case Op::kRecipApprox:
          phv[ins.dst] = hw::ApproxDivider::Reciprocal(phv[ins.src]);
          break;
        case Op::kRecipExact:
          phv[ins.dst] = hw::ApproxDivider::ExactReciprocal(phv[ins.src]);
          break;
        case Op::kSatMul: {
          const uint64_t product = static_cast<uint64_t>(phv[ins.src]) *
                                   static_cast<uint64_t>(phv[ins.src2]);
          phv[ins.dst] = product > std::numeric_limits<uint32_t>::max()
                             ? std::numeric_limits<uint32_t>::max()
                             : static_cast<uint32_t>(product);
          break;
        }
        case Op::kLess:
          phv[ins.dst] = phv[ins.src] < phv[ins.src2] ? 1 : 0;
          break;
        case Op::kKeyCompare: {
          ArrayState& st = state_[ins.array];
          const size_t bucket = phv[ins.index] % st.decl.length;
          uint32_t equal = 1;
          for (uint16_t w = 0; w < st.decl.key_words; ++w) {
            if (st.cells[bucket * st.decl.key_words + w] !=
                phv[ins.src + w]) {
              equal = 0;
              break;
            }
          }
          phv[ins.dst] = equal;
          break;
        }
        case Op::kKeyWriteCond: {
          if (phv[ins.src2] == 0) break;
          ArrayState& st = state_[ins.array];
          const size_t bucket = phv[ins.index] % st.decl.length;
          for (uint16_t w = 0; w < st.decl.key_words; ++w) {
            st.cells[bucket * st.decl.key_words + w] = phv[ins.src + w];
          }
          break;
        }
      }
    }
  }
}

const std::vector<uint32_t>& Interpreter::ValueArray(uint16_t array) const {
  COCO_CHECK(array < state_.size(), "array out of range");
  COCO_CHECK(state_[array].decl.key_words == 0, "not a value array");
  return state_[array].cells;
}

const uint32_t* Interpreter::KeyWords(uint16_t array, size_t bucket) const {
  COCO_CHECK(array < state_.size(), "array out of range");
  const ArrayState& st = state_[array];
  COCO_CHECK(st.decl.key_words > 0, "not a key array");
  COCO_CHECK(bucket < st.decl.length, "key bucket out of range");
  return st.cells.data() + bucket * st.decl.key_words;
}

}  // namespace coco::p4
