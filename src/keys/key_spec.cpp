#include "keys/key_spec.h"

#include <cstring>
#include <numeric>

#include "common/check.h"

namespace coco::keys {

uint16_t FieldBits(Field f) {
  switch (f) {
    case Field::kSrcIp:
    case Field::kDstIp:
      return 32;
    case Field::kSrcPort:
    case Field::kDstPort:
      return 16;
    case Field::kProto:
      return 8;
  }
  return 0;
}

namespace {

// Byte offset of a field inside the FiveTuple buffer.
size_t FieldOffset(Field f) {
  switch (f) {
    case Field::kSrcIp:
      return 0;
    case Field::kDstIp:
      return 4;
    case Field::kSrcPort:
      return 8;
    case Field::kDstPort:
      return 10;
    case Field::kProto:
      return 12;
  }
  return 0;
}

}  // namespace

FieldSel::FieldSel(Field f) : field(f), prefix_bits(0) {
  prefix_bits = static_cast<uint8_t>(FieldBits(f));
}

TupleKeySpec::TupleKeySpec(std::string name, std::vector<FieldSel> fields)
    : name_(std::move(name)), fields_(std::move(fields)), total_bits_(0) {
  // Tuple bits [from, from + bits) go to key bits [to, to + bits), both
  // counted from the top.
  struct Span {
    unsigned from, to, bits;
  };
  std::vector<Span> spans;
  for (const FieldSel& sel : fields_) {
    COCO_CHECK(sel.prefix_bits <= FieldBits(sel.field),
               "prefix longer than field");
    COCO_CHECK(total_bits_ + sel.prefix_bits <= DynKey::kCapacity * 8,
               "partial key exceeds key capacity");
    if (sel.prefix_bits == 0) continue;
    const unsigned from = 8 * FieldOffset(sel.field);
    // A prefix ends inside its field, so only a whole field can reach the
    // next field's first bit.
    if (!spans.empty() && spans.back().from + spans.back().bits == from) {
      spans.back().bits += sel.prefix_bits;
    } else {
      spans.push_back({from, total_bits_, sel.prefix_bits});
    }
    total_bits_ = static_cast<uint16_t>(total_bits_ + sel.prefix_bits);
  }
  // The top n bits of a 128-bit value.
  const auto top = [](unsigned n) {
    return n == 0 ? static_cast<unsigned __int128>(0)
                  : ~static_cast<unsigned __int128>(0) << (128 - n);
  };
  for (const Span& s : spans) {
    const unsigned __int128 mask = top(s.to + s.bits) & ~top(s.to);
    if (s.from >= s.to) {
      up_runs_.push_back({mask, static_cast<uint8_t>(s.from - s.to)});
    } else {
      down_runs_.push_back({mask, static_cast<uint8_t>(s.to - s.from)});
    }
  }
}

std::vector<TupleKeySpec> TupleKeySpec::DefaultSix() {
  return {FullTuple(), SrcDstIp(),     SrcIpSrcPort(),
          DstIpDstPort(), SrcIp(), DstIp()};
}

TupleKeySpec TupleKeySpec::FullTuple() {
  return TupleKeySpec("5-tuple",
                      {FieldSel(Field::kSrcIp), FieldSel(Field::kDstIp),
                       FieldSel(Field::kSrcPort), FieldSel(Field::kDstPort),
                       FieldSel(Field::kProto)});
}

TupleKeySpec TupleKeySpec::SrcDstIp() {
  return TupleKeySpec("(SrcIP,DstIP)",
                      {FieldSel(Field::kSrcIp), FieldSel(Field::kDstIp)});
}

TupleKeySpec TupleKeySpec::SrcIpSrcPort() {
  return TupleKeySpec("(SrcIP,SrcPort)",
                      {FieldSel(Field::kSrcIp), FieldSel(Field::kSrcPort)});
}

TupleKeySpec TupleKeySpec::DstIpDstPort() {
  return TupleKeySpec("(DstIP,DstPort)",
                      {FieldSel(Field::kDstIp), FieldSel(Field::kDstPort)});
}

TupleKeySpec TupleKeySpec::SrcIp() {
  return TupleKeySpec("SrcIP", {FieldSel(Field::kSrcIp)});
}

TupleKeySpec TupleKeySpec::DstIp() {
  return TupleKeySpec("DstIP", {FieldSel(Field::kDstIp)});
}

TupleKeySpec TupleKeySpec::SrcIpPrefix(uint8_t bits) {
  return TupleKeySpec("SrcIP/" + std::to_string(bits),
                      {FieldSel(Field::kSrcIp, bits)});
}

DynKey PrefixSpec::Apply(const IPv4Key& full) const {
  DynKey out;
  BitWriter writer(out);
  writer.Append(full.data(), bits_);
  return out;
}

std::vector<PrefixSpec> PrefixSpec::Hierarchy() {
  std::vector<PrefixSpec> levels;
  levels.reserve(33);
  for (int bits = 32; bits >= 0; --bits) {
    levels.emplace_back(static_cast<uint8_t>(bits));
  }
  return levels;
}

DynKey PrefixPairSpec::Apply(const IpPairKey& full) const {
  DynKey out;
  BitWriter writer(out);
  writer.Append(full.data(), src_bits_);
  writer.Append(full.data() + 4, dst_bits_);
  // Disambiguate (src_bits, dst_bits) pairs that share a total bit count:
  // append the split point as an extra byte.
  const uint8_t split = src_bits_;
  writer.Append(&split, 8);
  return out;
}

std::vector<PrefixPairSpec> PrefixPairSpec::Hierarchy() {
  std::vector<PrefixPairSpec> levels;
  levels.reserve(33 * 33);
  for (int s = 32; s >= 0; --s) {
    for (int d = 32; d >= 0; --d) {
      levels.emplace_back(static_cast<uint8_t>(s), static_cast<uint8_t>(d));
    }
  }
  return levels;
}

}  // namespace coco::keys
