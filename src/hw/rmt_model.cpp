#include "hw/rmt_model.h"

#include "common/check.h"

namespace coco::hw {

Resources& Resources::operator+=(const Resources& o) {
  hash_dist_units += o.hash_dist_units;
  stateful_alus += o.stateful_alus;
  gateways += o.gateways;
  map_ram_blocks += o.map_ram_blocks;
  sram_blocks += o.sram_blocks;
  return *this;
}

bool Resources::FitsWithin(const Resources& capacity) const {
  return hash_dist_units <= capacity.hash_dist_units &&
         stateful_alus <= capacity.stateful_alus &&
         gateways <= capacity.gateways &&
         map_ram_blocks <= capacity.map_ram_blocks &&
         sram_blocks <= capacity.sram_blocks;
}

SwitchSpec SwitchSpec::Tofino() {
  SwitchSpec spec;
  spec.num_stages = 12;
  spec.per_stage = {/*hash_dist_units=*/6, /*stateful_alus=*/4,
                    /*gateways=*/16, /*map_ram_blocks=*/48,
                    /*sram_blocks=*/80};
  return spec;
}

Resources SwitchSpec::TotalCapacity() const {
  Resources total;
  for (size_t i = 0; i < num_stages; ++i) total += per_stage;
  return total;
}

Resources SketchResourceSpec::Total() const {
  Resources total;
  for (const Atom& a : atoms) total += a.needs;
  return total;
}

// ---------------------------------------------------------------------------
// Calibrated sketch specs.
//
// The per-sketch demands are fixed so that whole-switch fractions reproduce
// the paper's numbers on the Tofino() capacities (72 hash distribution
// units, 48 stateful ALUs, 192 gateways, 576 Map RAM, 960 SRAM blocks):
//
//   Count-Min (Table 2): hash 15/72 = 20.83%, sALU 8/48 = 16.67%,
//     gateway 15/192 = 7.81%, MapRAM 41/576 = 7.11%, SRAM 41/960 = 4.27%.
//     Hash units are the bottleneck: floor(72/15) = 4 instances max.
//   R-HHH level (Table 2): hash 16 = 22.22%, gateway 16 = 8.33%, rest as CM.
//   Elastic (§7.4): sALU 9/48 = 18.75%, MapRAM 44/576 = 7.64%; the heavy
//     part's 4-ALU atom makes per-stage ALUs the binding constraint at 4
//     instances ("at most 4 Elastic sketches").
//   CocoSketch d=2 (§7.4): sALU 3/48 = 6.25%, MapRAM 36/576 = 6.25%.
// ---------------------------------------------------------------------------

SketchResourceSpec SketchResourceSpec::CountMin() {
  SketchResourceSpec spec;
  spec.name = "count-min";
  spec.atoms.push_back({"key-extract-a", {4, 0, 4, 1, 1}, false});
  spec.atoms.push_back({"key-extract-b", {3, 0, 3, 0, 0}, false});
  for (int r = 0; r < 8; ++r) {
    spec.atoms.push_back(
        {"row-" + std::to_string(r), {1, 1, 1, 5, 5}, false});
  }
  return spec;
}

SketchResourceSpec SketchResourceSpec::RHhhLevel() {
  SketchResourceSpec spec = CountMin();
  spec.name = "rhhh-level";
  // Level sampling adds one hash and one gateway to the key-extract logic.
  spec.atoms[1].needs.hash_dist_units += 1;
  spec.atoms[1].needs.gateways += 1;
  return spec;
}

SketchResourceSpec SketchResourceSpec::Elastic() {
  SketchResourceSpec spec;
  spec.name = "elastic";
  spec.atoms.push_back({"heavy-part", {4, 4, 3, 16, 20}, false});
  spec.atoms.push_back({"eviction", {4, 2, 4, 8, 20}, true});
  spec.atoms.push_back({"light-part", {4, 3, 3, 20, 20}, true});
  return spec;
}

SketchResourceSpec SketchResourceSpec::CocoSketch(size_t d) {
  COCO_CHECK(d >= 1 && d <= 4, "unsupported d for the P4 model");
  SketchResourceSpec spec;
  spec.name = "cocosketch-d" + std::to_string(d);
  for (size_t i = 0; i < d; ++i) {
    // Value register array: unconditional increment — one stateful ALU,
    // addressed by one 2-unit hash.
    spec.atoms.push_back(
        {"value-array-" + std::to_string(i), {2, 1, 1, 9, 10}, false});
  }
  // Key register array(s): written after the value stage produced the
  // replacement probability — a strictly later stage (the dependency the
  // hardware-friendly redesign makes unidirectional).
  spec.atoms.push_back({"key-arrays",
                        {0, static_cast<uint32_t>(d - 1 == 0 ? 1 : d - 1), 2,
                         18, 20},
                        true});
  return spec;
}

RmtPipelineModel::RmtPipelineModel(SwitchSpec spec)
    : spec_(std::move(spec)), used_(spec_.num_stages) {}

bool RmtPipelineModel::Place(const SketchResourceSpec& sketch) {
  // Tentative placement on a copy; commit only on success.
  std::vector<Resources> tentative = used_;
  size_t min_stage = 0;  // one past the latest stage used so far
  for (const Atom& atom : sketch.atoms) {
    bool placed = false;
    // A dependent atom starts at `min_stage`, strictly after every stage
    // used so far, so it follows the atom whose result it consumes.
    for (size_t s = atom.depends_on_previous ? min_stage : 0;
         s < spec_.num_stages; ++s) {
      Resources would = tentative[s];
      would += atom.needs;
      if (would.FitsWithin(spec_.per_stage)) {
        tentative[s] = would;
        if (s + 1 > min_stage) min_stage = s + 1;
        placed = true;
        break;
      }
    }
    if (!placed) return false;
  }
  used_ = std::move(tentative);
  return true;
}

size_t RmtPipelineModel::MaxInstances(const SwitchSpec& spec,
                                      const SketchResourceSpec& sketch) {
  RmtPipelineModel model(spec);
  size_t count = 0;
  while (model.Place(sketch)) ++count;
  return count;
}

UsageFractions RmtPipelineModel::Usage() const {
  Resources used;
  for (const Resources& r : used_) used += r;
  const Resources cap = spec_.TotalCapacity();
  UsageFractions u;
  u.hash_dist = static_cast<double>(used.hash_dist_units) /
                static_cast<double>(cap.hash_dist_units);
  u.stateful_alus = static_cast<double>(used.stateful_alus) /
                    static_cast<double>(cap.stateful_alus);
  u.gateways =
      static_cast<double>(used.gateways) / static_cast<double>(cap.gateways);
  u.map_ram = static_cast<double>(used.map_ram_blocks) /
              static_cast<double>(cap.map_ram_blocks);
  u.sram = static_cast<double>(used.sram_blocks) /
           static_cast<double>(cap.sram_blocks);
  return u;
}

}  // namespace coco::hw
