// Tests for the RMT pipeline model: capacities, placement semantics,
// dependency handling, and the calibrated Table 2 / §7.4 figures.
#include <gtest/gtest.h>

#include "hw/rmt_model.h"

namespace coco::hw {
namespace {

TEST(RmtModel, TofinoTotals) {
  const auto total = SwitchSpec::Tofino().TotalCapacity();
  EXPECT_EQ(total.stateful_alus, 48u);  // "a Tofino switch (e.g., 48 ALUs)"
  EXPECT_EQ(total.hash_dist_units, 72u);
  EXPECT_EQ(total.gateways, 192u);
  EXPECT_EQ(total.map_ram_blocks, 576u);
  EXPECT_EQ(total.sram_blocks, 960u);
}

TEST(RmtModel, Table2CountMinFractions) {
  RmtPipelineModel model(SwitchSpec::Tofino());
  ASSERT_TRUE(model.Place(SketchResourceSpec::CountMin()));
  const auto u = model.Usage();
  EXPECT_NEAR(u.hash_dist, 0.2083, 0.002);
  EXPECT_NEAR(u.stateful_alus, 0.1667, 0.002);
  EXPECT_NEAR(u.gateways, 0.0781, 0.002);
  EXPECT_NEAR(u.map_ram, 0.0711, 0.002);
  EXPECT_NEAR(u.sram, 0.0427, 0.002);
}

TEST(RmtModel, Table2RhhhFractions) {
  RmtPipelineModel model(SwitchSpec::Tofino());
  ASSERT_TRUE(model.Place(SketchResourceSpec::RHhhLevel()));
  const auto u = model.Usage();
  EXPECT_NEAR(u.hash_dist, 0.2222, 0.002);
  EXPECT_NEAR(u.stateful_alus, 0.1667, 0.002);
  EXPECT_NEAR(u.gateways, 0.0833, 0.002);
}

TEST(RmtModel, AtMostFourCountMinSketches) {
  // Table 2 caption: "A Tofino switch cannot support more than four
  // single-key sketches" — hash distribution units are the bottleneck.
  EXPECT_EQ(RmtPipelineModel::MaxInstances(SwitchSpec::Tofino(),
                                           SketchResourceSpec::CountMin()),
            4u);
}

TEST(RmtModel, AtMostFourElasticSketches) {
  // §7.4: "a Tofino switch data plane can implement at most 4 Elastic
  // sketches".
  EXPECT_EQ(RmtPipelineModel::MaxInstances(SwitchSpec::Tofino(),
                                           SketchResourceSpec::Elastic()),
            4u);
}

TEST(RmtModel, CocoSketchFractionsMatchSection74) {
  RmtPipelineModel model(SwitchSpec::Tofino());
  ASSERT_TRUE(model.Place(SketchResourceSpec::CocoSketch(2)));
  const auto u = model.Usage();
  EXPECT_NEAR(u.stateful_alus, 0.0625, 0.002);  // "6.25% Stateful ALUs"
  EXPECT_NEAR(u.map_ram, 0.0625, 0.002);        // "6.25% Map RAM"
}

TEST(RmtModel, OneCocoSketchServesAllKeysWithRoomToSpare) {
  // The whole point: one CocoSketch handles 6 partial keys; its footprint
  // must coexist with plenty of leftover pipeline.
  RmtPipelineModel model(SwitchSpec::Tofino());
  ASSERT_TRUE(model.Place(SketchResourceSpec::CocoSketch(2)));
  // Still room for at least 3 more full Count-Min sketches.
  EXPECT_TRUE(model.Place(SketchResourceSpec::CountMin()));
  EXPECT_TRUE(model.Place(SketchResourceSpec::CountMin()));
  EXPECT_TRUE(model.Place(SketchResourceSpec::CountMin()));
}

TEST(RmtModel, DependentAtomsLandInLaterStages) {
  // A two-atom sketch where the second atom needs a full stage of ALUs and
  // depends on the first: placement must use two distinct stages.
  SwitchSpec tiny;
  tiny.num_stages = 2;
  tiny.per_stage = {4, 4, 4, 16, 16};
  SketchResourceSpec spec;
  spec.name = "chain";
  spec.atoms.push_back({"a", {1, 4, 1, 1, 1}, false});
  spec.atoms.push_back({"b", {1, 4, 1, 1, 1}, true});  // needs a later stage
  RmtPipelineModel model(tiny);
  EXPECT_TRUE(model.Place(spec));
  // A second copy cannot fit: both stages' ALUs are used.
  EXPECT_FALSE(model.Place(spec));
}

TEST(RmtModel, CocoSketchKeyArraysNeedALaterStage) {
  // The hardware-friendly update is unidirectional (§3.3): the key arrays
  // are written after the value arrays produced the replacement decision,
  // so one stage is never enough, even where the whole sketch fits one
  // stage's budget.
  SwitchSpec one_stage = SwitchSpec::Tofino();
  one_stage.num_stages = 1;
  SwitchSpec two_stages = SwitchSpec::Tofino();
  two_stages.num_stages = 2;
  for (size_t d : {1, 2}) {
    const auto coco = SketchResourceSpec::CocoSketch(d);
    EXPECT_TRUE(coco.Total().FitsWithin(one_stage.per_stage)) << "d=" << d;
    RmtPipelineModel one(one_stage);
    EXPECT_FALSE(one.Place(coco)) << "d=" << d;
    RmtPipelineModel two(two_stages);
    EXPECT_TRUE(two.Place(coco)) << "d=" << d;
  }
}

TEST(RmtModel, DependencyChainLongerThanPipelineFails) {
  SwitchSpec tiny;
  tiny.num_stages = 2;
  tiny.per_stage = {4, 4, 4, 16, 16};
  SketchResourceSpec spec;
  spec.name = "too-long";
  spec.atoms.push_back({"a", {1, 1, 1, 1, 1}, false});
  spec.atoms.push_back({"b", {1, 1, 1, 1, 1}, true});
  spec.atoms.push_back({"c", {1, 1, 1, 1, 1}, true});  // needs a 3rd stage
  RmtPipelineModel model(tiny);
  EXPECT_FALSE(model.Place(spec));
}

TEST(RmtModel, FailedPlacementLeavesModelUnchanged) {
  SwitchSpec tiny;
  tiny.num_stages = 1;
  tiny.per_stage = {4, 4, 4, 16, 16};
  RmtPipelineModel model(tiny);
  SketchResourceSpec small;
  small.name = "small";
  small.atoms.push_back({"a", {2, 2, 2, 2, 2}, false});
  ASSERT_TRUE(model.Place(small));
  SketchResourceSpec big;
  big.name = "big";
  big.atoms.push_back({"x", {1, 1, 1, 1, 1}, false});
  big.atoms.push_back({"y", {4, 4, 4, 4, 4}, false});  // cannot fit
  const auto before = model.Usage();
  EXPECT_FALSE(model.Place(big));
  const auto after = model.Usage();
  EXPECT_DOUBLE_EQ(before.stateful_alus, after.stateful_alus);
  EXPECT_DOUBLE_EQ(before.hash_dist, after.hash_dist);
}

TEST(RmtModel, AtomExceedingStageCapacityNeverPlaces) {
  SwitchSpec tiny;
  tiny.num_stages = 12;
  tiny.per_stage = {4, 4, 4, 16, 16};
  SketchResourceSpec spec;
  spec.name = "oversized-atom";
  spec.atoms.push_back({"a", {5, 0, 0, 0, 0}, false});
  RmtPipelineModel model(tiny);
  EXPECT_FALSE(model.Place(spec));
}

}  // namespace
}  // namespace coco::hw
