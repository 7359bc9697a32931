// Tests for the control-plane modules: the Theorem-3/4 sketch planner,
// network-wide merging of decoded vantage points, and sketch state
// serialization.
#include <gtest/gtest.h>

#include "common/sizes.h"
#include "control/planner.h"
#include "core/cocosketch.h"
#include "query/flow_table.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace coco::control {
namespace {

constexpr size_t kTupleBucket = 17;  // 13B key + 4B value

TEST(Planner, ReproducesPaperWorkedExample) {
  // §5.3: 99% recall on flows >= 1% of traffic -> d = 2, l = 900.
  SketchPlanner planner(kTupleBucket);
  const size_t l = planner.BucketsForRecall(0.01, 0.99, 2);
  EXPECT_NEAR(static_cast<double>(l), 900.0, 15.0);
  EXPECT_GE(SketchPlanner::PredictRecall(0.01, 2, l), 0.99);
}

TEST(Planner, RecallPredictionMatchesBoundShape) {
  // Larger flows and deeper d raise the predicted recall (Theorem 4's
  // interpretation paragraph).
  EXPECT_GT(SketchPlanner::PredictRecall(0.02, 2, 500),
            SketchPlanner::PredictRecall(0.01, 2, 500));
  EXPECT_GT(SketchPlanner::PredictRecall(0.01, 3, 500),
            SketchPlanner::PredictRecall(0.01, 2, 500));
}

TEST(Planner, BucketsMonotoneInTargets) {
  SketchPlanner planner(kTupleBucket);
  EXPECT_GT(planner.BucketsForRecall(0.01, 0.999, 2),
            planner.BucketsForRecall(0.01, 0.99, 2));
  EXPECT_LT(planner.BucketsForRecall(0.05, 0.99, 2),
            planner.BucketsForRecall(0.01, 0.99, 2));
}

TEST(Planner, ErrorPlanFollowsTheorem3) {
  SketchPlanner planner(kTupleBucket);
  const SketchPlan plan = planner.PlanForError(0.1, 0.05);
  EXPECT_EQ(plan.l, 300u);  // 3 / 0.1^2
  EXPECT_EQ(plan.d, 4u);    // ceil(log2(20)) = 5 clamped... log2(20)=4.32 -> 5 -> clamp 4
  EXPECT_EQ(plan.memory_bytes, plan.d * plan.l * kTupleBucket);
}

TEST(Planner, PlanCoversBothRequirements) {
  SketchPlanner planner(kTupleBucket);
  TaskRequirement task;
  task.heavy_fraction = 0.001;  // demanding recall -> recall term dominates
  task.recall_target = 0.99;
  task.epsilon = 0.5;           // lax error term
  task.delta = 0.4;
  const SketchPlan plan = planner.Plan(task);
  EXPECT_GE(plan.l, planner.BucketsForRecall(0.001, 0.99, plan.d));
  EXPECT_GE(plan.predicted_recall, 0.99);
}

TEST(Planner, ProvisionWithinBudgetKeepsIdealPlans) {
  SketchPlanner planner(kTupleBucket);
  std::vector<TaskRequirement> tasks(2);
  tasks[0].name = "hh";
  tasks[1].name = "hc";
  const auto plans = planner.Provision(tasks, MiB(64));
  for (const auto& p : plans) {
    EXPECT_GT(p.l, 0u);
    EXPECT_GE(p.predicted_recall, 0.99);
  }
}

TEST(Planner, ProvisionSqueezesProportionally) {
  SketchPlanner planner(kTupleBucket);
  std::vector<TaskRequirement> tasks(3);
  for (auto& t : tasks) t.heavy_fraction = 0.001;
  size_t ideal_total = 0;
  for (const auto& t : tasks) ideal_total += planner.Plan(t).memory_bytes;
  const size_t budget = ideal_total / 2;
  const auto plans = planner.Provision(tasks, budget);
  size_t granted = 0;
  for (const auto& p : plans) granted += p.memory_bytes;
  EXPECT_LE(granted, budget);
  for (const auto& p : plans) {
    EXPECT_GT(p.l, 0u);
    EXPECT_LT(p.predicted_recall, 0.999);  // degraded, and reported as such
  }
}

TEST(PlannedSketch, HitsRecallTargetEmpirically) {
  // Build a CocoSketch from the planner's output and verify the recall it
  // promised, closing the theory-practice loop.
  SketchPlanner planner(sizeof(uint32_t) + 4);  // IPv4Key buckets
  TaskRequirement task;
  task.heavy_fraction = 0.01;
  task.recall_target = 0.99;
  const SketchPlan plan = planner.Plan(task);

  int recorded = 0;
  const int kTrials = 150;
  for (int t = 0; t < kTrials; ++t) {
    core::CocoSketch<IPv4Key> sketch(plan.memory_bytes, plan.d, t + 1);
    Rng rng(t * 13 + 1);
    for (int i = 0; i < 60000; ++i) {
      if (rng.Bernoulli(0.01)) {
        sketch.Update(IPv4Key(0xabcd0001), 1);
      } else {
        sketch.Update(IPv4Key(static_cast<uint32_t>(rng.Next()) | 2u), 1);
      }
    }
    recorded += sketch.Query(IPv4Key(0xabcd0001)) > 0;
  }
  EXPECT_GE(static_cast<double>(recorded) / kTrials, 0.96);
}

TEST(NetworkWide, ControllerMergesSerializedVantagePoints) {
  // Three "switches" each observe a disjoint share of the traffic (striped,
  // as ECMP would), serialize their sketch state, and ship it to a
  // controller that restores, decodes, and merges — the network-wide
  // deployment story. The merged view must conserve total mass and find the
  // global heavy hitters.
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(120000));
  const auto truth = trace::CountTrace(trace);

  constexpr size_t kSwitches = 3;
  std::vector<std::vector<uint8_t>> wire_images;
  for (size_t s = 0; s < kSwitches; ++s) {
    core::CocoSketch<FiveTuple> device(KiB(200), 2, 100 + s);
    for (size_t i = s; i < trace.size(); i += kSwitches) {
      device.Update(trace[i].key, trace[i].weight);
    }
    wire_images.push_back(device.SerializeState());
  }

  // Controller side: restore each image into a fresh instance and sum the
  // decoded tables (the switches saw disjoint packets, so summing is exact
  // aggregation, not double counting).
  query::FlowTable<FiveTuple> merged;
  for (size_t s = 0; s < kSwitches; ++s) {
    core::CocoSketch<FiveTuple> replica(KiB(200), 2, 100 + s);
    ASSERT_TRUE(replica.RestoreState(wire_images[s]));
    for (const auto& [key, size] : replica.Decode()) merged[key] += size;
  }

  uint64_t mass = 0;
  for (const auto& [key, size] : merged) mass += size;
  EXPECT_EQ(mass, truth.Total());

  const uint64_t threshold = truth.Total() / 1000;
  size_t heavy = 0, found = 0;
  for (const auto& [key, count] : truth.HeavyHitters(threshold)) {
    ++heavy;
    auto it = merged.find(key);
    found += (it != merged.end() && it->second >= threshold);
  }
  ASSERT_GT(heavy, 0u);
  EXPECT_GT(static_cast<double>(found) / heavy, 0.9);
}

TEST(Serialization, RoundTripPreservesDecode) {
  core::CocoSketch<FiveTuple> a(KiB(64), 2, 9);
  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(30000));
  for (const Packet& p : trace) a.Update(p.key, p.weight);

  const auto image = a.SerializeState();
  core::CocoSketch<FiveTuple> b(KiB(64), 2, 777);  // different seed is fine
  ASSERT_TRUE(b.RestoreState(image));
  EXPECT_EQ(a.Decode(), b.Decode());
  EXPECT_EQ(a.TotalValue(), b.TotalValue());
}

TEST(Serialization, RejectsGeometryMismatch) {
  core::CocoSketch<FiveTuple> a(KiB(64), 2, 9);
  const auto image = a.SerializeState();
  core::CocoSketch<FiveTuple> wrong_d(KiB(64), 3, 9);
  EXPECT_FALSE(wrong_d.RestoreState(image));
  core::CocoSketch<FiveTuple> wrong_l(KiB(32), 2, 9);
  EXPECT_FALSE(wrong_l.RestoreState(image));
}

TEST(Serialization, RejectsTruncatedImage) {
  core::CocoSketch<FiveTuple> a(KiB(16), 2, 9);
  auto image = a.SerializeState();
  image.pop_back();
  EXPECT_FALSE(a.RestoreState(image));
}

}  // namespace
}  // namespace coco::control
