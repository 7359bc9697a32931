// Bridges core::SketchStats into the obs registry: one call publishes a
// sketch's occupancy / load-factor / churn readout as gauges under a dotted
// prefix, so a registry snapshot picks the sketch state up alongside the
// datapath counters.
//
//   obs::PublishSketchStats(&registry, "ovs.q0.sketch", sketch.Stats());
//
// emits gauges such as ovs.q0.sketch.load_factor and
// ovs.q0.sketch.array1.occupied. Publishing is control-plane work (a
// handful of map lookups); call it at checkpoint/export cadence, not per
// packet.
// obs::PublishAttackSignals mirrors the attack detector's windowed signals
// (core/attack_monitor.h) the same way, plus an alarm gauge operators can
// page on (0 = honest, 1 = suspicious, 2 = attack confirmed).
#pragma once

#include <string>

#include "core/attack_monitor.h"
#include "core/sketch_stats.h"
#include "obs/metrics.h"

namespace coco::obs {

inline void PublishSketchStats(Registry* registry, const std::string& prefix,
                               const core::SketchStats& stats) {
  registry->GetGauge(prefix + ".load_factor")->Set(stats.load_factor);
  registry->GetGauge(prefix + ".buckets_total")
      ->Set(static_cast<double>(stats.buckets_total));
  registry->GetGauge(prefix + ".buckets_occupied")
      ->Set(static_cast<double>(stats.buckets_occupied));
  registry->GetGauge(prefix + ".total_value")
      ->Set(static_cast<double>(stats.total_value));
  registry->GetGauge(prefix + ".min_occupied_value")
      ->Set(static_cast<double>(stats.min_occupied_value));
  registry->GetGauge(prefix + ".max_bucket_value")
      ->Set(static_cast<double>(stats.max_bucket_value));
  registry->GetGauge(prefix + ".key_replacements")
      ->Set(static_cast<double>(stats.key_replacements));
  registry->GetGauge(prefix + ".updates")
      ->Set(static_cast<double>(stats.updates));
  registry->GetGauge(prefix + ".pass1_misses")
      ->Set(static_cast<double>(stats.pass1_misses));
  for (size_t i = 0; i < stats.per_array_occupied.size(); ++i) {
    registry->GetGauge(prefix + ".array" + std::to_string(i) + ".occupied")
        ->Set(static_cast<double>(stats.per_array_occupied[i]));
  }
}

inline void PublishAttackSignals(Registry* registry, const std::string& prefix,
                                 const core::AttackMonitor& monitor) {
  const core::AttackSignals& s = monitor.signals();
  registry->GetGauge(prefix + ".miss_rate")->Set(s.miss_rate);
  registry->GetGauge(prefix + ".churn_rate")->Set(s.churn_rate);
  registry->GetGauge(prefix + ".occupancy_stall")->Set(s.occupancy_stall);
  registry->GetGauge(prefix + ".suspicious_streak")
      ->Set(static_cast<double>(monitor.suspicious_streak()));
  double alarm = 0.0;
  switch (monitor.verdict()) {
    case core::AttackMonitor::Verdict::kHonest:
      alarm = 0.0;
      break;
    case core::AttackMonitor::Verdict::kSuspicious:
      alarm = 1.0;
      break;
    case core::AttackMonitor::Verdict::kCollisionConfirmed:
    case core::AttackMonitor::Verdict::kChurnFloodConfirmed:
      alarm = 2.0;
      break;
  }
  registry->GetGauge(prefix + ".alarm")->Set(alarm);
}

}  // namespace coco::obs
