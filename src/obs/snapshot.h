// Registry snapshots and their JSON form.
//
// A Snapshot is a point-in-time copy of every metric in a Registry —
// plain maps, no atomics — which makes it the unit of serialization and
// testing. ToJson renders it as JSON (tests/obs_test.cpp pins the
// exact text); callers write that text wherever they report, e.g.
// `ToJson(CaptureSnapshot(registry))` to stdout or a scrape file.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace coco::obs {

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  // (inclusive upper bound, sample count), non-empty buckets only,
  // ascending by bound.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
};

struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

// Copies every metric's current value out of the registry. Individual
// values are atomically consistent; the set as a whole is as consistent as
// a live system allows (writers keep running during the capture).
Snapshot CaptureSnapshot(const Registry& registry);

// Serializes a snapshot to JSON. `pretty` adds newlines and indentation;
// compact form is a single line (one snapshot per line when appended).
std::string ToJson(const Snapshot& snapshot, bool pretty = true);

}  // namespace coco::obs
