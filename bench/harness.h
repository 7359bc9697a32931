// Shared experiment harness for the per-figure bench binaries.
//
// Encapsulates the §7.1 experimental setup: a solution is "one algorithm
// configured to answer N partial keys within a total memory budget".
// CocoSketch and USS deploy ONE full-key sketch and aggregate; every
// single-key baseline deploys one sketch per key, splitting the budget —
// exactly the paper's arrangement.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/sizes.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"
#include "keys/key_spec.h"
#include "metrics/accuracy.h"
#include "metrics/perf.h"
#include "query/evaluation.h"
#include "query/flow_table.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/elastic.h"
#include "sketch/space_saving.h"
#include "sketch/univmon.h"
#include "sketch/uss.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace coco::bench {

// A measurement solution: feed packets, then read per-partial-key estimate
// tables. `reset` restores the empty state (used for repeated throughput
// trials).
struct Solution {
  std::string name;
  std::function<void(const Packet&)> update;
  std::function<query::FlowTable<DynKey>(size_t spec_index)> table;
  std::function<void()> reset;
};

// Number of packets for the accuracy experiments; override via the
// COCO_BENCH_PACKETS environment variable to trade time for fidelity.
inline size_t BenchPackets(size_t fallback = 1'000'000) {
  if (const char* env = std::getenv("COCO_BENCH_PACKETS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

// ---- Solution factories ---------------------------------------------------

inline Solution MakeCoco(size_t memory, std::vector<keys::TupleKeySpec> specs,
                         size_t d = 2, uint64_t seed = 0xc0c0) {
  auto sketch = std::make_shared<core::CocoSketch<FiveTuple>>(memory, d, seed);
  auto cache = std::make_shared<query::FlowTable<FiveTuple>>();
  auto specs_ptr =
      std::make_shared<std::vector<keys::TupleKeySpec>>(std::move(specs));
  return {
      "Ours",
      [sketch, cache](const Packet& p) {
        sketch->Update(p.key, p.weight);
        if (!cache->empty()) cache->clear();
      },
      [sketch, cache, specs_ptr](size_t i) {
        if (cache->empty()) *cache = sketch->Decode();
        return query::Aggregate(*cache, (*specs_ptr)[i]);
      },
      [sketch, cache] {
        sketch->Clear();
        if (!cache->empty()) cache->clear();
      },
  };
}

inline Solution MakeHwCoco(size_t memory,
                           std::vector<keys::TupleKeySpec> specs, size_t d = 2,
                           core::DivisionMode div = core::DivisionMode::kExact,
                           uint64_t seed = 0xc0c1,
                           std::string name = "Ours(HW)") {
  auto sketch = std::make_shared<core::HwCocoSketch<FiveTuple>>(memory, d, div,
                                                                seed);
  auto cache = std::make_shared<query::FlowTable<FiveTuple>>();
  auto specs_ptr =
      std::make_shared<std::vector<keys::TupleKeySpec>>(std::move(specs));
  return {
      std::move(name),
      [sketch, cache](const Packet& p) {
        sketch->Update(p.key, p.weight);
        if (!cache->empty()) cache->clear();
      },
      [sketch, cache, specs_ptr](size_t i) {
        if (cache->empty()) *cache = sketch->Decode();
        return query::Aggregate(*cache, (*specs_ptr)[i]);
      },
      [sketch, cache] {
        sketch->Clear();
        if (!cache->empty()) cache->clear();
      },
  };
}

inline Solution MakeUss(size_t memory,
                        std::vector<keys::TupleKeySpec> specs) {
  auto sketch =
      std::make_shared<sketch::UnbiasedSpaceSaving<FiveTuple>>(memory);
  auto cache = std::make_shared<decltype(sketch->Decode())>();
  auto specs_ptr =
      std::make_shared<std::vector<keys::TupleKeySpec>>(std::move(specs));
  return {
      "USS",
      [sketch, cache](const Packet& p) {
        sketch->Update(p.key, p.weight);
        if (!cache->empty()) cache->clear();
      },
      [sketch, cache, specs_ptr](size_t i) {
        if (cache->empty()) *cache = sketch->Decode();
        return query::Aggregate(*cache, (*specs_ptr)[i]);
      },
      [sketch, cache] {
        sketch->Clear();
        if (!cache->empty()) cache->clear();
      },
  };
}

// Generic per-key baseline: one SketchT<DynKey> per partial key, budget
// split evenly (the paper's single-key-sketch-per-key arrangement).
template <typename SketchT, typename... Args>
Solution MakePerKey(std::string name, size_t total_memory,
                    std::vector<keys::TupleKeySpec> specs, Args... args) {
  auto specs_ptr =
      std::make_shared<std::vector<keys::TupleKeySpec>>(std::move(specs));
  auto sketches = std::make_shared<std::vector<std::unique_ptr<SketchT>>>();
  const size_t per_key = total_memory / specs_ptr->size();
  for (size_t i = 0; i < specs_ptr->size(); ++i) {
    sketches->push_back(std::make_unique<SketchT>(per_key, args...));
  }
  return {
      std::move(name),
      [sketches, specs_ptr](const Packet& p) {
        for (size_t i = 0; i < specs_ptr->size(); ++i) {
          (*sketches)[i]->Update((*specs_ptr)[i].Apply(p.key), p.weight);
        }
      },
      [sketches](size_t i) {
        const auto decoded = (*sketches)[i]->Decode();
        return query::FlowTable<DynKey>(decoded.begin(), decoded.end());
      },
      [sketches] {
        for (auto& s : *sketches) s->Clear();
      },
  };
}

// The full §7.2 baseline roster for heavy hitters over `specs`.
inline std::vector<Solution> MakeHeavyHitterRoster(
    size_t memory, const std::vector<keys::TupleKeySpec>& specs) {
  std::vector<Solution> roster;
  roster.push_back(MakeCoco(memory, specs));
  roster.push_back(MakePerKey<sketch::SpaceSaving<DynKey>>("SS", memory, specs));
  roster.push_back(MakeUss(memory, specs));
  roster.push_back(
      MakePerKey<sketch::CHeap<DynKey>>("C-Heap", memory, specs));
  roster.push_back(
      MakePerKey<sketch::CmHeap<DynKey>>("CM-Heap", memory, specs));
  roster.push_back(
      MakePerKey<sketch::ElasticSketch<DynKey>>("Elastic", memory, specs));
  roster.push_back(
      MakePerKey<sketch::UnivMon<DynKey>>("UnivMon", memory, specs));
  return roster;
}

// ---- Scoring helpers ------------------------------------------------------

// Runs `solution` over the trace and scores heavy hitters per spec.
inline std::vector<metrics::Accuracy> RunHeavyHitters(
    Solution& solution, const std::vector<Packet>& trace,
    const trace::ExactCounter<FiveTuple>& truth,
    const std::vector<keys::TupleKeySpec>& specs, double fraction) {
  solution.reset();
  for (const Packet& p : trace) solution.update(p);
  const uint64_t threshold =
      static_cast<uint64_t>(fraction * static_cast<double>(truth.Total()));
  std::vector<metrics::Accuracy> scores;
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto exact = truth.Aggregate(specs[i]);
    scores.push_back(metrics::ScoreThreshold(solution.table(i),
                                             exact.counts(), threshold));
  }
  return scores;
}

// ---- Output helpers -------------------------------------------------------

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::string& name,
                     const std::vector<double>& values,
                     const char* fmt = " %8.4f") {
  std::printf("%-10s", name.c_str());
  for (double v : values) std::printf(fmt, v);
  std::printf("\n");
}

inline void PrintColumns(const std::string& label,
                         const std::vector<std::string>& cols) {
  std::printf("%-10s", label.c_str());
  for (const auto& c : cols) std::printf(" %8s", c.c_str());
  std::printf("\n");
}

}  // namespace coco::bench
