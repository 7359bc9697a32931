// Span recorder for the traced run of the end-to-end benchmark.
//
// The benchmark wraps every call it makes into a layer of the program in a
// Scope. With tracing off a Scope does nothing (no clock reads), so the
// untraced run measures the program alone. With tracing on, each Scope
// records a span: layer name, start, end, parent span, and the id shared by
// all spans of one pass, statement or epoch. Spans stay in memory until the
// run ends, when they are written out as JSON lines.
//
// A span's self time is its duration minus the time its direct children
// cover. Spans nest strictly (one thread records them), so children never
// overlap and the subtraction is exact.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Span names, one per layer boundary the benchmark crosses. Roots
// ("bench.*") group the spans of one pass, statement, epoch or probe.
enum Name : uint32_t {
  kRootIngest,     // one ingest call of a pass
  kRootStatement,  // one SQL statement, answered end to end
  kRootEpoch,      // one network-wide epoch: ingest, sync, statement
  kRootReplay,     // single-thread replay of the scale-out datapath
  kRootSync,       // one epoch of a sync stage (agents -> collector)
  kRootProbe,      // a layer probe outside the workload's own path
  kScaleout,       // ovs::RunScaleout
  kSteer,          // ovs::FlowSteering::Shard over a batch of packets
  kRing,           // ovs::SpscRing::TryPush + PopBatch
  kHandoff,        // producer thread -> SpscRing -> consumer thread
  kSlots,          // hash::MultiHash::Slots
  kUpdate,         // core::CocoSketch::UpdateBatch
  kMerge,          // core::MergeAll / Collector::MergedSketch
  kDecode,         // core::CocoSketch::Decode
  kParse,          // query::sql::Parse
  kExecute,        // query::sql::Execute
  kExport,         // net::Agent::ExportEpoch on every agent
  kCollectorTick,  // net::Collector::Tick
  kAgentTick,      // net::Agent::Tick on every agent
  kNameCount,
};

inline const char* NameText(uint32_t name) {
  static const char* const kText[kNameCount] = {
      "bench.ingest",    "bench.statement", "bench.epoch",
      "bench.replay",    "bench.sync",      "bench.probe",
      "ovs.scaleout",    "ovs.steer",       "ovs.ring",
      "ovs.handoff",     "hash.slots",      "core.update",
      "core.merge",      "core.decode",     "query.parse",
      "query.execute",   "net.export",      "net.collector_tick",
      "net.agent_tick",
  };
  return kText[name];
}

struct Span {
  uint32_t name = 0;
  int32_t parent = -1;  // index into the span list; -1 for a root
  int32_t root = -1;    // index of the root span (itself for a root)
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  // time covered by direct children
  uint64_t items = 0;    // work units handled: packets, entries, rows
  uint32_t lane = 0;     // shard or agent the call worked on

  int64_t Duration() const { return end_ns - start_ns; }
  int64_t Self() const { return Duration() - child_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Starts a new pass, statement or epoch: later roots carry the new id.
  uint64_t NextTraceId() { return ++trace_id_; }

  int32_t Begin(uint32_t name, uint64_t items, uint32_t lane) {
    Span s;
    s.name = name;
    s.items = items;
    s.lane = lane;
    s.trace_id = trace_id_;
    s.parent = open_.empty() ? -1 : open_.back();
    const int32_t index = static_cast<int32_t>(spans_.size());
    s.root = s.parent < 0 ? index : spans_[s.parent].root;
    spans_.push_back(s);
    open_.push_back(index);
    spans_[index].start_ns = NowNs();
    return index;
  }

  void End(int32_t index) {
    Span& s = spans_[index];
    s.end_ns = NowNs();
    open_.pop_back();
    if (s.parent >= 0) spans_[s.parent].child_ns += s.Duration();
  }

  void SetItems(int32_t index, uint64_t items) { spans_[index].items = items; }

  // Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "%s\n", header.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"trace\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld,"
                   "\"items\":%llu,\"lane\":%u}\n",
                   i, NameText(s.name), s.parent,
                   static_cast<unsigned long long>(s.trace_id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.Self()),
                   static_cast<unsigned long long>(s.items), s.lane);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  uint64_t trace_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span. A no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& tracer, uint32_t name, uint64_t items = 0, uint32_t lane = 0)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.Begin(name, items, lane) : -1) {}
  ~Scope() {
    if (index_ >= 0) tracer_.End(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void SetItems(uint64_t items) {
    if (index_ >= 0) tracer_.SetItems(index_, items);
  }

 private:
  Tracer& tracer_;
  int32_t index_;
};

// Sums over the spans named `name` whose root is named `root`.
struct LayerTotals {
  int64_t self_ns = 0;
  uint64_t items = 0;
  size_t count = 0;
  std::vector<int64_t> durations;  // one per span, in record order
};

inline LayerTotals Totals(const Tracer& tracer, uint32_t root, uint32_t name) {
  LayerTotals t;
  const auto& spans = tracer.spans();
  for (const Span& s : spans) {
    if (s.name != name || spans[s.root].name != root) continue;
    t.self_ns += s.Self();
    t.items += s.items;
    ++t.count;
    t.durations.push_back(s.Duration());
  }
  return t;
}

// Per trace id: summed durations of spans named `name` under roots named
// `root` — e.g. the export time of each epoch.
inline std::vector<int64_t> PerTraceSums(const Tracer& tracer, uint32_t root,
                                         uint32_t name) {
  std::vector<int64_t> sums;
  uint64_t current = 0;
  bool open = false;
  const auto& spans = tracer.spans();
  for (const Span& s : spans) {
    if (s.name != name || spans[s.root].name != root) continue;
    if (!open || s.trace_id != current) {
      sums.push_back(0);
      current = s.trace_id;
      open = true;
    }
    sums.back() += s.Duration();
  }
  return sums;
}

}  // namespace e2e
