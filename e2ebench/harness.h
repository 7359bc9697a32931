// Shared pieces of the end-to-end benchmark: seeds, sample statistics,
// clocks and the host-speed kernel, checks, the SQL query mix with its
// reference answers, the network-wide epoch loop, the single-thread replay of
// the scale-out datapath, and the layer probes. Everything here calls the
// program only through its public headers.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "core/cocosketch.h"
#include "core/merge.h"
#include "hash/bobhash.h"
#include "hash/multihash.h"
#include "keys/key_spec.h"
#include "net/agent.h"
#include "net/collector.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "ovs/scaleout.h"
#include "ovs/spsc_ring.h"
#include "ovs/steering.h"
#include "packet/keys.h"
#include "query/flow_table.h"
#include "query/sql.h"
#include "tracer.h"

namespace e2e {

using coco::DynKey;
using coco::FiveTuple;
using coco::Packet;
using Sketch = coco::core::CocoSketch<FiveTuple>;
using Table = coco::query::FlowTable<FiveTuple>;

constexpr size_t kMemoryBytes = 512 * 1024;
constexpr size_t kD = 2;
constexpr double kHeavyFraction = 1e-4;
constexpr size_t kRowLimit = 20;

// ---- Seeds -----------------------------------------------------------------

// Every seed the run uses, derived from the workload seed argument. Nothing
// falls back to the per-process entropy seed, so one seed gives one answer.
struct Seeds {
  uint64_t trace = 0;
  uint64_t sketch = 0;    // hash/RNG seed of every sketch (shared for merges)
  uint64_t steering = 0;  // RSS steering seed of the scale-out datapath
  uint64_t merge = 0;     // RNG of merges the benchmark runs itself
  uint64_t collector_merge = 0;

  static Seeds From(uint64_t seed) {
    uint64_t state = seed ^ 0x636f636f2d653265ULL;
    Seeds s;
    s.trace = coco::SplitMix64(state) | 1;
    s.sketch = coco::SplitMix64(state) | 1;
    s.steering = coco::SplitMix64(state) | 1;
    s.merge = coco::SplitMix64(state) | 1;
    s.collector_merge = coco::SplitMix64(state) | 1;
    return s;
  }

  // Seeds of the k-th answer scored for accuracy: the same trace, fresh
  // sketch, steering and merge seeds. Answer 0 is the run's own.
  Seeds ForAnswer(uint64_t k) const {
    if (k == 0) return *this;
    uint64_t state = sketch ^ (k * 0x9e3779b97f4a7c15ULL);
    Seeds s = *this;
    s.sketch = coco::SplitMix64(state) | 1;
    s.steering = coco::SplitMix64(state) | 1;
    s.merge = coco::SplitMix64(state) | 1;
    s.collector_merge = coco::SplitMix64(state) | 1;
    return s;
  }
};

// ---- Sample statistics -----------------------------------------------------

// Linear-interpolated quantile of a sample (q in [0,1]); NaN when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = static_cast<size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Quantile of a run's samples, robust to slow stretches of a shared host:
// the samples, in the order they were taken, are cut into up to five equal
// blocks of at least `min_block` samples; the result is the median of the
// blocks' quantiles. A stretch during which the host runs the program
// slower moves the result only if it covers at least half of the blocks.
inline double BlockedQuantile(const std::vector<double>& v, double q,
                              size_t min_block) {
  const size_t blocks = std::clamp<size_t>(v.size() / min_block, 1, 5);
  std::vector<double> per_block;
  for (size_t b = 0; b < blocks; ++b) {
    per_block.push_back(Quantile(
        std::vector<double>(v.begin() + v.size() * b / blocks,
                            v.begin() + v.size() * (b + 1) / blocks),
        q));
  }
  return Median(per_block);
}

inline double MedianNs(const std::vector<int64_t>& ns, double scale) {
  std::vector<double> v;
  v.reserve(ns.size());
  for (const int64_t x : ns) v.push_back(static_cast<double>(x) * scale);
  return Median(v);
}

// ---- Clocks ----------------------------------------------------------------

// CPU time of the calling thread, in ns. On a virtual machine it excludes
// the time the hypervisor gave the vCPU to other guests ("steal"), which on
// a shared host swings by tens of percent from minute to minute. Every
// single-threaded call the benchmark times uses it.
inline int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Steal time summed over all CPUs, and the CPU count, from /proc/stat.
// Both are 0 where the kernel does not report steal.
struct StealSample {
  int64_t steal_ns = 0;
  int cpus = 0;

  static StealSample Read() {
    StealSample s;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return s;
    const double ns_per_tick = 1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "cpu", 3) != 0 || line[3] < '0' || line[3] > '9') {
        continue;
      }
      unsigned long long v[8] = {};
      if (std::sscanf(line, "%*s %llu %llu %llu %llu %llu %llu %llu %llu",
                      &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                      &v[7]) == 8) {
        s.steal_ns += static_cast<int64_t>(static_cast<double>(v[7]) *
                                           ns_per_tick);
        ++s.cpus;
      }
    }
    std::fclose(f);
    return s;
  }
};

// Wall time of a call that keeps every CPU busy (the scale-out datapath),
// minus the steal the kernel reports for the call averaged over CPUs: what
// the call would have taken on an unshared host.
inline int64_t WallMinusStealNs(int64_t wall_ns, const StealSample& before,
                                const StealSample& after) {
  if (after.cpus == 0) return wall_ns;
  return wall_ns - (after.steal_ns - before.steal_ns) / after.cpus;
}

// ---- Host speed ------------------------------------------------------------

// The speed of the shared host, read from a fixed piece of benchmark-owned
// work: a hash table of 32k keys built and scanned (the access pattern of
// Decode and GROUP BY), a dependent random walk over 2 MiB (sketch buckets
// beyond L2) and a 2 MiB copy (state images and frames). Even in thread CPU time the host runs the same work
// up to twice as slow from one minute to the next (CPU frequency,
// co-tenants on sibling hyperthreads and the memory bus), so the time
// metrics divide each sample by the host's slowness measured beside it.
// The kernel never calls the program: a change to the program cannot move
// it.
class HostSpeed {
 public:
  // Thread CPU time of one kernel run on an unloaded host of this class.
  static constexpr double kNominalNs = 10.0e6;

  HostSpeed() : keys_(1 << 15), cycle_(1 << 19), from_(1 << 21), to_(1 << 21) {
    uint64_t x = 0x686f7374ULL;
    for (uint64_t& k : keys_) k = coco::SplitMix64(x);
    // Sattolo's algorithm: one cycle through every slot.
    for (uint32_t i = 0; i < cycle_.size(); ++i) cycle_[i] = i;
    for (uint32_t i = static_cast<uint32_t>(cycle_.size()) - 1; i > 0; --i) {
      std::swap(cycle_[i], cycle_[coco::SplitMix64(x) % i]);
    }
  }

  // Runs the kernel once and records its thread CPU time.
  void Measure() {
    const int64_t t0 = ThreadCpuNs();
    std::unordered_map<uint64_t, uint64_t> table;
    table.reserve(keys_.size());
    for (const uint64_t k : keys_) table[k] += k >> 7;
    uint64_t sum = 0;
    for (const auto& [k, v] : table) sum += v;
    uint32_t at = static_cast<uint32_t>(sum) & 1;
    for (int step = 0; step < (1 << 16); ++step) at = cycle_[at];
    from_[at % from_.size()] = static_cast<uint8_t>(sum);
    for (int copy = 0; copy < 2; ++copy) {
      std::memcpy(to_.data(), from_.data(), from_.size());
    }
    asm volatile("" : : "r"(at), "r"(to_.data()) : "memory");
    ns_.push_back(static_cast<double>(ThreadCpuNs() - t0));
  }

  // Median of the last nine kernel times over the nominal time: 1 on an
  // unloaded host, 1.5 when the same work takes half as long again.
  double Slowness() const {
    if (ns_.empty()) return 1.0;
    const size_t from = ns_.size() > 9 ? ns_.size() - 9 : 0;
    return Median(std::vector<double>(ns_.begin() + from, ns_.end())) /
           kNominalNs;
  }

  const std::vector<double>& kernel_ns() const { return ns_; }

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> cycle_;
  std::vector<uint8_t> from_, to_;
  std::vector<double> ns_;
};

// ---- Checks ----------------------------------------------------------------

struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Expect(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 20) std::fprintf(stderr, "check failed: %s\n", what);
  }
};

// ---- Table digest ----------------------------------------------------------

// Order-independent fingerprint of a decoded table: equal tables, equal
// digests, whatever the hash-map iteration order.
inline uint64_t Digest(const Table& table) {
  uint64_t sum = table.size();
  for (const auto& [key, value] : table) {
    uint64_t state = coco::hash::Hash64(key.data(), key.size(), 0x64696765ULL) ^
                     (value * 0x9e3779b97f4a7c15ULL);
    sum += coco::SplitMix64(state);
  }
  return sum;
}

// ---- Query mix -------------------------------------------------------------

// The six partial keys of the paper's evaluation plus three source-prefix
// levels. Each entry keeps its own key spec: the reference answer groups the
// decoded table with it, independently of the SQL front-end.
struct MixEntry {
  std::string fields;  // SQL field list
  coco::keys::TupleKeySpec spec;
};

inline std::string FieldSql(const coco::keys::FieldSel& sel) {
  using coco::keys::Field;
  switch (sel.field) {
    case Field::kSrcIp:
      return sel.prefix_bits < 32 ? "SrcIP/" + std::to_string(sel.prefix_bits)
                                  : "SrcIP";
    case Field::kDstIp:
      return sel.prefix_bits < 32 ? "DstIP/" + std::to_string(sel.prefix_bits)
                                  : "DstIP";
    case Field::kSrcPort:
      return "SrcPort";
    case Field::kDstPort:
      return "DstPort";
    case Field::kProto:
      return "Proto";
  }
  return "";
}

inline std::vector<MixEntry> QueryMix() {
  using coco::keys::TupleKeySpec;
  std::vector<TupleKeySpec> specs = TupleKeySpec::DefaultSix();
  for (const uint8_t bits : {8, 16, 24}) {
    specs.push_back(TupleKeySpec::SrcIpPrefix(bits));
  }
  std::vector<MixEntry> mix;
  for (const TupleKeySpec& spec : specs) {
    std::string fields;
    for (const auto& sel : spec.fields()) {
      if (!fields.empty()) fields += ", ";
      fields += FieldSql(sel);
    }
    mix.push_back({fields, spec});
  }
  return mix;
}

inline uint64_t HeavyThreshold(uint64_t total) {
  return static_cast<uint64_t>(
      std::ceil(kHeavyFraction * static_cast<double>(total)));
}

inline std::string StatementText(const MixEntry& entry, uint64_t threshold) {
  return "SELECT " + entry.fields + ", SUM(Size) FROM flows GROUP BY " +
         entry.fields + " HAVING SUM(Size) >= " + std::to_string(threshold) +
         " ORDER BY SUM(Size) DESC LIMIT " + std::to_string(kRowLimit);
}

using Rows = std::vector<std::pair<DynKey, uint64_t>>;

// The answer a statement must give, computed by the benchmark itself: GROUP
// BY over the decoded table, HAVING, ORDER BY size (ties by key), LIMIT.
inline Rows ReferenceRows(const Table& table, const MixEntry& entry,
                          uint64_t threshold) {
  coco::query::FlowTable<DynKey> grouped;
  for (const auto& [key, size] : table) grouped[entry.spec.Apply(key)] += size;
  Rows rows;
  for (const auto& [key, size] : grouped) {
    if (size >= threshold) rows.emplace_back(key, size);
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return coco::query::KeyOrderLess(a.first, b.first);
  });
  if (rows.size() > kRowLimit) rows.resize(kRowLimit);
  return rows;
}

inline bool RowsMatch(const std::optional<coco::query::sql::Result>& result,
                      const Rows& want) {
  if (!result || result->rows.size() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (!(result->rows[i].key == want[i].first) ||
        result->rows[i].size != want[i].second) {
      return false;
    }
  }
  return true;
}

// Parse + Execute as two spans — what query::sql::Query does in one call.
inline std::optional<coco::query::sql::Result> TracedQuery(
    Tracer& tracer, const std::string& text, const Table& table) {
  std::string error;
  std::optional<coco::query::sql::Statement> statement;
  {
    Scope s(tracer, kParse);
    statement = coco::query::sql::Parse(text, &error);
  }
  if (!statement) return std::nullopt;
  Scope s(tracer, kExecute);
  coco::query::sql::Result result =
      coco::query::sql::Execute(*statement, table);
  s.SetItems(result.rows.size());
  return result;
}

// ---- Network-wide epochs ---------------------------------------------------

// Inputs of an agent/collector run: each epoch's packets, per agent.
struct NetInputs {
  size_t agents = 0;
  size_t memory_bytes = 0;  // per agent sketch
  std::vector<std::vector<std::vector<Packet>>> chunks;  // [epoch][agent]
  std::vector<uint64_t> mass_after;  // weight ingested through each epoch

  // Splits `trace` into `epochs` consecutive slices and each slice over the
  // agents by `route(packet index, packet)`.
  template <typename Route>
  static NetInputs Split(const std::vector<Packet>& trace, size_t agents,
                         size_t memory_bytes, size_t epochs, Route route) {
    NetInputs in;
    in.agents = agents;
    in.memory_bytes = memory_bytes;
    in.chunks.resize(epochs);
    const size_t per_epoch = trace.size() / epochs;
    uint64_t mass = 0;
    for (size_t e = 0; e < epochs; ++e) {
      in.chunks[e].resize(agents);
      const size_t begin = e * per_epoch;
      const size_t end = e + 1 == epochs ? trace.size() : begin + per_epoch;
      for (size_t i = begin; i < end; ++i) {
        in.chunks[e][route(i, trace[i])].push_back(trace[i]);
        mass += trace[i].weight;
      }
      in.mass_after.push_back(mass);
    }
    return in;
  }
};

// One run of the network-wide path: fresh sketches, agents, in-process
// loopback hub and collector, all seeded from the workload seed.
class NetRun {
 public:
  using Agent = coco::net::Agent<Sketch>;
  using Collector = coco::net::Collector<Sketch>;

  NetRun(const NetInputs& in, const Seeds& seeds)
      : in_(in),
        collector_transport_(hub_.MakeCollectorTransport()),
        collector_(CollectorOptions(in, seeds), &collector_transport_,
                   &registry_) {
    for (size_t a = 0; a < in.agents; ++a) {
      sketches_.push_back(
          std::make_unique<Sketch>(in.memory_bytes, kD, seeds.sketch));
      transports_.push_back(
          std::make_unique<coco::net::LoopbackAgentTransport>(
              hub_.MakeAgentTransport(static_cast<uint32_t>(a))));
      Agent::Options options;
      options.id = static_cast<uint32_t>(a);
      agents_.push_back(std::make_unique<Agent>(
          options, sketches_.back().get(), transports_.back().get(),
          &registry_));
    }
  }
  NetRun(const NetRun&) = delete;
  NetRun& operator=(const NetRun&) = delete;

  size_t epochs() const { return in_.chunks.size(); }
  size_t epoch_packets(size_t epoch) const {
    size_t n = 0;
    for (const auto& chunk : in_.chunks[epoch]) n += chunk.size();
    return n;
  }
  uint64_t mass_after(size_t epoch) const { return in_.mass_after[epoch]; }

  // UpdateBatch of the epoch's packets into every agent's sketch.
  void Ingest(size_t epoch, Tracer& tracer) {
    for (size_t a = 0; a < agents_.size(); ++a) {
      const std::vector<Packet>& chunk = in_.chunks[epoch][a];
      Scope s(tracer, kUpdate, chunk.size(), static_cast<uint32_t>(a));
      sketches_[a]->UpdateBatch(chunk.data(), chunk.size());
    }
  }

  // Closes the epoch on every agent, then ticks collector and agents until
  // every agent is synced. Returns false if they never sync.
  bool Sync(Tracer& tracer) {
    {
      Scope s(tracer, kExport, agents_.size());
      for (auto& agent : agents_) agent->ExportEpoch();
    }
    for (int round = 0; round < 64; ++round) {
      {
        Scope s(tracer, kCollectorTick);
        collector_.Tick();
      }
      {
        Scope s(tracer, kAgentTick, agents_.size());
        for (auto& agent : agents_) agent->Tick();
      }
      bool synced = true;
      for (const auto& agent : agents_) synced = synced && agent->Synced();
      if (synced) return true;
    }
    return false;
  }

  // The per-epoch checks: collector conservation, no nacks, no rejects.
  void CheckEpoch(Checks& checks) {
    checks.Expect(collector_.CheckConservation().Holds(),
                  "collector conservation holds");
    checks.Expect(SumAgentCounter("nacks_received") == 0, "no nacks");
    checks.Expect(
        registry_.GetCounter("net.collector.frames_rejected")->Value() == 0,
        "no rejected frames");
  }

  Collector& collector() { return collector_; }
  const std::vector<std::unique_ptr<Sketch>>& sketches() const {
    return sketches_;
  }

  uint64_t BytesReceived() {
    return registry_.GetCounter("net.collector.bytes_received")->Value();
  }

  uint64_t SumAgentCounter(const std::string& name) {
    uint64_t sum = 0;
    for (size_t a = 0; a < agents_.size(); ++a) {
      sum += registry_
                 .GetCounter("net.agent" + std::to_string(a) + "." + name)
                 ->Value();
    }
    return sum;
  }

  // Mean delta payload size over the full image size, over every delta built.
  double DeltaRatio() {
    const double full =
        static_cast<double>(sketches_.front()->SerializeState().size());
    double sum = 0;
    size_t n = 0;
    for (size_t a = 0; a < agents_.size(); ++a) {
      const coco::obs::Histogram* h = registry_.GetHistogram(
          "net.agent" + std::to_string(a) + ".delta_bytes");
      if (h->Count() == 0) continue;
      sum += static_cast<double>(h->Sum()) / static_cast<double>(h->Count());
      ++n;
    }
    return n == 0 ? 1.0 : sum / static_cast<double>(n) / full;
  }

 private:
  static Collector::Options CollectorOptions(const NetInputs& in,
                                             const Seeds& seeds) {
    Collector::Options options;
    options.memory_bytes = in.memory_bytes;
    options.d = kD;
    options.seed = seeds.sketch;
    options.merge_seed = seeds.collector_merge;
    return options;
  }

  const NetInputs& in_;
  coco::obs::Registry registry_;
  coco::net::LoopbackHub hub_;
  coco::net::LoopbackCollectorTransport collector_transport_;
  Collector collector_;
  std::vector<std::unique_ptr<Sketch>> sketches_;
  std::vector<std::unique_ptr<coco::net::LoopbackAgentTransport>> transports_;
  std::vector<std::unique_ptr<Agent>> agents_;
};

// ---- Scale-out datapath ----------------------------------------------------

// The switch-path configuration: 2 shards on 2 workers, closed loop with no
// NIC cap, stealing and mid-run epochs off so the answer does not depend on
// thread timing.
inline coco::ovs::ScaleoutConfig ScaleoutConfigFor(const Seeds& seeds) {
  coco::ovs::ScaleoutConfig c;
  c.num_shards = 2;
  c.num_workers = 2;
  c.num_groups = 1;
  c.nic_rate_mpps = 0.0;
  c.sketch_memory_bytes = kMemoryBytes;
  c.d = kD;
  c.seed = seeds.sketch;
  c.steering_seed = seeds.steering;
  c.stealing_enabled = false;
  c.rotation_interval_packets = 0;
  return c;
}

// Max over mean of the per-shard offered counters RunScaleout published.
inline double ShardSkew(coco::obs::Registry& registry, size_t shards) {
  double max = 0, sum = 0;
  for (size_t s = 0; s < shards; ++s) {
    const double v = static_cast<double>(
        registry.GetCounter("scaleout.q" + std::to_string(s) + ".offered")
            ->Value());
    max = std::max(max, v);
    sum += v;
  }
  return sum == 0 ? 0.0 : max / (sum / static_cast<double>(shards));
}

struct SketchCounts {
  uint64_t updates = 0;
  uint64_t pass1_misses = 0;
  uint64_t key_replacements = 0;

  void Add(const Sketch& sketch) {
    const coco::core::SketchStats s = sketch.Stats();
    updates += s.updates;
    pass1_misses += s.pass1_misses;
    key_replacements += s.key_replacements;
  }
  double HitRatio() const {
    return updates == 0 ? 0.0
                        : 1.0 - static_cast<double>(pass1_misses) /
                                    static_cast<double>(updates);
  }
  double ReplacementsPerKpkt() const {
    return updates == 0 ? 0.0
                        : 1e3 * static_cast<double>(key_replacements) /
                              static_cast<double>(updates);
  }
};

struct ReplayResult {
  uint64_t mass = 0;
  uint64_t conflicts = 0;
  SketchCounts counts;
};

// Replays the scale-out datapath on one thread through the public functions
// RunScaleout is built from: FlowSteering::Shard, SpscRing::TryPush and
// PopBatch, CocoSketch::UpdateBatch, core::MergeAll, Decode. Ring and update
// spans carry the shard as their lane.
inline ReplayResult Replay(const std::vector<Packet>& trace,
                           const coco::ovs::ScaleoutConfig& config,
                           uint64_t merge_seed, Tracer& tracer) {
  const size_t shards = config.num_shards;
  const size_t per_shard = config.sketch_memory_bytes / shards;
  std::vector<std::vector<Packet>> striped(shards);
  for (auto& v : striped) v.reserve(trace.size() / shards + 1);
  std::vector<std::unique_ptr<Sketch>> sketches;
  for (size_t s = 0; s < shards; ++s) {
    sketches.push_back(std::make_unique<Sketch>(per_shard, config.d,
                                                config.seed));
  }
  Sketch folded(per_shard, config.d, config.seed);
  coco::ovs::SpscRing<Packet> ring(config.ring_capacity);
  std::vector<Packet> batch(config.ring_capacity);
  coco::Rng rng(merge_seed);
  ReplayResult out;

  Scope root(tracer, kRootReplay, trace.size());
  {
    Scope s(tracer, kSteer, trace.size());
    const coco::ovs::FlowSteering steering(config.steering_seed, shards);
    for (const Packet& p : trace) striped[steering.Shard(p.key)].push_back(p);
  }
  for (size_t s = 0; s < shards; ++s) {
    const std::vector<Packet>& in = striped[s];
    for (size_t off = 0; off < in.size(); off += ring.capacity()) {
      const size_t n = std::min(ring.capacity(), in.size() - off);
      {
        Scope r(tracer, kRing, n, static_cast<uint32_t>(s));
        for (size_t i = 0; i < n; ++i) ring.TryPush(in[off + i]);
        for (size_t got = 0; got < n;) {
          got += ring.PopBatch(batch.data() + got,
                               std::min(config.drain_batch, n - got));
        }
      }
      Scope u(tracer, kUpdate, n, static_cast<uint32_t>(s));
      sketches[s]->UpdateBatch(batch.data(), n);
    }
  }
  std::vector<const Sketch*> sources;
  for (const auto& sk : sketches) sources.push_back(sk.get());
  {
    Scope s(tracer, kMerge);
    out.conflicts = coco::core::MergeAll(&folded, sources, &rng).conflicts;
  }
  {
    Scope s(tracer, kDecode);
    const Table table = folded.Decode();
    s.SetItems(table.size());
  }
  out.mass = folded.TotalValue();
  for (const auto& sk : sketches) out.counts.Add(*sk);
  return out;
}

// ---- Layer probes ----------------------------------------------------------

// MultiHash::Slots over every key of the trace at the given geometry. The
// slots feed a compiler barrier so the loop cannot be optimized away.
inline void ProbeSlots(const std::vector<Packet>& trace, size_t memory,
                           uint64_t seed, Tracer& tracer) {
  const size_t width = memory / (kD * Sketch::BucketBytes());
  const coco::hash::MultiHash hash(seed, kD, width);
  uint64_t sink = 0;
  uint32_t slots[coco::hash::MultiHash::kMaxIndices];
  Scope s(tracer, kSlots, trace.size());
  for (const Packet& p : trace) {
    hash.Slots(p.key.data(), p.key.size(), slots);
    sink += slots[0] ^ slots[kD - 1];
  }
  asm volatile("" : : "r"(sink) : "memory");
}

// Producer thread -> SpscRing -> consumer thread, no sketch: the cost of
// moving packets between cores. Returns Mpps; false in *ok if a packet was
// lost.
inline double ProbeHandoff(const std::vector<Packet>& trace, size_t capacity,
                           size_t drain_batch, Tracer& tracer, bool* ok) {
  uint64_t expected = 0;
  for (const Packet& p : trace) expected += p.weight;
  coco::ovs::SpscRing<Packet> ring(capacity);
  std::atomic<bool> go{false};
  uint64_t received = 0;
  uint64_t weight = 0;
  std::thread producer([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (const Packet& p : trace) {
      while (!ring.TryPush(p)) std::this_thread::yield();
    }
  });
  std::thread consumer([&] {
    std::vector<Packet> batch(drain_batch);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (received < trace.size()) {
      const size_t n = ring.PopBatch(batch.data(), drain_batch);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      for (size_t i = 0; i < n; ++i) weight += batch[i].weight;
      received += n;
    }
  });
  const int64_t t0 = NowNs();
  {
    Scope s(tracer, kHandoff, trace.size());
    go.store(true, std::memory_order_release);
    producer.join();
    consumer.join();
  }
  const int64_t t1 = NowNs();
  *ok = received == trace.size() && weight == expected;
  return static_cast<double>(trace.size()) / (static_cast<double>(t1 - t0) * 1e-3);
}

}  // namespace e2e
