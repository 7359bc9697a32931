// End-to-end benchmark of the CocoSketch measurement system.
//
//   e2ebench --workload <ingest_caida|query_caida|netwide_mawi>
//            --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// One process runs one workload. It generates the trace from the seed,
// drives it through the public APIs a deployment uses, checks every answer,
// and prints one JSON object as its last line of output. With --trace 0 the
// object holds the end-to-end metrics; with --trace 1 it holds the per-layer
// ledger built from spans (see README.md in this directory).
//
// Exit status: 0 when every check passed, 1 when a check failed, 2 on bad
// arguments.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "metrics/accuracy.h"
#include "query/flow_table.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

constexpr size_t kCaidaPackets = 2'000'000;
constexpr size_t kMawiPackets = 2'000'000;
constexpr size_t kNetAgents = 4;
constexpr size_t kNetEpochs = 120;
constexpr size_t kSyncEpochs = 100;
constexpr size_t kMinStatements = 100;
constexpr int kSetupReps = 3;
constexpr double kMeasureCapSeconds = 120;
constexpr int kProbeReps = 3;
// Smallest block for BlockedQuantile: a p90 needs ten samples beyond it.
constexpr size_t kMinBlockP90 = 100;
constexpr size_t kMinBlockMedian = 8;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans;
};

struct NetLayer {
  double delta_ratio = 0;
  uint64_t retries = 0;
  uint64_t nacks = 0;
};

// One time metric's samples in the order taken: as measured, and divided
// by the host's slowness measured beside them (HostSpeed).
struct Samples {
  std::vector<double> raw, scaled;

  void AddTime(double value, double slowness) {
    raw.push_back(value);
    scaled.push_back(value / slowness);
  }
  void AddRate(double value, double slowness) {
    raw.push_back(value);
    scaled.push_back(value * slowness);
  }
  size_t size() const { return raw.size(); }
};

// Everything one run measures.
struct Report {
  Checks checks;
  HostSpeed speed;
  Samples setup_s, ingest_mpps, query_ms, sync_ms;
  double sync_kib_per_epoch = 0;
  double hh_f1 = 0, hh_are = 0;
  uint64_t answer_digest = 0;
  uint64_t passes = 0;
  std::vector<std::pair<std::string, double>> layer;

  void Layer(const std::string& name, double value) {
    layer.emplace_back(name, value);
  }
};

double Seconds(int64_t t0, int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}
double Millis(int64_t t0, int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

// Both clocks at one instant. Metrics use the thread CPU time (see
// ThreadCpuNs); the wall time only compares traced with untraced passes.
struct Stamp {
  int64_t wall = NowNs();
  int64_t cpu = ThreadCpuNs();
};

double Mpps(size_t packets, int64_t ns) {
  return static_cast<double>(packets) / (static_cast<double>(ns) * 1e-3);
}

std::vector<Packet> MakeTrace(coco::trace::TraceConfig config, uint64_t seed) {
  config.seed = seed;
  return coco::trace::GenerateTrace(config);
}

// Exact per-partial-key heavy hitters for the six default keys.
struct GroundTruth {
  std::vector<coco::keys::TupleKeySpec> specs =
      coco::keys::TupleKeySpec::DefaultSix();
  std::vector<coco::query::FlowTable<DynKey>> heavy;
  uint64_t threshold = 0;

  explicit GroundTruth(const coco::trace::ExactCounter<FiveTuple>& truth)
      : threshold(static_cast<uint64_t>(
            kHeavyFraction * static_cast<double>(truth.Total()))) {
    for (const auto& spec : specs) {
      heavy.push_back(coco::query::FilterThreshold(
          truth.Aggregate(spec).counts(), threshold));
    }
  }

  // What query::ScoreHeavyHittersPerKey computes, with the exact side
  // aggregated once instead of once per scored answer. The scorer skips
  // true sizes below the threshold, so the heavy entries are all it reads.
  // One entry per key.
  std::vector<coco::metrics::Accuracy> Score(const Table& table) const {
    std::vector<coco::metrics::Accuracy> scores;
    for (size_t i = 0; i < specs.size(); ++i) {
      scores.push_back(coco::metrics::ScoreThreshold(
          coco::query::Aggregate(table, specs[i]), heavy[i], threshold));
    }
    return scores;
  }
};

// ---- Workload base -----------------------------------------------------------

class Workload {
 public:
  explicit Workload(uint64_t seed)
      : seeds_(Seeds::From(seed)), mix_(QueryMix()) {}
  virtual ~Workload() = default;

  // Trace, ground truth, per-agent inputs, and construction of the objects a
  // pass uses. Idempotent: Run() calls it several times.
  virtual void Setup() = 0;
  // One untimed pass: fixes the reference answers and scores accuracy.
  virtual void WarmUp(Report& r) = 0;
  // One measured pass. Returns the seconds spent inside timed calls. With
  // the tracer on it records spans and the per-layer readings.
  virtual double Pass(Tracer& tracer, Report& r) = 0;
  // Passes needed for the sample counts the metrics require.
  virtual size_t MinPasses() const = 0;
  virtual bool HasSyncStage() const { return true; }
  // Spans under these roots feed the per-layer metrics.
  virtual uint32_t UpdateRoot() const = 0;
  virtual uint32_t MergeRoot() const { return kRootReplay; }
  virtual uint32_t DecodeRoot() const { return kRootStatement; }
  virtual uint32_t QueryRoot() const { return kRootStatement; }
  virtual uint32_t NetRoot() const { return kRootSync; }
  virtual bool NeedsScaleoutProbe() const { return true; }
  // Wall time in the workload's path not covered by any layer span.
  virtual double UnattributedShare(const Tracer& tracer) const = 0;
  // The path's final answer for another seed set, computed untimed.
  virtual Table Answer(const Seeds& seeds, Report& r) = 0;
  // Answers scored for accuracy. One answer's ARE hinges on a few heavy
  // flows that lose their buckets, so it swings by tens of percent from
  // seed to seed; the mean over several sketch seeds does not.
  virtual int AccuracyAnswers() const { return 8; }

  // hh_f1 / hh_are: heavy hitters at 1e-4 of the traffic, averaged over the
  // six default partial keys and over AccuracyAnswers() answers — the run's
  // own (`own`) and answers of the same path under derived seeds.
  void ScoreAccuracy(const Table& own, Report& r) {
    const int answers = AccuracyAnswers();
    std::vector<coco::metrics::Accuracy> per_key(truth_->specs.size());
    for (int k = 0; k < answers; ++k) {
      const auto scores = k == 0
                              ? truth_->Score(own)
                              : truth_->Score(Answer(seeds_.ForAnswer(k), r));
      for (size_t i = 0; i < scores.size(); ++i) {
        per_key[i].f1 += scores[i].f1 / answers;
        per_key[i].are += scores[i].are / answers;
        per_key[i].true_count = scores[i].true_count;
      }
    }
    for (size_t i = 0; i < per_key.size(); ++i) {
      std::printf("accuracy: %-16s heavy %-6zu F1 %.5f  ARE %.5f\n",
                  truth_->specs[i].name().c_str(), per_key[i].true_count,
                  per_key[i].f1, per_key[i].are);
    }
    const coco::metrics::Accuracy mean = coco::metrics::MeanAccuracy(per_key);
    r.hh_f1 = mean.f1;
    r.hh_are = mean.are;
    r.answer_digest = Digest(own);
  }

  const std::vector<Packet>& trace() const { return trace_; }

  // One pass of the sync stage: the workload's packets into one sketch per
  // vantage point, each epoch shipped to the collector over the loopback
  // hub. Returns the digest of the collector's final decode.
  uint64_t SyncPass(Tracer& tracer, Report& r, bool record) {
    r.speed.Measure();
    NetRun net(sync_, seeds_);
    Tracer untraced(false);
    for (size_t e = 0; e < net.epochs(); ++e) {
      net.Ingest(e, untraced);
      tracer.NextTraceId();
      bool synced = false;
      const Stamp t0;
      {
        Scope root(tracer, kRootSync);
        synced = net.Sync(tracer);
      }
      const Stamp t1;
      if (record) r.sync_ms.AddTime(Millis(t0.cpu, t1.cpu), r.speed.Slowness());
      r.checks.Expect(synced, "agents sync every epoch");
      net.CheckEpoch(r.checks);
    }
    RecordSyncBytes(net, r, record);
    if (tracer.enabled()) RecordNetLayer(net);
    return Digest(net.collector().DecodeMerged());
  }

  // Layer probes outside the workload's own path, run in the traced run.
  void Probes(Tracer& tracer, Report& r) {
    for (int i = 0; i < kProbeReps; ++i) {
      tracer.NextTraceId();
      Scope root(tracer, kRootProbe);
      ProbeSlots(trace_, kMemoryBytes, seeds_.sketch, tracer);
    }
    for (int i = 0; i < kProbeReps; ++i) {
      tracer.NextTraceId();
      Scope root(tracer, kRootProbe);
      bool ok = false;
      handoff_mpps_.push_back(ProbeHandoff(trace_, 4096, 32, tracer, &ok));
      r.checks.Expect(ok, "ring handoff delivers every packet");
    }
    if (NeedsScaleoutProbe()) {
      for (int i = 0; i < kProbeReps; ++i) {
        tracer.NextTraceId();
        TracedScaleout(tracer, kRootProbe, r);
        const ReplayResult replay =
            Replay(trace_, ScaleoutConfigFor(seeds_), seeds_.merge, tracer);
        r.checks.Expect(replay.mass == total_, "replay conserves mass");
        if (MergeRoot() == kRootReplay) conflicts_ = replay.conflicts;
      }
    }
    if (HasSyncStage()) {
      r.checks.Expect(SyncPass(tracer, r, false) == sync_digest_,
                      "sync stage answer is deterministic");
    }
  }

  void LayerMetrics(const Tracer& tracer, Report& r) const {
    const LayerTotals steer = Totals(tracer, kRootReplay, kSteer);
    const LayerTotals ring = Totals(tracer, kRootReplay, kRing);
    const LayerTotals slots = Totals(tracer, kRootProbe, kSlots);
    const LayerTotals update = Totals(tracer, UpdateRoot(), kUpdate);
    const LayerTotals merge = Totals(tracer, MergeRoot(), kMerge);
    const LayerTotals decode = Totals(tracer, DecodeRoot(), kDecode);
    const LayerTotals parse = Totals(tracer, QueryRoot(), kParse);
    const LayerTotals execute = Totals(tracer, QueryRoot(), kExecute);
    const auto per_item = [](const LayerTotals& t) {
      return t.items == 0 ? std::nan("")
                          : static_cast<double>(t.self_ns) /
                                static_cast<double>(t.items);
    };
    const auto per_span = [](const LayerTotals& t) {
      return t.count == 0 ? std::nan("")
                          : static_cast<double>(t.items) /
                                static_cast<double>(t.count);
    };
    r.Layer("ovs.steer_ns", per_item(steer));
    r.Layer("ovs.ring_ns", per_item(ring));
    r.Layer("ovs.handoff_mpps", Median(handoff_mpps_));
    r.Layer("ovs.datapath_mpps", Median(datapath_mpps_));
    r.Layer("ovs.shard_skew", shard_skew_);
    r.Layer("hash.slots_ns", per_item(slots));
    r.Layer("core.update_ns", per_item(update));
    r.Layer("core.pass1_hit_ratio", counts_.HitRatio());
    r.Layer("core.replacements_per_kpkt", counts_.ReplacementsPerKpkt());
    r.Layer("core.merge_ms", MedianNs(merge.durations, 1e-6));
    r.Layer("core.merge_conflicts", static_cast<double>(conflicts_));
    r.Layer("core.decode_ms", MedianNs(decode.durations, 1e-6));
    r.Layer("core.decode_entries", per_span(decode));
    r.Layer("query.parse_us", MedianNs(parse.durations, 1e-3));
    r.Layer("query.execute_ms", MedianNs(execute.durations, 1e-6));
    r.Layer("query.rows_out", per_span(execute));
    r.Layer("net.export_ms",
            MedianNs(PerTraceSums(tracer, NetRoot(), kExport), 1e-6));
    r.Layer("net.collector_tick_ms",
            MedianNs(PerTraceSums(tracer, NetRoot(), kCollectorTick), 1e-6));
    r.Layer("net.delta_ratio", net_.delta_ratio);
    r.Layer("net.retries", static_cast<double>(net_.retries));
    r.Layer("net.nacks", static_cast<double>(net_.nacks));
    r.Layer("ledger.unattributed_share", UnattributedShare(tracer));
  }

 protected:
  // Common set-up: trace and ground truth.
  void SetupTrace(const coco::trace::TraceConfig& config) {
    trace_ = MakeTrace(config, seeds_.trace);
    const coco::trace::ExactCounter<FiveTuple> counts =
        coco::trace::CountTrace(trace_);
    total_ = counts.Total();
    truth_ = std::make_unique<GroundTruth>(counts);
    texts_.clear();
    for (const MixEntry& entry : mix_) {
      texts_.push_back(StatementText(entry, HeavyThreshold(total_)));
    }
  }

  // Scale-out checks of one RunScaleout result.
  void CheckScaleout(const coco::ovs::ScaleoutResult& res, Report& r) const {
    r.checks.Expect(res.packets_processed == trace_.size(),
                    "scale-out processed every packet");
    r.checks.Expect(res.rx_dropped == 0, "scale-out dropped nothing");
    r.checks.Expect(res.total_sketch_mass == total_,
                    "scale-out sketch mass equals trace weight");
    r.checks.Expect(res.single_writer_ok, "scale-out single writer held");
  }

  // RunScaleout with the datapath's own registry, inside a span.
  coco::ovs::ScaleoutResult TracedScaleout(Tracer& tracer, uint32_t root,
                                           Report& r) {
    coco::obs::Registry registry;
    coco::ovs::ScaleoutConfig config = ScaleoutConfigFor(seeds_);
    config.registry = &registry;
    coco::ovs::ScaleoutResult res;
    {
      Scope s0(tracer, root, trace_.size());
      Scope s1(tracer, kScaleout, trace_.size());
      res = coco::ovs::RunScaleout(config, trace_);
    }
    CheckScaleout(res, r);
    datapath_mpps_.push_back(res.mpps);
    shard_skew_ = ShardSkew(registry, config.num_shards);
    return res;
  }

  // Reference rows for every statement of the mix over one decoded table,
  // and a check that the SQL front-end gives them.
  void FixReferences(const Table& table, Report& r) {
    refs_.clear();
    for (size_t i = 0; i < mix_.size(); ++i) {
      refs_.push_back(
          ReferenceRows(table, mix_[i], HeavyThreshold(total_)));
      std::string error;
      r.checks.Expect(
          RowsMatch(coco::query::sql::Query(texts_[i], table, &error),
                    refs_[i]),
          "statement rows equal the reference GROUP BY");
    }
  }

  void RecordSyncBytes(NetRun& net, Report& r, bool record) {
    const double kib = static_cast<double>(net.BytesReceived()) / 1024.0 /
                       static_cast<double>(net.epochs());
    if (!record) {
      sync_kib_ = kib;
      return;
    }
    r.checks.Expect(kib == sync_kib_, "sync bytes are deterministic");
    r.sync_kib_per_epoch = kib;
  }

  void RecordNetLayer(NetRun& net) {
    net_.delta_ratio = net.DeltaRatio();
    net_.retries = net.SumAgentCounter("frames_retried");
    net_.nacks = net.SumAgentCounter("nacks_received");
  }

  // Σ root self time over Σ root duration, for roots of the given names.
  static double RootSelfShare(const Tracer& tracer,
                              std::initializer_list<uint32_t> roots) {
    double self = 0, wall = 0;
    for (const Span& s : tracer.spans()) {
      if (s.parent >= 0) continue;
      if (std::find(roots.begin(), roots.end(), s.name) == roots.end()) {
        continue;
      }
      self += static_cast<double>(s.Self());
      wall += static_cast<double>(s.Duration());
    }
    return wall == 0 ? std::nan("") : self / wall;
  }

  Seeds seeds_;
  std::vector<MixEntry> mix_;
  std::vector<std::string> texts_;
  std::vector<Rows> refs_;
  std::vector<Packet> trace_;
  std::unique_ptr<GroundTruth> truth_;
  uint64_t total_ = 0;
  uint64_t digest_ = 0;
  NetInputs sync_;
  uint64_t sync_digest_ = 0;
  double sync_kib_ = 0;

  // Per-layer readings filled by traced passes and probes.
  std::vector<double> datapath_mpps_;
  std::vector<double> handoff_mpps_;
  double shard_skew_ = 0;
  SketchCounts counts_;
  uint64_t conflicts_ = 0;
  NetLayer net_;
};

// ---- ingest_caida: the switch path -------------------------------------------

class IngestCaida final : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    SetupTrace(coco::trace::TraceConfig::CaidaLike(kCaidaPackets));
    const coco::ovs::ScaleoutConfig config = ScaleoutConfigFor(seeds_);
    const coco::ovs::FlowSteering steering(config.steering_seed,
                                           config.num_shards);
    sync_ = NetInputs::Split(
        trace_, config.num_shards, kMemoryBytes / config.num_shards,
        kSyncEpochs,
        [&](size_t, const Packet& p) { return steering.Shard(p.key); });
    NetRun construct(sync_, seeds_);
  }

  void WarmUp(Report& r) override {
    const coco::ovs::ScaleoutResult res =
        coco::ovs::RunScaleout(ScaleoutConfigFor(seeds_), trace_);
    CheckScaleout(res, r);
    digest_ = Digest(res.merged_table);
    FixReferences(res.merged_table, r);
    ScoreAccuracy(res.merged_table, r);
    Tracer untraced(false);
    sync_digest_ = SyncPass(untraced, r, false);
  }

  double Pass(Tracer& tracer, Report& r) override {
    r.speed.Measure();
    tracer.NextTraceId();
    coco::ovs::ScaleoutResult res;
    // Four threads keep every CPU busy, so thread CPU time cannot time
    // this call; its wall time, less the steal on the CPUs, can.
    const StealSample s0 = StealSample::Read();
    const int64_t t0 = NowNs();
    if (tracer.enabled()) {
      res = TracedScaleout(tracer, kRootIngest, r);
    } else {
      res = coco::ovs::RunScaleout(ScaleoutConfigFor(seeds_), trace_);
    }
    const int64_t t1 = NowNs();
    const StealSample s1 = StealSample::Read();
    double timed = Seconds(t0, t1);
    r.ingest_mpps.AddRate(
        Mpps(trace_.size(), WallMinusStealNs(t1 - t0, s0, s1)),
        r.speed.Slowness());
    if (!tracer.enabled()) CheckScaleout(res, r);
    r.checks.Expect(Digest(res.merged_table) == digest_,
                    "scale-out answer is deterministic");
    if (tracer.enabled()) {
      const ReplayResult replay =
          Replay(trace_, ScaleoutConfigFor(seeds_), seeds_.merge, tracer);
      r.checks.Expect(replay.mass == total_, "replay conserves mass");
      conflicts_ = replay.conflicts;
      counts_ = replay.counts;
    }
    for (size_t i = 0; i < mix_.size(); ++i) {
      tracer.NextTraceId();
      std::optional<coco::query::sql::Result> result;
      std::string error;
      const Stamp q0;
      {
        Scope root(tracer, kRootStatement);
        result = tracer.enabled()
                     ? TracedQuery(tracer, texts_[i], res.merged_table)
                     : coco::query::sql::Query(texts_[i], res.merged_table,
                                               &error);
      }
      const Stamp q1;
      timed += Seconds(q0.wall, q1.wall);
      r.query_ms.AddTime(Millis(q0.cpu, q1.cpu), r.speed.Slowness());
      r.checks.Expect(result.has_value(), "statement parses");
      r.checks.Expect(RowsMatch(result, refs_[i]),
                      "statement rows equal the reference GROUP BY");
    }
    return timed;
  }

  Table Answer(const Seeds& seeds, Report& r) override {
    coco::ovs::ScaleoutResult res =
        coco::ovs::RunScaleout(ScaleoutConfigFor(seeds), trace_);
    CheckScaleout(res, r);
    return std::move(res.merged_table);
  }

  size_t MinPasses() const override {
    return (kMinStatements + mix_.size() - 1) / mix_.size();
  }
  uint32_t UpdateRoot() const override { return kRootReplay; }
  uint32_t DecodeRoot() const override { return kRootReplay; }
  bool NeedsScaleoutProbe() const override { return false; }

  // RunScaleout's wall time minus the replay's layer self times along the
  // blocking steps: steering, the slowest shard's ring + update, merge and
  // decode. The pass with the median share is printed as the ledger; its
  // parts add up to its wall time.
  double UnattributedShare(const Tracer& tracer) const override {
    struct Parts {
      int64_t wall = 0, steer = 0, merge = 0, decode = 0;
      std::map<uint32_t, std::pair<int64_t, int64_t>> lanes;  // ring, update
      int64_t ring = 0, update = 0;  // of the slowest lane
      double share = 0;
    };
    std::map<uint64_t, Parts> by_pass;
    const auto& spans = tracer.spans();
    for (const Span& s : spans) {
      const uint32_t root = spans[s.root].name;
      Parts& p = by_pass[s.trace_id];
      if (root == kRootIngest && s.name == kScaleout) p.wall = s.Duration();
      if (root != kRootReplay) continue;
      if (s.name == kSteer) p.steer += s.Self();
      if (s.name == kRing) p.lanes[s.lane].first += s.Self();
      if (s.name == kUpdate) p.lanes[s.lane].second += s.Self();
      if (s.name == kMerge) p.merge += s.Self();
      if (s.name == kDecode) p.decode += s.Self();
    }
    std::vector<Parts> passes;
    for (auto& [id, p] : by_pass) {
      if (p.wall == 0 || p.lanes.empty()) continue;
      for (const auto& [lane, ns] : p.lanes) {
        if (ns.first + ns.second > p.ring + p.update) {
          p.ring = ns.first;
          p.update = ns.second;
        }
      }
      p.share = static_cast<double>(p.wall - p.steer - p.ring - p.update -
                                    p.merge - p.decode) /
                static_cast<double>(p.wall);
      passes.push_back(p);
    }
    if (passes.empty()) return std::nan("");
    std::sort(passes.begin(), passes.end(),
              [](const Parts& a, const Parts& b) { return a.share < b.share; });
    const Parts& m = passes[passes.size() / 2];
    std::printf(
        "ledger: RunScaleout wall %.2f ms = steer %.2f + slowest shard ring "
        "%.2f + update %.2f + merge %.2f + decode %.2f + unattributed %.2f "
        "(median of %zu passes)\n",
        m.wall * 1e-6, m.steer * 1e-6, m.ring * 1e-6, m.update * 1e-6,
        m.merge * 1e-6, m.decode * 1e-6,
        (m.wall - m.steer - m.ring - m.update - m.merge - m.decode) * 1e-6,
        passes.size());
    return m.share;
  }
};

// ---- query_caida: the console path -------------------------------------------

class QueryCaida final : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    SetupTrace(coco::trace::TraceConfig::CaidaLike(kCaidaPackets));
    sync_ = NetInputs::Split(trace_, 1, kMemoryBytes, kSyncEpochs,
                             [](size_t, const Packet&) { return size_t{0}; });
    Sketch construct(kMemoryBytes, kD, seeds_.sketch);
    NetRun construct_net(sync_, seeds_);
  }

  void WarmUp(Report& r) override {
    Sketch sketch(kMemoryBytes, kD, seeds_.sketch);
    sketch.UpdateBatch(trace_.data(), trace_.size());
    r.checks.Expect(sketch.TotalValue() == total_,
                    "sketch mass equals trace weight");
    const Table table = sketch.Decode();
    digest_ = Digest(table);
    FixReferences(table, r);
    ScoreAccuracy(table, r);
    Tracer untraced(false);
    sync_digest_ = SyncPass(untraced, r, false);
  }

  double Pass(Tracer& tracer, Report& r) override {
    r.speed.Measure();
    Sketch sketch(kMemoryBytes, kD, seeds_.sketch);
    tracer.NextTraceId();
    const Stamp t0;
    {
      Scope root(tracer, kRootIngest, trace_.size());
      Scope s(tracer, kUpdate, trace_.size());
      sketch.UpdateBatch(trace_.data(), trace_.size());
    }
    const Stamp t1;
    double timed = Seconds(t0.wall, t1.wall);
    r.ingest_mpps.AddRate(Mpps(trace_.size(), t1.cpu - t0.cpu),
                          r.speed.Slowness());
    r.checks.Expect(sketch.TotalValue() == total_,
                    "sketch mass equals trace weight");
    if (tracer.enabled()) {
      counts_ = SketchCounts();
      counts_.Add(sketch);
    }
    for (size_t i = 0; i < mix_.size(); ++i) {
      tracer.NextTraceId();
      Table table;
      std::optional<coco::query::sql::Result> result;
      std::string error;
      const Stamp q0;
      {
        Scope root(tracer, kRootStatement);
        {
          Scope s(tracer, kDecode);
          table = sketch.Decode();
          s.SetItems(table.size());
        }
        result = tracer.enabled()
                     ? TracedQuery(tracer, texts_[i], table)
                     : coco::query::sql::Query(texts_[i], table, &error);
      }
      const Stamp q1;
      timed += Seconds(q0.wall, q1.wall);
      r.query_ms.AddTime(Millis(q0.cpu, q1.cpu), r.speed.Slowness());
      r.checks.Expect(Digest(table) == digest_, "decode is deterministic");
      r.checks.Expect(result.has_value(), "statement parses");
      r.checks.Expect(RowsMatch(result, refs_[i]),
                      "statement rows equal the reference GROUP BY");
    }
    return timed;
  }

  Table Answer(const Seeds& seeds, Report& r) override {
    Sketch sketch(kMemoryBytes, kD, seeds.sketch);
    sketch.UpdateBatch(trace_.data(), trace_.size());
    r.checks.Expect(sketch.TotalValue() == total_,
                    "sketch mass equals trace weight");
    return sketch.Decode();
  }
  // A monolithic sketch misses a heavy flow about once per answer, and
  // each miss moves ARE by ~1/800: averaging needs many cheap answers.
  int AccuracyAnswers() const override { return 128; }

  size_t MinPasses() const override {
    return (kMinStatements + mix_.size() - 1) / mix_.size();
  }
  uint32_t UpdateRoot() const override { return kRootIngest; }

  double UnattributedShare(const Tracer& tracer) const override {
    return RootSelfShare(tracer, {kRootIngest, kRootStatement});
  }
};

// ---- netwide_mawi: the network-wide path ---------------------------------------

class NetwideMawi final : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    SetupTrace(coco::trace::TraceConfig::MawiLike(kMawiPackets));
    // Round-robin over the vantage points: every flow is seen by several
    // agents, so the collector's merge resolves real overlaps.
    sync_ = NetInputs::Split(
        trace_, kNetAgents, kMemoryBytes, kNetEpochs,
        [](size_t i, const Packet&) { return i % kNetAgents; });
    NetRun construct(sync_, seeds_);
  }

  // Statement of epoch e: the mix in turn, threshold 1e-4 of the weight
  // ingested so far.
  void WarmUp(Report& r) override {
    NetRun net(sync_, seeds_);
    Tracer untraced(false);
    texts_.clear();
    refs_.clear();
    for (size_t e = 0; e < net.epochs(); ++e) {
      const MixEntry& entry = mix_[e % mix_.size()];
      const uint64_t threshold = HeavyThreshold(net.mass_after(e));
      texts_.push_back(StatementText(entry, threshold));
      net.Ingest(e, untraced);
      r.checks.Expect(net.Sync(untraced), "agents sync every epoch");
      const Table table = net.collector().MergedSketch().Decode();
      refs_.push_back(ReferenceRows(table, entry, threshold));
      std::string error;
      r.checks.Expect(
          RowsMatch(coco::query::sql::Query(texts_[e], table, &error),
                    refs_[e]),
          "statement rows equal the reference GROUP BY");
      net.CheckEpoch(r.checks);
    }
    RecordSyncBytes(net, r, false);
    const Table answer = net.collector().DecodeMerged();
    digest_ = Digest(answer);
    ScoreAccuracy(answer, r);
  }

  double Pass(Tracer& tracer, Report& r) override {
    NetRun net(sync_, seeds_);
    double timed = 0;
    for (size_t e = 0; e < net.epochs(); ++e) {
      if (e % 12 == 0) r.speed.Measure();
      tracer.NextTraceId();
      std::optional<coco::query::sql::Result> result;
      std::string error;
      bool synced = false;
      Stamp t0, t1, t2, t3;
      {
        Scope root(tracer, kRootEpoch);
        t0 = Stamp();
        net.Ingest(e, tracer);
        t1 = Stamp();
        synced = net.Sync(tracer);
        t2 = Stamp();
        if (tracer.enabled()) {
          std::optional<Sketch> merged;
          {
            Scope s(tracer, kMerge);
            merged.emplace(net.collector().MergedSketch());
          }
          Table table;
          {
            Scope s(tracer, kDecode);
            table = merged->Decode();
            s.SetItems(table.size());
          }
          result = TracedQuery(tracer, texts_[e], table);
        } else {
          result = net.collector().Query(texts_[e], &error);
        }
        t3 = Stamp();
      }
      const double slowness = r.speed.Slowness();
      r.ingest_mpps.AddRate(Mpps(net.epoch_packets(e), t1.cpu - t0.cpu),
                            slowness);
      timed += Seconds(t0.wall, t3.wall);
      r.sync_ms.AddTime(Millis(t1.cpu, t2.cpu), slowness);
      r.query_ms.AddTime(Millis(t2.cpu, t3.cpu), slowness);
      r.checks.Expect(synced, "agents sync every epoch");
      r.checks.Expect(result.has_value(), "statement parses");
      r.checks.Expect(RowsMatch(result, refs_[e]),
                      "statement rows equal the reference GROUP BY");
      net.CheckEpoch(r.checks);
    }
    RecordSyncBytes(net, r, true);
    if (tracer.enabled()) {
      RecordNetLayer(net);
      counts_ = SketchCounts();
      std::vector<const Sketch*> sources;
      for (const auto& sketch : net.sketches()) {
        counts_.Add(*sketch);
        sources.push_back(sketch.get());
      }
      Sketch merged(kMemoryBytes, kD, seeds_.sketch);
      coco::Rng rng(seeds_.merge);
      conflicts_ = coco::core::MergeAll(&merged, sources, &rng).conflicts;
    }
    r.checks.Expect(Digest(net.collector().DecodeMerged()) == digest_,
                    "network-wide answer is deterministic");
    return timed;
  }

  // The epoch loop without the per-epoch statements.
  Table Answer(const Seeds& seeds, Report& r) override {
    NetRun net(sync_, seeds);
    Tracer untraced(false);
    for (size_t e = 0; e < net.epochs(); ++e) {
      net.Ingest(e, untraced);
      r.checks.Expect(net.Sync(untraced), "agents sync every epoch");
    }
    return net.collector().DecodeMerged();
  }

  size_t MinPasses() const override { return 3; }
  bool HasSyncStage() const override { return false; }
  uint32_t UpdateRoot() const override { return kRootEpoch; }
  uint32_t MergeRoot() const override { return kRootEpoch; }
  uint32_t DecodeRoot() const override { return kRootEpoch; }
  uint32_t QueryRoot() const override { return kRootEpoch; }
  uint32_t NetRoot() const override { return kRootEpoch; }

  double UnattributedShare(const Tracer& tracer) const override {
    return RootSelfShare(tracer, {kRootEpoch});
  }
};

// ---- Run loop ------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <ingest_caida|query_caida|"
               "netwide_mawi> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file>]\n");
  return 2;
}

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  if (o.workload == "ingest_caida") return std::make_unique<IngestCaida>(o.seed);
  if (o.workload == "query_caida") return std::make_unique<QueryCaida>(o.seed);
  if (o.workload == "netwide_mawi") return std::make_unique<NetwideMawi>(o.seed);
  return nullptr;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        for (char& c : model) {
          if (c == '"' || c == '\\') c = ' ';
        }
        return model;
      }
    }
  }
  return "unknown";
}

std::string HostJson(const Workload& w) {
  const char* simd = std::getenv("COCO_SIMD");
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"cores\":%u,\"cpu\":\"%s\",\"coco_simd\":\"%s\","
                "\"build_type\":\"%s\",\"trace_packets\":%zu}",
                std::thread::hardware_concurrency(), CpuModel().c_str(),
                simd == nullptr ? "unset" : simd, E2E_BUILD_TYPE,
                w.trace().size());
  return buf;
}

void AppendMetric(std::string* out, const std::string& name, double value) {
  char buf[128];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%.17g", name.c_str(), value);
  } else {
    std::snprintf(buf, sizeof(buf), "\"%s\":null", name.c_str());
  }
  if (out->back() != '{') *out += ",";
  *out += buf;
}

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int Run(const Options& o) {
  std::unique_ptr<Workload> w = MakeWorkload(o);
  if (!w) return Usage();
  Report r;
  for (int i = 0; i < kSetupReps; ++i) {
    for (int k = 0; k < 3; ++k) r.speed.Measure();
    const int64_t t0 = ThreadCpuNs();
    w->Setup();
    r.setup_s.AddTime(Seconds(t0, ThreadCpuNs()), r.speed.Slowness());
  }
  w->WarmUp(r);

  Tracer untraced(false);
  Tracer traced(o.trace);
  const int64_t start = NowNs();
  const auto elapsed = [&] { return Seconds(start, NowNs()); };
  std::vector<double> plain_s, traced_s;
  if (!o.trace) {
    // Sync-stage passes interleave with the workload's passes, a quarter
    // of the time, so both sample the whole run.
    double pass_s = 0, sync_s = 0;
    size_t sync_passes = 0;
    while ((elapsed() < o.seconds || r.passes < w->MinPasses() ||
            (w->HasSyncStage() && sync_passes == 0)) &&
           elapsed() < kMeasureCapSeconds) {
      const double t0 = elapsed();
      if (w->HasSyncStage() && sync_s < pass_s / 3) {
        w->SyncPass(untraced, r, true);
        ++sync_passes;
        sync_s += elapsed() - t0;
      } else {
        w->Pass(untraced, r);
        ++r.passes;
        pass_s += elapsed() - t0;
      }
    }
  } else {
    // Untraced and traced passes alternate, so host drift affects both
    // sides of the tracing overhead alike; probes take the remaining time.
    while ((elapsed() < 0.6 * o.seconds || traced_s.size() < 3) &&
           elapsed() < kMeasureCapSeconds) {
      plain_s.push_back(w->Pass(untraced, r));
      traced_s.push_back(w->Pass(traced, r));
      ++r.passes;
    }
    w->Probes(traced, r);
    w->LayerMetrics(traced, r);
    r.Layer("ledger.trace_overhead", Median(traced_s) / Median(plain_s));
  }

  const std::string host = HostJson(*w);
  std::printf("host: %s\n", host.c_str());
  const auto print_spread = [](const char* name, const std::vector<double>& v) {
    if (v.empty()) return;
    std::printf("samples: %-20s n=%-5zu min %.4g  q1 %.4g  median %.4g  "
                "q3 %.4g  max %.4g\n",
                name, v.size(), Quantile(v, 0), Quantile(v, 0.25),
                Quantile(v, 0.5), Quantile(v, 0.75), Quantile(v, 1));
  };
  std::vector<double> slowness;
  for (const double ns : r.speed.kernel_ns()) {
    slowness.push_back(ns / HostSpeed::kNominalNs);
  }
  print_spread("host_slowness", slowness);
  for (const auto& [name, samples] :
       {std::pair<const char*, const Samples*>{"setup_s", &r.setup_s},
        {"ingest_mpps", &r.ingest_mpps},
        {"query_ms", &r.query_ms},
        {"sync_ms", &r.sync_ms}}) {
    print_spread((std::string(name) + " raw").c_str(), samples->raw);
    print_spread((std::string(name) + " scaled").c_str(), samples->scaled);
  }
  if (o.trace && !o.spans.empty()) {
    if (!traced.WriteJsonLines(o.spans, host)) {
      std::fprintf(stderr, "cannot write spans to %s\n", o.spans.c_str());
      return 2;
    }
  }

  const double ok_frac =
      r.checks.attempted == 0
          ? 0.0
          : 1.0 - static_cast<double>(r.checks.failed) /
                      static_cast<double>(r.checks.attempted);
  std::string metrics = "{";
  if (!o.trace) {
    AppendMetric(&metrics, "ingest_mpps",
                 BlockedQuantile(r.ingest_mpps.scaled, 0.5, kMinBlockMedian));
    AppendMetric(&metrics, "query_ms_p50",
                 BlockedQuantile(r.query_ms.scaled, 0.5, kMinBlockMedian));
    AppendMetric(&metrics, "query_ms_p90",
                 BlockedQuantile(r.query_ms.scaled, 0.9, kMinBlockP90));
    AppendMetric(&metrics, "hh_f1", r.hh_f1);
    AppendMetric(&metrics, "hh_are", r.hh_are);
    AppendMetric(&metrics, "ok_frac", ok_frac);
    AppendMetric(&metrics, "setup_s", Median(r.setup_s.scaled));
    AppendMetric(&metrics, "peak_rss_mb", PeakRssMib());
    AppendMetric(&metrics, "sync_ms_p50",
                 BlockedQuantile(r.sync_ms.scaled, 0.5, kMinBlockMedian));
    AppendMetric(&metrics, "sync_ms_p90",
                 BlockedQuantile(r.sync_ms.scaled, 0.9, kMinBlockP90));
    AppendMetric(&metrics, "sync_kib_per_epoch", r.sync_kib_per_epoch);
  } else {
    for (const auto& [name, value] : r.layer) {
      AppendMetric(&metrics, name, value);
    }
  }
  metrics += "}";
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"attempted\":%llu,"
      "\"failed\":%llu,\"metrics\":%s,\"samples\":{\"passes\":%llu,"
      "\"ingest\":%zu,\"statements\":%zu,\"sync_epochs\":%zu},"
      "\"answer_digest\":\"%016llx\",\"hh_f1\":%.17g,\"hh_are\":%.17g,"
      "\"sync_kib_per_epoch\":%.17g,\"host\":%s}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, static_cast<unsigned long long>(r.checks.attempted),
      static_cast<unsigned long long>(r.checks.failed), metrics.c_str(),
      static_cast<unsigned long long>(r.passes), r.ingest_mpps.size(),
      r.query_ms.size(), r.sync_ms.size(),
      static_cast<unsigned long long>(r.answer_digest), r.hh_f1, r.hh_are,
      r.sync_kib_per_epoch, host.c_str());
  return r.checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && o.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      o.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      o.spans = value;
    } else {
      return e2e::Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace) {
    return e2e::Usage();
  }
  return e2e::Run(o);
}
