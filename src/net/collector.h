// Network-wide collector: validates agent sync frames, maintains one replica
// sketch per agent, and serves partial-key queries over the sketch-level
// merge of all replicas (docs/NETWIDE.md).
//
// Validation gauntlet — a frame mutates state only after surviving all of:
//   1. frame checksum + version (net/frame.h; garbage is skipped & counted);
//   2. state-image / delta structural validation against the replica's
//      geometry AND hash seed (core/state_image.h, net/delta.h) — a
//      foreign-seed payload maps mass onto the wrong buckets, so it is
//      rejected and counted (net.collector.seed_mismatches), never applied;
//   3. epoch admission: epochs at or below the replica's are duplicates
//      (re-acked, not applied); a delta whose base epoch is ahead of the
//      replica is a gap (nacked — the agent falls back to a full image);
//   4. conservation: before a delta writes anything, its mass arithmetic
//      (the replica's tracked mass, minus each entry's old bucket value,
//      plus its new one) must equal the mass the agent reported in the
//      payload; only then are the entries written in place. A mismatch
//      leaves the replica untouched and nacks.
// A corrupt or stale frame is therefore rejected and re-requested, never
// merged.
//
// Queries: MergedSketch() folds every replica into a fresh sketch via
// core::MergeSketches, with conflict coins from a fresh Rng(merge_seed), so
// the same replicas always merge the same way; Query() runs the §4.3 SQL
// front-end over the merged decode. Everything is instrumented through obs
// (frames by outcome, bytes, merge latency, conservation).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/merge.h"
#include "net/delta.h"
#include "net/frame.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "query/sql.h"

namespace coco::net {

template <typename Sketch>
class Collector {
 public:
  struct Options {
    size_t memory_bytes = 0;
    size_t d = 2;
    // Must match the agents' sketch seed. Defaults to the per-process
    // entropy seed, which is right for in-process tests; real multi-process
    // deployments share the seed explicitly (COCO_SEED or configuration).
    uint64_t seed = ProcessSeed();
    uint32_t heartbeat_timeout_ticks = 64;
    uint64_t merge_seed = 0x6e7c0c0;
  };

  Collector(const Options& options, CollectorTransport* transport,
            obs::Registry* registry)
      : options_(options), transport_(transport) {
    COCO_CHECK(transport != nullptr && registry != nullptr,
               "Collector needs a transport and a registry");
    COCO_CHECK(options.memory_bytes > 0, "collector needs the sketch geometry");
    frames_ok_ = registry->GetCounter("net.collector.frames_ok");
    fulls_applied_ = registry->GetCounter("net.collector.fulls_applied");
    deltas_applied_ = registry->GetCounter("net.collector.deltas_applied");
    dups_ = registry->GetCounter("net.collector.frames_duplicate");
    rejected_ = registry->GetCounter("net.collector.frames_rejected");
    conservation_failures_ =
        registry->GetCounter("net.collector.conservation_failures");
    seed_mismatches_ = registry->GetCounter("net.collector.seed_mismatches");
    acks_sent_ = registry->GetCounter("net.collector.acks_sent");
    nacks_sent_ = registry->GetCounter("net.collector.nacks_sent");
    heartbeats_ = registry->GetCounter("net.collector.heartbeats_received");
    missed_heartbeats_ =
        registry->GetCounter("net.collector.heartbeats_missed");
    bytes_received_ = registry->GetCounter("net.collector.bytes_received");
    bad_bytes_ = registry->GetGauge("net.collector.bad_bytes");
    agents_known_ = registry->GetGauge("net.collector.agents_known");
    agents_alive_ = registry->GetGauge("net.collector.agents_alive");
    mass_reported_ = registry->GetGauge("net.collector.mass_reported");
    mass_merged_ = registry->GetGauge("net.collector.mass_merged");
    delta_entries_ = registry->GetHistogram("net.collector.delta_entries");
    merge_latency_us_ =
        registry->GetHistogram("net.collector.merge_latency_us");
  }

  // Drains and processes every pending frame, then advances liveness clocks.
  void Tick() {
    transport_->Tick();
    std::vector<uint8_t> raw;
    while (transport_->Receive(&raw)) {
      bytes_received_->Add(raw.size());
      reader_.Feed(raw);
      while (auto frame = reader_.Next()) HandleFrame(*frame);
    }
    bad_bytes_->Set(static_cast<double>(reader_.bad_bytes()));
    size_t alive = 0;
    for (auto& [id, agent] : agents_) {
      if (++agent.ticks_since_heard == options_.heartbeat_timeout_ticks) {
        missed_heartbeats_->Add();
      }
      alive += agent.ticks_since_heard < options_.heartbeat_timeout_ticks;
    }
    agents_known_->Set(static_cast<double>(agents_.size()));
    agents_alive_->Set(static_cast<double>(alive));
  }

  // Sketch-level merge of every replica, in agent-id order. Every merge
  // draws its conflict coins from a fresh Rng(merge_seed), so the result
  // depends only on the replicas and the merge seed. Records this merge's
  // saturation clamps for CheckConservation.
  Sketch MergedSketch() {
    const auto start = std::chrono::steady_clock::now();
    Sketch merged(options_.memory_bytes, options_.d, options_.seed);
    Rng rng(options_.merge_seed);
    merge_saturated_ = 0;
    for (auto& [id, agent] : agents_) {
      if (!agent.replica) continue;
      const core::MergeStats stats =
          core::MergeSketches(&merged, *agent.replica, &rng);
      COCO_CHECK(stats.ok, "replica geometry drifted from collector options");
      merge_saturated_ += stats.saturated;
    }
    merge_latency_us_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    mass_merged_->Set(static_cast<double>(merged.TotalValue()));
    return merged;
  }

  // The network-wide flow table: merged sketch, decoded.
  auto DecodeMerged() { return MergedSketch().Decode(); }

  // §4.3 SQL over the union of all vantage points. Only instantiated for
  // FiveTuple-keyed sketches (the SQL front-end's key type).
  std::optional<query::sql::Result> Query(const std::string& sql,
                                          std::string* error) {
    return query::sql::Query(sql, DecodeMerged(), error);
  }

  struct Conservation {
    uint64_t reported_mass = 0;  // sum of agents' self-reported totals
    uint64_t replica_mass = 0;   // sum of replica TotalValue()s
    uint64_t merged_mass = 0;    // TotalValue() of the merged sketch
    uint64_t saturated = 0;      // merge clamps (the only legal discrepancy)
    bool Holds() const {
      return reported_mass == replica_mass &&
             (saturated != 0 || merged_mass == replica_mass);
    }
  };

  Conservation CheckConservation() {
    Conservation c;
    for (auto& [id, agent] : agents_) {
      if (!agent.replica) continue;
      c.reported_mass += agent.reported_mass;
      c.replica_mass += agent.replica->TotalValue();
    }
    c.merged_mass = MergedSketch().TotalValue();
    c.saturated = merge_saturated_;
    mass_reported_->Set(static_cast<double>(c.reported_mass));
    return c;
  }

  size_t AgentCount() const { return agents_.size(); }
  uint64_t LastEpochOf(uint32_t agent_id) const {
    auto it = agents_.find(agent_id);
    return it == agents_.end() ? 0 : it->second.last_epoch;
  }

 private:
  struct AgentState {
    std::unique_ptr<Sketch> replica;
    uint64_t last_epoch = 0;
    // The replica's TotalValue(): set from it after a full image, and to the
    // checked total after a delta. CheckConservation() recomputes the real
    // one, so any drift fails it.
    uint64_t reported_mass = 0;
    uint32_t ticks_since_heard = 0;
  };

  AgentState& Touch(uint32_t agent_id) {
    AgentState& agent = agents_[agent_id];
    agent.ticks_since_heard = 0;
    return agent;
  }

  void HandleFrame(const Frame& frame) {
    frames_ok_->Add();
    AgentState& agent = Touch(frame.agent_id);
    switch (frame.type) {
      case FrameType::kHello: {
        // A seeded hello lets us flag a misconfigured agent at handshake
        // time. The nack is advisory (the agent will fail state admission
        // anyway); the counter is the operator's signal.
        uint64_t hello_seed = 0;
        if (DecodeHelloSeed(frame, &hello_seed) &&
            hello_seed != options_.seed) {
          seed_mismatches_->Add();
          Reply(FrameType::kNack, frame);
        }
        break;
      }
      case FrameType::kHeartbeat:
        heartbeats_->Add();
        break;
      case FrameType::kFullState:
        HandleFull(frame, &agent);
        break;
      case FrameType::kDelta:
        HandleDelta(frame, &agent);
        break;
      case FrameType::kAck:
      case FrameType::kNack:
        // Collector-originated types arriving inbound: hostile or confused
        // peer; drop.
        rejected_->Add();
        break;
    }
  }

  void HandleFull(const Frame& frame, AgentState* agent) {
    if (agent->replica && frame.epoch <= agent->last_epoch) {
      dups_->Add();
      Reply(FrameType::kAck, frame);
      return;
    }
    // Distinguish a foreign-seed image (misconfigured agent — silent-garbage
    // hazard) from structural corruption before RestoreState folds both into
    // one rejection.
    uint64_t img_d = 0, img_l = 0, img_seed = 0;
    if (core::PeekStateImageHeader(frame.payload, &img_d, &img_l, &img_seed) &&
        img_seed != options_.seed) {
      seed_mismatches_->Add();
      rejected_->Add();
      Reply(FrameType::kNack, frame);
      return;
    }
    if (!agent->replica) {
      agent->replica = std::make_unique<Sketch>(options_.memory_bytes,
                                                options_.d, options_.seed);
    }
    // RestoreState validates size/version/geometry/seed/checksum and leaves
    // the replica untouched on failure.
    if (!agent->replica->RestoreState(frame.payload)) {
      rejected_->Add();
      Reply(FrameType::kNack, frame);
      return;
    }
    agent->last_epoch = frame.epoch;
    agent->reported_mass = agent->replica->TotalValue();
    fulls_applied_->Add();
    Reply(FrameType::kAck, frame);
  }

  void HandleDelta(const Frame& frame, AgentState* agent) {
    if (agent->replica && frame.epoch <= agent->last_epoch) {
      dups_->Add();
      Reply(FrameType::kAck, frame);
      return;
    }
    DeltaInfo info;
    if (!agent->replica ||
        !PeekDeltaInfo<Sketch>(frame.payload, &info) ||
        info.base_epoch > agent->last_epoch) {
      // No baseline to apply onto (fresh collector, restarted agent, or a
      // gap the delta does not cover): demand a full image.
      rejected_->Add();
      Reply(FrameType::kNack, frame);
      return;
    }
    if (info.hash_seed != options_.seed) {
      // Bucket indices in the delta were computed under a different hash
      // seed; applying them would scatter the agent's mass over the wrong
      // key sets with no checksum to catch it. Reject loudly instead.
      seed_mismatches_->Add();
      rejected_->Add();
      Reply(FrameType::kNack, frame);
      return;
    }
    // A structurally-valid-but-inconsistent payload (conservation mismatch)
    // is refused before it writes, so it cannot poison the replica.
    const DeltaApply applied = ApplyDeltaPayload(
        frame.payload, agent->reported_mass, agent->replica.get(), &info);
    if (applied != DeltaApply::kApplied) {
      if (applied == DeltaApply::kMassMismatch) conservation_failures_->Add();
      rejected_->Add();
      Reply(FrameType::kNack, frame);
      return;
    }
    agent->last_epoch = frame.epoch;
    agent->reported_mass = info.total_value;
    deltas_applied_->Add();
    delta_entries_->Observe(info.entry_count);
    Reply(FrameType::kAck, frame);
  }

  void Reply(FrameType type, const Frame& inbound) {
    (type == FrameType::kAck ? acks_sent_ : nacks_sent_)->Add();
    transport_->SendTo(inbound.agent_id,
                       EncodeControlFrame(type, inbound.agent_id,
                                          inbound.epoch));
  }

  Options options_;
  CollectorTransport* transport_;
  FrameReader reader_;
  std::map<uint32_t, AgentState> agents_;  // ordered: deterministic merges
  uint64_t merge_saturated_ = 0;  // clamps of the last MergedSketch()

  obs::Counter* frames_ok_;
  obs::Counter* fulls_applied_;
  obs::Counter* deltas_applied_;
  obs::Counter* dups_;
  obs::Counter* rejected_;
  obs::Counter* conservation_failures_;
  obs::Counter* seed_mismatches_;
  obs::Counter* acks_sent_;
  obs::Counter* nacks_sent_;
  obs::Counter* heartbeats_;
  obs::Counter* missed_heartbeats_;
  obs::Counter* bytes_received_;
  obs::Gauge* bad_bytes_;
  obs::Gauge* agents_known_;
  obs::Gauge* agents_alive_;
  obs::Gauge* mass_reported_;
  obs::Gauge* mass_merged_;
  obs::Histogram* delta_entries_;
  obs::Histogram* merge_latency_us_;
};

}  // namespace coco::net
