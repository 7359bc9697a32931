// Measurement agent: wraps one vantage point's sketch and ships its state to
// the collector every epoch (docs/NETWIDE.md).
//
// Protocol (agent side):
//   * ExportEpoch() builds a sync frame — a dirty-bucket delta (net/delta.h)
//     covering everything since the last acknowledged epoch, or a full state
//     image when the collector demanded one (nack), nothing was ever acked,
//     or the delta would be no smaller than the full image — and sends it.
//   * Exactly one sync frame is in flight: an unacknowledged epoch is resent
//     after resend_after_ticks ticks, and superseded (its dirty bits ORed
//     back into the sketch's) when a new epoch is exported first.
//   * The dirty bitmap is snapshot-and-cleared at build time and forgotten
//     only on ack, so no bucket change can fall between two deltas regardless
//     of drops, reorders, or reconnects.
//   * Heartbeats go out every heartbeat_every_ticks ticks so the collector
//     can distinguish "idle agent" from "dead agent".
//
// Instrumented through obs: bytes/frames sent, deltas vs fulls, retries,
// nacks, and the delta-vs-full compression ratio per export.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "net/delta.h"
#include "net/frame.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace coco::net {

template <typename Sketch>
class Agent {
 public:
  struct Options {
    uint32_t id = 0;
    uint32_t resend_after_ticks = 8;
    uint32_t heartbeat_every_ticks = 16;
    uint64_t full_sync_every = 0;  // also send a full every N epochs (0: off)
  };

  Agent(const Options& options, Sketch* sketch, AgentTransport* transport,
        obs::Registry* registry)
      : options_(options), sketch_(sketch), transport_(transport) {
    COCO_CHECK(sketch != nullptr && transport != nullptr &&
                   registry != nullptr,
               "Agent needs a sketch, a transport, and a registry");
    sketch_->EnableDeltaTracking();
    const std::string p = "net.agent" + std::to_string(options.id) + ".";
    bytes_sent_ = registry->GetCounter(p + "bytes_sent");
    frames_sent_ = registry->GetCounter(p + "frames_sent");
    deltas_sent_ = registry->GetCounter(p + "deltas_sent");
    fulls_sent_ = registry->GetCounter(p + "fulls_sent");
    retries_ = registry->GetCounter(p + "frames_retried");
    acks_ = registry->GetCounter(p + "acks_received");
    nacks_ = registry->GetCounter(p + "nacks_received");
    heartbeats_ = registry->GetCounter(p + "heartbeats_sent");
    delta_bytes_ = registry->GetHistogram(p + "delta_bytes");
    delta_ratio_ = registry->GetGauge(p + "delta_ratio");
    epoch_gauge_ = registry->GetGauge(p + "epoch");
    // The hello announces the sketch's hash seed so a misconfigured agent
    // (different COCO_SEED / explicit seed than the collector) is flagged at
    // handshake time instead of after shipping an epoch of state.
    transport_->Send(EncodeHelloFrame(options_.id, sketch_->seed()));
  }

  // Closes out the current measurement epoch: builds and sends the sync
  // frame for everything recorded so far.
  void ExportEpoch() {
    ++epoch_;
    epoch_gauge_->Set(static_cast<double>(epoch_));
    if (pending_) SupersedePending();

    // The full image is sealed only when it is sent; the delta is compared
    // against its size, which the geometry fixes.
    const size_t full_bytes = sketch_->StateImageBytes();
    std::vector<uint8_t> payload;
    bool is_full = true;
    if (!need_full_ &&
        !(options_.full_sync_every != 0 &&
          epoch_ % options_.full_sync_every == 0)) {
      std::vector<uint8_t> delta =
          BuildDeltaPayload(*sketch_, last_acked_epoch_);
      delta_ratio_->Set(static_cast<double>(delta.size()) /
                        static_cast<double>(full_bytes));
      delta_bytes_->Observe(delta.size());
      if (delta.size() < full_bytes) {
        payload = std::move(delta);
        is_full = false;
      }
    }
    if (is_full) payload = BuildFullPayload(*sketch_);

    Frame frame;
    frame.type = is_full ? FrameType::kFullState : FrameType::kDelta;
    frame.agent_id = options_.id;
    frame.epoch = epoch_;
    frame.payload = std::move(payload);

    pending_ = Pending{};
    pending_->epoch = epoch_;
    pending_->bytes = EncodeFrame(frame);
    pending_->dirty_snapshot = sketch_->DirtyBits();
    pending_->is_full = is_full;
    sketch_->ClearDirtyFlags();
    (is_full ? fulls_sent_ : deltas_sent_)->Add();
    SendPending(/*retry=*/false);
  }

  // Drives the protocol between exports: replies, retries, heartbeats, and
  // transport upkeep (TCP reconnect backoff).
  void Tick() {
    transport_->Tick();
    DrainReplies();
    if (pending_) {
      if (!pending_->sent) {
        SendPending(/*retry=*/false);  // transport was down at export time
      } else if (++pending_->ticks_since_send >= options_.resend_after_ticks) {
        SendPending(/*retry=*/true);
      }
    }
    if (++ticks_since_heartbeat_ >= options_.heartbeat_every_ticks) {
      ticks_since_heartbeat_ = 0;
      heartbeats_->Add();
      SendFrame(EncodeControlFrame(FrameType::kHeartbeat, options_.id,
                                   epoch_));
    }
  }

  bool Synced() const { return !pending_.has_value(); }
  uint64_t epoch() const { return epoch_; }
  uint64_t last_acked_epoch() const { return last_acked_epoch_; }

 private:
  struct Pending {
    uint64_t epoch = 0;
    std::vector<uint8_t> bytes;
    std::vector<uint64_t> dirty_snapshot;
    bool is_full = false;
    bool sent = false;
    uint32_t ticks_since_send = 0;
  };

  void DrainReplies() {
    std::vector<uint8_t> raw;
    while (transport_->Receive(&raw)) {
      reader_.Feed(raw);
      while (auto frame = reader_.Next()) {
        if (frame->type == FrameType::kAck) {
          acks_->Add();
          if (pending_ && frame->epoch == pending_->epoch) {
            last_acked_epoch_ = pending_->epoch;
            pending_.reset();
            need_full_ = false;
          }
        } else if (frame->type == FrameType::kNack) {
          nacks_->Add();
          need_full_ = true;
          if (pending_) SupersedePending();
        }
      }
    }
  }

  // The pending epoch will never be acknowledged (a newer export replaces
  // it, or the collector nacked it): OR its dirty snapshot back so the next
  // delta still covers those buckets.
  void SupersedePending() {
    sketch_->MarkDirty(pending_->dirty_snapshot);
    pending_.reset();
  }

  void SendPending(bool retry) {
    if (retry) retries_->Add();
    pending_->ticks_since_send = 0;
    pending_->sent = SendFrame(pending_->bytes);
  }

  bool SendFrame(const std::vector<uint8_t>& bytes) {
    if (!transport_->Send(bytes)) return false;
    frames_sent_->Add();
    bytes_sent_->Add(bytes.size());
    return true;
  }

  Options options_;
  Sketch* sketch_;
  AgentTransport* transport_;
  FrameReader reader_;

  uint64_t epoch_ = 0;
  uint64_t last_acked_epoch_ = 0;
  bool need_full_ = true;  // nothing acked yet: first export is a full
  std::optional<Pending> pending_;
  uint32_t ticks_since_heartbeat_ = 0;

  obs::Counter* bytes_sent_;
  obs::Counter* frames_sent_;
  obs::Counter* deltas_sent_;
  obs::Counter* fulls_sent_;
  obs::Counter* retries_;
  obs::Counter* acks_;
  obs::Counter* nacks_;
  obs::Counter* heartbeats_;
  obs::Histogram* delta_bytes_;
  obs::Gauge* delta_ratio_;
  obs::Gauge* epoch_gauge_;
};

}  // namespace coco::net
