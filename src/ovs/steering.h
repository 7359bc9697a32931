// RSS-style flow steering for the multi-core datapath (DESIGN.md §7).
//
// shard = Lemire-reduce(Hash64(full key, steering seed)) — a pure function
// of (key, seed, num_shards), so the same flow always lands on the same
// shard, and every shard's sketch has exactly one writer: the shard's own
// worker. The steering seed is deliberately decoupled from the sketch hash
// seed: correlating the two would make the per-shard bucket distribution a
// function of the shard split, which the unbiasedness tests (and a
// white-box adversary) would notice.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "hash/bobhash.h"

namespace coco::ovs {

// Deterministic key -> shard map. Stateless beyond (seed, num_shards);
// callable concurrently from any number of threads.
class FlowSteering {
 public:
  FlowSteering(uint64_t seed, size_t num_shards)
      : seed_(seed ^ kSteerSalt), shards_(num_shards) {
    COCO_CHECK(num_shards >= 1, "steering needs at least one shard");
  }

  // Any key type exposing data()/size() (FiveTuple, IPv4Key, DynKey, ...).
  template <typename Key>
  size_t Shard(const Key& key) const {
    const uint64_t h = hash::Hash64(key.data(), key.size(), seed_);
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(h) * shards_) >> 64);
  }

 private:
  // Domain-separates the steering hash from the sketch's bucket hashes even
  // when a caller passes the same base seed to both.
  static constexpr uint64_t kSteerSalt = 0x5245454e47ULL;  // "STEERNG"

  uint64_t seed_;
  size_t shards_;
};

}  // namespace coco::ovs
