// RSS-style flow steering and shard placement for the multi-core scale-out
// datapath (DESIGN.md §7).
//
// Steering: shard = Lemire-reduce(Hash64(full key, steering seed)) — a pure
// function of (key, seed, num_shards), so the same flow always lands on the
// same shard no matter how many worker threads poll, and every shard's
// sketch has exactly one writer (the worker the placement assigns it to).
// The steering seed is deliberately decoupled from the sketch hash seed:
// correlating the two would make the per-shard bucket distribution a
// function of the shard split, which the unbiasedness tests (and a
// white-box adversary) would notice.
//
// Placement: shard s is polled by worker s mod W, so ownership stays
// balanced to within one shard and topologies are reproducible across runs
// and testable without threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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

  size_t num_shards() const { return shards_; }
  uint64_t seed() const { return seed_; }

 private:
  // Domain-separates the steering hash from the sketch's bucket hashes even
  // when a caller passes the same base seed to both.
  static constexpr uint64_t kSteerSalt = 0x5245454e47ULL;  // "STEERNG"

  uint64_t seed_;
  size_t shards_;
};

// Which worker owns which shards in the scale-out datapath.
struct ShardTopology {
  std::vector<size_t> shard_owner;                 // shard -> worker
  std::vector<std::vector<size_t>> worker_shards;  // worker -> owned shards
};

// Round-robin placement: shard s goes to worker s mod num_workers.
ShardTopology PlaceShards(size_t num_shards, size_t num_workers);

}  // namespace coco::ovs
