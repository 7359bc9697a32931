#include "ovs/steering.h"

namespace coco::ovs {

ShardTopology PlaceShards(size_t num_shards, size_t num_workers) {
  COCO_CHECK(num_shards >= 1, "topology needs at least one shard");
  COCO_CHECK(num_workers >= 1 && num_workers <= num_shards,
             "workers must satisfy 1 <= workers <= shards");
  ShardTopology topo;
  topo.shard_owner.resize(num_shards);
  topo.worker_shards.resize(num_workers);
  for (size_t s = 0; s < num_shards; ++s) {
    topo.shard_owner[s] = s % num_workers;
    topo.worker_shards[s % num_workers].push_back(s);
  }
  return topo;
}

}  // namespace coco::ovs
