// Step-synchronous sharded execution: sim::Sharded (sim/sharded.h) over
// S independent sim::Runtime instances. The reference semantics for
// engine::ShardedEngine — a sharded engine fed one Deliver per event
// replays this bit for bit.

#ifndef DWRS_SIM_SHARDED_RUNTIME_H_
#define DWRS_SIM_SHARDED_RUNTIME_H_

#include <cstdint>
#include <functional>

#include "sim/runtime.h"
#include "sim/sharded.h"
#include "stream/workload.h"

namespace dwrs::sim {

class ShardedRuntime : public Sharded<Runtime> {
 public:
  ShardedRuntime(int num_sites, int num_shards, int delivery_delay = 0,
                 uint64_t jitter_seed = 0);

  // The shard's simulated network (its shard_transport).
  Network& shard_network(int shard) { return shards_[Index(shard)]->network(); }
  Runtime& shard_runtime(int shard) { return *shards_[Index(shard)]; }
  const Runtime& shard_runtime(int shard) const {
    return *shards_[Index(shard)];
  }

  // Runs the full (global) workload, one Deliver per event; `on_step` is
  // invoked after every event with the 1-based global prefix length —
  // query points, at which MergedSample() answers over exactly that
  // prefix.
  void Run(const Workload& workload,
           const std::function<void(uint64_t)>& on_step = nullptr);

  // Traffic summed over shards; per-shard stats via shard_runtime(j).
  MessageStats AggregateStats() const;
};

}  // namespace dwrs::sim

#endif  // DWRS_SIM_SHARDED_RUNTIME_H_
