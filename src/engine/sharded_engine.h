// Sharded multi-coordinator topology over the concurrent engine
// (sim::Sharded, sim/sharded.h, over engine::Engine): the k sites are
// partitioned across S shard coordinators, each an unmodified
// engine::Engine — a per-shard work-stealing worker pool of logical
// sites feeding a dedicated shard coordinator thread over the shard's
// own bounded MPSC channel (an auto worker budget is split across the
// shards so the pools together stay within hardware_concurrency) — plus a
// root merge stage (MergedSample) that combines the shard coordinators'
// mergeable summaries into the exact global sample at quiesce points.
//
// Why this scales past the single-coordinator engine: the coordinator
// thread and its one MPSC inbox are the engine's serialization point —
// every upstream protocol message funnels through them. Sharding gives a
// message-heavy deployment S coordinator threads and S channels (k/S
// producers each instead of k), while the shards exchange nothing during
// the stream; only their O(s) summaries meet at query time. That also
// means shards could live in different processes — the summaries are the
// entire cross-shard traffic (see ROADMAP: multi-process transport).
//
// Construction mirrors engine::Engine per shard:
//
//   ShardedEngine eng({.num_sites = k, .num_shards = S});
//   // per global site i: build the endpoint with LOCAL index
//   // eng.topology().LocalOf(i) against eng.shard_transport(shard),
//   // then eng.AttachSite(i, site);
//   // per shard j: build a coordinator against eng.shard_transport(j),
//   // then eng.AttachShardCoordinator(j, coord);
//   eng.Run(workload);                  // global site indices
//   auto sample = eng.MergedSample().TopEntries();
//
// Query legality, teardown, and the single-feeder ingestion contract are
// exactly engine::Engine's (see engine/engine.h), applied per shard.
// Deliver(event) is the owning shard's Engine::Deliver, so
// sim::DeliverEach replays sim::ShardedRuntime bit for bit.

#ifndef DWRS_ENGINE_SHARDED_ENGINE_H_
#define DWRS_ENGINE_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "engine/engine.h"
#include "sim/sharded.h"

namespace dwrs::engine {

struct ShardedEngineConfig {
  int num_sites = 8;   // global k
  int num_shards = 2;  // S coordinator threads / MPSC channels
  // Per-shard engine template; num_sites is overridden per shard.
  EngineConfig shard;
};

class ShardedEngine : public sim::Sharded<Engine> {
 public:
  explicit ShardedEngine(const ShardedEngineConfig& config);

  Engine& shard_engine(int shard) { return *shards_[Index(shard)]; }
  const Engine& shard_engine(int shard) const { return *shards_[Index(shard)]; }

  // Installs shard `shard`'s snapshot-publication hook, invoked on that
  // shard's coordinator thread after every processed message (see
  // engine/engine.h) — the publication side of the live query path
  // (src/query/). Install before the first Push/Run/Flush.
  void SetShardSnapshotHook(int shard, std::function<void()> hook);

  // Feeder thread only (single producer across all shards, as with
  // engine::Engine::Push).
  void Push(int site, const Item& item);
  void Push(int site, const Item* items, size_t n);

  // Runs the full global workload and ends with Flush(). An on_step hook
  // makes the run step-synchronous (one Deliver per event, then the
  // hook), which replays sim::ShardedRuntime bit for bit.
  void Run(const Workload& workload,
           const std::function<void(uint64_t)>& on_step = nullptr);

  // Stops and joins all shard worker threads (idempotent).
  void Shutdown();

  // Traffic summed over shards (quiesce points only); per-shard stats —
  // including per-shard message counts — via shard_engine(j).stats().
  sim::MessageStats AggregateMessageSnapshot() const;
  std::vector<uint64_t> PerShardMessages() const;

  // Global events handed off so far (sum of shard step clocks).
  uint64_t steps() const;
};

}  // namespace dwrs::engine

#endif  // DWRS_ENGINE_SHARDED_ENGINE_H_
