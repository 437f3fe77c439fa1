// Configuration of the concurrent execution engine. Every field tunes the
// pipelined engine; none selects an execution mode. Step-synchronous
// replay (bit-identical to sim::Runtime) is not a setting: it is one
// Engine::Deliver per event (sim::DeliverEach in sim/executor.h).

#ifndef DWRS_ENGINE_CONFIG_H_
#define DWRS_ENGINE_CONFIG_H_

#include <cstddef>

namespace dwrs::engine {

struct EngineConfig {
  int num_sites = 4;  // k logical sites, multiplexed over the worker pool

  // Worker threads in the scheduler pool. 0 = auto: hardware_concurrency
  // minus two (the feeder and coordinator threads), clamped to
  // [1, num_sites]. Logical sites are homed to worker (site mod N); the
  // pool size — not k — bounds the thread count, which is what lets one
  // box run k = 10^5..10^6 sites.
  int num_workers = 0;

  // When true (default), a worker whose own run queue is dry steals
  // runnable sites from the back of other workers' queues, so skewed
  // per-site load spreads across the pool. When false, each site only
  // ever runs on its home worker — stronger locality, no load balancing.
  bool work_stealing = true;

  // Items per ingestion batch. The feeder buffers this many items per site
  // before handing them to the site worker in one queue operation, so the
  // per-item synchronization cost is one atomic op amortized over the
  // batch. Larger batches raise throughput and the staleness of the
  // engine-side step clock; 1 degenerates to per-item handoff.
  size_t batch_size = 512;

  // Capacity of each site's item queue, in batches. A full queue blocks
  // the feeder (ingestion backpressure).
  size_t item_queue_batches = 16;

  // Capacity of the site->coordinator MPSC message channel. A full
  // channel blocks the sending site worker, which in turn stalls its item
  // queue and eventually the feeder — backpressure propagates end to end.
  size_t message_queue_capacity = 1 << 14;

  // Site workers hand queued batches to the endpoint's OnItems span path
  // in sub-batches of this many items, polling the control channel once
  // per sub-batch (instead of per item) so fresh thresholds still land
  // promptly while the hot loop stays free of synchronization. Smaller
  // values tighten control latency; larger values maximize span length.
  size_t control_poll_stride = 64;

  // Shard label stamped on this engine's flight-recorder events (the
  // sharded backend sets it per shard; standalone engines leave it 0).
  int trace_shard = 0;
};

}  // namespace dwrs::engine

#endif  // DWRS_ENGINE_CONFIG_H_
