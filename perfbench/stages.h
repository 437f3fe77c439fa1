// The stacks the benchmark drives, one function per layer configuration.
// Each builds its stack from scratch, feeds a fixed amount of the
// workload's stream through the library's public entry points, checks the
// outputs into a Result, and returns what it measured. The workloads
// (main.cc) compose them; the traced run pushes one stream through them
// in turn.

#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "durability/wal.h"
#include "faults/harness.h"
#include "harness.h"
#include "obs/metrics.h"
#include "query/query_service.h"

namespace perfbench {

// Counter value `name` of b minus that of a (both built through the
// obs/schema.h appenders at quiesce points).
uint64_t Delta(const dwrs::obs::Snapshot& a, const dwrs::obs::Snapshot& b,
               const std::string& name);

// --- single-coordinator engine (zipf_ingest) ---------------------------

struct EngineRun {
  double setup_s = 0.0;   // constructors .. warm-up flushed
  double window_s = 0.0;  // first window Push .. closing Flush returned
  double flush_s = 0.0;   // the closing Flush alone
  uint64_t items = 0;     // window items
  int64_t window_start_ns = 0, window_end_ns = 0;
  dwrs::obs::Snapshot before, after;  // "engine/..." at window bounds
};

// engine::Engine with `num_workers` pool workers: warm-up prefix, then a
// window of `window_items`. Spans (if rec) cover the window only.
EngineRun RunEngine(const StreamSpec& spec, ItemPool& pool, int num_workers,
                    uint64_t warmup_items, uint64_t window_items,
                    SpanRecorder* rec, Result* result);

// --- sharded engine with live queries (fanout_live) ---------------------

struct LiveRun {
  double setup_s = 0.0;
  double window_s = 0.0;
  double flush_s = 0.0;
  uint64_t items = 0;
  int64_t window_start_ns = 0, window_end_ns = 0;
  dwrs::obs::Snapshot before, after;  // engine/ and query/ counters
  // Per-query figures of the open-loop client (microseconds, items).
  std::vector<double> latency_us;  // from the due time to the answer
  std::vector<double> late_us;     // how late each call started
  std::vector<double> hit_us, miss_us;  // call durations by class
  std::vector<double> staleness_items;
};

// engine::ShardedEngine (one shard, one worker). With `publish` the
// coordinator publishes a snapshot after every message; with a client
// rate > 0 one open-loop client thread calls QueryShared() on schedule.
LiveRun RunLive(const StreamSpec& spec, ItemPool& pool, uint64_t window_items,
                bool publish, double queries_per_s, SpanRecorder* feeder_rec,
                SpanRecorder* client_rec, Result* result);

// --- single-threaded stages --------------------------------------------

struct StageRun {
  double ns_per_item = 0.0;
  uint64_t items = 0;
  uint64_t messages = 0;  // protocol messages in the window
  dwrs::sim::SiteHotPathCounters hot;  // window delta
};

// WsworSite::OnItems alone: k sites and a coordinator over a loopback
// transport that delivers queued messages after each chunk. Only the
// OnItems calls are timed.
StageRun RunCore(const StreamSpec& spec, ItemPool& pool, uint64_t warmup_items,
                 uint64_t window_items, Result* result);

// DistributedWswor::Observe over the same stream: the single-threaded
// baseline (exact message counts).
StageRun RunSim(const StreamSpec& spec, ItemPool& pool, uint64_t warmup_items,
                uint64_t window_items, SpanRecorder* rec, Result* result);

// --- reliability and durability (durable_sessions) ----------------------

// Drop probability of the lossy stage. durable_sessions itself runs with
// duplicates and delays only: with drops, go-back-N retransmission storms
// and sites left on stale thresholds make its message cost vary over three
// orders of magnitude across fault seeds (README, "Finding"), too unsteady
// for an end-to-end metric. The traced run measures the lossy transport.
inline constexpr double kLossyDropProb = 0.01;

// The unreliable transport: 1% duplicate, 2% delay, `drop_prob` drop.
// With kills, the fault seed is the first one derived from the spec's seed
// whose kill schedule fires no kill in the first `warmup_steps` steps and
// at least two in the rest of `total_steps`, so every run takes exactly
// two kills (the cap) inside its window.
dwrs::faults::FaultConfig SessionFaults(const StreamSpec& spec,
                                        uint64_t warmup_steps,
                                        uint64_t total_steps, bool kills,
                                        double drop_prob);

struct FaultsRun {
  double ns_per_item = 0.0;  // window steps, reconcile included
  uint64_t items = 0;        // window steps
  uint64_t messages = 0;     // forwarded by the fault transport in the window
  dwrs::faults::RunReport at_window, report;
};

// faults::FaultyWswor (sessions over the unreliable transport, no WAL) on
// the simulator backend; the window starts after `warmup_steps`.
FaultsRun RunFaults(const StreamSpec& spec, const dwrs::Workload& workload,
                    uint64_t warmup_steps, double drop_prob, SpanRecorder* rec,
                    Result* result);

struct DurableRun {
  double setup_s = 0.0;   // constructor (directory, WAL open, Recover())
                          // through the warm-up steps
  double window_s = 0.0;  // the rest of DurableWswor::Run
  uint64_t items = 0;     // window steps
  int64_t window_start_ns = 0, window_end_ns = 0;
  // Counters at the first quiesce of the window and at the end; report
  // counters run from genesis (checkpoints carry them across kills).
  dwrs::faults::RunReport at_window, report;
  dwrs::durability::WalStats wal_at_window, wal;
};

// durability::DurableWswor on the simulator backend in a fresh `dir` over
// the drop-free transport, taking the two seeded process kills of
// SessionFaults when `kills`.
DurableRun RunDurable(const StreamSpec& spec, const dwrs::Workload& workload,
                      uint64_t warmup_steps, uint64_t checkpoint_interval,
                      bool kills, const std::string& dir, SpanRecorder* rec,
                      Result* result);

// Replays the WAL segments left in `dir` into a fresh segment at
// `scratch_path`: Append per record, Commit every `commit_steps` step
// marks, each commit group timed (microseconds).
std::vector<double> WalCommitLatencies(const std::string& dir,
                                       const std::string& scratch_path,
                                       uint64_t commit_steps,
                                       SpanRecorder* rec);

}  // namespace perfbench

#endif  // PERFBENCH_STAGES_H_
