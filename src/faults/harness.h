// Fault harness: assembles a full protocol stack — endpoints wrapped in
// reliability sessions, over a FaultyTransport, over one sim::Executor
// (sim/executor.h; MakeExecutor picks the backend) — runs a workload
// through it, and reconciles at end of stream.
//
//   faults::FaultyRun<faults::WsworFaultTraits> run(config, fault_config,
//                                                   faults::Backend::kSim);
//   run.Run(workload);              // stream + end-of-stream reconcile
//   run.report().clean              // no irrecoverable loss anywhere
//   run.coordinator().Sample();     // exact SWOR of the delivered stream
//
// The reconcile models partial synchrony: after the stream ends the
// network heals (faults disabled), withheld messages are released, and
// sites retransmit until every stamped message is acked. A run is
// `clean` iff nothing was irrecoverably lost — every un-clean cause
// (messages wiped by a crash) is individually counted, so degraded
// results are always detectable, never silent.
//
// Determinism: given (protocol seed, fault seed, workload), two runs on
// the same backend are bit-identical. The stack feeds its executor one
// Deliver per event, so the simulator and the engine produce the same
// delivery transcript.

#ifndef DWRS_FAULTS_HARNESS_H_
#define DWRS_FAULTS_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/coordinator.h"
#include "core/site.h"
#include "faults/fault_schedule.h"
#include "faults/faulty_transport.h"
#include "faults/session.h"
#include "l1/l1_tracker.h"
#include "obs/tracing_transport.h"
#include "random/rng.h"
#include "sampling/mergeable_sample.h"
#include "sim/executor.h"
#include "stream/sharding.h"
#include "stream/workload.h"
#include "unweighted/distributed_swor.h"
#include "util/check.h"

namespace dwrs::faults {

enum class Backend { kSim, kEngine };

// The one place a Backend is read: the executor a fault or durable stack
// runs on. `trace_shard` labels the engine's flight-recorder events.
std::unique_ptr<sim::Executor> MakeExecutor(Backend backend, int num_sites,
                                            int trace_shard);

// Independent randomness per site incarnation: a restarted site must not
// replay its previous key stream.
inline uint64_t RestartSeed(uint64_t base, uint32_t epoch) {
  if (epoch == 0) return base;
  uint64_t z = base + 0x9E3779B97F4A7C15ull * epoch;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Aggregated outcome of a faulty run.
struct RunReport {
  uint64_t transcript_hash = 0;
  uint64_t delivered = 0;
  uint64_t crashes = 0;
  uint64_t crash_detections = 0;
  uint64_t resyncs_sent = 0;
  uint64_t lost_unacked = 0;  // wiped by crashes; upper-bounds real loss
  uint64_t items_lost = 0;    // arrivals at down sites
  uint64_t duplicates_dropped = 0;
  uint64_t gaps_detected = 0;
  uint64_t nacks_sent = 0;
  // Session-layer counters that used to live only as per-session local
  // state; surfaced so degraded-mode traffic is quantifiable end to end.
  uint64_t retransmits_sent = 0;       // go-back-N replay messages
  uint64_t stale_epoch_dropped = 0;    // pre-crash leftovers discarded
  uint64_t messages_dropped_down = 0;  // arrivals at a dead process
  // Fault-transport verdict totals (both directions combined).
  uint64_t faults_forwarded = 0;
  uint64_t faults_dropped = 0;
  uint64_t faults_duplicated = 0;
  uint64_t faults_delayed = 0;
  // Durability counters (src/durability/): zero unless the run went
  // through a DurableWswor harness with process kills enabled.
  uint64_t process_kills = 0;     // whole-shard kill -9 events
  uint64_t recoveries = 0;        // successful checkpoint+WAL recoveries
  uint64_t wal_records_logged = 0;
  uint64_t wal_records_replayed = 0;
  uint64_t checkpoints_written = 0;
  // False iff a recovery replay's regenerated events diverged from the
  // decision records logged by the original timeline — a flagged
  // (never silent) degraded result.
  bool recovery_consistent = true;
  // True iff every stamped message was delivered exactly once: no buffer
  // was wiped mid-flight and reconcile drained everything. A clean run's
  // sample is an exact SWOR over the items processed by live sites.
  bool clean = false;
};

// The session-layer and fault-transport counters of one stack, with
// `clean` set iff nothing was wiped by a crash and every gap resolved.
RunReport SessionReport(
    const CoordinatorSession& coordinator_session,
    const std::vector<std::unique_ptr<SiteSession>>& site_sessions,
    const FaultyTransport& faulty);

// Per-shard reports folded into one: counters add, `clean` and
// `recovery_consistent` hold iff they hold on every shard, and
// `transcript_hash` folds the shard hashes (FNV-1a) in shard order.
RunReport CombineShardReports(const std::vector<RunReport>& shards);

// End-of-stream reconcile under a healed network: faults off, withheld
// messages released, every unacked message retransmitted, repeated until
// the site retransmit buffers drain.
void Reconcile(FaultyTransport& faulty, sim::Executor& executor,
               const std::vector<std::unique_ptr<SiteSession>>& site_sessions);

// --- per-protocol traits ----------------------------------------------

struct WsworFaultTraits {
  using Config = WsworConfig;
  using Coordinator = WsworCoordinator;
  static std::unique_ptr<sim::SiteNode> MakeSite(const Config& config,
                                                 int site,
                                                 sim::Transport* transport,
                                                 uint64_t seed) {
    return std::make_unique<WsworSite>(config, site, transport, seed);
  }
  static std::unique_ptr<Coordinator> MakeCoordinator(
      const Config& config, sim::Transport* transport, Rng& master) {
    return std::make_unique<Coordinator>(config, transport, master.NextU64());
  }
  static std::vector<sim::Payload> Resync(const Coordinator& coordinator) {
    return coordinator.ResyncMessages();
  }
  static std::vector<uint64_t> SampleIds(const Coordinator& coordinator) {
    std::vector<uint64_t> ids;
    for (const KeyedItem& ki : coordinator.Sample()) ids.push_back(ki.item.id);
    return ids;
  }
};

struct UsworFaultTraits {
  using Config = UsworConfig;
  using Coordinator = UsworCoordinator;
  static std::unique_ptr<sim::SiteNode> MakeSite(const Config& config,
                                                 int site,
                                                 sim::Transport* transport,
                                                 uint64_t seed) {
    return std::make_unique<UsworSite>(config, site, transport, seed);
  }
  static std::unique_ptr<Coordinator> MakeCoordinator(
      const Config& config, sim::Transport* transport, Rng& /*master*/) {
    return std::make_unique<Coordinator>(config, transport);
  }
  static std::vector<sim::Payload> Resync(const Coordinator& coordinator) {
    return coordinator.ResyncMessages();
  }
  static std::vector<uint64_t> SampleIds(const Coordinator& coordinator) {
    std::vector<uint64_t> ids;
    for (const Item& item : coordinator.Sample()) ids.push_back(item.id);
    return ids;
  }
};

struct L1FaultTraits {
  using Config = L1TrackerConfig;
  using Coordinator = WsworCoordinator;
  static std::unique_ptr<sim::SiteNode> MakeSite(const Config& config,
                                                 int site,
                                                 sim::Transport* transport,
                                                 uint64_t seed) {
    return std::make_unique<L1Site>(config, site, transport, seed);
  }
  static std::unique_ptr<Coordinator> MakeCoordinator(
      const Config& config, sim::Transport* transport, Rng& master) {
    // Same mapping L1Tracker itself uses; its delivery_delay field is a
    // property of the reliable simulated network and is superseded here
    // by the FaultConfig's delay schedule.
    return std::make_unique<Coordinator>(L1CoordinatorConfig(config),
                                         transport, master.NextU64());
  }
  static std::vector<sim::Payload> Resync(const Coordinator& coordinator) {
    return coordinator.ResyncMessages();
  }
  static std::vector<uint64_t> SampleIds(const Coordinator& coordinator) {
    return WsworFaultTraits::SampleIds(coordinator);
  }
};

// --- the harness ------------------------------------------------------

template <typename Traits>
class FaultyRun {
 public:
  using Config = typename Traits::Config;
  using Coordinator = typename Traits::Coordinator;

  // `trace_shard` labels every flight-recorder event of this stack (the
  // sharded harness passes the shard index; unsharded runs default to 0).
  FaultyRun(const Config& config, const FaultConfig& fault_config,
            Backend backend, int trace_shard = 0)
      : schedule_(fault_config),
        num_sites_(config.num_sites),
        executor_(MakeExecutor(backend, num_sites_, trace_shard)) {
    faulty_ = std::make_unique<FaultyTransport>(&executor_->transport(),
                                                &schedule_, num_sites_);
    faulty_->set_trace_shard(trace_shard);
    // Sessions and endpoints send through the tracing decorator, so every
    // message is recorded as it enters the network, before the fault
    // layer's verdict.
    tracing_ =
        std::make_unique<obs::TracingTransport>(faulty_.get(), trace_shard);

    // Seed derivation mirrors the reliable facades exactly: one master
    // draw per site in index order, then the coordinator's.
    Rng master(config.seed);
    std::vector<uint64_t> site_seeds;
    site_seeds.reserve(static_cast<size_t>(num_sites_));
    for (int i = 0; i < num_sites_; ++i) site_seeds.push_back(master.NextU64());
    coordinator_ = Traits::MakeCoordinator(config, tracing_.get(), master);
    if constexpr (requires { coordinator_->set_trace_shard(trace_shard); }) {
      coordinator_->set_trace_shard(trace_shard);
    }
    coordinator_session_ = std::make_unique<CoordinatorSession>(
        num_sites_, coordinator_.get(), tracing_.get(),
        [this] { return Traits::Resync(*coordinator_); });
    coordinator_session_->set_trace_shard(trace_shard);

    for (int i = 0; i < num_sites_; ++i) {
      site_sessions_.push_back(std::make_unique<SiteSession>(
          i, tracing_.get(), &schedule_,
          [config, i, seed = site_seeds[static_cast<size_t>(i)]](
              sim::Transport* upper, uint32_t epoch) {
            return Traits::MakeSite(config, i, upper,
                                    RestartSeed(seed, epoch));
          }));
      site_sessions_.back()->set_trace_shard(trace_shard);
      executor_->AttachSite(i, site_sessions_.back().get());
    }
    executor_->AttachCoordinator(coordinator_session_.get());
  }

  ~FaultyRun() {
    // Backend threads stop before any endpoint or the transport stack is
    // destroyed (see the teardown contract in engine/engine.h).
    executor_->Shutdown();
  }

  FaultyRun(const FaultyRun&) = delete;
  FaultyRun& operator=(const FaultyRun&) = delete;

  // Streams the workload, one Deliver per event, and reconciles.
  // Querying the coordinator is legal afterwards. If `on_step` is set, it
  // is invoked after every event with the 1-based prefix length, at a
  // quiesce point of the backend (so the hook may query the coordinator,
  // the session, and the live-query snapshot layer) — the per-step query
  // transcript the property sweep compares across backends.
  void Run(const Workload& workload,
           const std::function<void(uint64_t)>& on_step = nullptr) {
    sim::DeliverEach(*executor_, workload, on_step);
    faults::Reconcile(*faulty_, *executor_, site_sessions_);
  }

  RunReport report() const {
    return SessionReport(*coordinator_session_, site_sessions_, *faulty_);
  }

  std::vector<uint64_t> SampleIds() const {
    return Traits::SampleIds(*coordinator_);
  }

  const Coordinator& coordinator() const { return *coordinator_; }
  const CoordinatorSession& coordinator_session() const {
    return *coordinator_session_;
  }
  const SiteSession& site_session(int site) const {
    return *site_sessions_[static_cast<size_t>(site)];
  }
  const FaultyTransport& faulty_transport() const { return *faulty_; }
  int num_sites() const { return num_sites_; }

 private:
  FaultSchedule schedule_;
  const int num_sites_;
  std::unique_ptr<sim::Executor> executor_;
  std::unique_ptr<FaultyTransport> faulty_;
  std::unique_ptr<obs::TracingTransport> tracing_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<CoordinatorSession> coordinator_session_;
  std::vector<std::unique_ptr<SiteSession>> site_sessions_;
};

using FaultyWswor = FaultyRun<WsworFaultTraits>;
using FaultyUswor = FaultyRun<UsworFaultTraits>;
using FaultyL1 = FaultyRun<L1FaultTraits>;

// --- sharded harness --------------------------------------------------
//
// One full reliability stack PER SHARD: every shard coordinator channel
// gets its own FaultyTransport, CoordinatorSession, and site sessions,
// so crash/loss semantics are per-shard — a crashed or lossy shard
// degrades (and flags) only its own slice of the merged sample, and a
// clean shard's slice stays exact regardless of its siblings. The global
// workload is split by the shared ShardTopology (local site indices,
// per-shard arrival order preserved); shard runs replay each other's
// transcripts bit for bit whether executed sequentially or interleaved,
// because shards share no state and every fault decision is a function
// of per-shard counters only. ShardedHarness holds the shards — FaultyRun
// here, durability::DurableWswor in durability/durable_shard.h — and does
// the split, the report fold and the root merge for both.
template <typename Shard>
class ShardedHarness {
 public:
  // `config.num_sites` is the global k. Shard j is built by
  // make_shard(j, shard_config), where shard_config is `config` with
  // shard j's site count and a protocol seed derived via ShardSeed.
  template <typename Config, typename MakeShard>
  ShardedHarness(const Config& config, int num_shards, MakeShard make_shard)
      : topology_(config.num_sites, num_shards) {
    for (int shard = 0; shard < num_shards; ++shard) {
      Config shard_config = config;
      shard_config.num_sites = topology_.SiteCount(shard);
      shard_config.seed = ShardSeed(config.seed, shard);
      shards_.push_back(make_shard(shard, shard_config));
    }
  }

  // Streams the global workload shard by shard (each shard reconciles at
  // its own end of stream). Querying is legal afterwards.
  void Run(const Workload& workload) {
    const std::vector<Workload> splits = SplitByShard(workload, topology_);
    for (size_t shard = 0; shard < shards_.size(); ++shard) {
      shards_[shard]->Run(splits[shard]);
    }
  }

  // Aggregated over shards (CombineShardReports).
  RunReport report() const {
    std::vector<RunReport> reports;
    for (const auto& shard : shards_) reports.push_back(shard->report());
    return CombineShardReports(reports);
  }

  // Root merge of the shard coordinators' summaries.
  MergeableSample MergedSample() const {
    std::vector<const sim::CoordinatorNode*> coordinators;
    for (const auto& shard : shards_) {
      coordinators.push_back(&shard->coordinator());
    }
    return sim::MergeShardCoordinators(coordinators);
  }

  std::vector<uint64_t> MergedSampleIds() const {
    std::vector<uint64_t> ids;
    for (const KeyedItem& ki : MergedSample().TopEntries()) {
      ids.push_back(ki.item.id);
    }
    return ids;
  }

  Shard& shard(int j) { return *shards_[static_cast<size_t>(j)]; }
  const Shard& shard(int j) const { return *shards_[static_cast<size_t>(j)]; }
  const ShardTopology& topology() const { return topology_; }

 private:
  ShardTopology topology_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// `shard_faults[j]` is shard j's fault schedule (one entry per shard —
// faults are per-shard state).
template <typename Traits>
class ShardedFaultyRun : public ShardedHarness<FaultyRun<Traits>> {
 public:
  ShardedFaultyRun(const typename Traits::Config& config,
                   const std::vector<FaultConfig>& shard_faults,
                   Backend backend)
      : ShardedHarness<FaultyRun<Traits>>(
            config, static_cast<int>(shard_faults.size()),
            [&](int shard, const typename Traits::Config& shard_config) {
              return std::make_unique<FaultyRun<Traits>>(
                  shard_config, shard_faults[static_cast<size_t>(shard)],
                  backend, /*trace_shard=*/shard);
            }) {}
};

using ShardedFaultyWswor = ShardedFaultyRun<WsworFaultTraits>;
using ShardedFaultyUswor = ShardedFaultyRun<UsworFaultTraits>;

// The deterministic set of item ids that reach a live site under
// `schedule` (everything except arrivals inside crash-down windows),
// replaying exactly the SiteSession crash logic. Fault-seed- and
// workload-determined only — independent of the protocol seed, which is
// what makes the surviving set a valid chi-square reference across
// protocol-seed trials.
std::vector<uint64_t> SurvivingItemIds(const Workload& workload,
                                       const FaultSchedule& schedule);

}  // namespace dwrs::faults

#endif  // DWRS_FAULTS_HARNESS_H_
