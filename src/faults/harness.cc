#include "faults/harness.h"

#include "engine/engine.h"
#include "sim/runtime.h"

namespace dwrs::faults {

std::unique_ptr<sim::Executor> MakeExecutor(Backend backend, int num_sites,
                                            int trace_shard) {
  if (backend == Backend::kSim) {
    return std::make_unique<sim::Runtime>(num_sites);
  }
  engine::EngineConfig config;
  config.num_sites = num_sites;
  config.trace_shard = trace_shard;
  return std::make_unique<engine::Engine>(config);
}

RunReport SessionReport(
    const CoordinatorSession& coordinator_session,
    const std::vector<std::unique_ptr<SiteSession>>& site_sessions,
    const FaultyTransport& faulty) {
  RunReport out;
  out.transcript_hash = coordinator_session.transcript_hash();
  out.delivered = coordinator_session.delivered();
  out.crash_detections = coordinator_session.crash_detections();
  out.resyncs_sent = coordinator_session.resyncs_sent();
  out.duplicates_dropped = coordinator_session.duplicates_dropped();
  out.gaps_detected = coordinator_session.gaps_detected();
  out.nacks_sent = coordinator_session.nacks_sent();
  out.stale_epoch_dropped = coordinator_session.stale_epoch_dropped();
  for (const auto& session : site_sessions) {
    out.crashes += session->crashes();
    out.lost_unacked += session->lost_unacked();
    out.items_lost += session->items_lost();
    out.retransmits_sent += session->retransmits_sent();
    out.messages_dropped_down += session->messages_dropped_down();
  }
  const FaultCounters& fc = faulty.counters();
  out.faults_forwarded = fc.forwarded.load(std::memory_order_relaxed);
  out.faults_dropped = fc.dropped.load(std::memory_order_relaxed);
  out.faults_duplicated = fc.duplicated.load(std::memory_order_relaxed);
  out.faults_delayed = fc.delayed.load(std::memory_order_relaxed);
  out.clean = out.lost_unacked == 0 && coordinator_session.AllGapsResolved();
  return out;
}

RunReport CombineShardReports(const std::vector<RunReport>& shards) {
  RunReport out;
  out.transcript_hash = 1469598103934665603ull;  // FNV offset basis
  out.clean = true;
  for (const RunReport& r : shards) {
    for (int b = 0; b < 64; b += 8) {
      out.transcript_hash ^= (r.transcript_hash >> b) & 0xffull;
      out.transcript_hash *= 1099511628211ull;  // FNV prime
    }
    out.delivered += r.delivered;
    out.crashes += r.crashes;
    out.crash_detections += r.crash_detections;
    out.resyncs_sent += r.resyncs_sent;
    out.lost_unacked += r.lost_unacked;
    out.items_lost += r.items_lost;
    out.duplicates_dropped += r.duplicates_dropped;
    out.gaps_detected += r.gaps_detected;
    out.nacks_sent += r.nacks_sent;
    out.retransmits_sent += r.retransmits_sent;
    out.stale_epoch_dropped += r.stale_epoch_dropped;
    out.messages_dropped_down += r.messages_dropped_down;
    out.faults_forwarded += r.faults_forwarded;
    out.faults_dropped += r.faults_dropped;
    out.faults_duplicated += r.faults_duplicated;
    out.faults_delayed += r.faults_delayed;
    out.process_kills += r.process_kills;
    out.recoveries += r.recoveries;
    out.wal_records_logged += r.wal_records_logged;
    out.wal_records_replayed += r.wal_records_replayed;
    out.checkpoints_written += r.checkpoints_written;
    out.recovery_consistent = out.recovery_consistent && r.recovery_consistent;
    out.clean = out.clean && r.clean;
  }
  return out;
}

void Reconcile(FaultyTransport& faulty, sim::Executor& executor,
               const std::vector<std::unique_ptr<SiteSession>>& site_sessions) {
  constexpr int kMaxReconcileRounds = 8;
  faulty.set_enabled(false);
  for (int round = 0; round < kMaxReconcileRounds; ++round) {
    faulty.FlushDelayed();
    executor.Flush();
    bool drained = true;
    for (const auto& session : site_sessions) {
      if (session->unacked_size() != 0) drained = false;
    }
    if (drained) break;
    for (const auto& session : site_sessions) {
      session->RetransmitAllUnacked();
    }
    executor.Flush();
  }
  for (const auto& session : site_sessions) {
    DWRS_CHECK_EQ(session->unacked_size(), 0u)
        << " reconcile failed to drain site retransmit buffers";
  }
}

std::vector<uint64_t> SurvivingItemIds(const Workload& workload,
                                       const FaultSchedule& schedule) {
  const size_t k = static_cast<size_t>(workload.num_sites());
  std::vector<uint64_t> arrivals(k, 0);
  std::vector<uint64_t> down_remaining(k, 0);
  std::vector<uint64_t> surviving;
  const uint64_t down_for =
      static_cast<uint64_t>(schedule.config().crash_down_items);
  for (uint64_t i = 0; i < workload.size(); ++i) {
    const WorkloadEvent& event = workload.event(i);
    const size_t site = static_cast<size_t>(event.site);
    const uint64_t index = arrivals[site]++;
    if (down_remaining[site] == 0 &&
        schedule.CrashesAt(event.site, index)) {
      down_remaining[site] = down_for;
    }
    if (down_remaining[site] > 0) {
      --down_remaining[site];
      continue;  // lost at a crashed site
    }
    surviving.push_back(event.item.id);
  }
  return surviving;
}

}  // namespace dwrs::faults
