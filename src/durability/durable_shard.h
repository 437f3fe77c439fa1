// Durable shard harness: the fault harness's protocol stack (endpoints
// in reliability sessions over a FaultyTransport over one sim::Executor,
// faults/harness.h) extended with a write-ahead log and periodic
// checkpoints, so the whole shard process can be killed (kill -9
// semantics: every volatile byte gone, including un-committed WAL
// buffers) and recovered from disk to a state transcript-identical to a
// never-crashed shard at the same durable quiesce point.
//
// WAL + rotation lifecycle (one directory per shard):
//
//   wal-<c>.log   records logged after checkpoint c (wal-0.log from
//                 genesis). Appends group-commit at step boundaries
//                 (commit_interval_steps); the durable step is the last
//                 committed kStepMark.
//   ckpt-<c>.bin  full stack state at a quiesce point (checkpoint.h),
//                 written atomically every checkpoint_interval_steps;
//                 writing checkpoint c rotates logging to wal-<c>.log
//                 and prunes generations older than c - 1.
//
// Recovery (Recover(), run by the constructor when the directory holds
// state):
//
//   1. Load the newest decodable checkpoint c (a torn newest file falls
//      back to c - 1); restore sites, site sessions and the fault
//      transport at its step B, the coordinator + session at its state.
//   2. Replay the WAL tail (wal-<c>.log, plus any later segments when
//      an older generation was loaded): every kMessage record re-enters
//      the REAL CoordinatorSession::OnMessage — hellos, duplicates and
//      gap arrivals included — with sends aimed at a capture sink, so
//      session and coordinator state evolve exactly as they did live,
//      through the LAST committed kStepMark (the durable step D).
//      Records behind that mark belong to a step that never quiesced
//      durably; they are counted truncated and regenerated by re-feed.
//      Decision records (threshold bumps, epoch changes, sample deltas)
//      are not applied — replay REGENERATES them and cross-checks the
//      logged tail; a divergence flags the recovery inconsistent
//      (RunReport::recovery_consistent), never silently wrong. The
//      coordinator-initiated broadcasts replay regenerates are captured
//      per step for the catch-up below.
//   3. Catch up the sites: the feeder re-runs (B, D] with logging off —
//      the old segments already cover those steps and stay on disk, so
//      a second kill inside the window recovers idempotently — while
//      the session duplicate-drops (and re-acks) every re-sent message
//      and the harness re-injects the captured broadcasts at their
//      original step boundaries, bringing the sites to the same D-state
//      the live run had. At D a recovery checkpoint (seq = last
//      segment + 1) is written and logging rotates to a fresh segment,
//      so recovery never appends to — or re-truncates — an old segment
//      file.
//
// The feeder then continues at D + 1 (the stream is a replayable
// source): restored sites regenerate byte-identical messages for the
// re-fed steps, and the restored fault-transport channel indices keep
// every re-sent message on its original fault-schedule coordinate.
// Under a kill-only schedule the recovered run's final state is
// bit-identical to an uninterrupted run's; under active message faults
// both execution backends recover to the same state bit for bit and
// every data loss is a flagged session-layer event
// (tests/durability_test.cc pins both).

#ifndef DWRS_DURABILITY_DURABLE_SHARD_H_
#define DWRS_DURABILITY_DURABLE_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/coordinator.h"
#include "core/site.h"
#include "durability/checkpoint.h"
#include "durability/records.h"
#include "durability/wal.h"
#include "faults/harness.h"
#include "obs/tracing_transport.h"
#include "sampling/mergeable_sample.h"
#include "sim/executor.h"
#include "stream/sharding.h"
#include "stream/workload.h"

namespace dwrs::durability {

// Transport indirection that lets the recovery path re-aim the
// coordinator stack's sends without the stack knowing: live, the target
// is the tracing transport; during replay, a capture sink (the
// re-generated acks/nacks/resyncs already happened in the original
// timeline — re-emitting them would double-deliver).
class SwitchableTransport : public sim::Transport {
 public:
  explicit SwitchableTransport(sim::Transport* target) : target_(target) {}

  void set_target(sim::Transport* target) { target_ = target; }

  void SendToCoordinator(int site, const sim::Payload& msg) override {
    target_->SendToCoordinator(site, msg);
  }
  void SendToSite(int site, const sim::Payload& msg) override {
    target_->SendToSite(site, msg);
  }
  void Broadcast(const sim::Payload& msg) override { target_->Broadcast(msg); }
  uint64_t step() const override { return target_->step(); }

 private:
  sim::Transport* target_;
};

// Replay-time send sink: counts and swallows session traffic (acks and
// nacks regenerate naturally when the re-feed's duplicates hit the
// session again), but KEEPS the coordinator-initiated broadcasts — the
// sites, restored at the checkpoint step, still need the threshold and
// saturation announcements of the catch-up window delivered at their
// original step boundaries (durable_shard.cc, Run).
class CaptureTransport : public sim::Transport {
 public:
  void SendToCoordinator(int, const sim::Payload&) override { ++captured_; }
  void SendToSite(int, const sim::Payload&) override { ++captured_; }
  void Broadcast(const sim::Payload& msg) override {
    ++captured_;
    broadcasts_.push_back(msg);
  }
  uint64_t step() const override { return 0; }
  uint64_t captured() const { return captured_; }

  // Broadcasts captured since the last take, in send order.
  std::vector<sim::Payload> TakeBroadcasts() { return std::move(broadcasts_); }

 private:
  uint64_t captured_ = 0;
  std::vector<sim::Payload> broadcasts_;
};

// Coordinator decorator sitting between the backend and the
// CoordinatorSession — the one point that sees the full pre-dedup
// arrival stream. Live, it write-ahead-logs every arrival (and, after
// processing, the decision records the arrival caused); during replay
// it re-feeds logged arrivals and captures the regenerated decisions
// for the cross-check.
class DurableCoordinator : public sim::CoordinatorNode {
 public:
  DurableCoordinator(faults::CoordinatorSession* session,
                     WsworCoordinator* coordinator, bool log_decisions);

  // Live mode: append records to `wal` (null disables logging).
  void set_wal(WalWriter* wal) { wal_ = wal; }
  // Replay mode: regenerated decision records go to `capture` instead of
  // the WAL, and arrivals are not re-logged.
  void set_replay_capture(std::vector<WalRecord>* capture) {
    capture_ = capture;
  }

  void OnMessage(int site, const sim::Payload& msg) override;

  // Sample-membership hook target (the harness wires it to
  // WsworCoordinator::set_sample_delta_hook). Fires inside OnMessage, on
  // the thread that owns the coordinator.
  void OnSampleDelta(const WsworCoordinator::SampleDelta& delta);

  MergeableSample ShardSample() const override {
    return session_->ShardSample();
  }
  uint64_t StateVersion() const override { return session_->StateVersion(); }

  uint64_t records_logged() const { return records_logged_; }

 private:
  void EmitDecision(const WalRecord& record);

  faults::CoordinatorSession* const session_;
  WsworCoordinator* const coordinator_;
  const bool log_decisions_;
  WalWriter* wal_ = nullptr;
  std::vector<WalRecord>* capture_ = nullptr;
  uint64_t records_logged_ = 0;
  std::vector<WalRecord> pending_deltas_;
};

struct DurabilityOptions {
  // Shard state directory (created if absent). Required.
  std::string dir;
  // Group-commit cadence: WAL commits every this many stream steps. 1 =
  // commit every step (smallest loss window, slowest); records of the
  // steps since the last commit die with a kill.
  uint64_t commit_interval_steps = 8;
  // Checkpoint cadence, in steps. Checkpoints also rotate the WAL.
  uint64_t checkpoint_interval_steps = 64;
  // fdatasync on every commit (power-loss durability; kill -9 survival
  // only needs the copy into the page cache).
  bool fsync_commits = false;
  // Background group-commit flush worker (WalWriterOptions) in addition
  // to the step-boundary commits. The deterministic kill/recover tests
  // keep it off so the durable step is a pure function of the seed;
  // under kill-only schedules the recovered run is the same either way
  // (tests/durability_test.cc).
  bool background_flush = false;
  uint64_t flush_interval_us = 2000;
  size_t flush_bytes = 256 * 1024;
  // Log + cross-check decision audit records.
  bool log_decisions = true;
};

// Outcome of one Recover() pass.
struct RecoveryReport {
  bool recovered = false;  // any durable state found
  uint64_t checkpoint_seq = 0;
  uint64_t checkpoint_step = 0;  // B: feeder resumes at B + 1
  uint64_t durable_step = 0;     // D: last committed step mark
  uint64_t wal_records_replayed = 0;
  uint64_t wal_records_truncated = 0;  // behind the last mark / torn tail
  bool wal_tail_truncated = false;     // segment ended mid-frame
  bool consistent = true;              // decision audit cross-check
};

// Coordinator-observable state at a quiesce point, bit-comparable
// across runs (keys compared as raw IEEE 754 bits).
struct ProbeState {
  uint64_t state_version = 0;
  uint64_t delivered = 0;
  uint64_t transcript_hash = 0;
  uint64_t threshold_bits = 0;
  std::vector<std::pair<uint64_t, uint64_t>> sample;  // (id, key bits)

  friend bool operator==(const ProbeState& a, const ProbeState& b) = default;
};

// One durable shard: the full faulty stack + WAL + checkpoints +
// in-process kill/recover driving.
class DurableWswor {
 public:
  DurableWswor(const WsworConfig& config,
               const faults::FaultConfig& fault_config,
               faults::Backend backend, const DurabilityOptions& options,
               int trace_shard = 0);
  ~DurableWswor();

  DurableWswor(const DurableWswor&) = delete;
  DurableWswor& operator=(const DurableWswor&) = delete;

  // Streams the workload from the recovered position (step
  // resume_step() + 1; 0 on a fresh directory), taking seeded process
  // kills (FaultConfig::process_kill_prob) as they fire: each kill
  // tears the whole stack down — un-committed WAL bytes included — and
  // recovers it from disk before continuing. Ends with the reconcile
  // round and a final checkpoint. `on_step` (optional) runs at every
  // fed step's quiesce point with the 1-based prefix length, including
  // re-fed steps after a recovery.
  void Run(const Workload& workload,
           const std::function<void(uint64_t)>& on_step = nullptr);

  // Feeder position the next Run starts at (checkpoint step B).
  uint64_t resume_step() const { return feed_step_; }

  faults::RunReport report() const;
  ProbeState Probe() const;
  std::vector<uint64_t> SampleIds() const;

  const WsworCoordinator& coordinator() const { return *coordinator_; }
  const faults::CoordinatorSession& coordinator_session() const {
    return *coordinator_session_;
  }
  const RecoveryReport& last_recovery() const { return last_recovery_; }
  uint64_t process_kills() const { return kills_done_; }
  uint64_t recoveries() const { return recoveries_; }
  WalStats wal_stats() const;

 private:
  void BuildStack();
  void TearDownStack(bool abandon_pending);
  // Loads the newest checkpoint + replays the WAL tail; true iff any
  // durable state was found. Leaves the stack live-wired and logging to
  // a fresh segment either way.
  bool Recover();
  void ReplaySegment(const WalReadResult& segment,
                     std::vector<WalRecord>* records,
                     bool* tail_truncated) const;
  void WriteCheckpoint(uint64_t step);
  void OpenSegment(uint64_t seq, bool truncate);
  void AppendHarnessRecord(const WalRecord& record);
  ShardCheckpoint CaptureCheckpoint(uint64_t step) const;
  void RestoreFromCheckpoint(const ShardCheckpoint& c);

  const WsworConfig config_;
  const DurabilityOptions options_;
  const faults::Backend backend_;
  const int trace_shard_;
  faults::FaultSchedule schedule_;
  int num_sites_;

  // The stack (rebuilt from scratch on every recovery).
  std::unique_ptr<sim::Executor> executor_;
  std::unique_ptr<faults::FaultyTransport> faulty_;
  std::unique_ptr<obs::TracingTransport> tracing_;
  std::unique_ptr<SwitchableTransport> switchable_;
  std::unique_ptr<WsworCoordinator> coordinator_;
  std::unique_ptr<faults::CoordinatorSession> coordinator_session_;
  std::unique_ptr<DurableCoordinator> durable_coordinator_;
  std::vector<std::unique_ptr<faults::SiteSession>> site_sessions_;

  // Durability state (survives stack teardowns).
  std::unique_ptr<WalWriter> wal_;
  uint64_t wal_seq_ = 0;            // current segment generation
  uint64_t checkpoint_seq_ = 0;     // last written checkpoint
  uint64_t feed_step_ = 0;          // B: events already fed durably
  uint64_t wal_records_logged_ = 0;
  // The coordinator's records_logged() at the last step mark.
  uint64_t records_at_mark_ = 0;
  uint64_t wal_records_replayed_ = 0;
  uint64_t checkpoints_written_ = 0;
  uint64_t kills_done_ = 0;
  uint64_t last_kill_step_ = 0;
  uint64_t recoveries_ = 0;
  bool recovery_consistent_ = true;
  RecoveryReport last_recovery_;
  WalStats closed_segment_stats_;  // folded stats of closed segments

  // Catch-up window after a recovery whose WAL tail reached past the
  // checkpoint (durable step D > checkpoint step B): the feeder re-runs
  // (B, D] with logging OFF (the old segments already cover those steps
  // and stay on disk, so a kill during catch-up recovers idempotently
  // from the same state) and re-injects the captured per-step broadcasts
  // so the restored sites see the same announcements at the same step
  // boundaries as the original timeline. The recovery checkpoint — a
  // pure D-state — is written when the feeder reaches D.
  bool catching_up_ = false;
  uint64_t catch_up_until_ = 0;
  std::vector<std::pair<uint64_t, std::vector<sim::Payload>>>
      catch_up_broadcasts_;  // (step, broadcasts), ascending by step
};

// Sharded composition: one DurableWswor per shard, each with its own
// subdirectory (`<dir>/shard-<j>`), fault schedule and kill timeline;
// split, report fold and root merge are the non-durable sharded
// harness's (faults::ShardedHarness).
class ShardedDurableWswor : public faults::ShardedHarness<DurableWswor> {
 public:
  ShardedDurableWswor(const WsworConfig& config,
                      const std::vector<faults::FaultConfig>& shard_faults,
                      faults::Backend backend,
                      const DurabilityOptions& options);
};

}  // namespace dwrs::durability

#endif  // DWRS_DURABILITY_DURABLE_SHARD_H_
