// Seeded, fully deterministic fault schedule for the unreliable-network
// scenario family. Every decision — drop this message, duplicate it,
// delay it, crash this site — is a pure function of (seed, coordinate),
// where the coordinate is a (channel, per-channel send index) pair for
// message faults and a (site, per-site item index) pair for crashes.
// Because the coordinates are per-channel/per-site counters rather than
// wall-clock or global state, the same seed produces the same schedule on
// the single-threaded simulator and on the concurrent engine fed one
// Deliver per event (sim/executor.h): a failing run is replayable bit for
// bit from its seed alone.

#ifndef DWRS_FAULTS_FAULT_SCHEDULE_H_
#define DWRS_FAULTS_FAULT_SCHEDULE_H_

#include <cstdint>

namespace dwrs::faults {

struct FaultConfig {
  uint64_t seed = 1;

  // Message faults, decided independently per send. A message is first
  // tested for drop; a surviving message may be duplicated (the copy is
  // forwarded immediately) and/or delayed. Probabilities in [0, 1].
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;

  // A delayed message is withheld and re-injected into its channel after
  // `delay` further sends on the same channel, where delay is drawn
  // uniformly from [1, max_delay] — delay doubles as reordering, since
  // the withheld message is overtaken by everything sent in between.
  // Messages are counted, not clocked, so the schedule stays exact under
  // both execution backends.
  double delay_prob = 0.0;
  int max_delay = 4;

  // Site crash/restart. Each item arrival at a site crashes it with
  // probability crash_prob; the site then loses its volatile protocol and
  // session state, drops the next crash_down_items arrivals (including
  // the triggering one), and restarts with a bumped epoch.
  double crash_prob = 0.0;
  int crash_down_items = 8;

  // Direction gates: which directions the message faults apply to.
  bool fault_upstream = true;    // site -> coordinator
  bool fault_downstream = true;  // coordinator -> site

  // Whole-process kill (the durability scenario, src/durability/): at a
  // stream step where ProcessKillsAt fires, the durable harness destroys
  // the entire shard stack — backend, transport, sessions, endpoints,
  // un-fsynced WAL buffers — and recovers it from checkpoint + WAL
  // instead of resyncing from live peers. Probability is per step;
  // max_process_kills bounds the kills per run (enforced by the harness,
  // so the schedule itself stays a pure function).
  double process_kill_prob = 0.0;
  int max_process_kills = 2;
};

// The per-send verdict. delay == 0 means deliver now.
struct SendFaults {
  bool drop = false;
  bool duplicate = false;
  int delay = 0;
};

// Stateless decision oracle; const and safe to share across threads.
class FaultSchedule {
 public:
  explicit FaultSchedule(const FaultConfig& config);

  const FaultConfig& config() const { return config_; }

  // Verdict for the index-th send (0-based) on `channel`. Channels are
  // numbered 0..k-1 for site->coordinator and k..2k-1 for
  // coordinator->site, matching sim::Network.
  SendFaults OnSend(uint32_t channel, uint64_t index) const;

  // True iff the site crashes upon its index-th item arrival (0-based
  // count of every arrival, including those lost while down).
  bool CrashesAt(int site, uint64_t item_index) const;

  // True iff the whole shard process is killed after stream step `step`
  // (1-based, a quiesce point). Independent of the message/crash
  // verdicts, so enabling kills never perturbs the rest of the schedule.
  bool ProcessKillsAt(uint64_t step) const;

 private:
  FaultConfig config_;
};

}  // namespace dwrs::faults

#endif  // DWRS_FAULTS_FAULT_SCHEDULE_H_
