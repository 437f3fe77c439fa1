// The repository benchmark. One process runs one workload:
//
//   perfbench --workload zipf_ingest|fanout_live|durable_sessions
//             --seed N --seconds S --trace 0|1 [--commit SHA] [--out-dir D]
//
// --trace 0 measures the end-to-end metrics with tracing off: fixed-work
// rounds, each on a freshly built stack, repeated until S seconds have
// passed, each metric the median over the rounds. --trace 1 is the traced
// run: the workload's own rounds alternate untraced and traced (spans
// around every call into a layer, counter snapshots at the window
// bounds), then the workload's stream is pushed through every layer in
// turn. Either way the last stdout line is one JSON object with correct,
// attempted, failed and metrics; a failed output check exits 1.
//
// Workloads, metrics and the reasons for both are in README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "harness.h"
#include "metrics.h"
#include "stages.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".";
};

constexpr double kQueriesPerS = 20000.0;

// zipf_ingest: Zipf(1.1) over 2^20 ranks, k = 8, s = 64, engine::Engine
// with 2 pool workers. The warm-up runs past the protocol's early phase
// (the message rate settles within the first 64k items).
constexpr int kZipfWorkers = 2;
constexpr uint64_t kZipfPool = uint64_t{1} << 20;
constexpr uint64_t kZipfChunk = 4096;
constexpr uint64_t kZipfWarmup = uint64_t{1} << 18;
constexpr uint64_t kZipfWindow = uint64_t{1} << 25;

// fanout_live: k = 65,536 sites, uniform weights in [1, 16], one shard
// with one worker, live publishing and one open-loop client. No warm-up:
// the message-heavy early phase is what this workload measures.
constexpr uint64_t kFanoutPool = uint64_t{1} << 21;
constexpr uint64_t kFanoutChunk = 65536;
constexpr uint64_t kFanoutWindow = uint64_t{1} << 21;

// durable_sessions: the zipf stream at k = 8 through DurableWswor on the
// simulator backend, 2^20 steps; both kills fall in the window. The window
// keeps the tail of the protocol's early phase: its ~9,000 messages make
// the message count steady across seeds, where a window starting past
// 64k steps holds ~300 and spreads 0.2.
constexpr uint64_t kDurableSteps = uint64_t{1} << 20;
constexpr uint64_t kDurableChunk = 4096;
constexpr uint64_t kDurableWarmup = 8192;
// Every checkpoint fsyncs its file and the directory. At 4,096 steps the
// 240 fsync pairs per window made the run's speed follow the shared
// disk's fsync latency (spread 0.29 over ten seeds); at 16,384 the WAL
// still dominates and checkpoints, rotation and recovery stay exercised.
constexpr uint64_t kCheckpointEvery = 16384;

// The live query plane on the k = 8 streams, in the traced run.
constexpr uint64_t kStageLiveWindow = uint64_t{1} << 22;
// sim::Runtime and the session stacks scan every site channel per step,
// so stages of those layers run at most this many sites.
constexpr int kMaxSimSites = 1024;

StreamSpec ZipfSpec(uint64_t seed) { return {8, 64, WeightKind::kZipf, seed}; }
StreamSpec FanoutSpec(uint64_t seed) {
  return {65536, 64, WeightKind::kUniform, seed};
}

int ThreadsOf(const std::string& workload) {
  if (workload == "zipf_ingest") return 2 + kZipfWorkers;  // feeder + coord
  if (workload == "fanout_live") return 4;  // feeder, coord, worker, client
  return 1;
}

double Now() { return static_cast<double>(NowNs()) * 1e-9; }

// Runs `round` until `seconds` have passed and at least `min_rounds` ran.
void RunRounds(double seconds, int min_rounds,
               const std::function<void(int)>& round) {
  const double deadline = Now() + seconds;
  int r = 0;
  do {
    round(r++);
  } while (r < min_rounds || Now() < deadline);
}

// Duration of all spans named `name`, in ns.
int64_t SpanTotalNs(const SpanRecorder& rec, const char* name) {
  int64_t total = 0;
  for (const Span& s : rec.spans()) {
    if (std::strcmp(s.name, name) == 0) total += s.end_ns - s.start_ns;
  }
  return total;
}

// --- per-layer metric catalogue ----------------------------------------

// Every per-layer metric, in output order, with its unit. The traced run
// of every workload must set each one.
const std::vector<std::pair<std::string, std::string>>& LayerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kAll = {
      {"core.site_ns_per_item", "ns"},
      {"core.keys_decided_per_kitem", "1/kitem"},
      {"core.skip_frac", "fraction"},
      {"core.key_bits_per_item", "bit"},
      {"sim.ns_per_item", "ns"},
      {"sim.msgs_per_kitem", "1/kitem"},
      {"engine.push_ns_per_item", "ns"},
      {"engine.flush_ms", "ms"},
      {"engine.msg_inflation", "ratio"},
      {"engine.ingest_stalls_per_kitem", "1/kitem"},
      {"engine.worker_parks_per_kitem", "1/kitem"},
      {"engine.batch_recycle_frac", "fraction"},
      {"engine.upstream_stalls_per_kitem", "1/kitem"},
      {"engine.steals_per_kitem", "1/kitem"},
      {"engine.sites_scheduled_per_kitem", "1/kitem"},
      {"engine.site_to_coord_per_kitem", "1/kitem"},
      {"engine.coord_to_site_per_kitem", "1/kitem"},
      {"query.latency_us_p50", "us"},
      {"query.latency_us_p99", "us"},
      {"query.latency_samples", "count"},
      {"query.publishes_per_kitem", "1/kitem"},
      {"query.cache_hit_frac", "fraction"},
      {"query.hit_us_p50", "us"},
      {"query.miss_us_p50", "us"},
      {"query.publish_cost_frac", "fraction"},
      {"query.staleness_items_p50", "items"},
      {"query.staleness_items_p99", "items"},
      {"query.client_late_us_p99", "us"},
      {"faults.session_ns_per_item", "ns"},
      {"faults.retransmits_per_kitem", "1/kitem"},
      {"faults.duplicates_dropped_per_kitem", "1/kitem"},
      {"faults.gaps_detected_per_kitem", "1/kitem"},
      {"faults.lossy_msgs_per_kitem", "1/kitem"},
      {"faults.lossy_retransmits_per_kitem", "1/kitem"},
      {"durability.wal_bytes_per_kitem", "B/kitem"},
      {"durability.wal_only_ns_per_item", "ns"},
      {"durability.checkpoint_share", "fraction"},
      {"durability.wal_commits_per_kitem", "1/kitem"},
      {"durability.checkpoints_per_kitem", "1/kitem"},
      {"durability.wal_records_replayed", "count"},
      {"durability.recoveries", "count"},
      {"durability.wal_commit_us_p50", "us"},
      {"obs.trace_overhead_frac", "fraction"},
      {"obs.span_coverage", "fraction"},
  };
  return kAll;
}

using Layers = std::map<std::string, double>;

void EmitLayers(const Layers& layers, Result* result) {
  for (const auto& [name, unit] : LayerCatalogue()) {
    const auto it = layers.find(name);
    DWRS_CHECK(it != layers.end()) << " per-layer metric " << name
                                   << " was not measured";
    result->Add(name, it->second, unit);
  }
}

// engine.* from the counter snapshots at the window bounds.
void EngineLayer(const dwrs::obs::Snapshot& a, const dwrs::obs::Snapshot& b,
                 uint64_t items, double push_ns_per_item, double flush_s,
                 double reference_msgs_per_kitem, Layers* L) {
  const auto d = [&](const char* leaf) {
    return Delta(a, b, std::string("engine/") + leaf);
  };
  (*L)["engine.push_ns_per_item"] = push_ns_per_item;
  (*L)["engine.flush_ms"] = flush_s * 1e3;
  (*L)["engine.msg_inflation"] =
      reference_msgs_per_kitem > 0.0
          ? PerKitem(d("messages"), items) / reference_msgs_per_kitem
          : 0.0;
  (*L)["engine.ingest_stalls_per_kitem"] = PerKitem(d("ingest_stalls"), items);
  (*L)["engine.worker_parks_per_kitem"] = PerKitem(d("worker_parks"), items);
  (*L)["engine.batch_recycle_frac"] =
      Frac(d("batches_recycled"), d("batches_ingested"));
  (*L)["engine.upstream_stalls_per_kitem"] =
      PerKitem(d("upstream_stalls"), items);
  (*L)["engine.steals_per_kitem"] = PerKitem(d("steals"), items);
  (*L)["engine.sites_scheduled_per_kitem"] =
      PerKitem(d("sites_scheduled"), items);
  (*L)["engine.site_to_coord_per_kitem"] = PerKitem(d("site_to_coord"), items);
  (*L)["engine.coord_to_site_per_kitem"] = PerKitem(d("coord_to_site"), items);
}

// query.* from one traced live run and the publish-off ingest rate.
void QueryLayer(const LiveRun& run, double rate_publish_off, Layers* L) {
  const Percentile p50 = PercentileOf(run.latency_us, 0.5);
  const Percentile p99 = PercentileOf(run.latency_us, 0.99);
  const uint64_t hits = Delta(run.before, run.after, "query/cache_hits");
  const uint64_t misses = Delta(run.before, run.after, "query/cache_misses");
  (*L)["query.latency_us_p50"] = p50.value;
  (*L)["query.latency_us_p99"] = p99.value;
  (*L)["query.latency_samples"] = static_cast<double>(p99.count);
  (*L)["query.publishes_per_kitem"] = PerKitem(
      Delta(run.before, run.after, "engine/snapshot_publishes"), run.items);
  (*L)["query.cache_hit_frac"] = Frac(hits, hits + misses);
  (*L)["query.hit_us_p50"] = PercentileOf(run.hit_us, 0.5).value;
  (*L)["query.miss_us_p50"] = PercentileOf(run.miss_us, 0.5).value;
  const double rate_on = static_cast<double>(run.items) / run.window_s;
  (*L)["query.publish_cost_frac"] = 1.0 - rate_on / rate_publish_off;
  (*L)["query.staleness_items_p50"] =
      PercentileOf(run.staleness_items, 0.5).value;
  (*L)["query.staleness_items_p99"] =
      PercentileOf(run.staleness_items, 0.99).value;
  (*L)["query.client_late_us_p99"] = PercentileOf(run.late_us, 0.99).value;
  std::printf("query: %zu queries (%zu hits, %zu misses timed), p50 %.3f us, "
              "p99 %.3f us over %zu samples\n",
              run.latency_us.size(), run.hit_us.size(), run.miss_us.size(),
              p50.value, p99.value, p99.count);
}

void CoreLayer(const StageRun& core, Layers* L) {
  (*L)["core.site_ns_per_item"] = core.ns_per_item;
  (*L)["core.keys_decided_per_kitem"] =
      PerKitem(core.hot.keys_decided, core.items);
  (*L)["core.skip_frac"] = Frac(core.hot.skips_taken, core.hot.keys_decided);
  (*L)["core.key_bits_per_item"] =
      static_cast<double>(core.hot.key_bits_consumed) /
      static_cast<double>(core.items);
}

void SimLayer(const StageRun& sim, Layers* L) {
  (*L)["sim.ns_per_item"] = sim.ns_per_item;
  (*L)["sim.msgs_per_kitem"] = PerKitem(sim.messages, sim.items);
}

void FaultsLayer(const FaultsRun& f, const FaultsRun& lossy, Layers* L) {
  (*L)["faults.session_ns_per_item"] = f.ns_per_item;
  (*L)["faults.retransmits_per_kitem"] =
      PerKitem(f.report.retransmits_sent - f.at_window.retransmits_sent,
               f.items);
  (*L)["faults.duplicates_dropped_per_kitem"] =
      PerKitem(f.report.duplicates_dropped - f.at_window.duplicates_dropped,
               f.items);
  (*L)["faults.gaps_detected_per_kitem"] =
      PerKitem(f.report.gaps_detected - f.at_window.gaps_detected, f.items);
  (*L)["faults.lossy_msgs_per_kitem"] = PerKitem(lossy.messages, lossy.items);
  (*L)["faults.lossy_retransmits_per_kitem"] =
      PerKitem(lossy.report.retransmits_sent - lossy.at_window.retransmits_sent,
               lossy.items);
}

// Messages the network carried in the window: every copy the fault
// transport forwarded (duplicates and released delays included), which is
// what MessageStats counts below it.
uint64_t WindowMessages(const DurableRun& r) {
  return r.report.faults_forwarded - r.at_window.faults_forwarded;
}

double NsPerItem(const DurableRun& r) {
  return r.window_s * 1e9 / static_cast<double>(r.items);
}

// durability.* from the WAL-only, +checkpoint and full (kills) runs.
void DurabilityLayer(const DurableRun& wal_only, const DurableRun& checkpoints,
                     const DurableRun& full, double full_ns_per_item,
                     const std::vector<double>& commit_us, Layers* L) {
  (*L)["durability.wal_bytes_per_kitem"] =
      PerKitem(full.wal.bytes_committed - full.wal_at_window.bytes_committed,
               full.items);
  (*L)["durability.wal_only_ns_per_item"] = NsPerItem(wal_only);
  (*L)["durability.checkpoint_share"] =
      (NsPerItem(checkpoints) - NsPerItem(wal_only)) / full_ns_per_item;
  (*L)["durability.wal_commits_per_kitem"] =
      PerKitem(full.wal.commits - full.wal_at_window.commits, full.items);
  (*L)["durability.checkpoints_per_kitem"] =
      PerKitem(full.report.checkpoints_written -
                   full.at_window.checkpoints_written,
               full.items);
  (*L)["durability.wal_records_replayed"] =
      static_cast<double>(full.report.wal_records_replayed -
                          full.at_window.wal_records_replayed);
  (*L)["durability.recoveries"] = static_cast<double>(
      full.report.recoveries - full.at_window.recoveries);
  (*L)["durability.wal_commit_us_p50"] = PercentileOf(commit_us, 0.5).value;
}

// Prints one waterfall row per stage: ns/item, msgs/kitem and the delta
// the stage adds over the previous one.
void PrintWaterfall(
    const std::string& workload,
    const std::vector<std::tuple<std::string, double, double>>& stages) {
  double prev = 0.0;
  for (const auto& [name, ns, msgs] : stages) {
    PrintRow("waterfall " + workload + " " + name,
             {{"ns_per_item", ns}, {"msgs_per_kitem", msgs},
              {"delta_ns_per_item", ns - prev}});
    prev = ns;
  }
}

// Layers every traced run measures on the workload's stream the same way:
// the single-threaded core and sim stages and the session/durability
// stack. `slow` is the workload's stream at most kMaxSimSites wide.
struct SharedStages {
  StageRun core, sim;
  FaultsRun faults, lossy;
  DurableRun wal_only, checkpoints, full;
  std::vector<double> commit_us;
};

SharedStages RunSharedStages(const StreamSpec& spec, ItemPool& pool,
                             uint64_t warmup, uint64_t window,
                             const StreamSpec& slow_spec, ItemPool& slow_pool,
                             const std::string& dir, SpanRecorder* rec,
                             Result* result) {
  SharedStages st;
  st.core = RunCore(spec, pool, warmup, window, result);
  if (slow_spec.k == spec.k) {
    st.sim = RunSim(spec, pool, warmup, window, rec, result);
  } else {
    st.sim = RunSim(slow_spec, slow_pool, kDurableWarmup,
                    kDurableSteps - kDurableWarmup, rec, result);
  }
  slow_pool.Rewind();
  const dwrs::Workload wl = slow_pool.MakeWorkload(kDurableSteps);
  st.faults = RunFaults(slow_spec, wl, kDurableWarmup, 0.0, rec, result);
  st.lossy = RunFaults(slow_spec, wl, kDurableWarmup, kLossyDropProb, rec,
                       result);
  st.wal_only = RunDurable(slow_spec, wl, kDurableWarmup,
                           /*checkpoint_interval=*/wl.size() + 1, false, dir,
                           rec, result);
  // Without periodic checkpoints nothing rotates or prunes the genesis
  // segment, so it still holds every record of the run.
  st.commit_us = WalCommitLatencies(dir, dir + "-replay.log", 8, rec);
  st.checkpoints = RunDurable(slow_spec, wl, kDurableWarmup, kCheckpointEvery,
                              false, dir, rec, result);
  st.full = RunDurable(slow_spec, wl, kDurableWarmup, kCheckpointEvery, true,
                       dir, rec, result);
  return st;
}

// The traced run's own rounds of the workload: untraced and traced rounds
// alternate, so the two rates compare under the same host conditions.
struct OwnRounds {
  explicit OwnRounds(uint32_t trace_id) : trace_id(trace_id) {}

  // Recorders for the next round, or null for an untraced one.
  SpanRecorder* Feeder(bool traced) {
    return traced ? &feeder.emplace_back(trace_id) : nullptr;
  }
  SpanRecorder* Client(bool traced) {
    return traced ? &client.emplace_back(trace_id) : nullptr;
  }

  // Books a finished round; a traced one's spans are checked against its
  // measured window [start, end).
  void Book(SpanRecorder* rec, uint64_t items, double window_s,
            int64_t window_start_ns, int64_t window_end_ns) {
    const double rate = static_cast<double>(items) / window_s;
    if (rec == nullptr) {
      plain_rate.push_back(rate);
      return;
    }
    traced_rate.push_back(rate);
    traced_items += items;
    coverage.push_back(
        Coverage(rec->spans(), window_start_ns, window_end_ns));
  }

  uint32_t trace_id;
  std::deque<SpanRecorder> feeder, client;
  std::vector<double> plain_rate, traced_rate, coverage;
  uint64_t traced_items = 0;
};

// obs.* metrics, the coverage check, self times of the traced rounds, the
// span file, and the metrics line.
void FinishTrace(const std::string& workload, const Args& args,
                 const OwnRounds& own, const std::deque<SpanRecorder>& stages,
                 Layers* L, Result* result) {
  (*L)["obs.trace_overhead_frac"] =
      1.0 - Median(own.traced_rate) / Median(own.plain_rate);
  (*L)["obs.span_coverage"] =
      *std::min_element(own.coverage.begin(), own.coverage.end());
  result->Check((*L)["obs.span_coverage"] >= 0.95,
                "trace: top-level spans cover >= 95% of the feeder window");
  std::map<std::string, int64_t> self;
  for (const SpanRecorder& r : own.feeder) {
    for (const auto& [name, ns] : SelfTimesNs(r.spans())) self[name] += ns;
  }
  for (const auto& [name, ns] : self) {
    PrintRow("selftime " + workload + " " + name,
             {{"ns_per_item", static_cast<double>(ns) /
                                  static_cast<double>(own.traced_items)}});
  }
  std::vector<std::pair<int, const SpanRecorder*>> threads;
  for (const SpanRecorder& r : own.feeder) threads.emplace_back(0, &r);
  for (const SpanRecorder& r : stages) threads.emplace_back(0, &r);
  for (const SpanRecorder& r : own.client) threads.emplace_back(1, &r);
  WriteSpans(args.out_dir + "/spans-" + workload + ".json", threads);
  EmitLayers(*L, result);
}

// --- workloads ----------------------------------------------------------

// Per-round figures of an untraced run.
struct Rounds {
  std::vector<double> rate, msgs, setup;
};

// The end-to-end metrics: medians over the rounds. Peak memory growth is
// printed, not reported: on the small stacks it is a megabyte of allocator
// noise.
void ReportE2e(const Rounds& rounds, Result* result) {
  std::printf("round ingest_items_per_s:");
  for (double r : rounds.rate) std::printf(" %.4g", r);
  std::printf("\nrss_peak_mb %.3f\n", RssPeakGrowthMb());
  result->Add("ingest_items_per_s", Median(rounds.rate), "1/s");
  result->Add("msgs_per_kitem", Median(rounds.msgs), "1/kitem");
  result->Add("setup_s", Median(rounds.setup), "s");
}

Result ZipfIngest(const Args& args) {
  const StreamSpec spec = ZipfSpec(args.seed);
  ItemPool pool(spec, kZipfPool, kZipfChunk);
  Result result;
  if (!args.trace) {
    ResetRssBaseline();
    Rounds rounds;
    RunRounds(args.seconds, 3, [&](int) {
      const EngineRun r = RunEngine(spec, pool, kZipfWorkers, kZipfWarmup,
                                    kZipfWindow, nullptr, &result);
      rounds.rate.push_back(static_cast<double>(r.items) / r.window_s);
      rounds.msgs.push_back(
          PerKitem(Delta(r.before, r.after, "engine/messages"), r.items));
      rounds.setup.push_back(r.setup_s);
    });
    std::printf("zipf_ingest: %zu rounds of %llu items after a %llu-item "
                "warm-up\n",
                rounds.rate.size(),
                static_cast<unsigned long long>(kZipfWindow),
                static_cast<unsigned long long>(kZipfWarmup));
    ReportE2e(rounds, &result);
    return result;
  }

  OwnRounds own(/*trace_id=*/1);
  EngineRun last;
  RunRounds(0.4 * args.seconds, 4, [&](int r) {
    SpanRecorder* rec = own.Feeder(r % 2 == 1);
    EngineRun run = RunEngine(spec, pool, kZipfWorkers, kZipfWarmup,
                              kZipfWindow, rec, &result);
    own.Book(rec, run.items, run.window_s, run.window_start_ns,
             run.window_end_ns);
    if (rec != nullptr) last = std::move(run);
  });
  std::deque<SpanRecorder> stages;
  SpanRecorder* stage_rec = &stages.emplace_back(own.trace_id);
  ItemPool slow_pool(spec, kDurableSteps, kDurableChunk);
  const SharedStages st = RunSharedStages(
      spec, pool, kZipfWarmup, kZipfWindow, spec, slow_pool,
      args.out_dir + "/zipf_ingest-state", stage_rec, &result);
  // The live query plane on this stream: one shard, one worker, one client.
  const LiveRun off = RunLive(spec, pool, kStageLiveWindow, false, 0.0,
                              nullptr, nullptr, &result);
  const LiveRun on = RunLive(spec, pool, kStageLiveWindow, true, kQueriesPerS,
                             nullptr, &stages.emplace_back(own.trace_id),
                             &result);

  Layers L;
  CoreLayer(st.core, &L);
  SimLayer(st.sim, &L);
  EngineLayer(last.before, last.after, last.items,
              static_cast<double>(SpanTotalNs(own.feeder.back(), "Push")) /
                  static_cast<double>(last.items),
              last.flush_s, PerKitem(st.core.messages, st.core.items), &L);
  QueryLayer(on, static_cast<double>(off.items) / off.window_s, &L);
  FaultsLayer(st.faults, st.lossy, &L);
  DurabilityLayer(st.wal_only, st.checkpoints, st.full, NsPerItem(st.full),
                  st.commit_us, &L);
  PrintWaterfall(
      "zipf_ingest",
      {{"site_alone", st.core.ns_per_item,
        PerKitem(st.core.messages, st.core.items)},
       {"sim", st.sim.ns_per_item, PerKitem(st.sim.messages, st.sim.items)},
       {"engine", 1e9 / Median(own.plain_rate),
        PerKitem(Delta(last.before, last.after, "engine/messages"),
                 last.items)}});
  FinishTrace("zipf_ingest", args, own, stages, &L, &result);
  return result;
}

Result FanoutLive(const Args& args) {
  const StreamSpec spec = FanoutSpec(args.seed);
  ItemPool pool(spec, kFanoutPool, kFanoutChunk);
  Result result;
  if (!args.trace) {
    ResetRssBaseline();
    Rounds rounds;
    std::vector<double> p50, p99;
    RunRounds(args.seconds, 3, [&](int) {
      const LiveRun r = RunLive(spec, pool, kFanoutWindow, true, kQueriesPerS,
                                nullptr, nullptr, &result);
      rounds.rate.push_back(static_cast<double>(r.items) / r.window_s);
      rounds.msgs.push_back(
          PerKitem(Delta(r.before, r.after, "engine/messages"), r.items));
      rounds.setup.push_back(r.setup_s);
      p50.push_back(PercentileOf(r.latency_us, 0.5).value);
      p99.push_back(PercentileOf(r.latency_us, 0.99).value);
    });
    std::printf("fanout_live: %zu rounds of %llu items; query latency median "
                "of round p50 %.3f us, of round p99 %.3f us\n",
                rounds.rate.size(),
                static_cast<unsigned long long>(kFanoutWindow), Median(p50),
                Median(p99));
    ReportE2e(rounds, &result);
    return result;
  }

  // Rounds cycle: untraced, traced, publishing off.
  OwnRounds own(/*trace_id=*/2);
  std::vector<double> off_rate;
  LiveRun last;
  RunRounds(0.5 * args.seconds, 6, [&](int r) {
    if (r % 3 == 2) {
      const LiveRun off = RunLive(spec, pool, kFanoutWindow, false, 0.0,
                                  nullptr, nullptr, &result);
      off_rate.push_back(static_cast<double>(off.items) / off.window_s);
      return;
    }
    SpanRecorder* rec = own.Feeder(r % 3 == 1);
    LiveRun run = RunLive(spec, pool, kFanoutWindow, true, kQueriesPerS, rec,
                          own.Client(rec != nullptr), &result);
    own.Book(rec, run.items, run.window_s, run.window_start_ns,
             run.window_end_ns);
    if (rec != nullptr) last = std::move(run);
  });
  std::deque<SpanRecorder> stages;
  StreamSpec slow_spec = spec;
  if (slow_spec.k > kMaxSimSites) slow_spec.k = 8;
  ItemPool slow_pool(slow_spec, kDurableSteps, kDurableChunk);
  const SharedStages st = RunSharedStages(
      spec, pool, 0, kFanoutWindow, slow_spec, slow_pool,
      args.out_dir + "/fanout_live-state", &stages.emplace_back(own.trace_id),
      &result);

  Layers L;
  CoreLayer(st.core, &L);
  SimLayer(st.sim, &L);
  EngineLayer(last.before, last.after, last.items,
              static_cast<double>(SpanTotalNs(own.feeder.back(), "Push")) /
                  static_cast<double>(last.items),
              last.flush_s, PerKitem(st.core.messages, st.core.items), &L);
  QueryLayer(last, Median(off_rate), &L);
  FaultsLayer(st.faults, st.lossy, &L);
  DurabilityLayer(st.wal_only, st.checkpoints, st.full, NsPerItem(st.full),
                  st.commit_us, &L);
  PrintWaterfall(
      "fanout_live",
      {{"site_alone", st.core.ns_per_item,
        PerKitem(st.core.messages, st.core.items)},
       {"engine_publish_off", 1e9 / Median(off_rate), 0.0},
       {"engine_publish_on", 1e9 / Median(own.plain_rate),
        PerKitem(Delta(last.before, last.after, "engine/messages"),
                 last.items)}});
  FinishTrace("fanout_live", args, own, stages, &L, &result);
  return result;
}

Result DurableSessions(const Args& args) {
  const StreamSpec spec = ZipfSpec(args.seed);
  ItemPool pool(spec, kDurableSteps, kDurableChunk);
  const dwrs::Workload wl = pool.MakeWorkload(kDurableSteps);
  const std::string dir = args.out_dir + "/durable_sessions-state";
  Result result;
  if (!args.trace) {
    ResetRssBaseline();
    Rounds rounds;
    std::vector<double> wal;
    RunRounds(args.seconds, 3, [&](int) {
      const DurableRun r = RunDurable(spec, wl, kDurableWarmup,
                                      kCheckpointEvery, true, dir, nullptr,
                                      &result);
      rounds.rate.push_back(static_cast<double>(r.items) / r.window_s);
      rounds.msgs.push_back(PerKitem(WindowMessages(r), r.items));
      rounds.setup.push_back(r.setup_s);
      wal.push_back(PerKitem(
          r.wal.bytes_committed - r.wal_at_window.bytes_committed, r.items));
    });
    std::printf("durable_sessions: %zu rounds of %llu steps after a "
                "%llu-step warm-up; WAL %.4f B/kitem\n",
                rounds.rate.size(),
                static_cast<unsigned long long>(kDurableSteps - kDurableWarmup),
                static_cast<unsigned long long>(kDurableWarmup), Median(wal));
    ReportE2e(rounds, &result);
    return result;
  }

  OwnRounds own(/*trace_id=*/3);
  RunRounds(0.4 * args.seconds, 4, [&](int r) {
    SpanRecorder* rec = own.Feeder(r % 2 == 1);
    const DurableRun run = RunDurable(spec, wl, kDurableWarmup,
                                      kCheckpointEvery, true, dir, rec, &result);
    own.Book(rec, run.items, run.window_s, run.window_start_ns,
             run.window_end_ns);
  });
  std::deque<SpanRecorder> stages;
  SpanRecorder* stage_rec = &stages.emplace_back(own.trace_id);
  const SharedStages st = RunSharedStages(
      spec, pool, kDurableWarmup, kDurableSteps - kDurableWarmup, spec, pool,
      dir + "-stage", stage_rec, &result);
  // The engine layer on this stream (the zipf_ingest engine shape) and the
  // live query plane on it.
  SpanRecorder* engine_rec = &stages.emplace_back(own.trace_id);
  const EngineRun eng =
      RunEngine(spec, pool, kZipfWorkers, kDurableWarmup,
                kDurableSteps - kDurableWarmup, engine_rec, &result);
  const LiveRun off = RunLive(spec, pool, kStageLiveWindow, false, 0.0,
                              nullptr, nullptr, &result);
  const LiveRun on = RunLive(spec, pool, kStageLiveWindow, true, kQueriesPerS,
                             nullptr, &stages.emplace_back(own.trace_id),
                             &result);

  // The traced rounds of the workload itself time the full durable stack;
  // its counts are the (identical, deterministic) full stage's.
  const double full_ns = 1e9 / Median(own.traced_rate);
  Layers L;
  CoreLayer(st.core, &L);
  SimLayer(st.sim, &L);
  EngineLayer(eng.before, eng.after, eng.items,
              static_cast<double>(SpanTotalNs(*engine_rec, "Push")) /
                  static_cast<double>(eng.items),
              eng.flush_s, PerKitem(st.core.messages, st.core.items), &L);
  QueryLayer(on, static_cast<double>(off.items) / off.window_s, &L);
  FaultsLayer(st.faults, st.lossy, &L);
  DurabilityLayer(st.wal_only, st.checkpoints, st.full, full_ns, st.commit_us,
                  &L);

  // One thread runs everything here, so the waterfall's layer deltas sum
  // to its last row, the traced workload itself; that must agree with the
  // untraced end-to-end figure of the same run. Host phases swing
  // single-threaded speed by up to 2x between rounds, hence 50%.
  const double e2e_ns = 1e9 / Median(own.plain_rate);
  PrintWaterfall(
      "durable_sessions",
      {{"sim", st.sim.ns_per_item, PerKitem(st.sim.messages, st.sim.items)},
       {"sessions", st.faults.ns_per_item,
        PerKitem(st.faults.messages, st.faults.items)},
       {"wal", NsPerItem(st.wal_only), 0.0},
       {"checkpoints", NsPerItem(st.checkpoints), 0.0},
       {"kills", full_ns, PerKitem(WindowMessages(st.full), st.full.items)}});
  PrintRow("waterfall durable_sessions sum_vs_e2e",
           {{"sum_ns_per_item", full_ns}, {"e2e_ns_per_item", e2e_ns}});
  result.Check(std::abs(full_ns - e2e_ns) <= 0.5 * e2e_ns,
               "waterfall: layer deltas add up to the e2e ns/item within 50%");
  FinishTrace("durable_sessions", args, own, stages, &L, &result);
  return result;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "zipf_ingest|fanout_live|durable_sessions --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0.0) Usage("--seconds must be positive");
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  std::map<std::string, std::function<Result(const Args&)>> workloads = {
      {"zipf_ingest", ZipfIngest},
      {"fanout_live", FanoutLive},
      {"durable_sessions", DurableSessions}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) Usage("unknown workload");
  std::filesystem::create_directories(args.out_dir);
  std::printf("fingerprint %s\n",
              FingerprintJson(args.commit, args.seed, args.workload,
                              ThreadsOf(args.workload))
                  .c_str());
  const Result result = it->second(args);
  std::printf("failed_ops_frac %.6g (%llu of %llu)\n",
              Frac(result.failed, result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::printf("%s\n", result.ToJson().c_str());
  return result.failed == 0 ? 0 : 1;
}
