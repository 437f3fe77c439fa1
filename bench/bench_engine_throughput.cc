// E11 — execution backends: single-threaded step-synchronous simulator
// (sim::Runtime) vs the concurrent engine (engine::Engine) on the paper's
// weighted SWOR protocol, Zipfian workload, k ∈ {2, 4, 8, 16} sites.
//
// The protocol's O(k log W / log k + s log W) message bound is what makes
// the threaded deployment cheap: sites almost never talk, so per-site
// threads run the O(1)-per-update site work with one amortized queue
// operation per ingestion batch, while the simulator pays an O(k) channel
// scan per event. Also measured: the adversarial single-hot-site stream
// (zero parallelism available — worst case for the engine) and the
// engine's batch-size sensitivity.
//
// E12 — sharded multi-coordinator topology (engine::ShardedEngine): the
// single coordinator thread and its one MPSC inbox are the engine's
// serialization point, so the sweep that exposes them is message-HEAVY —
// the naive baseline protocol with an unsaturable local top-s (every
// item becomes an upstream message), high k, small ingestion batches.
// S ∈ {1, 2, 4} shard coordinators against the unsharded engine, plus a
// sharded row on the paper protocol's (message-light) Zipf workload,
// where sharding is expected to be ~neutral. `--shards=N` restricts the
// sweep to one shard count.
//
// E13 — live query serving (src/query/): a reader thread hammers the
// lock-free QueryService while the sharded engine ingests at full
// speed. Measured: the ingest throughput retained under continuous
// querying, the sustained query rate, and the mean query latency.
//
// E14 — site virtualization scaling: k ∈ {10^2, 10^3, 10^4, 10^5}
// logical sites multiplexed over the fixed worker pool (pool size is
// set by the machine, not by k — see engine/scheduler.h). Thread-per-
// site stops being runnable two decades before the top of this sweep.
// Throughput does decline with k, but for a protocol reason, not a
// scheduling one: at fixed n, growing k makes every item an early item
// at a nearly-empty site, so upstream messages per item approach 1 —
// the row's msgs column shows the decline tracking message volume. The
// gated expectation is the floor: k = 10^5 stays within roughly one
// order of magnitude of k = 10^2 instead of collapsing.
//
// E15 — durability tax: the fault-harness protocol stack with the
// write-ahead log + periodic checkpoints on (src/durability/) against
// the same stack with durability off, sweeping the group-commit
// interval (= the kill loss window, in steps) and the fdatasync
// cadence. The durable_c8 row (the defaults the kill/recover tests
// run) is gated IN-RUN against its own plain baseline: durable ingest
// must stay within 25% of non-durable, measured back to back in the
// same process so machine speed cancels.
//
// E16 — multi-reader query scale-out: readers ∈ {1, 4, 8} hammering the
// QueryService concurrently with ingestion, root-merge cache off vs on.
// Uncached queries redo the S-way root merge every call; cached ones
// revalidate by per-shard publish-sequence stamps and share the merged
// result, so between publishes they are O(1) and copy no snapshots.
// Gated in-run: some cached multi-reader row must reach 1e6 queries/s
// and 4x its uncached counterpart, measured back to back in the same
// process so machine speed cancels.
//
// Results are written to BENCH_engine_throughput.json (schema: name,
// params, rows[workload, backend, k, batch_size, shards, items_per_sec,
// messages, ...]; the live_query row adds queries_per_sec, query_us_mean
// and the registry histogram's query_us_p50/query_us_p99; the
// query_scale_* rows add readers, cache and the merge-cache counters).

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "bench_util.h"
#include "core/sharded_sampler.h"
#include "durability/durable_shard.h"
#include "engine/engine.h"
#include "faults/harness.h"
#include "engine/sharded_engine.h"
#include "query/live.h"
#include "query/query_service.h"

namespace dwrs {
namespace {

struct BackendResult {
  double seconds = 0.0;
  double items_per_sec = 0.0;
  uint64_t messages = 0;
  // Site hot-path counters (engine rows; the sim facade reports the same
  // totals through DistributedWswor::KeysDecided for cross-checking).
  uint64_t keys_decided = 0;
  uint64_t key_bits = 0;
  uint64_t skips_taken = 0;
  uint64_t batches_recycled = 0;
  // Sharded rows: per-shard coordinator-inbox traffic, "m0|m1|...".
  std::string per_shard_messages;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

BackendResult RunSim(const Workload& w, int k, int s, uint64_t seed) {
  DistributedWswor sampler(
      WsworConfig{.num_sites = k, .sample_size = s, .seed = seed});
  const double t0 = Now();
  sampler.Run(w);
  const double t1 = Now();
  BackendResult result;
  result.seconds = t1 - t0;
  result.items_per_sec = static_cast<double>(w.size()) / (t1 - t0);
  result.messages = sampler.stats().total_messages();
  result.keys_decided = sampler.KeysDecided();
  result.key_bits = sampler.KeyBitsConsumed();
  return result;
}

BackendResult RunEngine(const Workload& w, const engine::EngineConfig& econfig,
                        int s, uint64_t seed) {
  const int k = econfig.num_sites;
  const WsworConfig config{.num_sites = k, .sample_size = s, .seed = seed};
  engine::Engine eng(econfig);
  Rng master(config.seed);
  std::vector<std::unique_ptr<WsworSite>> sites;
  for (int i = 0; i < k; ++i) {
    sites.push_back(std::make_unique<WsworSite>(config, i, &eng.transport(),
                                                master.NextU64()));
    eng.AttachSite(i, sites.back().get());
  }
  WsworCoordinator coordinator(config, &eng.transport(), master.NextU64());
  eng.AttachCoordinator(&coordinator);
  const double t0 = Now();
  eng.Run(w);
  const double t1 = Now();
  BackendResult result;
  result.seconds = t1 - t0;
  result.items_per_sec = static_cast<double>(w.size()) / (t1 - t0);
  result.messages = eng.stats().total_messages();
  result.keys_decided = eng.stats().keys_decided.load();
  result.key_bits = eng.stats().key_bits_consumed.load();
  result.skips_taken = eng.stats().skips_taken.load();
  result.batches_recycled = eng.stats().batches_recycled.load();
  eng.Shutdown();
  return result;
}

BackendResult RunEngine(const Workload& w, int k, int s, uint64_t seed,
                        size_t batch_size) {
  engine::EngineConfig econfig;
  econfig.num_sites = k;
  econfig.batch_size = batch_size;
  return RunEngine(w, econfig, s, seed);
}

std::string JoinCounts(const std::vector<uint64_t>& counts) {
  std::string out;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i != 0) out += '|';
    out += std::to_string(counts[i]);
  }
  return out;
}

// The sharded paper protocol (weighted SWOR) on the engine backend.
BackendResult RunShardedWswor(const Workload& w, int k, int shards, int s,
                              uint64_t seed, size_t batch_size) {
  const WsworConfig config{.num_sites = k, .sample_size = s, .seed = seed};
  engine::ShardedEngineConfig engine_config;
  engine_config.num_sites = k;
  engine_config.num_shards = shards;
  engine_config.shard.batch_size = batch_size;
  engine::ShardedEngine eng(engine_config);
  const ShardedWsworEndpoints endpoints = AttachShardedWswor(config, eng);
  const double t0 = Now();
  eng.Run(w);
  const double t1 = Now();
  BackendResult result;
  result.seconds = t1 - t0;
  result.items_per_sec = static_cast<double>(w.size()) / (t1 - t0);
  result.messages = eng.AggregateMessageSnapshot().total_messages();
  result.per_shard_messages = JoinCounts(eng.PerShardMessages());
  eng.Shutdown();
  return result;
}

// Message-heavy stack: the naive baseline with an unsaturable local
// top-s (s >= the per-site stream), so EVERY item crosses the
// site->coordinator channel — the workload where the coordinator inbox,
// not the sites, is the bottleneck. shards == 0 runs the plain
// single-coordinator engine::Engine (the baseline the sharded rows are
// judged against); shards >= 1 runs engine::ShardedEngine.
BackendResult RunNaiveMessageHeavy(const Workload& w, int k, int shards,
                                   int s, uint64_t seed, size_t batch_size) {
  Rng master(seed);
  std::vector<std::unique_ptr<NaiveWsworSite>> sites;
  std::vector<std::unique_ptr<NaiveWsworCoordinator>> coordinators;
  BackendResult result;
  if (shards == 0) {
    engine::Engine eng(
        engine::EngineConfig{.num_sites = k, .batch_size = batch_size});
    for (int i = 0; i < k; ++i) {
      sites.push_back(std::make_unique<NaiveWsworSite>(
          s, i, &eng.transport(), master.NextU64()));
      eng.AttachSite(i, sites.back().get());
    }
    coordinators.push_back(std::make_unique<NaiveWsworCoordinator>(s));
    eng.AttachCoordinator(coordinators.back().get());
    const double t0 = Now();
    eng.Run(w);
    const double t1 = Now();
    result.seconds = t1 - t0;
    result.items_per_sec = static_cast<double>(w.size()) / (t1 - t0);
    result.messages = eng.stats().total_messages();
    eng.Shutdown();
    return result;
  }
  engine::ShardedEngineConfig engine_config;
  engine_config.num_sites = k;
  engine_config.num_shards = shards;
  engine_config.shard.batch_size = batch_size;
  engine::ShardedEngine eng(engine_config);
  const ShardTopology& topo = eng.topology();
  for (int i = 0; i < k; ++i) {
    const int shard = topo.ShardOf(i);
    sites.push_back(std::make_unique<NaiveWsworSite>(
        s, topo.LocalOf(i), &eng.shard_transport(shard), master.NextU64()));
    eng.AttachSite(i, sites.back().get());
  }
  for (int shard = 0; shard < shards; ++shard) {
    coordinators.push_back(std::make_unique<NaiveWsworCoordinator>(s));
    eng.AttachShardCoordinator(shard, coordinators.back().get());
  }
  const double t0 = Now();
  eng.Run(w);
  const double t1 = Now();
  result.seconds = t1 - t0;
  result.items_per_sec = static_cast<double>(w.size()) / (t1 - t0);
  result.messages = eng.AggregateMessageSnapshot().total_messages();
  result.per_shard_messages = JoinCounts(eng.PerShardMessages());
  eng.Shutdown();
  return result;
}

// The live-query row: sharded engine ingesting `w` while one dedicated
// reader loops QueryService::Query() flat out. Query throughput and the
// single-reader mean latency ride along in the result.
BackendResult RunLiveQuery(const Workload& w, int k, int shards, int s,
                           uint64_t seed, size_t batch_size,
                           double* queries_per_sec, double* query_us_mean,
                           double* query_us_p50, double* query_us_p99) {
  const WsworConfig config{.num_sites = k, .sample_size = s, .seed = seed};
  engine::ShardedEngineConfig engine_config;
  engine_config.num_sites = k;
  engine_config.num_shards = shards;
  engine_config.shard.batch_size = batch_size;
  engine::ShardedEngine eng(engine_config);
  const ShardedWsworEndpoints endpoints = AttachShardedWswor(config, eng);
  const std::unique_ptr<query::LiveShardPublishers> publishers =
      query::EnableWsworLiveQueries(eng, endpoints);
  query::QueryService service(publishers->views());
  // Serve-latency histogram from the unified registry: p50/p99 ride
  // along in the row while query_us_mean (wall-clock, the gated field)
  // keeps its original definition.
  obs::LatencyHistogram latency_us(/*lo=*/0.1, /*hi=*/1e6, /*bins=*/64);
  service.set_latency_histogram(&latency_us);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::thread reader([&service, &stop, &queries] {
    while (!stop.load(std::memory_order_acquire)) {
      query::QueryResult result = service.Query();
      (void)result;
      queries.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const double t0 = Now();
  eng.Run(w);
  const double t1 = Now();
  stop.store(true, std::memory_order_release);
  reader.join();

  BackendResult result;
  result.seconds = t1 - t0;
  result.items_per_sec = static_cast<double>(w.size()) / (t1 - t0);
  result.messages = eng.AggregateMessageSnapshot().total_messages();
  result.per_shard_messages = JoinCounts(eng.PerShardMessages());
  const double q = static_cast<double>(queries.load());
  *queries_per_sec = q / (t1 - t0);
  *query_us_mean = q > 0.0 ? 1e6 * (t1 - t0) / q : 0.0;
  *query_us_p50 = latency_us.Quantile(0.5);
  *query_us_p99 = latency_us.Quantile(0.99);
  eng.Shutdown();
  return result;
}

// The E16 rows: `readers` threads hammer the service concurrently —
// through the root-merge cache (QueryShared) or the uncached full merge
// (Query) — while the sharded engine ingests `w`. Per-reader counts are
// thread-local and summed after the join, so the measurement itself
// adds no shared-counter contention.
BackendResult RunQueryScale(const Workload& w, int k, int shards, int s,
                            uint64_t seed, size_t batch_size, int readers,
                            bool cached, double* queries_per_sec,
                            double* query_us_mean,
                            query::QueryServiceStats* cache_stats,
                            uint64_t* snapshot_publishes) {
  const WsworConfig config{.num_sites = k, .sample_size = s, .seed = seed};
  engine::ShardedEngineConfig engine_config;
  engine_config.num_sites = k;
  engine_config.num_shards = shards;
  engine_config.shard.batch_size = batch_size;
  engine::ShardedEngine eng(engine_config);
  const ShardedWsworEndpoints endpoints = AttachShardedWswor(config, eng);
  const std::unique_ptr<query::LiveShardPublishers> publishers =
      query::EnableWsworLiveQueries(eng, endpoints);
  query::QueryService service(publishers->views());

  std::atomic<bool> stop{false};
  std::vector<uint64_t> counts(static_cast<size_t>(readers), 0);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(readers));
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&service, &stop, &counts, r, cached] {
      uint64_t local = 0;
      if (cached) {
        while (!stop.load(std::memory_order_acquire)) {
          const auto result = service.QueryShared();
          (void)result;
          ++local;
        }
      } else {
        while (!stop.load(std::memory_order_acquire)) {
          const query::QueryResult result = service.Query();
          (void)result;
          ++local;
        }
      }
      counts[static_cast<size_t>(r)] = local;
    });
  }
  const double t0 = Now();
  eng.Run(w);
  const double t1 = Now();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();

  BackendResult result;
  result.seconds = t1 - t0;
  result.items_per_sec = static_cast<double>(w.size()) / (t1 - t0);
  result.messages = eng.AggregateMessageSnapshot().total_messages();
  result.per_shard_messages = JoinCounts(eng.PerShardMessages());
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  *queries_per_sec = static_cast<double>(total) / (t1 - t0);
  // Mean latency in reader-time: `readers` reader-seconds elapse per
  // wall second, so this is what one query costs its calling thread
  // (scheduling included), comparable across reader counts.
  *query_us_mean = total > 0 ? 1e6 * static_cast<double>(readers) *
                                   (t1 - t0) / static_cast<double>(total)
                             : 0.0;
  *cache_stats = service.stats();
  *snapshot_publishes = 0;
  for (int j = 0; j < shards; ++j) {
    *snapshot_publishes +=
        eng.shard_engine(j).stats().snapshot_publishes.load(
            std::memory_order_relaxed);
  }
  eng.Shutdown();
  return result;
}

void Report(bench::JsonBench& json, const std::string& workload,
            const std::string& backend, int k, size_t batch,
            const BackendResult& r, int shards = 1) {
  bench::Row(
      "  %-14s %-8s k=%-3d S=%d batch=%-5zu %12.0f items/s  %8llu msgs%s%s",
      workload.c_str(), backend.c_str(), k, shards, batch, r.items_per_sec,
      static_cast<unsigned long long>(r.messages),
      r.per_shard_messages.empty() ? "" : "  per-shard=",
      r.per_shard_messages.c_str());
  json.StartRow()
      .Field("workload", workload)
      .Field("backend", backend)
      .Field("k", static_cast<uint64_t>(k))
      .Field("batch_size", static_cast<uint64_t>(batch))
      .Field("shards", static_cast<uint64_t>(shards))
      .Field("items_per_sec", r.items_per_sec)
      .Field("messages", r.messages)
      .Field("keys_decided", r.keys_decided)
      .Field("key_bits_consumed", r.key_bits)
      .Field("skips_taken", r.skips_taken)
      .Field("batches_recycled", r.batches_recycled);
  if (!r.per_shard_messages.empty()) {
    json.Field("per_shard_messages", r.per_shard_messages);
  }
}

int Main(bool quick, int shards_filter) {
  const uint64_t n = quick ? 60'000 : 400'000;
  const int s = 32;
  const size_t batch = 1024;

  bench::Header("E11 engine throughput",
                "the concurrent engine sustains higher ingest than the "
                "step-synchronous simulator; messages stay near the "
                "simulator's (optimal-protocol) count");
  bench::JsonBench json("engine_throughput");
  json.Param("items", static_cast<double>(n))
      .Param("sample_size", static_cast<double>(s))
      .Param("weights", "zipf(alpha=1.1)")
      .Param("quick", quick ? 1.0 : 0.0);

  for (int k : {2, 4, 8, 16}) {
    const Workload w = bench::ZipfWorkload(k, n, /*seed=*/7 + k);
    const BackendResult sim = RunSim(w, k, s, /*seed=*/101);
    const BackendResult eng = RunEngine(w, k, s, /*seed=*/101, batch);
    Report(json, "zipf", "sim", k, 1, sim);
    Report(json, "zipf", "engine", k, batch, eng);
    bench::Row("    -> engine/sim speedup at k=%d: %.2fx", k,
               eng.items_per_sec / sim.items_per_sec);
  }

  // Worst case for the engine: all items on one hot site (hopping every
  // 4096 items), self-similar bursty weights.
  {
    const int k = 8;
    const Workload w = bench::AdversarialWorkload(k, n, /*seed=*/19,
                                                  /*hop_every=*/4096);
    const BackendResult sim = RunSim(w, k, s, /*seed=*/102);
    const BackendResult eng = RunEngine(w, k, s, /*seed=*/102, batch);
    Report(json, "adversarial", "sim", k, 1, sim);
    Report(json, "adversarial", "engine", k, batch, eng);
  }

  // Batch-size sensitivity at k=8: the amortization knob.
  {
    const int k = 8;
    const Workload w = bench::ZipfWorkload(k, n, /*seed=*/7 + k);
    for (size_t b : {size_t{16}, size_t{128}, size_t{1024}, size_t{8192}}) {
      Report(json, "zipf_batch", "engine", k, b,
             RunEngine(w, k, s, /*seed=*/103, b));
    }
  }

  // E14 — site virtualization scaling: k logical sites on the fixed
  // worker pool (pool auto-sized to the machine, independent of k).
  // Small batches and a short per-site ring keep the per-site footprint
  // honest at k = 10^5. Throughput declines with k because protocol
  // traffic does (every item is an early item at a nearly-empty site —
  // see the file comment); the gate pins the k = 10^5 floor.
  {
    const uint64_t n_scale = quick ? 200'000 : 1'000'000;
    const size_t scale_batch = 256;
    for (int k : {100, 1'000, 10'000, 100'000}) {
      const Workload w = bench::ZipfWorkload(k, n_scale, /*seed=*/31);
      engine::EngineConfig econfig;
      econfig.num_sites = k;
      econfig.batch_size = scale_batch;
      econfig.item_queue_batches = 4;
      Report(json, "site_scaling", "engine", k, scale_batch,
             RunEngine(w, econfig, s, /*seed=*/104));
    }
  }

  // E12 — sharded multi-coordinator topology.
  const std::vector<int> shard_sweep =
      shards_filter > 0 ? std::vector<int>{shards_filter}
                        : std::vector<int>{1, 2, 4};

  // Message-heavy: every item crosses the coordinator channel (naive
  // protocol, unsaturable top-s), high k, small ingestion batches — the
  // configuration where the single coordinator thread serializes the
  // run and S coordinator threads (k/S producers per channel instead of
  // k) buy throughput back.
  {
    const int k = 16;
    const size_t small_batch = 64;
    const int s_heavy = static_cast<int>(2 * n / static_cast<uint64_t>(k));
    const Workload w = bench::ZipfWorkload(k, n, /*seed=*/29);
    const BackendResult single =
        RunNaiveMessageHeavy(w, k, /*shards=*/0, s_heavy, /*seed=*/211,
                             small_batch);
    Report(json, "naive_msgheavy", "engine", k, small_batch, single);
    BackendResult last;
    for (int shards : shard_sweep) {
      last = RunNaiveMessageHeavy(w, k, shards, s_heavy, /*seed=*/211,
                                  small_batch);
      Report(json, "naive_msgheavy", "sharded", k, small_batch, last, shards);
    }
    bench::Row("    -> sharded(S=%d)/single-coordinator on message-heavy: "
               "%.2fx",
               shard_sweep.back(),
               last.items_per_sec / single.items_per_sec);
  }

  // The paper protocol on the same sharded topology: message-LIGHT by
  // design, so sharding is expected to be ~neutral here — the row exists
  // to pin that sharding costs nothing when the coordinator is idle.
  {
    const int k = 16;
    const Workload w = bench::ZipfWorkload(k, n, /*seed=*/7 + k);
    for (int shards : shard_sweep) {
      Report(json, "zipf", "sharded", k, batch,
             RunShardedWswor(w, k, shards, s, /*seed=*/101, batch), shards);
    }
  }

  // E15 — durability tax: WAL + checkpoints on vs off, same protocol
  // stack (the faults harness with a zero-fault schedule), same
  // workload. Sweeps the group-commit interval; the fsync row pays a
  // real fdatasync per commit (power-loss durability — kill -9 survival
  // only needs the commit's copy into the page cache, which is what the
  // other rows measure).
  int durable_gate_failures = 0;
  {
    const int k = 8;
    const Workload w = bench::ZipfWorkload(k, n, /*seed=*/7 + k);
    const WsworConfig config{.num_sites = k, .sample_size = s, .seed = 105};
    faults::FaultConfig no_faults;
    no_faults.seed = 13;

    // The fault-harness step loop runs ~3 orders of magnitude slower
    // than raw engine ingest (a session round trip per event), and its
    // per-event Engine::Deliver makes single-pass timings scheduler-noisy;
    // every row here is best-of-3 so the tax ratio measures durability,
    // not thread placement luck.
    constexpr int kReps = 3;
    BackendResult plain;
    for (int rep = 0; rep < kReps; ++rep) {
      faults::FaultyWswor run(config, no_faults, faults::Backend::kEngine);
      const double t0 = Now();
      run.Run(w);
      const double t1 = Now();
      const double ips = static_cast<double>(w.size()) / (t1 - t0);
      if (ips > plain.items_per_sec) {
        plain.seconds = t1 - t0;
        plain.items_per_sec = ips;
        plain.messages = run.report().delivered;
      }
    }
    Report(json, "durable_off", "engine", k, batch, plain);

    struct DurableCase {
      const char* name;
      uint64_t commit_interval;
      bool fsync;
    };
    const DurableCase cases[] = {{"durable_c1", 1, false},
                                 {"durable_c8", 8, false},
                                 {"durable_c64", 64, false},
                                 {"durable_fsync64", 64, true}};
    for (const DurableCase& c : cases) {
      BackendResult r;
      durability::WalStats wal;
      for (int rep = 0; rep < kReps; ++rep) {
        std::system("rm -rf bench_durable_state");
        durability::DurabilityOptions dopt;
        dopt.dir = "bench_durable_state";
        dopt.commit_interval_steps = c.commit_interval;
        dopt.checkpoint_interval_steps = 4096;
        dopt.fsync_commits = c.fsync;
        durability::DurableWswor run(config, no_faults,
                                     faults::Backend::kEngine, dopt);
        const double t0 = Now();
        run.Run(w);
        const double t1 = Now();
        const double ips = static_cast<double>(w.size()) / (t1 - t0);
        if (ips > r.items_per_sec) {
          r.seconds = t1 - t0;
          r.items_per_sec = ips;
          r.messages = run.report().delivered;
          wal = run.wal_stats();
        }
      }
      const double tax = plain.items_per_sec / r.items_per_sec;
      Report(json, c.name, "engine", k, batch, r);
      json.Field("commit_interval_steps", c.commit_interval)
          .Field("fsync_commits", static_cast<uint64_t>(c.fsync ? 1 : 0))
          .Field("wal_bytes_committed", wal.bytes_committed)
          .Field("wal_fsyncs", wal.fsyncs)
          .Field("durability_tax", tax);
      bench::Row("    -> %s: %.2fx the plain stack's cost "
                 "(%llu WAL bytes, %llu fsyncs)",
                 c.name, tax,
                 static_cast<unsigned long long>(wal.bytes_committed),
                 static_cast<unsigned long long>(wal.fsyncs));
      // The acceptance gate: default-cadence durable ingest within 25%
      // of non-durable (fsync rows are informational — they buy a
      // stronger guarantee and are priced separately).
      if (std::string(c.name) == "durable_c8" &&
          r.items_per_sec < 0.75 * plain.items_per_sec) {
        bench::Row("    !! durable_c8 gate FAILED: %.0f items/s < 75%% of "
                   "plain %.0f items/s",
                   r.items_per_sec, plain.items_per_sec);
        ++durable_gate_failures;
      }
    }
    std::system("rm -rf bench_durable_state");
  }

  // E13 — live query latency: continuous lock-free snapshot queries
  // against the sharded engine mid-ingestion. items_per_sec is the
  // ingest rate RETAINED while a reader queries flat out; the row also
  // records the sustained query rate and mean per-query latency.
  {
    const int k = 8, shards = 2;
    const Workload w = bench::ZipfWorkload(k, n, /*seed=*/7 + k);
    double queries_per_sec = 0.0, query_us_mean = 0.0;
    double query_us_p50 = 0.0, query_us_p99 = 0.0;
    const BackendResult live = RunLiveQuery(w, k, shards, s, /*seed=*/101,
                                            batch, &queries_per_sec,
                                            &query_us_mean, &query_us_p50,
                                            &query_us_p99);
    Report(json, "live_query", "sharded", k, batch, live, shards);
    json.Field("queries_per_sec", queries_per_sec)
        .Field("query_us_mean", query_us_mean)
        .Field("query_us_p50", query_us_p50)
        .Field("query_us_p99", query_us_p99);
    bench::Row("    -> live queries: %.0f queries/s, %.1f us mean latency "
               "(p50=%.1f us, p99=%.1f us)",
               queries_per_sec, query_us_mean, query_us_p50, query_us_p99);
  }

  // E16 — multi-reader query scale-out: readers ∈ {1, 4, 8}, root-merge
  // cache off vs on, same ingest running underneath. The uncached rows
  // are merge-bound (every query redoes the S-way root merge); the
  // cached rows revalidate by publish-sequence stamps and serve the
  // shared merged result, so repeated queries between publishes are
  // O(1). The acceptance gate rides the run's own numbers: some cached
  // multi-reader row must reach 1e6 queries/s AND 4x its uncached
  // counterpart in the same run.
  int query_gate_failures = 0;
  {
    // query_s = 64 keeps the uncached S-way merge honest: every uncached
    // query copies and merges shards * query_s entries, which is the
    // work the cache amortizes away.
    const int k = 8, shards = 2, query_s = 64;
    const Workload w = bench::ZipfWorkload(k, n, /*seed=*/7 + k);
    bool gate_met = false;
    double best_cached = 0.0, best_ratio = 0.0;
    for (const int readers : {1, 4, 8}) {
      double uncached_qps = 0.0;
      for (const bool cached : {false, true}) {
        double queries_per_sec = 0.0, query_us_mean = 0.0;
        query::QueryServiceStats cache_stats;
        uint64_t snapshot_publishes = 0;
        const BackendResult r = RunQueryScale(
            w, k, shards, query_s, /*seed=*/101, batch, readers, cached,
            &queries_per_sec, &query_us_mean, &cache_stats,
            &snapshot_publishes);
        const std::string workload =
            "query_scale_r" + std::to_string(readers) +
            (cached ? "_cached" : "_uncached");
        Report(json, workload, "sharded", k, batch, r, shards);
        const uint64_t probes =
            cache_stats.cache_hits + cache_stats.cache_misses;
        json.Field("queries_per_sec", queries_per_sec)
            .Field("query_us_mean", query_us_mean)
            .Field("readers", static_cast<uint64_t>(readers))
            .Field("cache", static_cast<uint64_t>(cached ? 1 : 0))
            .Field("cache_hits", cache_stats.cache_hits)
            .Field("cache_misses", cache_stats.cache_misses)
            .Field("cache_invalidations", cache_stats.cache_invalidations)
            .Field("snapshot_copies_avoided",
                   cache_stats.snapshot_copies_avoided)
            .Field("snapshot_publishes", snapshot_publishes);
        bench::Row("    -> r=%d %s: %.0f queries/s, %.2f us mean "
                   "(hit rate %.3f, %llu copies avoided)",
                   readers, cached ? "cached" : "uncached", queries_per_sec,
                   query_us_mean,
                   probes > 0 ? static_cast<double>(cache_stats.cache_hits) /
                                    static_cast<double>(probes)
                              : 0.0,
                   static_cast<unsigned long long>(
                       cache_stats.snapshot_copies_avoided));
        if (!cached) {
          uncached_qps = queries_per_sec;
        } else if (readers > 1) {
          const double ratio =
              uncached_qps > 0.0 ? queries_per_sec / uncached_qps : 0.0;
          if (queries_per_sec > best_cached) best_cached = queries_per_sec;
          if (ratio > best_ratio) best_ratio = ratio;
          if (queries_per_sec >= 1e6 && ratio >= 4.0) gate_met = true;
        }
      }
    }
    if (!gate_met) {
      bench::Row("    !! query-scale gate FAILED: best cached multi-reader "
                 "row %.0f queries/s (x%.1f vs uncached); need >= 1e6 "
                 "and >= 4x",
                 best_cached, best_ratio);
      ++query_gate_failures;
    }
  }

  const std::string path = json.Write();
  bench::Row("wrote %s", path.c_str());
  return durable_gate_failures + query_gate_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dwrs

int main(int argc, char** argv) {
  int shards_filter = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--shards=", 0) == 0) {
      shards_filter = std::atoi(arg.c_str() + 9);
    }
  }
  return dwrs::Main(dwrs::bench::QuickMode(argc, argv), shards_filter);
}
