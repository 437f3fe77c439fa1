#include "stages.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/sampler.h"
#include "core/sharded_sampler.h"
#include "durability/durable_shard.h"
#include "durability/records.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "obs/schema.h"
#include "query/live.h"
#include "random/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using dwrs::KeyedItem;
using dwrs::WsworCoordinator;
using dwrs::WsworSite;
using dwrs::engine::Engine;

uint64_t Delta(const dwrs::obs::Snapshot& a, const dwrs::obs::Snapshot& b,
               const std::string& name) {
  const dwrs::obs::SnapshotValue* va = a.Find(name);
  const dwrs::obs::SnapshotValue* vb = b.Find(name);
  DWRS_CHECK(va != nullptr && vb != nullptr) << " no counter " << name;
  return vb->u - va->u;
}

namespace {

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

uint64_t CountedItems(const std::vector<std::unique_ptr<CountingSite>>& sites) {
  uint64_t n = 0;
  for (const auto& site : sites) n += site->items();
  return n;
}

bool SameSample(const std::vector<KeyedItem>& a,
                const std::vector<KeyedItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item.id != b[i].item.id ||
        std::bit_cast<uint64_t>(a[i].key) != std::bit_cast<uint64_t>(b[i].key) ||
        std::bit_cast<uint64_t>(a[i].item.weight) !=
            std::bit_cast<uint64_t>(b[i].item.weight)) {
      return false;
    }
  }
  return true;
}

}  // namespace

// --- engine::Engine ---------------------------------------------------

EngineRun RunEngine(const StreamSpec& spec, ItemPool& pool, int num_workers,
                    uint64_t warmup_items, uint64_t window_items,
                    SpanRecorder* rec, Result* result) {
  const dwrs::WsworConfig config = ProtocolConfig(spec);
  pool.Rewind();
  EngineRun run;
  // Endpoints are declared before the engine so the engine (which joins
  // its workers) is destroyed first.
  std::vector<std::unique_ptr<WsworSite>> sites;
  std::vector<std::unique_ptr<CountingSite>> counting;
  std::unique_ptr<WsworCoordinator> coordinator;

  const int64_t t0 = NowNs();
  dwrs::engine::EngineConfig econfig;
  econfig.num_sites = spec.k;
  econfig.num_workers = num_workers;
  Engine eng(econfig);
  dwrs::Rng master(config.seed);
  for (int i = 0; i < spec.k; ++i) {
    sites.push_back(std::make_unique<WsworSite>(config, i, &eng.transport(),
                                                master.NextU64()));
    counting.push_back(std::make_unique<CountingSite>(sites.back().get()));
    eng.AttachSite(i, counting.back().get());
  }
  coordinator = std::make_unique<WsworCoordinator>(config, &eng.transport(),
                                                   master.NextU64());
  eng.AttachCoordinator(coordinator.get());
  eng.Flush();  // starts the coordinator and worker threads
  const auto push = [&eng](int site, const Item* items, size_t n) {
    eng.Push(site, items, n);
  };
  uint64_t warm = 0;
  while (warm < warmup_items) warm += pool.FeedChunk(push, nullptr);
  eng.Flush();
  const int64_t t1 = NowNs();
  run.setup_s = Seconds(t0, t1);
  dwrs::obs::AppendEngineStats(eng.stats(), "engine", &run.before);

  const int64_t w0 = NowNs();
  while (run.items < window_items) run.items += pool.FeedChunk(push, rec);
  const int64_t f0 = NowNs();
  {
    ScopedSpan span(rec, "Flush");
    eng.Flush();
  }
  const int64_t w1 = NowNs();
  run.window_s = Seconds(w0, w1);
  run.flush_s = Seconds(f0, w1);
  run.window_start_ns = w0;
  run.window_end_ns = w1;
  dwrs::obs::AppendEngineStats(eng.stats(), "engine", &run.after);

  const uint64_t pushed = warm + run.items;
  const uint64_t seen = CountedItems(counting);
  result->Ops(pushed, pushed - std::min(pushed, seen),
              "engine: items pushed but not ingested");
  CheckSample(coordinator->Sample(), spec.s, pushed, "engine", result);
  eng.Shutdown();
  return run;
}

// --- engine::ShardedEngine + query::QueryService -----------------------

namespace {

// The open-loop client: query i is due at start + i / rate; the client
// spins until it is due, however late the previous answer came.
struct Client {
  const dwrs::query::QueryService* service = nullptr;
  const std::atomic<uint64_t>* pushed = nullptr;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  double period_ns = 0.0;
  SpanRecorder* rec = nullptr;
  LiveRun* out = nullptr;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Main() {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const int64_t start = NowNs();
    uint64_t prev_seq = 0;
    uint64_t prev_version = 0;
    for (uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      const int64_t due =
          start + static_cast<int64_t>(static_cast<double>(i) * period_ns);
      while (NowNs() < due) {
        if (stop.load(std::memory_order_relaxed)) return;
      }
      const dwrs::query::QueryServiceStats before = service->stats();
      const uint64_t pushed_at_start = pushed->load(std::memory_order_relaxed);
      const int64_t call = NowNs();
      std::shared_ptr<const dwrs::query::QueryResult> r;
      {
        ScopedSpan span(rec, "QueryShared");
        r = service->QueryShared();
      }
      const int64_t done = NowNs();
      const dwrs::query::QueryServiceStats after = service->stats();
      out->latency_us.push_back(static_cast<double>(done - due) * 1e-3);
      out->late_us.push_back(static_cast<double>(call - due) * 1e-3);
      const double call_us = static_cast<double>(done - call) * 1e-3;
      switch (ClassifyQuery(before, after)) {
        case QueryClass::kHit:
          out->hit_us.push_back(call_us);
          break;
        case QueryClass::kMiss:
          out->miss_us.push_back(call_us);
          break;
        case QueryClass::kUnknown:
          break;
      }
      out->staleness_items.push_back(
          static_cast<double>(pushed_at_start - std::min(pushed_at_start, r->steps)));
      const dwrs::query::ShardSnapshot& shard = r->shards.front();
      const bool ok = r->complete && !r->any_stale && r->version_satisfied &&
                      shard.publish_seq >= prev_seq &&
                      shard.state_version >= prev_version;
      prev_seq = shard.publish_seq;
      prev_version = shard.state_version;
      ++attempted;
      if (!ok) ++failed;
    }
  }
};

}  // namespace

LiveRun RunLive(const StreamSpec& spec, ItemPool& pool, uint64_t window_items,
                bool publish, double queries_per_s, SpanRecorder* feeder_rec,
                SpanRecorder* client_rec, Result* result) {
  const dwrs::WsworConfig config = ProtocolConfig(spec);
  pool.Rewind();
  LiveRun run;
  dwrs::ShardedWsworEndpoints endpoints;
  std::vector<std::unique_ptr<CountingSite>> counting;
  std::unique_ptr<dwrs::query::LiveShardPublishers> publishers;
  std::unique_ptr<dwrs::query::QueryService> service;
  std::atomic<uint64_t> pushed{0};
  Client client;

  const int64_t t0 = NowNs();
  dwrs::engine::ShardedEngineConfig econfig;
  econfig.num_sites = spec.k;
  econfig.num_shards = 1;
  econfig.shard.num_workers = 1;
  dwrs::engine::ShardedEngine eng(econfig);
  // AttachShardedWswor's construction, with a counting wrapper between
  // the engine and each site.
  const dwrs::ShardTopology& topo = eng.topology();
  const dwrs::ShardedWsworSeeds seeds =
      dwrs::DeriveShardedWsworSeeds(config.seed, topo);
  for (int i = 0; i < spec.k; ++i) {
    const int shard = topo.ShardOf(i);
    endpoints.sites.push_back(std::make_unique<WsworSite>(
        dwrs::ShardWsworConfig(config, topo, shard), topo.LocalOf(i),
        &eng.shard_transport(shard), seeds.site[static_cast<size_t>(i)]));
    counting.push_back(
        std::make_unique<CountingSite>(endpoints.sites.back().get()));
    eng.AttachSite(i, counting.back().get());
  }
  endpoints.coordinators.push_back(std::make_unique<WsworCoordinator>(
      dwrs::ShardWsworConfig(config, topo, 0), &eng.shard_transport(0),
      seeds.coordinator[0]));
  eng.AttachShardCoordinator(0, endpoints.coordinators[0].get());
  if (publish) {
    publishers = dwrs::query::EnableWsworLiveQueries(eng, endpoints);
    service = std::make_unique<dwrs::query::QueryService>(publishers->views());
  }
  std::thread client_thread;
  if (service != nullptr && queries_per_s > 0.0) {
    client.service = service.get();
    client.pushed = &pushed;
    client.period_ns = 1e9 / queries_per_s;
    client.rec = client_rec;
    client.out = &run;
    const size_t expect = static_cast<size_t>(queries_per_s * 30.0);
    run.latency_us.reserve(expect);
    run.late_us.reserve(expect);
    run.staleness_items.reserve(expect);
    run.hit_us.reserve(expect);
    run.miss_us.reserve(expect);
    client_thread = std::thread([&client] { client.Main(); });
  }
  eng.Flush();  // starts the shard's coordinator and worker threads
  const int64_t t1 = NowNs();
  run.setup_s = Seconds(t0, t1);
  const auto snap = [&](dwrs::obs::Snapshot* out) {
    dwrs::obs::AppendEngineStats(eng.shard_engine(0).stats(), "engine", out);
    dwrs::obs::AppendQueryServiceStats(
        service ? service->stats() : dwrs::query::QueryServiceStats{}, "query",
        out);
  };
  snap(&run.before);

  client.go.store(true, std::memory_order_release);
  const auto push = [&eng, &pushed](int site, const Item* items, size_t n) {
    eng.Push(site, items, n);
    pushed.store(pushed.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  };
  const int64_t w0 = NowNs();
  while (run.items < window_items) run.items += pool.FeedChunk(push, feeder_rec);
  const int64_t f0 = NowNs();
  {
    ScopedSpan span(feeder_rec, "Flush");
    eng.Flush();
  }
  const int64_t w1 = NowNs();
  run.window_s = Seconds(w0, w1);
  run.flush_s = Seconds(f0, w1);
  run.window_start_ns = w0;
  run.window_end_ns = w1;
  client.stop.store(true, std::memory_order_release);
  if (client_thread.joinable()) client_thread.join();
  snap(&run.after);

  const uint64_t seen = CountedItems(counting);
  result->Ops(run.items, run.items - std::min(run.items, seen),
              "live: items pushed but not ingested");
  const std::vector<KeyedItem> merged = eng.MergedSample().TopEntries();
  CheckSample(merged, spec.s, run.items, "live", result);
  if (service != nullptr) {
    // The last served result, taken at the final quiesce, must be the
    // coordinator's sample bit for bit.
    const auto final_result = service->QueryShared();
    result->Check(final_result->complete && !final_result->any_stale &&
                      SameSample(final_result->merged.TopEntries(), merged),
                  "live: final served result equals the coordinator sample");
    result->Ops(client.attempted, client.failed,
                "live: queries served incomplete, stale, version-unsatisfied "
                "or non-monotone");
  }
  eng.Shutdown();
  return run;
}

// --- single-threaded stages --------------------------------------------

namespace {

// Delivers messages in FIFO order after each chunk: site->coordinator
// first, then whatever the coordinator sent back, until quiet.
class LoopbackTransport : public dwrs::sim::Transport {
 public:
  explicit LoopbackTransport(int k) : k_(k) {}

  void SendToCoordinator(int site, const dwrs::sim::Payload& msg) override {
    up_.emplace_back(site, msg);
    ++messages_;
  }
  void SendToSite(int site, const dwrs::sim::Payload& msg) override {
    down_.emplace_back(site, msg);
    ++messages_;
  }
  void Broadcast(const dwrs::sim::Payload& msg) override {
    down_.emplace_back(-1, msg);
    messages_ += static_cast<uint64_t>(k_);
  }
  uint64_t step() const override { return step_; }

  void Advance(uint64_t n) { step_ += n; }
  uint64_t messages() const { return messages_; }

  void Deliver(const std::vector<std::unique_ptr<WsworSite>>& sites,
               WsworCoordinator* coordinator) {
    while (!up_.empty() || !down_.empty()) {
      std::vector<std::pair<int, dwrs::sim::Payload>> batch;
      batch.swap(up_);
      for (const auto& [site, msg] : batch) coordinator->OnMessage(site, msg);
      batch.clear();
      batch.swap(down_);
      for (const auto& [site, msg] : batch) {
        if (site >= 0) {
          sites[static_cast<size_t>(site)]->OnMessage(msg);
        } else {
          for (const auto& s : sites) s->OnMessage(msg);
        }
      }
    }
  }

 private:
  int k_;
  uint64_t step_ = 0;
  uint64_t messages_ = 0;
  std::vector<std::pair<int, dwrs::sim::Payload>> up_, down_;
};

dwrs::sim::SiteHotPathCounters SumHot(
    const std::vector<std::unique_ptr<WsworSite>>& sites) {
  dwrs::sim::SiteHotPathCounters total;
  for (const auto& s : sites) total += s->HotPathCounters();
  return total;
}

dwrs::sim::SiteHotPathCounters Minus(const dwrs::sim::SiteHotPathCounters& a,
                                     const dwrs::sim::SiteHotPathCounters& b) {
  return {a.keys_decided - b.keys_decided,
          a.key_bits_consumed - b.key_bits_consumed,
          a.skips_taken - b.skips_taken};
}

}  // namespace

StageRun RunCore(const StreamSpec& spec, ItemPool& pool, uint64_t warmup_items,
                 uint64_t window_items, Result* result) {
  const dwrs::WsworConfig config = ProtocolConfig(spec);
  pool.Rewind();
  LoopbackTransport loop(spec.k);
  dwrs::Rng master(config.seed);
  std::vector<std::unique_ptr<WsworSite>> sites;
  for (int i = 0; i < spec.k; ++i) {
    sites.push_back(
        std::make_unique<WsworSite>(config, i, &loop, master.NextU64()));
  }
  WsworCoordinator coordinator(config, &loop, master.NextU64());
  int64_t busy_ns = 0;
  uint64_t fed = 0;
  uint64_t messages0 = 0;
  dwrs::sim::SiteHotPathCounters hot0;
  StageRun run;
  while (fed < warmup_items + window_items) {
    if (fed >= warmup_items && run.items == 0) {
      messages0 = loop.messages();
      hot0 = SumHot(sites);
    }
    const int64_t t0 = NowNs();
    const uint64_t n = pool.FeedChunk(
        [&](int site, const Item* items, size_t m) {
          sites[static_cast<size_t>(site)]->OnItems(items, m);
        },
        nullptr);
    const int64_t t1 = NowNs();
    if (fed >= warmup_items) {
      busy_ns += t1 - t0;
      run.items += n;
    }
    fed += n;
    loop.Advance(n);
    loop.Deliver(sites, &coordinator);
  }
  run.ns_per_item = static_cast<double>(busy_ns) / static_cast<double>(run.items);
  run.messages = loop.messages() - messages0;
  run.hot = Minus(SumHot(sites), hot0);
  CheckSample(coordinator.Sample(), spec.s, fed, "core", result);
  return run;
}

StageRun RunSim(const StreamSpec& spec, ItemPool& pool, uint64_t warmup_items,
                uint64_t window_items, SpanRecorder* rec, Result* result) {
  pool.Rewind();
  dwrs::DistributedWswor sim(ProtocolConfig(spec));
  const auto observe = [&sim](int site, const Item* items, size_t n) {
    for (size_t i = 0; i < n; ++i) sim.Observe(site, items[i]);
  };
  uint64_t warm = 0;
  while (warm < warmup_items) warm += pool.FeedChunk(observe, nullptr);
  const uint64_t messages0 = sim.stats().total_messages();
  StageRun run;
  const int64_t t0 = NowNs();
  while (run.items < window_items) {
    ScopedSpan span(rec, "Observe");
    run.items += pool.FeedChunk(observe, nullptr);
  }
  const int64_t t1 = NowNs();
  run.ns_per_item =
      static_cast<double>(t1 - t0) / static_cast<double>(run.items);
  run.messages = sim.stats().total_messages() - messages0;
  CheckSample(sim.Sample(), spec.s, warm + run.items, "sim", result);
  result->Check(sim.items_observed() == warm + run.items,
                "sim: every item observed");
  return run;
}

// --- reliability and durability ----------------------------------------

dwrs::faults::FaultConfig SessionFaults(const StreamSpec& spec,
                                        uint64_t warmup_steps,
                                        uint64_t total_steps, bool kills,
                                        double drop_prob) {
  dwrs::faults::FaultConfig fc;
  fc.seed = spec.seed * 0xD1B54A32D192ED03ull + 5;
  fc.drop_prob = drop_prob;
  fc.duplicate_prob = 0.01;
  fc.delay_prob = 0.02;
  if (!kills) return fc;
  // Eight expected kill steps over the window; the harness takes two.
  fc.process_kill_prob =
      8.0 / static_cast<double>(total_steps - warmup_steps);
  fc.max_process_kills = 2;
  for (;; ++fc.seed) {
    const dwrs::faults::FaultSchedule schedule(fc);
    uint64_t early = 0;
    uint64_t late = 0;
    for (uint64_t step = 1; step <= total_steps; ++step) {
      if (schedule.ProcessKillsAt(step)) ++(step <= warmup_steps ? early : late);
    }
    if (early == 0 && late >= 2) return fc;
  }
}

FaultsRun RunFaults(const StreamSpec& spec, const dwrs::Workload& workload,
                    uint64_t warmup_steps, double drop_prob, SpanRecorder* rec,
                    Result* result) {
  FaultsRun run;
  dwrs::faults::FaultyWswor faulty(
      ProtocolConfig(spec),
      SessionFaults(spec, warmup_steps, workload.size(), false, drop_prob),
      dwrs::faults::Backend::kSim);
  int64_t t0 = 0;
  {
    ScopedSpan span(rec, "FaultyWswor::Run");
    faulty.Run(workload, [&](uint64_t step) {
      if (step == warmup_steps) {
        t0 = NowNs();
        run.at_window = faulty.report();
      }
    });
  }
  const int64_t t1 = NowNs();
  run.items = workload.size() - warmup_steps;
  run.ns_per_item =
      static_cast<double>(t1 - t0) / static_cast<double>(run.items);
  run.report = faulty.report();
  run.messages = run.report.faults_forwarded - run.at_window.faults_forwarded;
  result->Check(run.report.clean, "faults: session run is clean");
  result->Ops(workload.size(), run.report.items_lost,
              "faults: items lost at down sites");
  CheckSample(faulty.coordinator().Sample(), spec.s, workload.size(), "faults",
              result);
  return run;
}

DurableRun RunDurable(const StreamSpec& spec, const dwrs::Workload& workload,
                      uint64_t warmup_steps, uint64_t checkpoint_interval,
                      bool kills, const std::string& dir, SpanRecorder* rec,
                      Result* result) {
  namespace dur = dwrs::durability;
  DWRS_CHECK(warmup_steps > 0 && warmup_steps < workload.size());
  const dwrs::faults::FaultConfig faults =
      SessionFaults(spec, warmup_steps, workload.size(), kills, 0.0);
  std::error_code ec;
  fs::remove_all(dir, ec);
  dur::DurabilityOptions options;
  options.dir = dir;
  options.commit_interval_steps = 8;
  options.checkpoint_interval_steps = checkpoint_interval;
  options.fsync_commits = false;
  options.background_flush = false;

  DurableRun run;
  ScopedSpan span(rec, "DurableWswor::Run");
  const int64_t t0 = NowNs();
  dur::DurableWswor shard(ProtocolConfig(spec), faults,
                          dwrs::faults::Backend::kSim, options);
  // The hook runs at the quiesce point after each fed step; the window
  // opens once the warm-up's last step has quiesced.
  shard.Run(workload, [&](uint64_t step) {
    if (step == warmup_steps && run.window_start_ns == 0) {
      run.window_start_ns = NowNs();
      run.at_window = shard.report();
      run.wal_at_window = shard.wal_stats();
    }
  });
  run.window_end_ns = NowNs();
  run.setup_s = Seconds(t0, run.window_start_ns);
  run.window_s = Seconds(run.window_start_ns, run.window_end_ns);
  run.items = workload.size() - warmup_steps;
  run.report = shard.report();
  run.wal = shard.wal_stats();
  result->Check(shard.resume_step() == workload.size(),
                "durable: every step fed");
  result->Ops(workload.size(), run.report.items_lost,
              "durable: items lost at down sites");
  result->Check(run.report.clean && run.report.recovery_consistent,
                "durable: report.clean && recovery_consistent");
  result->Check(shard.recoveries() == shard.process_kills() &&
                    shard.process_kills() == (kills ? 2u : 0u),
                "durable: recoveries == kills == the scheduled kills");
  CheckSample(shard.coordinator().Sample(), spec.s, workload.size(), "durable",
              result);
  return run;
}

std::vector<double> WalCommitLatencies(const std::string& dir,
                                       const std::string& scratch_path,
                                       uint64_t commit_steps,
                                       SpanRecorder* rec) {
  namespace dur = dwrs::durability;
  std::vector<std::string> segments;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("wal-", 0) == 0) segments.push_back(e.path().string());
  }
  std::sort(segments.begin(), segments.end());
  std::vector<double> commit_us;
  dur::WalWriter writer(scratch_path, dur::WalWriterOptions{});
  DWRS_CHECK(writer.ok()) << " " << writer.error();
  std::vector<const std::vector<uint8_t>*> group;
  uint64_t marks = 0;
  const auto commit_group = [&] {
    ScopedSpan span(rec, "WalWriter::Append+Commit");
    const int64_t t0 = NowNs();
    for (const auto* payload : group) writer.Append(*payload);
    DWRS_CHECK(writer.Commit()) << " " << writer.error();
    commit_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    group.clear();
  };
  std::vector<dur::WalReadResult> reads;
  reads.reserve(segments.size());
  for (const std::string& path : segments) {
    reads.push_back(dur::ReadWalFile(path));
    for (const auto& payload : reads.back().payloads) {
      group.push_back(&payload);
      const auto record = dur::DecodeWalRecord(payload);
      if (record && record->type == dur::WalRecordType::kStepMark &&
          ++marks % commit_steps == 0) {
        commit_group();
      }
    }
  }
  if (!group.empty()) commit_group();
  return commit_us;
}

}  // namespace perfbench
