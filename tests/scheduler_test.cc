// Tests of the work-stealing scheduler (engine/scheduler.h) that
// virtualizes sites over a fixed worker pool: exact step-synchronous
// equivalence with sim::Runtime at small and large k, a deterministic
// work-stealing scenario (a dry worker must steal a site homed to a busy
// sibling), skewed-load draining in both scheduling modes, quiesce under
// flush churn, the batches_dropped_on_shutdown accounting, and a
// 100k-logical-site smoke run on a bounded pool. The whole file is run
// under -fsanitize=thread in CI.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/sampler.h"
#include "engine/channels.h"
#include "engine/engine.h"
#include "engine/scheduler.h"
#include "obs/trace.h"
#include "random/rng.h"
#include "stream/workload.h"

namespace dwrs {
namespace {

using engine::Engine;
using engine::EngineConfig;
using engine::EngineStats;
using engine::ItemBatch;
using engine::QuiesceBus;
using engine::Scheduler;

// ---------------------------------------------------------------------
// Fake endpoints for scheduler-level tests.

// Counts what it sees. Counters are atomic only so the test thread can
// poll them mid-run; the scheduler itself upholds the single-threaded
// endpoint contract.
struct CountingSite : sim::SiteNode {
  void OnItem(const Item& item) override {
    items.fetch_add(1);
    id_sum.fetch_add(item.id);
  }
  void OnMessage(const sim::Payload&) override { messages.fetch_add(1); }
  std::atomic<uint64_t> items{0};
  std::atomic<uint64_t> id_sum{0};
  std::atomic<uint64_t> messages{0};
};

// Parks the worker that runs it until the gate opens (sticky), so tests
// can pin a pool worker inside an endpoint callback deterministically.
struct GateSite : sim::SiteNode {
  void OnItem(const Item&) override {}
  void OnItems(const Item* /*items*/, size_t n) override {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return open; });
    items.fetch_add(n);
  }
  void OnMessage(const sim::Payload&) override {}
  void Open() {
    std::lock_guard<std::mutex> lock(mutex);
    open = true;
    cv.notify_all();
  }
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};
  std::atomic<uint64_t> items{0};
};

struct NullCoordinator : sim::CoordinatorNode {
  void OnMessage(int, const sim::Payload&) override {}
};

ItemBatch MakeBatch(uint64_t first_id, size_t n) {
  ItemBatch batch;
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(Item{first_id + i, 1.0});
  }
  return batch;
}

void SpinUntil(const std::function<bool()>& pred) {
  while (!pred()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------
// Step-synchronous bit-identity vs sim::Runtime. The scheduler changes
// who runs a site's callbacks, not what runs: per-event quiesce must
// reproduce the simulator exactly — sample contents, keys, and every
// traffic counter — at both a small k and a k well past any plausible
// worker-pool size.

struct EngineWswor {
  EngineWswor(const WsworConfig& config, const EngineConfig& engine_config)
      : eng(engine_config) {
    Rng master(config.seed);
    for (int i = 0; i < config.num_sites; ++i) {
      sites.push_back(std::make_unique<WsworSite>(config, i, &eng.transport(),
                                                  master.NextU64()));
      eng.AttachSite(i, sites.back().get());
    }
    coordinator = std::make_unique<WsworCoordinator>(config, &eng.transport(),
                                                     master.NextU64());
    eng.AttachCoordinator(coordinator.get());
  }
  // Endpoints declared before the engine: destruction joins the pool
  // first (see the teardown contract in engine/engine.h).
  std::vector<std::unique_ptr<WsworSite>> sites;
  std::unique_ptr<WsworCoordinator> coordinator;
  Engine eng;
};

void ExpectStepSyncMatchesSim(int k, uint64_t n, const EngineConfig& config) {
  const WsworConfig wswor{.num_sites = k, .sample_size = 16, .seed = 42};
  const Workload w = WorkloadBuilder()
                         .num_sites(k)
                         .num_items(n)
                         .seed(7)
                         .weights(std::make_unique<ZipfWeights>(
                             uint64_t{1} << 16, 1.2))
                         .partitioner(std::make_unique<RandomPartitioner>())
                         .Build();

  DistributedWswor sim_sampler(wswor);
  sim_sampler.Run(w);

  EngineWswor es(wswor, config);
  sim::DeliverEach(es.eng, w);

  const std::vector<KeyedItem> a = sim_sampler.Sample();
  const std::vector<KeyedItem> b = es.coordinator->Sample();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item.id, b[i].item.id) << " position " << i;
    EXPECT_EQ(a[i].key, b[i].key) << " position " << i;
  }
  const sim::MessageStats sim_stats = sim_sampler.stats();
  const sim::MessageStats eng_stats = es.eng.stats().MessageSnapshot();
  EXPECT_EQ(sim_stats.site_to_coord, eng_stats.site_to_coord);
  EXPECT_EQ(sim_stats.coord_to_site, eng_stats.coord_to_site);
  EXPECT_EQ(sim_stats.words, eng_stats.words);
}

TEST(SchedulerEquivalenceTest, StepSyncMatchesSimAtSmallK) {
  ExpectStepSyncMatchesSim(
      /*k=*/16, /*n=*/2000,
      EngineConfig{.num_sites = 16});
}

TEST(SchedulerEquivalenceTest, StepSyncMatchesSimAtKPastPoolSize) {
  // k = 1000 logical sites over a pool of (at most) a few dozen workers:
  // every dispatch multiplexes many sites per worker, and the replay
  // must still be bit-identical.
  ExpectStepSyncMatchesSim(
      /*k=*/1000, /*n=*/3000,
      EngineConfig{.num_sites = 1000});
}

TEST(SchedulerEquivalenceTest, StepSyncMatchesSimWithTinyForcedPool) {
  // Two workers for 16 sites, stealing on: maximal consumer-role
  // migration between dispatches.
  ExpectStepSyncMatchesSim(/*k=*/16, /*n=*/2000,
                           EngineConfig{.num_sites = 16, .num_workers = 2});
}

// ---------------------------------------------------------------------
// Deterministic work stealing. Two workers, four sites: sites 0 and 1
// gate whichever worker runs them; sites 2 and 3 (homed to workers 0 and
// 1 respectively) are pushed while both workers are gated. Opening one
// gate frees exactly one worker, which must drain its own victim AND
// steal the one homed to the still-gated sibling — a steal is the only
// way both counting sites can drain.

TEST(SchedulerStealTest, DryWorkerStealsSiteHomedToBusySibling) {
  EngineConfig config;
  config.num_sites = 4;
  config.num_workers = 2;
  config.work_stealing = true;
  QuiesceBus bus;
  EngineStats stats;
  GateSite gate_a, gate_b;
  CountingSite victim_even, victim_odd;  // homed to worker 0 / worker 1
  Scheduler sched(config, &bus, &stats);
  sched.AttachSite(0, &gate_a);
  sched.AttachSite(1, &gate_b);
  sched.AttachSite(2, &victim_even);
  sched.AttachSite(3, &victim_odd);
  sched.Start();

  ItemBatch b0 = MakeBatch(0, 3), b1 = MakeBatch(10, 3);
  sched.PushBatch(0, std::move(b0), nullptr);
  sched.PushBatch(1, std::move(b1), nullptr);
  SpinUntil([&] {
    return gate_a.entered.load() + gate_b.entered.load() == 2;
  });

  ItemBatch b2 = MakeBatch(100, 5), b3 = MakeBatch(200, 7);
  sched.PushBatch(2, std::move(b2), nullptr);
  sched.PushBatch(3, std::move(b3), nullptr);

  gate_a.Open();
  SpinUntil([&] {
    return victim_even.items.load() == 5 && victim_odd.items.load() == 7;
  });
  EXPECT_GE(stats.steals.load(), 1u);

  gate_b.Open();
  bus.WaitUntil([&] { return sched.Idle(); });
  EXPECT_EQ(gate_a.items.load() + gate_b.items.load(), 6u);
  EXPECT_EQ(victim_even.id_sum.load(), 100u * 5 + (0 + 1 + 2 + 3 + 4));
  EXPECT_EQ(victim_odd.id_sum.load(), 200u * 7 + (0 + 1 + 2 + 3 + 4 + 5 + 6));
  EXPECT_GE(stats.sites_scheduled.load(), 4u);
  sched.RequestStop();
  sched.Join();
}

// ---------------------------------------------------------------------
// Skewed per-site load: one hot site carrying most of the stream plus a
// long tail. Every site must drain exactly its slice — under stealing
// (the hot site's home queue overflows onto the pool) and with stealing
// off (home-only execution) — and the engine's accounting must
// reconcile.

void RunSkewedLoad(bool work_stealing) {
  constexpr int kSites = 64;
  constexpr uint64_t kHotItems = 40000;
  constexpr uint64_t kTailItems = 250;
  EngineConfig config;
  config.num_sites = kSites;
  config.num_workers = 4;
  config.work_stealing = work_stealing;
  config.batch_size = 64;
  config.item_queue_batches = 2;  // tiny queues: exercise backpressure

  std::vector<std::unique_ptr<CountingSite>> sites;
  NullCoordinator coordinator;
  Engine eng(config);
  for (int i = 0; i < kSites; ++i) {
    sites.push_back(std::make_unique<CountingSite>());
    eng.AttachSite(i, sites.back().get());
  }
  eng.AttachCoordinator(&coordinator);

  uint64_t id = 0;
  for (uint64_t i = 0; i < kHotItems; ++i) eng.Push(0, Item{id++, 1.0});
  for (int site = 1; site < kSites; ++site) {
    for (uint64_t i = 0; i < kTailItems; ++i) eng.Push(site, Item{id++, 1.0});
  }
  eng.Flush();

  EXPECT_EQ(sites[0]->items.load(), kHotItems);
  for (int site = 1; site < kSites; ++site) {
    EXPECT_EQ(sites[site]->items.load(), kTailItems) << " site " << site;
  }
  const EngineStats& stats = eng.stats();
  EXPECT_EQ(stats.items_ingested.load(), id);
  EXPECT_GE(stats.sites_scheduled.load(), uint64_t{kSites});
  EXPECT_EQ(stats.batches_dropped_on_shutdown.load(), 0u);
  if (!work_stealing) {
    EXPECT_EQ(stats.steals.load(), 0u);
  }
  eng.Shutdown();
}

TEST(SchedulerStressTest, SkewedLoadDrainsAllSitesWithStealing) {
  RunSkewedLoad(/*work_stealing=*/true);
}

TEST(SchedulerStressTest, SkewedLoadDrainsAllSitesHomeOnly) {
  RunSkewedLoad(/*work_stealing=*/false);
}

// ---------------------------------------------------------------------
// Quiesce under churn: interleave ingestion with frequent Flush() calls
// (each a full quiesce) and mid-stream queries while the real protocol
// generates site⇄coordinator traffic. Every quiesce must observe a
// consistent drained state; the final sample must be a legal SWOR.

TEST(SchedulerQuiesceTest, FlushChurnWithProtocolTraffic) {
  constexpr int k = 50;
  constexpr uint64_t n = 20000;
  const WsworConfig wswor{.num_sites = k, .sample_size = 32, .seed = 5};
  EngineWswor es(wswor, EngineConfig{.num_sites = k,
                                     .num_workers = 3,
                                     .batch_size = 16,
                                     .item_queue_batches = 2,
                                     .message_queue_capacity = 8});
  Rng partition(99);
  size_t last_sample = 0;
  for (uint64_t i = 0; i < n; ++i) {
    es.eng.Push(
        static_cast<int>(partition.NextBounded(static_cast<uint64_t>(k))),
        Item{i, 1.0 + static_cast<double>(i % 7)});
    if ((i + 1) % 1000 == 0) {
      es.eng.Flush();
      // Quiesce point: querying is legal; sample size is monotone up to s.
      const size_t size = es.coordinator->Sample().size();
      EXPECT_GE(size, last_sample);
      EXPECT_LE(size, 32u);
      last_sample = size;
    }
  }
  es.eng.Flush();
  EXPECT_EQ(es.coordinator->Sample().size(), 32u);
  EXPECT_EQ(es.eng.stats().items_ingested.load(), n);
  EXPECT_GE(es.eng.stats().quiesces.load(), n / 1000);
}

// ---------------------------------------------------------------------
// Shutdown mid-stream with the feeder blocked on a full site ring: the
// in-flight batch is dropped, and the drop must be counted — silent loss
// was the old engine's bug.

TEST(SchedulerShutdownTest, MidStreamStopCountsDroppedBatches) {
  GateSite gate;  // declared before the engine (teardown contract)
  NullCoordinator coordinator;
  EngineConfig config;
  config.num_sites = 1;
  config.num_workers = 1;
  config.batch_size = 1;        // every Push hands off immediately
  config.item_queue_batches = 1;  // ring holds a single batch
  Engine eng(config);
  eng.AttachSite(0, &gate);
  eng.AttachCoordinator(&coordinator);

  // First push from this thread: it starts the engine, so the spawned
  // threads below see fully-constructed workers (Shutdown from a second
  // thread is only safe after Start happened-before it).
  eng.Push(0, Item{0, 1.0});  // taken by the worker, which gates
  SpinUntil([&] { return gate.entered.load() == 1; });
  std::thread feeder([&] {
    eng.Push(0, Item{1, 1.0});  // fills the ring
    eng.Push(0, Item{2, 1.0});  // blocks: ring full, worker gated
  });
  SpinUntil([&] { return eng.stats().ingest_stalls.load() >= 1; });

  std::thread stopper([&] { eng.Shutdown(); });
  feeder.join();  // returns only once the blocked push gave up
  EXPECT_EQ(eng.stats().batches_dropped_on_shutdown.load(), 1u);
  gate.Open();  // let the gated worker finish so Shutdown can join
  stopper.join();
  // Accounting reconciles: 3 ingested, 1 visibly dropped, 2 either
  // processed or still queued at stop — but never silently lost.
  EXPECT_EQ(eng.stats().items_ingested.load(), 3u);
}

// ---------------------------------------------------------------------
// The tentpole's scale point: 100k logical sites on a worker pool
// bounded by hardware_concurrency. Thread-per-site would need 100k
// threads; the scheduler needs 100k * O(bytes) of site state.

TEST(SchedulerScaleTest, HundredThousandLogicalSitesOnBoundedPool) {
  constexpr int kSites = 100000;
  constexpr uint64_t kItems = 200000;
  EngineConfig config;
  config.num_sites = kSites;
  config.batch_size = 64;
  config.item_queue_batches = 2;

  std::vector<std::unique_ptr<CountingSite>> sites;
  NullCoordinator coordinator;
  Engine eng(config);
  EXPECT_LE(eng.num_workers(),
            static_cast<int>(std::thread::hardware_concurrency()));
  for (int i = 0; i < kSites; ++i) {
    sites.push_back(std::make_unique<CountingSite>());
    eng.AttachSite(i, sites.back().get());
  }
  eng.AttachCoordinator(&coordinator);

  Rng rng(123);
  for (uint64_t i = 0; i < kItems; ++i) {
    eng.Push(static_cast<int>(rng.NextBounded(uint64_t{kSites})),
             Item{i, 1.0});
  }
  eng.Flush();

  uint64_t total = 0;
  for (const auto& site : sites) total += site->items.load();
  EXPECT_EQ(total, kItems);
  EXPECT_EQ(eng.stats().items_ingested.load(), kItems);
  eng.Shutdown();
}

// ---------------------------------------------------------------------
// Trace site ids must survive the virtualized-site regime: int16 wrapped
// negative past 32767 sites.

TEST(SchedulerTraceTest, TraceSiteIdsSurvivePastInt16) {
  obs::FlightRecorder::Get().Enable(/*ring_capacity=*/64,
                                    /*deterministic=*/true);
  obs::TraceEvent event;
  event.type = obs::EventType::kSiteScheduled;
  event.site = 100000;
  obs::Emit(event);
  obs::FlightRecorder::Get().Disable();
  const std::vector<obs::TraceEvent> events =
      obs::FlightRecorder::Get().Collect();
  bool found = false;
  for (const obs::TraceEvent& e : events) {
    if (e.type == obs::EventType::kSiteScheduled) {
      EXPECT_EQ(e.site, 100000);
      EXPECT_GE(e.site, 0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace dwrs
