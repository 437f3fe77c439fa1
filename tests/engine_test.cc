// Tests of the concurrent execution engine (src/engine/): channel
// primitives, exact step-synchronous equivalence with sim::Runtime for
// the weighted SWOR / naive / unweighted protocols, distributional
// correctness in full throughput mode (chi-square over sample sets, KS
// over the max key), and backpressure under the adversarial single-hot-
// site stream. The whole file is run under -fsanitize=thread in CI.

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/naive.h"
#include "core/sampler.h"
#include "engine/channels.h"
#include "engine/engine.h"
#include "stats/ks_test.h"
#include "stream/workload.h"
#include "test_util.h"
#include "unweighted/distributed_swor.h"

namespace dwrs {
namespace {

using engine::Channel;
using engine::Engine;
using engine::EngineConfig;
using engine::SpscRing;

// ---------------------------------------------------------------------
// Channel primitives.

TEST(SpscRingTest, FifoOrderAndCapacity) {
  SpscRing<int> ring(3);  // rounds up to 4
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    EXPECT_TRUE(ring.TryPush(v));
  }
  int v = 99;
  EXPECT_FALSE(ring.TryPush(v));
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.TryPop(&out));
  EXPECT_TRUE(ring.Empty());
}

TEST(SpscRingTest, ConcurrentTransferPreservesSequence) {
  constexpr int kCount = 100000;
  SpscRing<int> ring(8);
  std::thread producer([&ring] {
    for (int i = 0; i < kCount; ++i) {
      int v = i;
      while (!ring.TryPush(v)) std::this_thread::yield();
    }
  });
  long long sum = 0;
  for (int i = 0; i < kCount; ++i) {
    int out = -1;
    while (!ring.TryPop(&out)) std::this_thread::yield();
    ASSERT_EQ(out, i);
    sum += out;
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(kCount) * (kCount - 1) / 2);
}

TEST(ChannelTest, BoundedChannelTransfersUnderContention) {
  constexpr int kPerProducer = 5000;
  Channel<int> channel(4);
  std::thread p1([&channel] {
    for (int i = 0; i < kPerProducer; ++i) EXPECT_TRUE(channel.Push(i));
  });
  std::thread p2([&channel] {
    for (int i = 0; i < kPerProducer; ++i) EXPECT_TRUE(channel.Push(i));
  });
  long long sum = 0;
  for (int got = 0; got < 2 * kPerProducer;) {
    int out;
    if (channel.TryPop(&out)) {
      sum += out;
      ++got;
    } else {
      std::this_thread::yield();
    }
  }
  p1.join();
  p2.join();
  EXPECT_EQ(sum, 2LL * kPerProducer * (kPerProducer - 1) / 2);
}

TEST(ChannelTest, StallCounterCountsEpisodesNotWakeups) {
  // Two producers block on a capacity-1 channel; the consumer then pops
  // twice. Each pop wakes every waiter (notify_all), so the producer
  // that loses the race re-checks "full" and waits again — under the old
  // per-wakeup counting that re-check inflated the counter to 3+. One
  // blocking episode per producer must count exactly once.
  Channel<int> channel(1);
  std::atomic<uint64_t> stalls{0};
  ASSERT_TRUE(channel.Push(0));  // fill; no stall
  EXPECT_EQ(stalls.load(), 0u);

  std::thread p1([&] { EXPECT_TRUE(channel.Push(1, &stalls)); });
  std::thread p2([&] { EXPECT_TRUE(channel.Push(2, &stalls)); });
  // Both producers are parked once both episodes are counted.
  while (stalls.load() < 2) std::this_thread::yield();

  int out;
  ASSERT_TRUE(channel.TryPop(&out));  // wakes both; one re-waits
  while (channel.SizeApprox() != 1) std::this_thread::yield();
  ASSERT_TRUE(channel.TryPop(&out));
  p1.join();
  p2.join();
  while (channel.TryPop(&out)) {
  }
  EXPECT_EQ(stalls.load(), 2u);  // episodes, not wakeups
}

TEST(ChannelTest, CloseUnblocksAFullProducer) {
  Channel<int> channel(1);
  ASSERT_TRUE(channel.Push(0));
  std::atomic<bool> push_returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(channel.Push(1));  // full, then closed
    push_returned.store(true);
  });
  while (channel.SizeApprox() != 1) std::this_thread::yield();
  channel.Close();
  producer.join();
  EXPECT_TRUE(push_returned.load());
}

// ---------------------------------------------------------------------
// Engine-backed protocol harnesses mirroring the sim facades' seed
// derivation exactly (master RNG: one NextU64 per site, then one for the
// coordinator where it takes a seed).

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
  // Endpoints declared before the engine: destruction joins the worker
  // threads first, making teardown safe even mid-stream (see the teardown
  // contract in engine/engine.h).
  std::vector<std::unique_ptr<WsworSite>> sites;
  std::unique_ptr<WsworCoordinator> coordinator;
  Engine eng;
};

Workload ZipfWorkload(int k, uint64_t n, uint64_t seed) {
  return WorkloadBuilder()
      .num_sites(k)
      .num_items(n)
      .seed(seed)
      .weights(std::make_unique<ZipfWeights>(uint64_t{1} << 16, 1.2))
      .partitioner(std::make_unique<RandomPartitioner>())
      .Build();
}

void ExpectSameSample(const std::vector<KeyedItem>& a,
                      const std::vector<KeyedItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item.id, b[i].item.id) << " position " << i;
    EXPECT_EQ(a[i].item.weight, b[i].item.weight) << " position " << i;
    EXPECT_EQ(a[i].key, b[i].key) << " position " << i;
  }
}

void ExpectSameStats(const sim::MessageStats& a, const sim::MessageStats& b) {
  EXPECT_EQ(a.site_to_coord, b.site_to_coord);
  EXPECT_EQ(a.coord_to_site, b.coord_to_site);
  EXPECT_EQ(a.broadcast_events, b.broadcast_events);
  EXPECT_EQ(a.words, b.words);
  for (size_t i = 0; i < a.by_type.size(); ++i) {
    EXPECT_EQ(a.by_type[i], b.by_type[i]) << " message type " << i;
  }
}

// ---------------------------------------------------------------------
// Step-synchronous equivalence: identical callbacks in identical order
// with identical RNG draws must reproduce the simulator bit for bit —
// sample contents, keys, and every traffic counter.

TEST(EngineEquivalenceTest, StepSyncWsworMatchesSimExactly) {
  const WsworConfig config{.num_sites = 4, .sample_size = 8, .seed = 42};
  const Workload w = ZipfWorkload(4, 3000, /*seed=*/5);

  DistributedWswor sim_sampler(config);
  sim_sampler.Run(w);

  EngineWswor es(config, EngineConfig{.num_sites = 4});
  sim::DeliverEach(es.eng, w);

  ExpectSameSample(sim_sampler.Sample(), es.coordinator->Sample());
  ExpectSameStats(sim_sampler.stats(), es.eng.stats().MessageSnapshot());
  EXPECT_EQ(sim_sampler.coordinator().announced_epoch(),
            es.coordinator->announced_epoch());
}

TEST(EngineEquivalenceTest, SingleSiteDeterminism) {
  // The degenerate single-site stream: the engine pipeline collapses to
  // one producer/consumer pair and must still replay the simulator.
  const WsworConfig config{.num_sites = 1, .sample_size = 16, .seed = 9};
  const Workload w = WorkloadBuilder()
                         .num_sites(1)
                         .num_items(5000)
                         .seed(11)
                         .weights(std::make_unique<SelfSimilarWeights>())
                         .partitioner(std::make_unique<SingleSitePartitioner>())
                         .Build();

  DistributedWswor sim_sampler(config);
  sim_sampler.Run(w);

  EngineWswor es(config, EngineConfig{.num_sites = 1});
  sim::DeliverEach(es.eng, w);
  es.eng.Flush();

  ExpectSameSample(sim_sampler.Sample(), es.coordinator->Sample());
  ExpectSameStats(sim_sampler.stats(), es.eng.stats().MessageSnapshot());
}

TEST(EngineEquivalenceTest, StepSyncNaiveMatchesSim) {
  const int k = 3, s = 8;
  const Workload w = ZipfWorkload(k, 2000, /*seed=*/21);

  NaiveDistributedWswor sim_sampler(k, s, /*seed=*/77);
  sim_sampler.Run(w);

  Engine eng(EngineConfig{.num_sites = k});
  Rng master(77);
  std::vector<std::unique_ptr<NaiveWsworSite>> sites;
  for (int i = 0; i < k; ++i) {
    sites.push_back(std::make_unique<NaiveWsworSite>(s, i, &eng.transport(),
                                                     master.NextU64()));
    eng.AttachSite(i, sites.back().get());
  }
  NaiveWsworCoordinator coordinator(s);
  eng.AttachCoordinator(&coordinator);
  sim::DeliverEach(eng, w);

  ExpectSameSample(sim_sampler.Sample(), coordinator.Sample());
  ExpectSameStats(sim_sampler.stats(), eng.stats().MessageSnapshot());
}

TEST(EngineEquivalenceTest, StepSyncUnweightedSubstrateMatchesSim) {
  const UsworConfig config{.num_sites = 3, .sample_size = 5, .seed = 13};
  const Workload w = WorkloadBuilder()
                         .num_sites(3)
                         .num_items(4000)
                         .seed(29)
                         .weights(std::make_unique<ConstantWeights>(1.0))
                         .partitioner(std::make_unique<RoundRobinPartitioner>())
                         .Build();

  DistributedUnweightedSwor sim_sampler(config);
  sim_sampler.Run(w);

  Engine eng(EngineConfig{.num_sites = 3});
  Rng master(config.seed);
  std::vector<std::unique_ptr<UsworSite>> sites;
  for (int i = 0; i < 3; ++i) {
    sites.push_back(std::make_unique<UsworSite>(config, i, &eng.transport(),
                                                master.NextU64()));
    eng.AttachSite(i, sites.back().get());
  }
  UsworCoordinator coordinator(config, &eng.transport());
  eng.AttachCoordinator(&coordinator);
  sim::DeliverEach(eng, w);

  const std::vector<Item> a = sim_sampler.Sample();
  const std::vector<Item> b = coordinator.Sample();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  ExpectSameStats(sim_sampler.stats(), eng.stats().MessageSnapshot());
}

TEST(EngineEquivalenceTest, OnStepHookQueriesEveryPrefix) {
  // An on_step hook forces per-event quiesce, so the continuous-query
  // discipline of sim::Runtime::Run carries over: the engine-side sample
  // size trajectory must match the simulator's exactly.
  const WsworConfig config{.num_sites = 2, .sample_size = 8, .seed = 3};
  const Workload w = ZipfWorkload(2, 300, /*seed=*/31);

  std::vector<size_t> sim_sizes;
  DistributedWswor sim_sampler(config);
  sim_sampler.Run(w, [&](uint64_t) {
    sim_sizes.push_back(sim_sampler.Sample().size());
  });

  std::vector<size_t> engine_sizes;
  EngineWswor es(config, EngineConfig{.num_sites = 2});
  es.eng.Run(w, [&](uint64_t) {
    engine_sizes.push_back(es.coordinator->Sample().size());
  });

  EXPECT_EQ(sim_sizes, engine_sizes);
}

// ---------------------------------------------------------------------
// Full-throughput (pipelined) mode: execution is nondeterministic, but
// the protocol is robust to in-flight messages, so the output must still
// be an exact weighted SWOR. Verified distributionally.

std::vector<uint64_t> EngineTrialSample(const std::vector<double>& weights,
                                        int k, int s, int trial) {
  const WsworConfig config{.num_sites = k, .sample_size = s,
                           .seed = 1000 + static_cast<uint64_t>(trial)};
  EngineWswor es(config, EngineConfig{.num_sites = k,
                                      .batch_size = 2,
                                      .item_queue_batches = 2,
                                      .message_queue_capacity = 4});
  Rng partition(77 + static_cast<uint64_t>(trial));
  for (uint64_t i = 0; i < weights.size(); ++i) {
    es.eng.Push(static_cast<int>(partition.NextBounded(
                    static_cast<uint64_t>(k))),
                Item{i, weights[i]});
  }
  es.eng.Flush();
  std::vector<uint64_t> ids;
  for (const KeyedItem& ki : es.coordinator->Sample()) {
    ids.push_back(ki.item.id);
  }
  return ids;
}

TEST(EngineDistributionTest, ThroughputModeSampleSetsChiSquare) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const int s = 2, k = 3, trials = 2500;
  const ChiSquareResult result = testing::SworSetGoodnessOfFit(
      weights, s, trials,
      [&](int t) { return EngineTrialSample(weights, k, s, t); });
  EXPECT_GT(result.p_value, 1e-3)
      << "chi2=" << result.statistic << " df=" << result.degrees_of_freedom;
}

TEST(EngineDistributionTest, ThroughputModeMaxKeyKsTest) {
  // With unit weights the largest delivered key is the max of n iid
  // Exp-derived keys: P(max <= x) = exp(-n/x). KS over engine runs.
  const int k = 3, s = 4, trials = 400;
  const uint64_t n = 200;
  std::vector<double> max_keys;
  for (int t = 0; t < trials; ++t) {
    const WsworConfig config{.num_sites = k, .sample_size = s,
                             .seed = 5000 + static_cast<uint64_t>(t)};
    EngineWswor es(config, EngineConfig{.num_sites = k, .batch_size = 16});
    const Workload w =
        WorkloadBuilder()
            .num_sites(k)
            .num_items(n)
            .seed(9000 + static_cast<uint64_t>(t))
            .weights(std::make_unique<ConstantWeights>(1.0))
            .partitioner(std::make_unique<RandomPartitioner>())
            .Build();
    es.eng.Run(w);
    const std::vector<KeyedItem> sample = es.coordinator->Sample();
    ASSERT_FALSE(sample.empty());
    max_keys.push_back(sample.front().key);
  }
  const KsResult result = KsTest(max_keys, [n](double x) {
    return x <= 0.0 ? 0.0 : std::exp(-static_cast<double>(n) / x);
  });
  EXPECT_GT(result.p_value, 1e-3) << "D=" << result.statistic;
}

// ---------------------------------------------------------------------
// Stress and lifecycle.

TEST(EngineStressTest, AdversarialHotSiteWithTinyQueuesCompletes) {
  // Everything lands on one (hopping) hot site; queues are sized to force
  // constant backpressure on every channel. The run must complete with a
  // valid sample — the deadlock-freedom regression test.
  const int k = 4, s = 16;
  const uint64_t n = 20000;
  const Workload w = WorkloadBuilder()
                         .num_sites(k)
                         .num_items(n)
                         .seed(3)
                         .weights(std::make_unique<SelfSimilarWeights>())
                         .partitioner(std::make_unique<AdversarialPartitioner>(
                             /*hop_every=*/64))
                         .Build();
  const WsworConfig config{.num_sites = k, .sample_size = s, .seed = 7};
  EngineWswor es(config, EngineConfig{.num_sites = k,
                                      .batch_size = 8,
                                      .item_queue_batches = 1,
                                      .message_queue_capacity = 2});
  es.eng.Run(w);

  EXPECT_EQ(es.eng.stats().items_ingested.load(), n);
  EXPECT_EQ(es.eng.step(), n);
  const std::vector<KeyedItem> sample = es.coordinator->Sample();
  ASSERT_EQ(sample.size(), static_cast<size_t>(s));
  std::vector<uint64_t> ids;
  for (const KeyedItem& ki : sample) ids.push_back(ki.item.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(EngineTest, FlushIsAReusableQuiescePoint) {
  const WsworConfig config{.num_sites = 2, .sample_size = 4, .seed = 1};
  EngineWswor es(config, EngineConfig{.num_sites = 2, .batch_size = 8});
  Rng rng(6);
  uint64_t id = 0;
  for (int i = 0; i < 100; ++i) {
    es.eng.Push(static_cast<int>(rng.NextBounded(2)),
                Item{id++, 1.0 + rng.NextDouble() * 7.0});
  }
  es.eng.Flush();
  EXPECT_EQ(es.eng.step(), 100u);
  EXPECT_EQ(es.coordinator->Sample().size(), 4u);
  const double threshold_after_100 = es.coordinator->Threshold();

  for (int i = 0; i < 900; ++i) {
    es.eng.Push(static_cast<int>(rng.NextBounded(2)),
                Item{id++, 1.0 + rng.NextDouble() * 7.0});
  }
  es.eng.Flush();
  es.eng.Flush();  // idempotent
  EXPECT_EQ(es.eng.step(), 1000u);
  EXPECT_GE(es.coordinator->Threshold(), threshold_after_100);
  es.eng.Shutdown();
  es.eng.Shutdown();  // idempotent
}

}  // namespace
}  // namespace dwrs
