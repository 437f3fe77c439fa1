// QueryService: the always-available read path. Merges the per-shard
// snapshots published at shard-local quiesce points into one global
// answer — sample, L1 estimate, subset-sum estimators — while the
// ingestion side keeps running at full speed.
//
// Consistency model. Each shard snapshot is a valid quiesce-point state
// of that shard's delivered-message prefix (published between
// coordinator OnMessage calls), so a query result is the EXACT answer
// over the union of S per-shard prefixes: every sampled item's key was
// drawn exactly once at exactly one shard, and the merge algebra
// (sampling/mergeable_sample.h) composes the per-shard summaries
// distribution-exactly. What a live result is NOT is a single global
// stream prefix — shards advance independently — but each shard's slice
// is exact for its own prefix, versions and thresholds only move
// forward, and at any whole-system quiesce point (engine Flush, end of
// stream) the result coincides bit for bit with the stop-the-world
// answer. Staleness is bounded by the coordinator inbox: a shard's
// snapshot lags its true state by at most the messages currently queued
// to its coordinator (zero at shard quiesce).
//
// Root-merge cache. Between publishes every query redoes the identical
// S-way merge, so the merge — not the lock-free reads — bounds the
// query rate. QueryShared() caches one merged result keyed by the
// vector of per-shard publish sequences. The key is built from the
// publish_seq stamps of the snapshots that were actually pinned, read
// and merged (each individually coherent under the publisher's
// pin/validate protocol), and a hit requires EVERY shard's current
// latest_seq() probe to equal the cached key — the double check that
// guarantees no reader ever serves a merge whose key vector was torn
// across a publish. Any shard's publish changes its sequence and thus
// misses the cache; the next query rebuilds and reinstalls. The probe
// never lags a snapshot a reader could have copied (snapshot.h), so
// successive QueryShared() calls of one reader never go back in time.
// Hits cost S sequence probes, one uncontended mutex for the cache slot
// and zero snapshot copies (the probe replaces the full ShardSnapshot
// copy Read() would make) — O(1) in sample size.
//
// Time travel. QueryAsOf(v) asks each shard for its newest retained
// snapshot with state_version <= v (the publisher keeps a ring of the
// last R publishes). A cross-shard as-of cut is exact for the same
// reason a live cut is. A shard whose ring no longer retains any
// snapshot <= v (evicted past the ring depth) makes the result
// incomplete — history is gone, never approximated.
//
// Freshness SLOs. Query(QueryOptions{min_version, max_staleness})
// blocks on the publishers' version waiters — which the engine's
// publish hook feeds at every coordinator quiesce point — until every
// shard has published state_version >= min_version, or the staleness
// budget runs out. On timeout the result is SERVED but flagged
// (version_satisfied == false, lagging_shards listed), mirroring the
// any_stale convention: never silently stale.
//
// Fault semantics: a shard whose session layer reports degradation
// publishes its last clean state flagged stale (query/snapshot.h). The
// merge NEVER silently folds such a shard: the result carries the stale
// shard list and an any_stale bit alongside the merged sample.
//
// Estimator queries condition on the s-th largest merged key: the top
// s-1 entries plus that key as tau form an exactly-known thresholded
// sample (estimators/swor_estimators.h), giving unbiased
// Horvitz-Thompson subset sums from live snapshots with no access to
// discarded keys.

#ifndef DWRS_QUERY_QUERY_SERVICE_H_
#define DWRS_QUERY_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "estimators/swor_estimators.h"
#include "obs/metrics.h"
#include "query/snapshot.h"
#include "sampling/keyed_item.h"
#include "sampling/mergeable_sample.h"
#include "sim/message.h"

namespace dwrs::query {

struct QueryResult {
  // True iff every shard has published at least one snapshot with
  // mergeable content. While false the remaining fields cover only the
  // shards that have (merged stays kEmpty when none have).
  bool complete = false;

  // Fault visibility: shards whose snapshot content is frozen at their
  // last clean state. Never silently merged — always surfaced here.
  bool any_stale = false;
  std::vector<int> stale_shards;

  // Freshness-SLO visibility (Query(QueryOptions) only; plain queries
  // leave the defaults). False means the staleness budget expired
  // before every shard passed min_version; the shards still behind are
  // listed — the result is flagged, never silently stale.
  bool version_satisfied = true;
  std::vector<int> lagging_shards;

  // Root merge of the shard summaries (exact; see the header comment).
  MergeableSample merged;

  // Sum of the shard scalars: L1 W-hat estimates compose by summation
  // (l1/l1_tracker.h); 0 for deployments that do not serve L1.
  double l1_estimate = 0.0;

  // Aggregates across shards.
  sim::MessageStats messages;
  uint64_t steps = 0;

  // The raw per-shard snapshots backing this result, positional (one
  // entry per shard; a shard that has not published yet keeps a
  // default-initialized entry with publish_seq == 0) — what the
  // consistency referee audits (monotone publish_seq / state_version /
  // threshold / session_epoch per shard).
  std::vector<ShardSnapshot> shards;
};

// Per-query freshness SLO (see header comment).
struct QueryOptions {
  // Serve only state at or past this coordinator state version on every
  // shard; 0 disables the wait (plain Query semantics).
  uint64_t min_version = 0;
  // How long the query may block waiting for publishes to catch up. On
  // expiry the result is served flagged (version_satisfied == false).
  std::chrono::nanoseconds max_staleness = std::chrono::nanoseconds::zero();
};

// Cache / SLO counters, exported through obs/schema.cc under the
// "query/" prefix. snapshot_copies_avoided counts the per-shard
// ShardSnapshot copies the sequence-stamp revalidation saved (hits * S).
struct QueryServiceStats {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  uint64_t snapshot_copies_avoided = 0;
  uint64_t slo_waits = 0;
  uint64_t slo_timeouts = 0;
};

class QueryService {
 public:
  // Non-owning views of the per-shard publishers, in shard order. The
  // publishers (and their writers' endpoints) must outlive the service's
  // last query.
  explicit QueryService(std::vector<const SnapshotPublisher*> shards);

  int num_shards() const { return static_cast<int>(shards_.size()); }

  // One lock-free read per shard plus an O(S * s log s) merge; safe from
  // any number of threads concurrently with ingestion. Always rebuilds
  // the merge (the uncached path); see QueryShared() for the cached one.
  QueryResult Query() const;

  // Cached query: returns a shared view of the root merge for the
  // current per-shard publish-sequence vector, rebuilding only when
  // some shard has published since the cached entry was installed
  // (see the header comment for the coherence argument). The returned
  // pointer stays valid after invalidation — it pins the entry it was
  // served from.
  std::shared_ptr<const QueryResult> QueryShared() const;

  // Freshness-SLO query: waits (bounded by options.max_staleness) until
  // every shard's published state_version reaches options.min_version,
  // then serves. On timeout serves anyway with version_satisfied ==
  // false and the lagging shards listed.
  QueryResult Query(const QueryOptions& options) const;

  // Time-travel query: each shard contributes its newest retained
  // snapshot with state_version <= max_state_version. Shards whose ring
  // evicted all such snapshots (or never published) leave their
  // positional entry default-initialized and make the result
  // incomplete.
  QueryResult QueryAsOf(uint64_t max_state_version) const;

  // The merged global sample of Query() (empty while incomplete).
  std::vector<KeyedItem> Sample() const;

  // Summed shard L1 estimates (0.0 while incomplete).
  double L1Estimate() const;

  // Thresholded sample for Horvitz-Thompson estimation: top s-1 merged
  // entries + the s-th largest key as tau. While fewer than s merged
  // candidates exist no shard has announced a threshold, so every
  // delivered item is in hand and the full candidate set is served with
  // tau = 0 (exact-sum mode).
  ThresholdedSample EstimatorSample() const;

  // Subset-sum / count / total-weight estimates over a live snapshot.
  // Each call takes its own snapshot; to compose coherent estimates
  // (e.g. a sum/count ratio) capture EstimatorSample() once and apply
  // estimators/swor_estimators.h to it directly.
  double SubsetSum(const std::function<bool(const Item&)>& pred) const;
  double SubsetCount(const std::function<bool(const Item&)>& pred) const;
  double TotalWeight() const;

  // Point-in-time copy of the cache / SLO counters (relaxed reads; each
  // counter individually exact).
  QueryServiceStats stats() const;

  // Optional serve-latency histogram (microseconds). When set, every
  // Query() records its wall-clock duration; the histogram's Record is
  // wait-free, so concurrent query threads stay lock-free. Set before
  // the first query; the histogram must outlive the service.
  void set_latency_histogram(obs::LatencyHistogram* histogram) {
    latency_us_ = histogram;
  }

 private:
  // A cached root merge plus the publish-sequence vector it was built
  // from (the stamps of the snapshots actually merged — never probed
  // separately, so the key can never be torn against its result).
  struct CachedQuery {
    std::vector<uint64_t> seqs;
    QueryResult result;
  };

  std::vector<const SnapshotPublisher*> shards_;
  obs::LatencyHistogram* latency_us_ = nullptr;

  // A plain mutex, not std::atomic<std::shared_ptr>: libstdc++'s
  // internal lock bit there is invisible to ThreadSanitizer.
  mutable std::mutex cache_mutex_;
  mutable std::shared_ptr<const CachedQuery> cache_;
  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> cache_misses_{0};
  mutable std::atomic<uint64_t> cache_invalidations_{0};
  mutable std::atomic<uint64_t> copies_avoided_{0};
  mutable std::atomic<uint64_t> slo_waits_{0};
  mutable std::atomic<uint64_t> slo_timeouts_{0};
};

}  // namespace dwrs::query

#endif  // DWRS_QUERY_QUERY_SERVICE_H_
