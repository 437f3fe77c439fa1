// Shared plumbing of the repository benchmark: seeded input pools fed as
// per-site spans, the result/check accounting, the machine fingerprint,
// and the endpoint wrappers the workloads build their stacks from.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "metrics.h"
#include "sampling/keyed_item.h"
#include "sim/node.h"
#include "stream/item.h"
#include "stream/workload.h"

namespace perfbench {

using dwrs::Item;

enum class WeightKind { kZipf, kUniform };

// One workload's stream: k sites, sample size s, the weight law, and the
// seed every input and protocol seed derives from.
struct StreamSpec {
  int k = 8;
  int s = 64;
  WeightKind weights = WeightKind::kZipf;
  uint64_t seed = 1;
};

dwrs::WsworConfig ProtocolConfig(const StreamSpec& spec);

// Pre-generated input: `num_items` weighted items with a uniform-random
// site each, arranged chunk by chunk as per-site spans (a chunk's items
// are grouped by site, sites in ascending order). Feeding cycles through
// the pool and writes a fresh id into every item it hands out, so ids
// stay distinct however often the pool wraps.
class ItemPool {
 public:
  struct SiteSpan {
    int site;
    uint32_t offset;
    uint32_t n;
  };

  ItemPool(const StreamSpec& spec, size_t num_items, size_t chunk_items);

  // Restarts feeding at the first chunk, so every round and stage sees the
  // same stream (ids keep counting up).
  void Rewind() { next_chunk_ = 0; }

  // Feeds the next chunk: writes fresh ids (span "write_ids"), then hands
  // every per-site span to push(site, items, n) (span "Push"). Returns
  // the chunk's item count.
  template <typename PushFn>
  uint64_t FeedChunk(PushFn&& push, SpanRecorder* rec) {
    const size_t c = next_chunk_;
    next_chunk_ = (next_chunk_ + 1) % num_chunks();
    Item* base = items_.data() + c * chunk_items_;
    {
      ScopedSpan span(rec, "write_ids");
      for (size_t i = 0; i < chunk_items_; ++i) base[i].id = next_id_++;
    }
    ScopedSpan span(rec, "Push");
    for (size_t j = chunk_span_begin_[c]; j < chunk_span_begin_[c + 1]; ++j) {
      const SiteSpan& sp = spans_[j];
      push(sp.site, base + sp.offset, static_cast<size_t>(sp.n));
    }
    return chunk_items_;
  }

  // The next `n` items as a materialized Workload in feed order, with
  // fresh ids.
  dwrs::Workload MakeWorkload(uint64_t n);

 private:
  size_t num_chunks() const { return items_.size() / chunk_items_; }

  int k_;
  size_t chunk_items_;
  std::vector<Item> items_;
  std::vector<SiteSpan> spans_;
  std::vector<size_t> chunk_span_begin_;  // num_chunks + 1 entries
  size_t next_chunk_ = 0;
  uint64_t next_id_ = 1;
};

// Counts the items an endpoint actually processed, so "pushed but never
// ingested" is checkable at the final quiesce. Forwards everything else.
class CountingSite : public dwrs::sim::SiteNode {
 public:
  explicit CountingSite(dwrs::sim::SiteNode* inner) : inner_(inner) {}
  void OnItem(const Item& item) override {
    ++items_;
    inner_->OnItem(item);
  }
  void OnItems(const Item* items, size_t n) override {
    items_ += n;
    inner_->OnItems(items, n);
  }
  void OnMessage(const dwrs::sim::Payload& msg) override {
    inner_->OnMessage(msg);
  }
  dwrs::sim::SiteHotPathCounters HotPathCounters() const override {
    return inner_->HotPathCounters();
  }
  uint64_t items() const { return items_; }

 private:
  dwrs::sim::SiteNode* inner_;
  uint64_t items_ = 0;
};

// --- results ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One run's verdict. Every output check and every attempted operation
// (item, query) is counted; a failed one is printed and makes the run
// exit non-zero.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Ops(uint64_t attempted_ops, uint64_t failed_ops, const char* what);
  void Check(bool ok, const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  std::string ToJson() const;
};

// Checks a final sample: min(s, items) entries, distinct ids, positive
// finite keys.
void CheckSample(const std::vector<dwrs::KeyedItem>& sample, int s,
                 uint64_t items, const char* where, Result* result);

// Peak resident set growth since the last ResetRssBaseline, in MB.
void ResetRssBaseline();
double RssPeakGrowthMb();

// nproc, affinity, CPU model, compiler, build type, commit, seed and the
// workload's thread count, as one JSON object.
std::string FingerprintJson(const std::string& commit, uint64_t seed,
                            const std::string& workload, int threads);

// Writes the spans of every recorder as Chrome trace_event JSON.
void WriteSpans(const std::string& path,
                const std::vector<std::pair<int, const SpanRecorder*>>&
                    recorders_by_thread);

// Prints one line "<tag> key=value ...".
void PrintRow(const std::string& tag,
              const std::vector<std::pair<std::string, double>>& fields);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
