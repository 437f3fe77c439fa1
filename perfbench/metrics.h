// Metric arithmetic of the repository benchmark: percentiles that carry
// their sample count, per-kitem ratios, in-memory spans with self time
// and coverage, and the hit/miss classification of a cached query by the
// service's counter delta. Header-only so metrics_test.cc can pin every
// rule without linking the workloads.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "query/query_service.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A percentile is only as good as the samples beyond it, so it never
// travels without its sample count.
struct Percentile {
  double value = 0.0;
  size_t count = 0;
};

// Nearest-rank percentile: the smallest sample with at least q * n
// samples at or below it. q in (0, 1]; an empty input gives {0, 0}.
inline Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile p;
  p.count = samples.size();
  if (samples.empty()) return p;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(p.count)));
  rank = std::clamp<size_t>(rank, 1, p.count);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  return p;
}

// Median of the per-round values of one run (the lower middle for an even
// count, so a reported value is always one that was measured).
inline double Median(std::vector<double> values) {
  return PercentileOf(std::move(values), 0.5).value;
}

// count per 1000 items; 0 when no items were measured.
inline double PerKitem(uint64_t count, uint64_t items) {
  if (items == 0) return 0.0;
  return 1000.0 * static_cast<double>(count) / static_cast<double>(items);
}

inline double Frac(uint64_t part, uint64_t whole) {
  if (whole == 0) return 0.0;
  return static_cast<double>(part) / static_cast<double>(whole);
}

// --- spans ------------------------------------------------------------

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       // index into the same recorder; -1 = top level
  uint32_t trace_id = 0; // one id per workload
};

// Single-thread span recorder: Begin/End nest like a call stack. Spans
// are appended in Begin order and kept in memory until the run ends;
// past `capacity` further spans are counted as dropped, not recorded.
class SpanRecorder {
 public:
  explicit SpanRecorder(uint32_t trace_id = 0, size_t capacity = 1 << 20)
      : trace_id_(trace_id), capacity_(capacity) {}

  int Begin(const char* name) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      stack_.push_back(-1);
      return -1;
    }
    Span s;
    s.name = name;
    s.start_ns = NowNs();
    s.parent = Current();
    s.trace_id = trace_id_;
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End() {
    const int id = stack_.back();
    stack_.pop_back();
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  int Current() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (*it >= 0) return *it;
    }
    return -1;
  }

  uint32_t trace_id_;
  size_t capacity_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  uint64_t dropped_ = 0;
};

// RAII scope for a recorder that may be absent (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name) : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(name);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

// Length of the union of [start, end) intervals.
inline int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

// Self time per span name: each span's duration minus the part of its
// interval its direct children cover, summed over spans of that name.
inline std::map<std::string, int64_t> SelfTimesNs(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<size_t>(s.parent)];
      children[static_cast<size_t>(s.parent)].emplace_back(
          std::max(s.start_ns, p.start_ns), std::min(s.end_ns, p.end_ns));
    }
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t d = spans[i].end_ns - spans[i].start_ns;
    self[spans[i].name] += d - UnionLength(children[i]);
  }
  return self;
}

// Share of [window_start, window_end) covered by top-level spans.
inline double Coverage(const std::vector<Span>& spans, int64_t window_start,
                       int64_t window_end) {
  if (window_end <= window_start) return 0.0;
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const Span& s : spans) {
    if (s.parent >= 0) continue;
    iv.emplace_back(std::max(s.start_ns, window_start),
                    std::min(s.end_ns, window_end));
  }
  return static_cast<double>(UnionLength(std::move(iv))) /
         static_cast<double>(window_end - window_start);
}

// --- query classification ---------------------------------------------

enum class QueryClass { kHit, kMiss, kUnknown };

// With one reader, a QueryShared call is a hit iff the service's hit
// counter advanced by exactly one and its miss counter did not (and the
// converse for a miss). Any other delta means a second reader raced the
// call, which the benchmark's single client rules out; it is reported as
// unknown rather than guessed.
inline QueryClass ClassifyQuery(const dwrs::query::QueryServiceStats& before,
                                const dwrs::query::QueryServiceStats& after) {
  const uint64_t hits = after.cache_hits - before.cache_hits;
  const uint64_t misses = after.cache_misses - before.cache_misses;
  if (hits == 1 && misses == 0) return QueryClass::kHit;
  if (hits == 0 && misses == 1) return QueryClass::kMiss;
  return QueryClass::kUnknown;
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
