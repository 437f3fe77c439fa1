// Tests of the benchmark's own metric arithmetic (metrics.h). A plain
// executable so the benchmark builds without a test framework:
//
//   cmake -S perfbench -B .bench_build && cmake --build .bench_build -j4
//   ctest --test-dir .bench_build

#include <cmath>
#include <cstdio>
#include <vector>

#include "metrics.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using perfbench::Span;

Span MakeSpan(const char* name, int64_t start, int64_t end, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestPercentileCarriesCount() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  const perfbench::Percentile p50 = perfbench::PercentileOf(v, 0.5);
  const perfbench::Percentile p99 = perfbench::PercentileOf(v, 0.99);
  EXPECT(p50.value == 50.0 && p50.count == 100);
  EXPECT(p99.value == 99.0 && p99.count == 100);
  EXPECT(perfbench::PercentileOf(v, 1.0).value == 100.0);
  // A single sample is every percentile of itself.
  EXPECT(perfbench::PercentileOf({7.0}, 0.99).value == 7.0);
  const perfbench::Percentile none = perfbench::PercentileOf({}, 0.5);
  EXPECT(none.count == 0 && none.value == 0.0);
  // Median of an even count is the lower middle: a measured value.
  EXPECT(perfbench::Median({4.0, 1.0, 3.0, 2.0}) == 2.0);
  EXPECT(perfbench::Median({3.0, 1.0, 2.0}) == 2.0);
}

void TestPerKitemRatios() {
  EXPECT(Near(perfbench::PerKitem(76, 1000), 76.0));
  EXPECT(Near(perfbench::PerKitem(1, 1000000), 0.001));
  EXPECT(perfbench::PerKitem(5, 0) == 0.0);
  EXPECT(Near(perfbench::Frac(38, 100), 0.38));
  EXPECT(perfbench::Frac(1, 0) == 0.0);
}

void TestSelfTimeAndCoverage() {
  // root [0, 100) with children [10, 30) and [20, 50) (overlapping) and a
  // grandchild [12, 18) under the first child; a second top-level span
  // [120, 150).
  std::vector<Span> spans = {
      MakeSpan("root", 0, 100, -1),     MakeSpan("child", 10, 30, 0),
      MakeSpan("grand", 12, 18, 1),     MakeSpan("child", 20, 50, 0),
      MakeSpan("other", 120, 150, -1),
  };
  const auto self = perfbench::SelfTimesNs(spans);
  EXPECT(self.at("root") == 100 - 40);       // children cover [10, 50)
  EXPECT(self.at("child") == (20 - 6) + 30);  // grandchild only in the first
  EXPECT(self.at("grand") == 6);
  EXPECT(self.at("other") == 30);
  // Top-level spans cover 100 + 30 of the window [0, 200).
  EXPECT(Near(perfbench::Coverage(spans, 0, 200), 130.0 / 200.0));
  // Spans are clipped to the window.
  EXPECT(Near(perfbench::Coverage(spans, 50, 130), (50.0 + 10.0) / 80.0));
  EXPECT(perfbench::Coverage(spans, 10, 10) == 0.0);
}

void TestRecorderNesting() {
  perfbench::SpanRecorder rec(/*trace_id=*/7, /*capacity=*/3);
  rec.Begin("a");
  rec.Begin("b");
  rec.End();
  rec.Begin("c");
  rec.Begin("d");  // over capacity: dropped, its children re-parent to c
  rec.Begin("e");
  rec.End();
  rec.End();
  rec.End();
  rec.End();
  const auto& spans = rec.spans();
  EXPECT(spans.size() == 3);
  EXPECT(rec.dropped() == 2);
  EXPECT(spans[0].parent == -1 && spans[1].parent == 0 && spans[2].parent == 0);
  EXPECT(spans[0].trace_id == 7);
  for (const Span& s : spans) EXPECT(s.end_ns >= s.start_ns);
}

void TestHitMissClassification() {
  dwrs::query::QueryServiceStats before;
  before.cache_hits = 10;
  before.cache_misses = 4;
  dwrs::query::QueryServiceStats hit = before;
  hit.cache_hits = 11;
  dwrs::query::QueryServiceStats miss = before;
  miss.cache_misses = 5;
  miss.cache_invalidations = 1;  // a rebuild after a publish
  dwrs::query::QueryServiceStats raced = before;
  raced.cache_hits = 12;  // another reader's call landed in between
  dwrs::query::QueryServiceStats both = hit;
  both.cache_misses = 5;
  using perfbench::ClassifyQuery;
  using perfbench::QueryClass;
  EXPECT(ClassifyQuery(before, hit) == QueryClass::kHit);
  EXPECT(ClassifyQuery(before, miss) == QueryClass::kMiss);
  EXPECT(ClassifyQuery(before, raced) == QueryClass::kUnknown);
  EXPECT(ClassifyQuery(before, both) == QueryClass::kUnknown);
  EXPECT(ClassifyQuery(before, before) == QueryClass::kUnknown);
}

}  // namespace

int main() {
  TestPercentileCarriesCount();
  TestPerKitemRatios();
  TestSelfTimeAndCoverage();
  TestRecorderNesting();
  TestHitMissClassification();
  if (failures == 0) std::printf("metrics_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
