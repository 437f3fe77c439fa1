#include "harness.h"

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "random/rng.h"
#include "stream/generators.h"

namespace perfbench {

dwrs::WsworConfig ProtocolConfig(const StreamSpec& spec) {
  dwrs::WsworConfig config;
  config.num_sites = spec.k;
  config.sample_size = spec.s;
  config.seed = spec.seed * 0x9E3779B97F4A7C15ull + 17;
  return config;
}

ItemPool::ItemPool(const StreamSpec& spec, size_t num_items,
                   size_t chunk_items)
    : k_(spec.k), chunk_items_(chunk_items) {
  DWRS_CHECK(chunk_items > 0 && num_items >= chunk_items);
  const size_t chunks = num_items / chunk_items;
  items_.resize(chunks * chunk_items);
  chunk_span_begin_.reserve(chunks + 1);
  dwrs::Rng rng(spec.seed);
  std::unique_ptr<dwrs::WeightGenerator> gen;
  if (spec.weights == WeightKind::kZipf) {
    gen = std::make_unique<dwrs::ZipfWeights>(uint64_t{1} << 20, 1.1);
  } else {
    gen = std::make_unique<dwrs::UniformWeights>(1.0, 16.0);
  }
  std::vector<int> site(chunk_items);
  std::vector<Item> drawn(chunk_items);
  std::vector<uint32_t> count(static_cast<size_t>(k_) + 1);
  for (size_t c = 0; c < chunks; ++c) {
    // Counting sort of the chunk's items by site keeps each site's items
    // in arrival order.
    std::fill(count.begin(), count.end(), 0);
    for (size_t i = 0; i < chunk_items; ++i) {
      drawn[i] = Item{0, gen->WeightAt(c * chunk_items + i, rng)};
      site[i] = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(k_)));
      ++count[static_cast<size_t>(site[i]) + 1];
    }
    chunk_span_begin_.push_back(spans_.size());
    for (int j = 0; j < k_; ++j) {
      const uint32_t n = count[static_cast<size_t>(j) + 1];
      if (n > 0) spans_.push_back({j, count[static_cast<size_t>(j)], n});
      count[static_cast<size_t>(j) + 1] += count[static_cast<size_t>(j)];
    }
    Item* base = items_.data() + c * chunk_items;
    for (size_t i = 0; i < chunk_items; ++i) {
      base[count[static_cast<size_t>(site[i])]++] = drawn[i];
    }
  }
  chunk_span_begin_.push_back(spans_.size());
}

dwrs::Workload ItemPool::MakeWorkload(uint64_t n) {
  std::vector<dwrs::WorkloadEvent> events;
  events.reserve(n);
  while (events.size() < n) {
    FeedChunk(
        [&](int site, const Item* items, size_t m) {
          for (size_t i = 0; i < m && events.size() < n; ++i) {
            events.push_back({site, items[i]});
          }
        },
        nullptr);
  }
  return dwrs::Workload(k_, std::move(events));
}

// --- results ----------------------------------------------------------

void Result::Ops(uint64_t attempted_ops, uint64_t failed_ops,
                 const char* what) {
  attempted += attempted_ops;
  failed += failed_ops;
  if (failed_ops > 0) {
    std::printf("FAILED %llu of %llu %s\n",
                static_cast<unsigned long long>(failed_ops),
                static_cast<unsigned long long>(attempted_ops), what);
  }
}

void Result::Check(bool ok, const std::string& what) {
  Ops(1, ok ? 0 : 1, what.c_str());
}

std::string Result::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << metrics[i].name << "\": {\"value\": " << metrics[i].value
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void CheckSample(const std::vector<dwrs::KeyedItem>& sample, int s,
                 uint64_t items, const char* where, Result* result) {
  const uint64_t want = std::min<uint64_t>(static_cast<uint64_t>(s), items);
  std::set<uint64_t> ids;
  bool keys_ok = true;
  for (const dwrs::KeyedItem& ki : sample) {
    ids.insert(ki.item.id);
    keys_ok = keys_ok && std::isfinite(ki.key) && ki.key > 0.0;
  }
  result->Check(sample.size() == want,
                std::string(where) + ": sample has min(s, items) entries");
  result->Check(ids.size() == sample.size(),
                std::string(where) + ": sample ids are distinct");
  result->Check(keys_ok, std::string(where) + ": sample keys are positive");
}

// --- memory -----------------------------------------------------------

namespace {

// VmRSS or VmHWM of this process in kB (0 if unreadable).
uint64_t StatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::stoull(line.substr(prefix.size()));
    }
  }
  return 0;
}

uint64_t rss_baseline_kb = 0;

}  // namespace

void ResetRssBaseline() { rss_baseline_kb = StatusKb("VmRSS"); }

double RssPeakGrowthMb() {
  const uint64_t hwm = StatusKb("VmHWM");
  return hwm > rss_baseline_kb
             ? static_cast<double>(hwm - rss_baseline_kb) / 1024.0
             : 0.0;
}

// --- fingerprint ------------------------------------------------------

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

constexpr const char* kCompiler =
#if defined(__clang__)
    "clang " __clang_version__;
#elif defined(__GNUC__)
    "gcc " __VERSION__;
#else
    "unknown";
#endif

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string FingerprintJson(const std::string& commit, uint64_t seed,
                            const std::string& workload, int threads) {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string mask;
  int allowed = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &set)) continue;
      if (!mask.empty()) mask += ',';
      mask += std::to_string(cpu);
      ++allowed;
    }
  }
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"affinity\": \"" << mask << "\", \"affinity_cpus\": " << allowed
      << ", \"cpu_model\": \"" << JsonEscape(CpuModel())
      << "\", \"compiler\": \"" << JsonEscape(kCompiler)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"commit\": \"" << JsonEscape(commit) << "\", \"seed\": " << seed
      << ", \"workload\": \"" << workload << "\", \"threads\": " << threads
      << "}";
  return out.str();
}

void WriteSpans(const std::string& path,
                const std::vector<std::pair<int, const SpanRecorder*>>&
                    recorders_by_thread) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  bool first = true;
  int64_t origin = INT64_MAX;
  for (const auto& [tid, rec] : recorders_by_thread) {
    for (const Span& s : rec->spans()) origin = std::min(origin, s.start_ns);
  }
  for (const auto& [tid, rec] : recorders_by_thread) {
    const std::vector<Span>& spans = rec->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (first ? "" : ",") << "\n{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": " << s.trace_id
          << ", \"tid\": " << tid
          << ", \"ts\": " << static_cast<double>(s.start_ns - origin) / 1e3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

void PrintRow(const std::string& tag,
              const std::vector<std::pair<std::string, double>>& fields) {
  std::printf("%s", tag.c_str());
  for (const auto& [k, v] : fields) std::printf(" %s=%.6g", k.c_str(), v);
  std::printf("\n");
}

}  // namespace perfbench
