// E13 -- Hot-path microbenchmarks with a machine-readable baseline trail.
//
// Measures, for k_base in {16, 64, 256} on a lognormal stream:
//   * single-item update throughput (Mups),
//   * batch update throughput (Mups; only when ReqSketch exposes the
//     batch Update(const T*, size_t) API -- detected at compile time so
//     this same file builds against pre-batch revisions of the sketch),
//   * GetRank latency (ns/query),
//   * cold GetSortedView() build time after an update (us/build),
//   * the compaction kernel's two layers, on tails of 2*k(N) lognormal
//     items at the bound N a 2^20-item stream reaches (ns per tail item):
//     tail_sort, the tail sort of RelativeCompactor::Sort, and
//     tail_merge, the std::inplace_merge of that sorted tail into the
//     sorted prefix of a level-0 buffer, filling it to its capacity B.
//
// Results go to stdout as a table and to a JSON report (default
// BENCH_e13_hotpath.json). Passing --baseline <file> embeds a previously
// captured report under "baseline_pre_refactor", which is how the repo
// records the before/after trajectory of hot-path optimization PRs.
//
// Usage: bench_e13_hotpath [--items N] [--out report.json]
//                          [--baseline old_report.json] [--smoke]
//
// --smoke caps the stream at 64Ki items and runs a single rep so CI can
// exercise the full code path and the JSON schema in seconds; the report
// carries "smoke": true so a quick run is never mistaken for a captured
// baseline.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/bench_util.h"
#include "core/relative_compactor.h"
#include "core/req_sketch.h"
#include "util/random.h"
#include "workload/distributions.h"

namespace {

// Compile-time probe for the batch update API so the bench is buildable
// against revisions of ReqSketch that predate it.
template <typename S, typename = void>
struct HasBatchUpdate : std::false_type {};
template <typename S>
struct HasBatchUpdate<
    S, std::void_t<decltype(std::declval<S&>().Update(
           std::declval<const double*>(), size_t{1}))>> : std::true_type {};

using req::bench::Clock;
using req::bench::SecondsSince;
using req::bench::g_sink;

req::ReqSketch<double> MakeSketch(uint32_t k_base) {
  req::ReqConfig config;
  config.k_base = k_base;
  config.seed = 13;
  return req::ReqSketch<double>(config);
}

struct Measurement {
  std::string metric;
  uint32_t k = 0;
  double value = 0.0;
  std::string unit;
};

double MupsSingle(uint32_t k, const std::vector<double>& values, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto sketch = MakeSketch(k);
    const auto start = Clock::now();
    for (double v : values) sketch.Update(v);
    const double secs = SecondsSince(start);
    g_sink += sketch.RetainedItems();
    best = std::max(best, static_cast<double>(values.size()) / secs / 1e6);
  }
  return best;
}

template <typename S = req::ReqSketch<double>>
double MupsBatch(uint32_t k, const std::vector<double>& values, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    S sketch = MakeSketch(k);
    const auto start = Clock::now();
    if constexpr (HasBatchUpdate<S>::value) {
      sketch.Update(values.data(), values.size());
    }
    const double secs = SecondsSince(start);
    g_sink += sketch.RetainedItems();
    best = std::max(best, static_cast<double>(values.size()) / secs / 1e6);
  }
  return best;
}

double RankLatencyNs(uint32_t k, const std::vector<double>& values,
                     int reps) {
  auto sketch = MakeSketch(k);
  for (double v : values) sketch.Update(v);
  const size_t kQueries = 200000;
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    uint64_t sum = 0;
    const auto start = Clock::now();
    for (size_t i = 0; i < kQueries; ++i) {
      sum += sketch.GetRank(values[i % values.size()]);
    }
    const double secs = SecondsSince(start);
    g_sink += sum;
    best = std::min(best, secs * 1e9 / static_cast<double>(kQueries));
  }
  return best;
}

// A cold GetSortedView() after an update: the full O(S log S) build of a
// caller-owned view (no query needs one; bulk benches and the
// equivalence suites' references build theirs this way).
double SortedViewBuildUs(uint32_t k, const std::vector<double>& values,
                         int reps) {
  auto sketch = MakeSketch(k);
  for (double v : values) sketch.Update(v);
  const int kBuilds = 50;
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    double total = 0.0;
    for (int b = 0; b < kBuilds; ++b) {
      sketch.Update(values[static_cast<size_t>(b) % values.size()]);
      const auto start = Clock::now();
      const auto view = sketch.GetSortedView();
      total += SecondsSince(start);
      g_sink += view.size();
    }
    best = std::min(best, total * 1e6 / kBuilds);
  }
  return best;
}

// Level geometry at the bound N that a stream of n items grows the sketch
// to (N squares from its initial value): the kernel-layer rows time tails
// of 2*k(N) items, the mean compaction width, in levels of capacity B.
struct TailGeometry {
  uint32_t section;   // k(N)
  uint32_t sections;  // B = 2 * section * sections
  size_t tail;
  size_t capacity;
};

TailGeometry GeometryAt(uint32_t k_base, uint64_t n) {
  uint64_t bound = req::params::InitialN(k_base);
  while (bound < n) bound *= bound;
  const uint32_t section = req::params::SectionSize(k_base, bound);
  const uint32_t sections = req::params::NumSections(section, bound);
  return {section, sections, 2 * size_t{section},
          req::params::Capacity(section, sections)};
}

// HRA compaction order, in which the sketch's levels are stored.
using HraOrder = std::greater<double>;
constexpr size_t kKernelItems = size_t{1} << 16;  // per timed round
constexpr int kKernelRounds = 16;

// About kKernelItems items of the stream (cycled if shorter), cut to a
// whole number of `unit`-item slices.
std::vector<double> KernelSlices(const std::vector<double>& values,
                                 size_t unit) {
  std::vector<double> out(std::max<size_t>(1, kKernelItems / unit) * unit);
  for (size_t i = 0; i < out.size(); ++i) out[i] = values[i % values.size()];
  return out;
}

// ns per item of sorting consecutive `tail`-item slices of the stream.
double TailSortNs(const TailGeometry& g, const std::vector<double>& values,
                  int reps) {
  const std::vector<double> source = KernelSlices(values, g.tail);
  const size_t tails = source.size() / g.tail;
  std::vector<double> work;
  std::vector<double> scratch;
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    double total = 0.0;
    for (int round = 0; round < kKernelRounds; ++round) {
      work = source;
      const auto start = Clock::now();
      for (size_t t = 0; t < tails; ++t) {
        double* first = work.data() + t * g.tail;
        req::detail::SortTail(first, first + g.tail, HraOrder(), &scratch);
      }
      total += SecondsSince(start);
      g_sink += static_cast<uint64_t>(work[0]);
    }
    const double items = static_cast<double>(kKernelRounds * source.size());
    best = std::min(best, total * 1e9 / items);
  }
  return best;
}

// ns per tail item of std::inplace_merge joining a sorted tail to the
// sorted prefix of a level of capacity B. The prefixes are those of a real
// level 0: a standalone HRA compactor of this geometry ingests the whole
// stream, then each further compaction leaves survivors whose top
// B - tail items make a prefix, and the next `tail` stream items its tail.
double TailMergeNs(const TailGeometry& g, const std::vector<double>& values,
                   int reps) {
  const size_t prefix = g.capacity - g.tail;
  const size_t levels = std::max<size_t>(1, kKernelItems / g.capacity);
  req::RelativeCompactor<double> level(
      g.section, g.sections, req::RankAccuracy::kHighRanks,
      req::SchedulePolicy::kExponential, req::CoinMode::kRandom);
  req::util::Xoshiro256 rng(13);
  std::vector<double> promoted;
  std::vector<double> source;
  size_t fed = 0;
  const auto next = [&] { return values[fed++ % values.size()]; };
  while (source.size() < levels * g.capacity) {
    level.Insert(next());
    if (!level.IsFull()) continue;
    level.Compact(rng, &promoted);
    if (fed < values.size() || level.size() < prefix) continue;
    const req::ItemSpan<double> survivors = level.items();
    source.insert(source.end(), survivors.begin(), survivors.begin() + prefix);
    for (size_t i = 0; i < g.tail; ++i) source.push_back(next());
    std::sort(source.end() - static_cast<ptrdiff_t>(g.tail), source.end(),
              HraOrder());
  }
  std::vector<double> work;
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    double total = 0.0;
    for (int round = 0; round < kKernelRounds; ++round) {
      work = source;
      const auto start = Clock::now();
      for (size_t l = 0; l < levels; ++l) {
        const auto first = work.begin() + l * g.capacity;
        std::inplace_merge(first, first + prefix, first + g.capacity,
                           HraOrder());
      }
      total += SecondsSince(start);
      g_sink += static_cast<uint64_t>(work[0]);
    }
    const double items = static_cast<double>(kKernelRounds * levels * g.tail);
    best = std::min(best, total * 1e9 / items);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const req::bench::BenchArgs args =
      req::bench::ParseBenchArgs(argc, argv, "BENCH_e13_hotpath.json");
  if (!args.ok) return 1;
  const bool smoke = args.smoke;
  size_t num_items = args.items > 0 ? args.items : size_t{1} << 20;
  const std::string& out_path = args.out;
  const std::string& baseline_path = args.baseline;
  if (smoke) num_items = std::min(num_items, size_t{1} << 16);

  constexpr bool kBatch = HasBatchUpdate<req::ReqSketch<double>>::value;
  req::bench::PrintBanner(
      "E13: hot-path microbenchmarks (update / rank / sorted view)",
      "merge-based compaction + binary-search ranks + batch updates keep "
      "the REQ hot paths cheap");
  std::printf("items: %zu   batch API: %s\n\n", num_items,
              kBatch ? "yes" : "no (pre-batch revision)");

  const std::vector<double> values =
      req::workload::GenerateLognormal(num_items, 101);
  const int kReps = smoke ? 1 : 5;
  std::vector<Measurement> results;

  std::printf("%6s %22s %14s %10s\n", "k", "metric", "value", "unit");
  for (uint32_t k : {16u, 64u, 256u}) {
    const double single = MupsSingle(k, values, kReps);
    results.push_back({"update_single", k, single, "Mups"});
    std::printf("%6u %22s %14.2f %10s\n", k, "update_single", single, "Mups");
    if (kBatch) {
      const double batch = MupsBatch(k, values, kReps);
      results.push_back({"update_batch", k, batch, "Mups"});
      std::printf("%6u %22s %14.2f %10s\n", k, "update_batch", batch, "Mups");
    }
    const double rank_ns = RankLatencyNs(k, values, kReps);
    results.push_back({"get_rank", k, rank_ns, "ns/query"});
    std::printf("%6u %22s %14.1f %10s\n", k, "get_rank", rank_ns, "ns/query");
    const double view_us = SortedViewBuildUs(k, values, kReps);
    results.push_back({"sorted_view_build", k, view_us, "us/build"});
    std::printf("%6u %22s %14.1f %10s\n", k, "sorted_view_build", view_us,
                "us/build");
    const TailGeometry geometry = GeometryAt(k, uint64_t{1} << 20);
    const double sort_ns = TailSortNs(geometry, values, kReps);
    results.push_back({"tail_sort", k, sort_ns, "ns/item"});
    std::printf("%6u %22s %14.2f %10s\n", k, "tail_sort", sort_ns, "ns/item");
    const double merge_ns = TailMergeNs(geometry, values, kReps);
    results.push_back({"tail_merge", k, merge_ns, "ns/item"});
    std::printf("%6u %22s %14.2f %10s\n", k, "tail_merge", merge_ns,
                "ns/item");
  }

  req::bench::JsonWriter json;
  json.BeginObject()
      .Field("experiment", "e13_hotpath")
      .HostField()
      .Field("items", static_cast<uint64_t>(num_items))
      .Field("reps", kReps)
      .Field("smoke", smoke)
      .Field("batch_api", kBatch);
  json.BeginArray("results");
  for (const Measurement& m : results) {
    json.BeginObject()
        .Field("metric", m.metric)
        .Field("k", static_cast<uint64_t>(m.k))
        .Field("value", m.value)
        .Field("unit", m.unit)
        .EndObject();
  }
  json.EndArray();
  if (!baseline_path.empty()) {
    const std::string baseline = req::bench::ReadWholeFile(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "could not read baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    json.RawField("baseline_pre_refactor", baseline);
  }
  json.EndObject();
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
