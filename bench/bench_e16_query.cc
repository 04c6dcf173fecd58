// E16 -- Query-engine benchmarks: queries from the levels, bulk-rank
// kernels, and per-level item storage.
//
// Quantifies each layer of the query engine, for k_base in {16, 64, 256}
// on a lognormal stream:
//   * seed-era view build: AppendWeightedItems into a fresh SortedView
//     (collect + sort all pairs) -- what GetSortedView() costs;
//   * POST-WRITE QUERIES -- what a service engine pays per query that
//     follows an append: {one 64-item update; one query}, median over the
//     rounds, for GetQuantiles at {0.5, 0.9, 0.99, 0.999}, GetCDF at the
//     1k ascending splits and GetRanks of 4 points. Each builds one
//     query-local index over the levels (the insert tails copied and
//     sorted) and answers from it;
//   * REPEAT QUANTILES -- the same four-quantile query on an unchanged
//     sketch, median over the rounds: what a repeated read pays now that
//     no memoized view answers it;
//   * BULK GetRanks: 1k query points answered by SortedView's co-scan
//     kernel on a view the bench builds once with GetSortedView(), versus
//     the seed-era scalar loop (one GetRank per point) and versus a
//     per-point view binary search;
//   * GetCDF over 1k ascending splits on an unchanged sketch (the
//     repeat-read cost of the level scan);
//   * serialization of the whole sketch (one contiguous copy per level);
//   * sliding-window post-rotation query cost and warm window rank
//     latency (a window rank sums its buckets' ranks).
//
// Every timed loop is its own never-inlined function, and CMake aligns
// every function of this bench to a cache line, so an edit to main or to
// another row cannot move a loop's code, and with it the loop's timing:
// inlined into main, one added JSON field once moved the k = 256
// bulk_vs_scalar_speedup median from 9.46 to 6.09.
//
// Results go to stdout as a table and to a JSON report (default
// BENCH_e16_query.json) validated by tools/check_bench_schema.py.
//
// Usage: bench_e16_query [--items N] [--reps R] [--out report.json]
//                        [--smoke]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "core/sorted_view.h"
#include "window/windowed_req_sketch.h"
#include "workload/distributions.h"

namespace {

using req::bench::Clock;
using req::bench::g_sink;
using req::bench::SecondsSince;

req::ReqSketch<double> MakeSketch(uint32_t k_base) {
  req::ReqConfig config;
  config.k_base = k_base;
  config.seed = 29;
  return req::ReqSketch<double>(config);
}

// The seed-era full view build: collect every (item, weight) pair, sort
// them, and replace the previous view.
void RebuildFullView(const req::ReqSketch<double>& sketch,
                     req::SortedView<double>* view) {
  std::vector<std::pair<double, uint64_t>> weighted;
  weighted.reserve(sketch.RetainedItems());
  sketch.AppendWeightedItems(&weighted);
  *view = req::SortedView<double>(std::move(weighted), sketch.TotalWeight());
}

struct KResult {
  uint32_t k = 0;
  uint64_t retained = 0;
  double seed_view_build_us = 0.0;
  double bulk_rank_ns = 0.0;
  double view_scalar_rank_ns = 0.0;
  double scalar_loop_rank_ns = 0.0;
  double cdf_1k_us = 0.0;
  double serialize_us = 0.0;
  double post_write_quantiles_us = 0.0;
  double repeat_quantiles_us = 0.0;
  double post_write_cdf_us = 0.0;
  double post_write_ranks4_us = 0.0;
};

struct WindowResult {
  uint32_t k = 0;
  uint64_t buckets = 0;
  double post_rotate_query_us = 0.0;
  double warm_rank_ns = 0.0;
};

// Seed-era view build: ingest everything, then time building the whole
// view. Best of reps. Each rep first builds one view untimed: the first
// build in a fresh heap pays first-touch page faults for its arrays (the
// allocator's cost, not the build's), which a single-shot smoke run
// would otherwise time.
[[gnu::noinline]] double SeedViewBuildUs(
    uint32_t k, const std::vector<double>& values, int reps) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    auto sketch = MakeSketch(k);
    sketch.Update(values);
    req::SortedView<double> full;
    RebuildFullView(sketch, &full);
    g_sink += full.size();
    const auto start = Clock::now();
    RebuildFullView(sketch, &full);
    best = std::min(best, SecondsSince(start) * 1e6);
    g_sink += full.size();
  }
  return best;
}

// A service engine's query, timed `rounds` times; median. With
// `post_write`, each query follows one 64-item append; without, the
// sketch never changes between queries. `query` returns a sink value.
template <typename Query>
[[gnu::noinline]] double QueryUs(
    uint32_t k, const std::vector<double>& values, size_t rounds,
    bool post_write, const Query& query) {
  constexpr size_t kBatch = 64;
  auto sketch = MakeSketch(k);
  sketch.Update(values);
  std::vector<double> us(rounds);
  for (size_t i = 0; i < rounds; ++i) {
    if (post_write) {
      sketch.Update(values.data() + (i * kBatch) % (values.size() - kBatch),
                    kBatch);
    }
    const auto start = Clock::now();
    g_sink += query(sketch);
    us[i] = SecondsSince(start) * 1e6;
  }
  std::nth_element(us.begin(), us.begin() + rounds / 2, us.end());
  return us[rounds / 2];
}

std::vector<double> MakeProbes(const std::vector<double>& values,
                               size_t count) {
  std::vector<double> probes;
  probes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    probes.push_back(values[(i * 2654435761ULL) % values.size()]);
  }
  return probes;
}

// BULK GetRanks: `calls` calls of the view's co-scan kernel over all the
// probes; ns per point.
[[gnu::noinline]] double BulkRankNs(
    const req::SortedView<double>& view, const std::vector<double>& probes,
    size_t calls) {
  std::vector<uint64_t> out(probes.size());
  const auto start = Clock::now();
  for (size_t c = 0; c < calls; ++c) {
    view.GetRanks(probes.data(), probes.size(), out.data(),
                  req::Criterion::kInclusive);
    g_sink += out[0];
  }
  return SecondsSince(start) * 1e9 /
         static_cast<double>(calls * probes.size());
}

// Per-point view binary search (single-point bulk calls); ns per point.
[[gnu::noinline]] double ViewScalarRankNs(
    const req::SortedView<double>& view, const std::vector<double>& probes,
    size_t calls) {
  const auto start = Clock::now();
  uint64_t rank = 0;
  for (size_t c = 0; c < calls; ++c) {
    for (const double y : probes) {
      view.GetRanks(&y, 1, &rank, req::Criterion::kInclusive);
      g_sink += rank;
    }
  }
  return SecondsSince(start) * 1e9 /
         static_cast<double>(calls * probes.size());
}

// Seed-era scalar loop: one GetRank (per-level CountRank sum) per point --
// the only batch option before the bulk kernels existed; ns per point.
[[gnu::noinline]] double ScalarLoopRankNs(
    const req::ReqSketch<double>& sketch, const std::vector<double>& probes,
    size_t calls) {
  const auto start = Clock::now();
  for (size_t c = 0; c < calls; ++c) {
    for (const double y : probes) g_sink += sketch.GetRank(y);
  }
  return SecondsSince(start) * 1e9 /
         static_cast<double>(calls * probes.size());
}

// GetCDF over the ascending splits on an unchanged sketch; us per call.
[[gnu::noinline]] double CdfUs(
    const req::ReqSketch<double>& sketch, const std::vector<double>& splits,
    size_t calls) {
  const auto start = Clock::now();
  for (size_t c = 0; c < calls; ++c) {
    g_sink += static_cast<uint64_t>(sketch.GetCDF(splits).back());
  }
  return SecondsSince(start) * 1e6 / static_cast<double>(calls);
}

// Serialization of the whole sketch; us per call.
[[gnu::noinline]] double SerializeUs(
    const req::ReqSketch<double>& sketch, int reps) {
  const auto start = Clock::now();
  for (int r = 0; r < reps; ++r) {
    g_sink += req::SerializeSketch(sketch).size();
  }
  return SecondsSince(start) * 1e6 / static_cast<double>(reps);
}

// A window rank right after each of `rotations` rotations, a bucket of
// items fed after each (untimed); mean us per query.
[[gnu::noinline]] double PostRotateQueryUs(
    req::window::WindowedReqSketch<double>* window,
    const std::vector<double>& values, double probe, int rotations) {
  const uint64_t bucket_items = window->config().bucket_items;
  double total = 0.0;
  size_t feed = 0;
  for (int r = 0; r < rotations; ++r) {
    window->Rotate();
    const auto start = Clock::now();
    g_sink += window->GetRank(probe);
    total += SecondsSince(start);
    window->Update(values.data() + feed, bucket_items);
    feed = (feed + bucket_items) % (values.size() / 2);
  }
  return total * 1e6 / rotations;
}

// Repeated window rank on an unchanged window; ns per query.
[[gnu::noinline]] double WarmRankNs(
    const req::window::WindowedReqSketch<double>& window, double probe,
    size_t queries) {
  const auto start = Clock::now();
  for (size_t i = 0; i < queries; ++i) g_sink += window.GetRank(probe);
  return SecondsSince(start) * 1e9 / static_cast<double>(queries);
}

}  // namespace

int main(int argc, char** argv) {
  const req::bench::BenchArgs args =
      req::bench::ParseBenchArgs(argc, argv, "BENCH_e16_query.json");
  if (!args.ok) return 1;
  const bool smoke = args.smoke;
  size_t num_items = args.items > 0 ? args.items : size_t{1} << 20;
  int reps = args.reps > 0 ? args.reps : 3;
  if (smoke) {
    num_items = std::min(num_items, size_t{1} << 15);
    reps = 1;
  }
  const size_t rounds = smoke ? 200 : 2000;
  const size_t bulk_q = 1000;
  const size_t bulk_calls = smoke ? 20 : 200;

  req::bench::PrintBanner(
      "E16: query-engine benchmarks (queries from the levels, bulk-rank "
      "kernels, serialization)",
      "a query after a write reads the levels without rebuilding a view; "
      "the bulk co-scan beats the scalar rank loop");
  std::printf("items: %zu   reps: %d   rounds: %zu   bulk: %zu pts\n\n",
              num_items, reps, rounds, bulk_q);

  const std::vector<double> values =
      req::workload::GenerateLognormal(num_items, 163);
  const std::vector<double> probes = MakeProbes(values, bulk_q);
  std::vector<double> splits = probes;
  std::sort(splits.begin(), splits.end());
  splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
  const std::vector<double> points4(probes.begin(), probes.begin() + 4);

  std::vector<KResult> results;
  std::printf("%6s %10s %12s %10s %12s %14s %10s %10s\n", "k", "retained",
              "seed_us", "bulk_ns", "view_scal_ns", "scalar_loop_ns",
              "cdf1k_us", "ser_us");
  for (uint32_t k : {16u, 64u, 256u}) {
    KResult res;
    res.k = k;
    res.seed_view_build_us = SeedViewBuildUs(k, values, reps);

    // Bulk vs scalar on a quiescent sketch; the view rows co-scan a view
    // built once here.
    auto sketch = MakeSketch(k);
    sketch.Update(values);
    res.retained = sketch.RetainedItems();
    const req::SortedView<double> view = sketch.GetSortedView();
    res.bulk_rank_ns = BulkRankNs(view, probes, bulk_calls);
    res.view_scalar_rank_ns = ViewScalarRankNs(view, probes, bulk_calls);
    res.scalar_loop_rank_ns = ScalarLoopRankNs(sketch, probes, bulk_calls);
    res.cdf_1k_us = CdfUs(sketch, splits, bulk_calls);
    res.serialize_us = SerializeUs(sketch, reps);
    results.push_back(res);
    std::printf("%6u %10llu %12.1f %10.1f %12.1f %14.1f %10.1f %10.1f\n", k,
                static_cast<unsigned long long>(res.retained),
                res.seed_view_build_us, res.bulk_rank_ns,
                res.view_scalar_rank_ns, res.scalar_loop_rank_ns,
                res.cdf_1k_us, res.serialize_us);
  }

  // Sliding window: a rank query right after a rotation, and warm rank
  // latency. Both sum the buckets' ranks.
  std::vector<WindowResult> window_results;
  std::printf("\n%6s %8s %20s %14s\n", "k", "buckets", "post_rotate_us",
              "warm_rank_ns");
  for (uint32_t k : {64u, 256u}) {
    WindowResult wr;
    wr.k = k;
    wr.buckets = 8;
    const uint64_t window_items =
        std::min<uint64_t>(num_items / 2, uint64_t{1} << 18);
    req::window::WindowedReqConfig config;
    config.num_buckets = 8;
    config.bucket_items = window_items / 8;
    config.base.k_base = k;
    config.base.seed = 29;
    req::window::WindowedReqSketch<double> window(config);
    window.Update(values.data(),
                  std::min<size_t>(values.size(), window_items));
    const double probe = values[values.size() / 2];
    wr.post_rotate_query_us =
        PostRotateQueryUs(&window, values, probe, smoke ? 4 : 16);
    wr.warm_rank_ns = WarmRankNs(window, probe, smoke ? 2000 : 20000);
    window_results.push_back(wr);
    std::printf("%6u %8llu %20.1f %14.1f\n", k,
                static_cast<unsigned long long>(wr.buckets),
                wr.post_rotate_query_us, wr.warm_rank_ns);
  }

  // The per-round query rows run after every other row: their
  // allocations would otherwise change the heap state the rows above are
  // timed in.
  const std::vector<double> qs = {0.5, 0.9, 0.99, 0.999};
  const auto quantiles = [&](const req::ReqSketch<double>& sketch) {
    return static_cast<uint64_t>(sketch.GetQuantiles(qs).back());
  };
  const auto cdf = [&](const req::ReqSketch<double>& sketch) {
    return static_cast<uint64_t>(sketch.GetCDF(splits)[splits.size() / 2] *
                                 1e6);
  };
  const auto ranks4 = [&](const req::ReqSketch<double>& sketch) {
    uint64_t ranks[4];
    sketch.GetRanks(points4.data(), 4, ranks, req::Criterion::kInclusive);
    return ranks[0] + ranks[3];
  };
  std::printf("\n%6s %24s %20s %18s %21s\n", "k", "post_write_quantiles_us",
              "repeat_quantiles_us", "post_write_cdf_us",
              "post_write_ranks4_us");
  for (KResult& r : results) {
    r.post_write_quantiles_us =
        QueryUs(r.k, values, rounds, /*post_write=*/true, quantiles);
    r.repeat_quantiles_us =
        QueryUs(r.k, values, rounds, /*post_write=*/false, quantiles);
    r.post_write_cdf_us =
        QueryUs(r.k, values, rounds, /*post_write=*/true, cdf);
    r.post_write_ranks4_us =
        QueryUs(r.k, values, rounds, /*post_write=*/true, ranks4);
    std::printf("%6u %24.1f %20.1f %18.1f %21.1f\n", r.k,
                r.post_write_quantiles_us, r.repeat_quantiles_us,
                r.post_write_cdf_us, r.post_write_ranks4_us);
  }

  std::printf("\n%6s %24s\n", "k", "bulk_vs_scalar_speedup");
  req::bench::JsonWriter json;
  json.BeginObject()
      .Field("experiment", "e16_query")
      .HostField()
      .Field("items", static_cast<uint64_t>(num_items))
      .Field("reps", reps)
      .Field("smoke", smoke);
  json.BeginArray("results");
  for (const KResult& r : results) {
    json.BeginObject()
        .Field("k", static_cast<uint64_t>(r.k))
        .Field("retained", r.retained)
        .Field("seed_view_build_us", r.seed_view_build_us)
        .Field("bulk_rank_ns", r.bulk_rank_ns)
        .Field("view_scalar_rank_ns", r.view_scalar_rank_ns)
        .Field("scalar_loop_rank_ns", r.scalar_loop_rank_ns)
        .Field("cdf_1k_us", r.cdf_1k_us)
        .Field("serialize_us", r.serialize_us)
        .Field("post_write_quantiles_us", r.post_write_quantiles_us)
        .Field("repeat_quantiles_us", r.repeat_quantiles_us)
        .Field("post_write_cdf_us", r.post_write_cdf_us)
        .Field("post_write_ranks4_us", r.post_write_ranks4_us)
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("window");
  for (const WindowResult& wr : window_results) {
    json.BeginObject()
        .Field("k", static_cast<uint64_t>(wr.k))
        .Field("buckets", wr.buckets)
        .Field("post_rotate_query_us", wr.post_rotate_query_us)
        .Field("warm_rank_ns", wr.warm_rank_ns)
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("summary");
  for (const KResult& r : results) {
    const double bulk_speedup = r.scalar_loop_rank_ns / r.bulk_rank_ns;
    json.BeginObject()
        .Field("k", static_cast<uint64_t>(r.k))
        .Field("bulk_vs_scalar_speedup", bulk_speedup)
        .EndObject();
    std::printf("%6u %24.2f\n", r.k, bulk_speedup);
  }
  json.EndArray();
  json.EndObject();
  if (!json.WriteFile(args.out)) {
    std::fprintf(stderr, "could not write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", args.out.c_str());
  return 0;
}
