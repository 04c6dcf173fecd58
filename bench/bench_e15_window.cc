// E15 -- Sliding-window quantiles: ingest, rotation and query cost.
//
// Sweeps window size W (total items covered) x bucket count B x k_base over
// a lognormal stream fed through WindowedReqSketch (bucket_items = W / B,
// count-driven rotation) and reports per configuration:
//
//   * update_mups      -- per-item Update throughput through the window
//                         (includes every automatic rotation the stream
//                         triggers).
//   * rotate_us        -- cost of one explicit Rotate() on a full window
//                         (bucket Reset keeps its allocation, so this
//                         should be near-free and independent of W).
//   * warm_rank_ns     -- rank query latency on the full window: the sum
//                         of the live buckets' GetRank, with no merge and
//                         nothing cached between queries.
//
// A plain single ReqSketch over the same W items is measured as the
// baseline; the summary reports window_rank_ns / single_rank_ns per
// configuration (a window reads B buckets' levels per rank).
//
// Results go to stdout as a table and to BENCH_e15_window.json.
//
// Usage: bench_e15_window [--items N] [--reps R] [--out report.json]
//                         [--smoke]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/req_sketch.h"
#include "window/windowed_req_sketch.h"
#include "workload/distributions.h"

namespace {

using req::bench::Clock;
using req::bench::SecondsSince;
using req::bench::g_sink;

struct WindowResult {
  uint32_t k = 0;
  size_t buckets = 0;
  uint64_t window_items = 0;
  uint64_t bucket_items = 0;
  double update_mups = 0.0;
  double rotate_us = 0.0;
  double warm_rank_ns = 0.0;
  uint64_t rotations = 0;
};

struct SingleBaseline {
  uint32_t k = 0;
  uint64_t window_items = 0;
  double warm_rank_ns = 0.0;
};

req::window::WindowedReqConfig MakeConfig(uint32_t k, size_t buckets,
                                          uint64_t window_items) {
  req::window::WindowedReqConfig config;
  config.num_buckets = buckets;
  config.bucket_items = window_items / buckets;
  config.base.k_base = k;
  config.base.seed = 13;
  return config;
}

// Warm rank latency: GetRank over the first probes of `values` on an
// unchanged summary; ns per query. Never inlined, so the timed loop does
// not move with the code around its caller.
template <typename Summary>
[[gnu::noinline]] double WarmRankNs(const Summary& summary,
                                    const std::vector<double>& values) {
  const size_t kWarmQueries = 2000;
  const auto start = Clock::now();
  uint64_t sum = 0;
  for (size_t i = 0; i < kWarmQueries; ++i) {
    sum += summary.GetRank(values[i % values.size()]);
  }
  const double ns =
      SecondsSince(start) * 1e9 / static_cast<double>(kWarmQueries);
  g_sink += sum;
  return ns;
}

// Feeds the whole stream per item (the realistic monitoring API), then
// measures rotation and query costs on the full window. Best of `reps`,
// the rank on its own.
WindowResult MeasureWindow(uint32_t k, size_t buckets,
                           uint64_t window_items,
                           const std::vector<double>& values, int reps) {
  WindowResult best;
  best.k = k;
  best.buckets = buckets;
  best.window_items = window_items;
  best.bucket_items = window_items / buckets;
  for (int r = 0; r < reps; ++r) {
    req::window::WindowedReqSketch<double> window(
        MakeConfig(k, buckets, window_items));
    const auto start = Clock::now();
    for (double v : values) window.Update(v);
    const double ingest_secs = SecondsSince(start);
    const double update_mups =
        static_cast<double>(values.size()) / ingest_secs / 1e6;

    // Rotation cost: explicit rotations on the full window (each retires
    // one bucket and Reset-recycles its sketch). Few enough that the
    // window contents stay representative.
    const size_t kRotations = 8;
    const auto rot_start = Clock::now();
    for (size_t i = 0; i < kRotations; ++i) window.Rotate();
    const double rotate_us =
        SecondsSince(rot_start) * 1e6 / static_cast<double>(kRotations);

    // Refill what the rotations expired so queries see a full window.
    window.Update(values.data(),
                  std::min<size_t>(values.size(),
                                   static_cast<size_t>(
                                       window.bucket_items() * kRotations)));

    const double warm_rank_ns = WarmRankNs(window, values);
    if (best.warm_rank_ns == 0.0 || warm_rank_ns < best.warm_rank_ns) {
      best.warm_rank_ns = warm_rank_ns;
    }
    if (update_mups > best.update_mups) {
      best.update_mups = update_mups;
      best.rotate_us = rotate_us;
      best.rotations = window.rotations();
    }
  }
  return best;
}

// The single-sketch baseline at equal k over exactly W items: warm rank
// latency. Best of `reps`.
SingleBaseline MeasureSingle(uint32_t k, uint64_t window_items,
                             const std::vector<double>& values, int reps) {
  SingleBaseline best;
  best.k = k;
  best.window_items = window_items;
  best.warm_rank_ns = 0.0;
  for (int r = 0; r < reps; ++r) {
    req::ReqConfig config;
    config.k_base = k;
    config.seed = 13;
    req::ReqSketch<double> sketch(config);
    const size_t count =
        std::min<size_t>(values.size(), static_cast<size_t>(window_items));
    sketch.Update(values.data(), count);
    const double warm_rank_ns = WarmRankNs(sketch, values);
    if (best.warm_rank_ns == 0.0 || warm_rank_ns < best.warm_rank_ns) {
      best.warm_rank_ns = warm_rank_ns;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const req::bench::BenchArgs args =
      req::bench::ParseBenchArgs(argc, argv, "BENCH_e15_window.json");
  if (!args.ok) return 1;
  const bool smoke = args.smoke;
  // Stream length (4x the largest W) unless overridden.
  uint64_t items = args.items > 0 ? args.items : uint64_t{1} << 20;
  int reps = args.reps > 0 ? args.reps : 3;
  const std::string& out_path = args.out;
  std::vector<uint64_t> window_sizes{uint64_t{1} << 16, uint64_t{1} << 18};
  if (smoke) {
    items = std::min(items, uint64_t{1} << 15);
    window_sizes = {uint64_t{1} << 13};
    reps = 1;
  }

  const std::vector<size_t> bucket_counts{4, 8, 16};
  const std::vector<uint32_t> ks{16, 64, 256};

  req::bench::PrintBanner(
      "E15: sliding-window quantiles (window size x buckets x k)",
      "bucketed windows answer last-W-items quantile queries from the "
      "live buckets' levels, with rotation near-free");
  std::printf("stream items: %llu   reps: %d   smoke: %s\n\n",
              static_cast<unsigned long long>(items), reps,
              smoke ? "yes" : "no");

  const std::vector<double> values = req::workload::GenerateLognormal(
      static_cast<size_t>(items), 101);

  std::vector<WindowResult> results;
  std::vector<SingleBaseline> baselines;

  std::printf("%6s %8s %12s %12s %12s %10s %14s\n", "k", "buckets",
              "window", "bucket_items", "update_mups", "rotate_us",
              "warm_rank_ns");
  for (uint32_t k : ks) {
    for (uint64_t w : window_sizes) {
      const SingleBaseline base = MeasureSingle(k, w, values, reps);
      baselines.push_back(base);
      std::printf("%6u %8s %12llu %12s %12s %10s %14.1f   "
                  "(single ReqSketch)\n",
                  k, "-", static_cast<unsigned long long>(w), "-", "-", "-",
                  base.warm_rank_ns);
      for (size_t buckets : bucket_counts) {
        const WindowResult r = MeasureWindow(k, buckets, w, values, reps);
        results.push_back(r);
        std::printf("%6u %8zu %12llu %12llu %12.2f %10.2f %14.1f\n", r.k,
                    r.buckets,
                    static_cast<unsigned long long>(r.window_items),
                    static_cast<unsigned long long>(r.bucket_items),
                    r.update_mups, r.rotate_us, r.warm_rank_ns);
      }
    }
  }

  // Summary: window rank latency relative to the single sketch's, per
  // configuration.
  struct Summary {
    uint32_t k;
    size_t buckets;
    uint64_t window_items;
    double warm_ratio_vs_single;
  };
  std::vector<Summary> summaries;
  std::printf("\n%6s %8s %12s %22s\n", "k", "buckets", "window",
              "warm_ratio_vs_single");
  for (const WindowResult& r : results) {
    const SingleBaseline* base = nullptr;
    for (const SingleBaseline& b : baselines) {
      if (b.k == r.k && b.window_items == r.window_items) base = &b;
    }
    const Summary s{r.k, r.buckets, r.window_items,
                    r.warm_rank_ns / base->warm_rank_ns};
    summaries.push_back(s);
    std::printf("%6u %8zu %12llu %22.2f\n", s.k, s.buckets,
                static_cast<unsigned long long>(s.window_items),
                s.warm_ratio_vs_single);
  }

  req::bench::JsonWriter json;
  json.BeginObject()
      .Field("experiment", "e15_window")
      .HostField()
      .Field("items", items)
      .Field("reps", reps)
      .Field("smoke", smoke);
  json.BeginArray("results");
  for (const WindowResult& r : results) {
    json.BeginObject()
        .Field("k", static_cast<uint64_t>(r.k))
        .Field("buckets", static_cast<uint64_t>(r.buckets))
        .Field("window_items", r.window_items)
        .Field("bucket_items", r.bucket_items)
        .Field("update_mups", r.update_mups)
        .Field("rotate_us", r.rotate_us)
        .Field("warm_rank_ns", r.warm_rank_ns)
        .Field("rotations", r.rotations)
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("single_baseline");
  for (const SingleBaseline& b : baselines) {
    json.BeginObject()
        .Field("k", static_cast<uint64_t>(b.k))
        .Field("window_items", b.window_items)
        .Field("warm_rank_ns", b.warm_rank_ns)
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("summary");
  for (const Summary& s : summaries) {
    json.BeginObject()
        .Field("k", static_cast<uint64_t>(s.k))
        .Field("buckets", static_cast<uint64_t>(s.buckets))
        .Field("window_items", s.window_items)
        .Field("warm_ratio_vs_single", s.warm_ratio_vs_single)
        .EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
