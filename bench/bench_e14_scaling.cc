// E14 -- Sharded concurrent-ingestion scaling sweep.
//
// Sweeps producer threads in {1, 2, 4, 8} x k_base in {16, 64, 256} over a
// lognormal stream, one ShardedReqSketch shard per producer, and reports:
//
//   * wall_mups      -- aggregate wall-clock throughput (total items /
//                       wall seconds). Bounded by the machine's cores: on
//                       a 1-core box it stays flat regardless of thread
//                       count.
//   * agg_cpu_mups   -- aggregate software throughput: the sum over
//                       producers of items / that thread's CPU time
//                       (CLOCK_THREAD_CPUTIME_ID). This isolates what the
//                       sharded design itself scales to -- contention
//                       (lock waits, cache-line ping-pong, serialized
//                       flushes) inflates a thread's CPU cost and drags
//                       this metric down, while mere time-slicing does
//                       not. On an N-core machine wall_mups converges to
//                       it; on any machine it is the honest measure of
//                       shard independence.
//   * plain_mups     -- single-thread batch Update throughput of a plain
//                       ReqSketch (the E13 fast path), the overhead
//                       baseline for the 1-thread sharded case.
//   * merged_build_us / warm rank latency -- merge-on-query cost: first
//                       query after a flush pays one N-way merge + sorted
//                       view build; subsequent queries hit the cache.
//
// The summary block reports, per k: the 8-vs-1-thread aggregate speedup
// (the scaling claim) and the 1-thread sharded / plain ratio (the
// sharding-overhead bound).
//
// Results go to stdout as a table and to BENCH_e14_scaling.json.
//
// Usage: bench_e14_scaling [--items N_PER_THREAD] [--reps R]
//                          [--out report.json] [--smoke]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "concurrency/sharded_req_sketch.h"
#include "core/req_sketch.h"
#include "workload/distributions.h"

namespace {

using req::bench::Clock;
using req::bench::SecondsSince;
using req::bench::g_sink;

// CPU time consumed by the calling thread only.
double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

constexpr size_t kBufferCapacity = 4096;

struct ScalingResult {
  uint32_t k = 0;
  size_t threads = 0;
  double wall_mups = 0.0;
  double agg_cpu_mups = 0.0;
  double merged_build_us = 0.0;
  double warm_rank_ns = 0.0;
};

req::concurrency::ShardedReqConfig MakeConfig(uint32_t k, size_t shards) {
  req::concurrency::ShardedReqConfig config;
  config.num_shards = shards;
  config.buffer_capacity = kBufferCapacity;
  config.base.k_base = k;
  config.base.seed = 13;
  return config;
}

// One measured ingestion: `threads` producers, each feeding its shard
// `per_thread` items one by one (the realistic API: every item goes
// through the staging buffer). Returns the best rep.
ScalingResult MeasureSharded(uint32_t k, size_t threads,
                             const std::vector<double>& values,
                             size_t per_thread, int reps) {
  ScalingResult best;
  best.k = k;
  best.threads = threads;
  for (int r = 0; r < reps; ++r) {
    req::concurrency::ShardedReqSketch<double> sketch(
        MakeConfig(k, threads));
    std::vector<double> cpu_secs(threads, 0.0);
    std::vector<std::thread> producers;
    producers.reserve(threads);
    const auto start = Clock::now();
    for (size_t t = 0; t < threads; ++t) {
      producers.emplace_back([&, t] {
        const double cpu_start = ThreadCpuSeconds();
        const double* data = values.data() + t * per_thread;
        for (size_t i = 0; i < per_thread; ++i) {
          sketch.Update(t, data[i]);
        }
        sketch.Flush(t);
        cpu_secs[t] = ThreadCpuSeconds() - cpu_start;
      });
    }
    for (auto& p : producers) p.join();
    const double wall = SecondsSince(start);

    const double total_items =
        static_cast<double>(per_thread) * static_cast<double>(threads);
    const double wall_mups = total_items / wall / 1e6;
    double agg = 0.0;
    for (size_t t = 0; t < threads; ++t) {
      agg += static_cast<double>(per_thread) / cpu_secs[t] / 1e6;
    }

    // Merge-on-query cost: the first rank query pays the N-way merge and
    // the sorted-view build; the second hits the cached merged view.
    const auto cold_start = Clock::now();
    g_sink += sketch.GetRank(values[0]);
    const double merged_build_us = SecondsSince(cold_start) * 1e6;
    const size_t kWarmQueries = 2000;
    const auto warm_start = Clock::now();
    uint64_t sum = 0;
    for (size_t i = 0; i < kWarmQueries; ++i) {
      sum += sketch.GetRank(values[i % values.size()]);
    }
    const double warm_rank_ns =
        SecondsSince(warm_start) * 1e9 / static_cast<double>(kWarmQueries);
    g_sink += sum;

    if (agg > best.agg_cpu_mups) {
      best.wall_mups = wall_mups;
      best.agg_cpu_mups = agg;
      best.merged_build_us = merged_build_us;
      best.warm_rank_ns = warm_rank_ns;
    }
  }
  return best;
}

// The E13 fast-path baseline: plain single-threaded batch updates.
double MeasurePlainBatch(uint32_t k, const std::vector<double>& values,
                        size_t count, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    req::ReqConfig config;
    config.k_base = k;
    config.seed = 13;
    req::ReqSketch<double> sketch(config);
    const auto start = Clock::now();
    sketch.Update(values.data(), count);
    const double secs = SecondsSince(start);
    g_sink += sketch.RetainedItems();
    best = std::max(best, static_cast<double>(count) / secs / 1e6);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const req::bench::BenchArgs args =
      req::bench::ParseBenchArgs(argc, argv, "BENCH_e14_scaling.json");
  if (!args.ok) return 1;
  const bool smoke = args.smoke;
  size_t per_thread = args.items > 0 ? args.items : size_t{1} << 20;
  int reps = args.reps > 0 ? args.reps : 3;
  const std::string& out_path = args.out;
  if (smoke) {
    per_thread = std::min(per_thread, size_t{1} << 14);
    reps = 1;
  }

  const std::vector<size_t> thread_counts{1, 2, 4, 8};
  const std::vector<uint32_t> ks{16, 64, 256};
  const size_t max_threads = thread_counts.back();

  req::bench::PrintBanner(
      "E14: sharded concurrent-ingestion scaling (threads x k)",
      "shard-per-thread ingestion through SPSC staging buffers scales "
      "aggregate update throughput with producer count");
  std::printf(
      "items/thread: %zu   reps: %d   hardware threads: %u   smoke: %s\n\n",
      per_thread, reps, std::thread::hardware_concurrency(),
      smoke ? "yes" : "no");

  const std::vector<double> values =
      req::workload::GenerateLognormal(per_thread * max_threads, 101);

  std::vector<ScalingResult> results;
  std::vector<double> plain_mups(ks.size(), 0.0);

  std::printf("%6s %8s %12s %14s %16s %14s\n", "k", "threads", "wall_mups",
              "agg_cpu_mups", "merged_build_us", "warm_rank_ns");
  for (size_t ki = 0; ki < ks.size(); ++ki) {
    const uint32_t k = ks[ki];
    plain_mups[ki] = MeasurePlainBatch(k, values, per_thread, reps);
    std::printf("%6u %8s %12.2f %14s %16s %14s   (plain ReqSketch batch)\n",
                k, "-", plain_mups[ki], "-", "-", "-");
    for (size_t threads : thread_counts) {
      const ScalingResult r =
          MeasureSharded(k, threads, values, per_thread, reps);
      results.push_back(r);
      std::printf("%6u %8zu %12.2f %14.2f %16.1f %14.1f\n", k, threads,
                  r.wall_mups, r.agg_cpu_mups, r.merged_build_us,
                  r.warm_rank_ns);
    }
  }

  // Summary: scaling claim (8 threads vs 1) and sharding overhead bound
  // (1-thread sharded vs plain batch), per k.
  struct Summary {
    uint32_t k;
    double agg_speedup_8v1;
    double sharded_vs_plain_1t;
  };
  std::vector<Summary> summaries;
  std::printf("\n%6s %18s %22s\n", "k", "agg_speedup_8v1",
              "sharded_vs_plain_1t");
  for (size_t ki = 0; ki < ks.size(); ++ki) {
    double agg1 = 0.0, agg8 = 0.0;
    for (const ScalingResult& r : results) {
      if (r.k != ks[ki]) continue;
      if (r.threads == 1) agg1 = r.agg_cpu_mups;
      if (r.threads == max_threads) agg8 = r.agg_cpu_mups;
    }
    const Summary s{ks[ki], agg8 / agg1, agg1 / plain_mups[ki]};
    summaries.push_back(s);
    std::printf("%6u %18.2f %22.3f\n", s.k, s.agg_speedup_8v1,
                s.sharded_vs_plain_1t);
  }

  req::bench::JsonWriter json;
  json.BeginObject()
      .Field("experiment", "e14_scaling")
      .HostField()
      .Field("items_per_thread", static_cast<uint64_t>(per_thread))
      .Field("reps", reps)
      .Field("smoke", smoke)
      .Field("hardware_threads",
             static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .Field("buffer_capacity", static_cast<uint64_t>(kBufferCapacity));
  json.BeginArray("results");
  for (const ScalingResult& r : results) {
    json.BeginObject()
        .Field("k", static_cast<uint64_t>(r.k))
        .Field("threads", static_cast<uint64_t>(r.threads))
        .Field("shards", static_cast<uint64_t>(r.threads))
        .Field("wall_mups", r.wall_mups)
        .Field("agg_cpu_mups", r.agg_cpu_mups)
        .Field("merged_build_us", r.merged_build_us)
        .Field("warm_rank_ns", r.warm_rank_ns)
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("plain_baseline");
  for (size_t ki = 0; ki < ks.size(); ++ki) {
    json.BeginObject()
        .Field("k", static_cast<uint64_t>(ks[ki]))
        .Field("plain_mups", plain_mups[ki])
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("summary");
  for (const Summary& s : summaries) {
    json.BeginObject()
        .Field("k", static_cast<uint64_t>(s.k))
        .Field("agg_speedup_8v1", s.agg_speedup_8v1)
        .Field("sharded_vs_plain_1t", s.sharded_vs_plain_1t)
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
