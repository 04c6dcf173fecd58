// E19: million-metric multi-tenancy churn.
//
// Claim under test: the sharded registry holds a very large metric
// directory cheaply -- an idle metric costs sketch payload (<= 1 KiB
// accounted), not allocator slack; CREATE/DROP touch one shard; paged
// prefix LISTs never materialize the directory; and the
// eviction/rehydration lifecycle is transparent and bit-identical.
//
// Setup (all in-process; the wire cost is E17's metric):
//   1. create storm: `metrics` plain metrics across a grouped namespace
//      (create latency percentiles);
//   2. single-writer appends: one small batch per metric, then an
//      EvictIdle sweep that finds every metric hot and only re-accounts
//      it (the registry refreshes a metric's accounting in sweeps), so
//      the loaded row reads the footprint after the appends;
//   3. idle trim: EvictIdle sweep (memory-only => TrimMemory), then
//      accounted bytes/metric and observed RSS delta/metric;
//   4. paged LIST storm: prefix-filtered offset/limit pages sampled
//      across the namespace. The first page rebuilds all per-shard name
//      runs and is reported alone (list_page_cold_ms); the percentiles
//      come from the warm pages after it;
//   5. churn rounds: create+drop cycles in a side namespace against the
//      full-size directory (lifecycle ops/s);
//   6. durable lifecycle: a subset of metrics under a real
//      DurabilityManager (fsync=never) is evicted (checkpoint + WAL
//      close) and rehydrated by touch, verifying snapshot bytes and
//      accepted counts survive the round trip bit-identically.
//
// Gating: hard-fails (exit 1) if steady-state idle accounted
// bytes/metric exceeds 1 KiB. The latency percentiles and
// bytes_per_metric / ops_per_sec figures feed the CI smoke gate; the
// RSS delta and the single cold LIST page are reported ungated (the
// first tracks the allocator, the second is one sample).
//
// Usage: bench_e19_churn [--smoke] [--items N] [--out FILE]
//        (--items overrides the metric count)
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "persist/durability.h"
#include "service/sketch_registry.h"
#include "util/random.h"

namespace {

using req::bench::Clock;
using req::bench::JsonWriter;
using req::bench::SecondsSince;
using req::persist::DurabilityManager;
using req::persist::DurabilityOptions;
using req::persist::FsyncPolicy;
using req::service::EngineKind;
using req::service::MetricSpec;
using req::service::SketchRegistry;

MetricSpec PlainSpec() {
  MetricSpec spec;
  spec.kind = EngineKind::kPlain;
  spec.base.k_base = 16;  // small-tenant shape: minimal per-level budget
  return spec;
}

// Grouped, sorted namespace: t<group>/m<slot>, 1024 metrics per group,
// so prefix queries ("t000123/") have realistic selectivity.
std::string MetricName(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%06zu/m%04zu", i >> 10, i & 1023);
  return std::string(buf);
}

uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<uint64_t>(resident) *
         static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

double PercentileUs(std::vector<double> us, double p) {
  if (us.empty()) return 0.0;
  std::sort(us.begin(), us.end());
  const size_t idx = std::min(
      us.size() - 1, static_cast<size_t>(p * static_cast<double>(us.size())));
  return us[idx];
}

struct LatencyRow {
  std::string op;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

LatencyRow MakeRow(const std::string& op, const std::vector<double>& us) {
  return LatencyRow{op, PercentileUs(us, 0.50), PercentileUs(us, 0.99)};
}

double ElapsedUs(const Clock::time_point& start) {
  return SecondsSince(start) * 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  req::bench::BenchArgs args =
      req::bench::ParseBenchArgs(argc, argv, "BENCH_e19_churn.json");
  if (!args.ok) return 2;
  const size_t metrics = args.items > 0 ? args.items
                         : args.smoke   ? 20000
                                        : 1000000;
  const size_t churn_rounds = 3;
  const size_t churn_metrics = std::max<size_t>(1, metrics / 100);
  // Warm LIST pages: enough that at least 10 samples lie beyond the p99
  // (PercentileUs picks index floor(0.99 * n)).
  const size_t list_samples = 1100;
  const size_t durable_metrics = args.smoke ? 128 : 512;

  req::bench::PrintBanner(
      "E19: million-metric churn (sharded registry, service/)",
      "idle metrics cost sketch payload, not slack; lifecycle and paged "
      "LIST stay flat at directory scale");

  const uint64_t rss_before = ResidentBytes();
  SketchRegistry registry;
  req::util::Xoshiro256 rng(777);

  // 1. Create storm. Latency is sampled (sorting millions of samples
  // would dominate the bench itself), throughput uses the full wall.
  std::vector<double> create_us;
  create_us.reserve(std::min<size_t>(metrics, 65536));
  const size_t create_stride = std::max<size_t>(1, metrics / 65536);
  const auto create_start = Clock::now();
  for (size_t i = 0; i < metrics; ++i) {
    if (i % create_stride == 0) {
      const auto start = Clock::now();
      registry.Create(MetricName(i), PlainSpec());
      create_us.push_back(ElapsedUs(start));
    } else {
      registry.Create(MetricName(i), PlainSpec());
    }
  }
  const double create_wall_s = SecondsSince(create_start);
  std::printf("created %zu metrics in %.2fs (%.0f creates/s)\n", metrics,
              create_wall_s, static_cast<double>(metrics) / create_wall_s);

  // 2. Single-writer appends.
  std::vector<double> append_us;
  append_us.reserve(create_us.capacity());
  std::vector<double> batch(8);
  const auto append_start = Clock::now();
  for (size_t i = 0; i < metrics; ++i) {
    for (double& v : batch) v = rng.NextDouble() * 1e6;
    auto engine = registry.Require(MetricName(i));
    if (i % create_stride == 0) {
      const auto start = Clock::now();
      engine->Append(batch.data(), batch.size());
      append_us.push_back(ElapsedUs(start));
    } else {
      engine->Append(batch.data(), batch.size());
    }
  }
  const double append_wall_s = SecondsSince(append_start);
  // No metric is idle for ~forever, so this sweep only re-accounts: the
  // accounting otherwise still reads each metric's CREATE-time footprint.
  registry.EvictIdle(UINT64_MAX);
  const double loaded_bpm =
      static_cast<double>(registry.AccountedMemoryBytes()) /
      static_cast<double>(metrics);
  const uint64_t rss_loaded = ResidentBytes();
  const double loaded_rss_per_metric =
      rss_loaded > rss_before
          ? static_cast<double>(rss_loaded - rss_before) /
                static_cast<double>(metrics)
          : 0.0;

  // 3. Idle trim sweep (memory-only registry: TrimMemory per metric).
  const auto sweep_start = Clock::now();
  const req::service::EvictionStats sweep = registry.EvictIdle(0);
  const double sweep_s = SecondsSince(sweep_start);
  const double idle_bpm =
      static_cast<double>(registry.AccountedMemoryBytes()) /
      static_cast<double>(metrics);
  const uint64_t rss_after = ResidentBytes();
  const double rss_per_metric =
      rss_after > rss_before
          ? static_cast<double>(rss_after - rss_before) /
                static_cast<double>(metrics)
          : 0.0;
  std::printf("appends: %.2fs; trim sweep: %.2fs (%zu scanned, %zu "
              "trimmed)\n",
              append_wall_s, sweep_s, sweep.scanned, sweep.trimmed);
  std::printf("bytes/metric: %.0f loaded, %.0f idle (accounted); %.0f RSS "
              "delta\n",
              loaded_bpm, idle_bpm, rss_per_metric);

  // 4. Paged prefix LISTs across random groups. The first call after the
  // trim sweep pays the per-shard snapshot rebuild and is timed alone;
  // the rest ride the caches, which is the steady-state LIST shape the
  // percentiles measure.
  const size_t num_groups = (metrics + 1023) >> 10;
  std::vector<double> list_us;
  list_us.reserve(list_samples);
  uint64_t listed = 0;
  double list_cold_us = 0.0;
  for (size_t s = 0; s <= list_samples; ++s) {
    char prefix[16];
    std::snprintf(prefix, sizeof(prefix), "t%06zu/",
                  static_cast<size_t>(rng.NextBounded(num_groups)));
    uint64_t total = 0;
    const auto start = Clock::now();
    const std::vector<std::string> page =
        registry.ListPage(prefix, /*offset=*/0, /*limit=*/100, &total);
    if (s == 0) {
      list_cold_us = ElapsedUs(start);
    } else {
      list_us.push_back(ElapsedUs(start));
    }
    listed += page.size();
    req::bench::g_sink += total;
  }
  std::printf("paged LIST: cold first page %.1f us; %zu warm samples, p99 "
              "%.1f us\n",
              list_cold_us, list_samples, PercentileUs(list_us, 0.99));

  // 5. Churn rounds against the full directory.
  const auto churn_start = Clock::now();
  for (size_t round = 0; round < churn_rounds; ++round) {
    for (size_t i = 0; i < churn_metrics; ++i) {
      registry.Create("churn/m" + std::to_string(i), PlainSpec());
    }
    for (size_t i = 0; i < churn_metrics; ++i) {
      registry.Drop("churn/m" + std::to_string(i));
    }
  }
  const double churn_s = SecondsSince(churn_start);
  const double churn_ops =
      static_cast<double>(2 * churn_rounds * churn_metrics) / churn_s;
  std::printf("churn: %zu rounds x %zu metrics: %.0f lifecycle ops/s\n",
              churn_rounds, churn_metrics, churn_ops);

  // 6. Durable evict/rehydrate round trip, verified bit-identical.
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/req_e19_churn";
  std::filesystem::remove_all(dir);
  std::vector<double> rehydrate_us;
  double evict_sweep_ms = 0.0;
  size_t evicted = 0;
  {
    DurabilityOptions options;
    options.fsync = FsyncPolicy::kNever;
    DurabilityManager manager(dir, options);
    SketchRegistry durable;
    manager.RecoverInto(&durable);
    std::vector<std::vector<uint8_t>> blobs(durable_metrics);
    std::vector<double> chunk(64);
    for (size_t i = 0; i < durable_metrics; ++i) {
      const std::string name = "d/m" + std::to_string(i);
      auto engine = durable.Create(name, PlainSpec());
      for (double& v : chunk) v = rng.NextDouble() * 1e6;
      engine->Append(chunk.data(), chunk.size());
      blobs[i] = engine->Snapshot();
    }
    const auto evict_start = Clock::now();
    const req::service::EvictionStats stats = durable.EvictIdle(0);
    evict_sweep_ms = SecondsSince(evict_start) * 1e3;
    evicted = stats.evicted;
    if (evicted != durable_metrics) {
      std::fprintf(stderr, "FAIL: evicted %zu of %zu durable metrics\n",
                   evicted, durable_metrics);
      return 1;
    }
    rehydrate_us.reserve(durable_metrics);
    for (size_t i = 0; i < durable_metrics; ++i) {
      const std::string name = "d/m" + std::to_string(i);
      if (durable.IsResident(name)) {
        std::fprintf(stderr, "FAIL: %s still resident after eviction\n",
                     name.c_str());
        return 1;
      }
      const auto start = Clock::now();
      auto engine = durable.Require(name);  // touch => rehydrate
      rehydrate_us.push_back(ElapsedUs(start));
      if (engine->AcceptedN() != chunk.size() ||
          engine->Snapshot() != blobs[i]) {
        std::fprintf(stderr,
                     "FAIL: %s did not rehydrate bit-identically\n",
                     name.c_str());
        return 1;
      }
    }
    if (durable.Rehydrations() != durable_metrics) {
      std::fprintf(stderr, "FAIL: rehydration count mismatch\n");
      return 1;
    }
  }
  std::filesystem::remove_all(dir);
  std::printf("durable lifecycle: %zu evicted (sweep %.1f ms), rehydrate "
              "p99 %.1f us, snapshots bit-identical\n",
              evicted, evict_sweep_ms, PercentileUs(rehydrate_us, 0.99));

  // Rehydrate latency is disk-bound (checkpoint reads), so -- like E18's
  // fsync and recovery costs -- it is reported in ungated *_ms fields;
  // the CPU-bound create/append/LIST latencies gate in *_us.
  std::vector<LatencyRow> latency = {
      MakeRow("create", create_us),
      MakeRow("append", append_us),
      MakeRow("list_page", list_us),
  };

  JsonWriter json;
  json.BeginObject()
      .Field("experiment", "e19_churn")
      .HostField()
      .Field("metrics", static_cast<uint64_t>(metrics))
      .Field("smoke", args.smoke)
      .BeginArray("footprint")
      .BeginObject()
      .Field("phase", "loaded")
      .Field("bytes_per_metric", loaded_bpm)
      .Field("observed_rss_per_metric", loaded_rss_per_metric)
      .EndObject()
      .BeginObject()
      .Field("phase", "idle")
      .Field("bytes_per_metric", idle_bpm)
      .Field("observed_rss_per_metric", rss_per_metric)
      .EndObject()
      .EndArray()
      .BeginArray("latency");
  for (const LatencyRow& row : latency) {
    json.BeginObject()
        .Field("op", row.op)
        .Field("p50_us", row.p50_us)
        .Field("p99_us", row.p99_us)
        .EndObject();
  }
  json.EndArray()
      .BeginArray("rehydrate")
      .BeginObject()
      .Field("metrics", static_cast<uint64_t>(durable_metrics))
      .Field("p50_ms", PercentileUs(rehydrate_us, 0.5) / 1000.0)
      .Field("p99_ms", PercentileUs(rehydrate_us, 0.99) / 1000.0)
      .EndObject()
      .EndArray()
      .BeginArray("churn")
      .BeginObject()
      .Field("rounds", static_cast<uint64_t>(churn_rounds))
      .Field("ops_per_sec", churn_ops)
      .EndObject()
      .EndArray()
      .BeginArray("summary")
      .BeginObject()
      .Field("metrics", static_cast<uint64_t>(metrics))
      .Field("idle_bytes_per_metric", idle_bpm)
      .Field("list_page_p99_us", PercentileUs(list_us, 0.99))
      .Field("list_page_cold_ms", list_cold_us / 1000.0)
      .Field("rehydrate_p99_ms", PercentileUs(rehydrate_us, 0.99) / 1000.0)
      .EndObject()
      .EndArray()
      .EndObject();
  if (!json.WriteFile(args.out)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", args.out.c_str());

  // The tentpole's acceptance bar: steady-state idle footprint.
  if (idle_bpm > 1024.0) {
    std::fprintf(stderr,
                 "FAIL: idle accounted bytes/metric %.0f exceeds 1 KiB\n",
                 idle_bpm);
    return 1;
  }
  return 0;
}
