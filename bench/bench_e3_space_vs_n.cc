// E3 -- Space as a function of stream length.
//
// Theorem 1: the REQ sketch stores O(eps^-1 log^1.5(eps n)) items. The
// normalized column retained / (k_base * log2^1.5(n / k_base)) should
// hover around a constant while n grows 256x. For contrast, Zhang-Wang's
// deterministic merge-and-prune ([21], O(eps^-1 log^3)) is run at an eps
// giving comparable mid-table footprint: its normalized-by-log^1.5 column
// *grows*, showing the extra log^1.5 factor the REQ sketch removes.
//
// Each row also records what the REQ sketch holds in memory
// (MemoryBytes()) beside its serialized size, the payload a checkpoint
// carries; their ratio shows how close resident bytes stay to the space
// bound as n grows.
//
// Usage: bench_e3_space_vs_n [--out report.json] [--smoke]
#include <cmath>
#include <cstdio>

#include "baselines/zhang_wang_sketch.h"
#include "bench/bench_util.h"
#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "core/theory.h"
#include "workload/distributions.h"

int main(int argc, char** argv) {
  const req::bench::BenchArgs args =
      req::bench::ParseBenchArgs(argc, argv, "BENCH_e3_space_vs_n.json");
  if (!args.ok) return 1;
  req::bench::PrintBanner(
      "E3: retained items vs stream length n",
      "REQ space / log^1.5 is ~flat; Zhang-Wang / log^1.5 grows (it is "
      "log^3)");

  std::printf("%10s %10s %14s %10s %14s %12s %10s\n", "n", "REQ ret",
              "REQ/log^1.5", "ZW ret", "ZW/log^1.5", "REQ levels",
              "res/blob");
  const uint32_t k_base = 32;
  const double zw_eps = 0.04;
  const int max_log_n = args.smoke ? 16 : 21;

  req::bench::JsonWriter json;
  json.BeginObject()
      .Field("experiment", "e3_space_vs_n")
      .Field("smoke", args.smoke);
  json.BeginArray("results");
  for (int log_n = 13; log_n <= max_log_n; ++log_n) {
    const size_t n = size_t{1} << log_n;
    const auto values = req::workload::GenerateUniform(n, 100 + log_n);

    req::ReqConfig config;
    config.k_base = k_base;
    config.seed = 5;
    req::ReqSketch<double> sketch(config);
    for (double v : values) sketch.Update(v);

    req::baselines::ZhangWangSketch zw(zw_eps);
    for (double v : values) zw.Update(v);

    const double log_term = std::pow(
        std::max(1.0, std::log2(static_cast<double>(n) / k_base)), 1.5);
    const double req_norm =
        static_cast<double>(sketch.RetainedItems()) / (k_base * log_term);
    const double zw_norm = static_cast<double>(zw.RetainedItems()) /
                           ((1.0 / zw_eps) * log_term);
    const size_t resident = sketch.MemoryBytes();
    const size_t blob = req::SerializeSketch(sketch).size();
    std::printf("%10zu %10zu %14.3f %10zu %14.3f %12zu %10.2f\n", n,
                sketch.RetainedItems(), req_norm, zw.RetainedItems(),
                zw_norm, sketch.num_levels(),
                static_cast<double>(resident) / static_cast<double>(blob));
    json.BeginObject()
        .Field("n", static_cast<uint64_t>(n))
        .Field("req_retained", static_cast<uint64_t>(sketch.RetainedItems()))
        .Field("req_norm", req_norm)
        .Field("zw_retained", static_cast<uint64_t>(zw.RetainedItems()))
        .Field("zw_norm", zw_norm)
        .Field("levels", static_cast<uint64_t>(sketch.num_levels()))
        .Field("req_resident_bytes", static_cast<uint64_t>(resident))
        .Field("req_blob_bytes", static_cast<uint64_t>(blob))
        .EndObject();
  }
  json.EndArray().EndObject();

  std::printf("\ntheory bounds at eps=0.03, delta=0.1 (items, up to "
              "constants):\n");
  std::printf("%10s %14s %14s %14s %14s\n", "n", "lower bnd", "Thm1",
              "Thm2", "determ.");
  for (int log_n = 14; log_n <= 22; log_n += 4) {
    const uint64_t n = uint64_t{1} << log_n;
    std::printf("%10llu %14.0f %14.0f %14.0f %14.0f\n",
                static_cast<unsigned long long>(n),
                req::theory::SpaceLowerBound(0.03, n),
                req::theory::SpaceBoundThm1(0.03, 0.1, n),
                req::theory::SpaceBoundThm2(0.03, 0.1, n),
                req::theory::SpaceBoundDeterministic(0.03, n));
  }
  if (!json.WriteFile(args.out)) {
    std::fprintf(stderr, "could not write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", args.out.c_str());
  return 0;
}
