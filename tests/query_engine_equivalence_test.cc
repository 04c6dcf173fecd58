// Query-engine equivalence: the query stack -- per-level item storage,
// the query-local level index (multi-point rank scans, quantile
// selection), and the bulk-rank co-scan kernels -- must produce
// *bit-identical* answers to the seed-era scalar paths, on randomized
// streams, across every query surface (plain sketch, Section 5 chain,
// sharded, windowed).
//
// The reference implementation below is the seed-era algorithm verbatim:
// collect all (item, weight) pairs, std::sort them, scan cumulative
// weights, and answer each query with its own binary search. The
// seed-era full rebuild itself -- a SortedView sorted from
// AppendWeightedItems -- additionally pins the level scans against a full
// rebuild directly.
//
// No sketch query goes through a sorted view: ReqSketch reads its
// levels. Quantile selection returns an item equal under the
// comparator to the reference's, and for doubles that is the same value
// except for -0.0 and +0.0, which compare equal (ASSERT_EQ treats them
// as equal too); such an item may come from a different level than the
// view's pick. The selection edge cases get their own tests below: LRA
// (ascending storage), duplicate-heavy streams (equal items span levels),
// N-way merges (long unsorted tails) and single-level sketches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "concurrency/sharded_req_sketch.h"
#include "core/req_chain.h"
#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "core/sorted_view.h"
#include "util/random.h"
#include "window/windowed_req_sketch.h"
#include "workload/distributions.h"

namespace req {
namespace {

// Seed-era reference view: sorted weighted pairs + inclusive cumulative
// weights, one binary search per query.
class RefView {
 public:
  RefView(std::vector<std::pair<double, uint64_t>> weighted,
          uint64_t total) {
    std::sort(weighted.begin(), weighted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    uint64_t cum = 0;
    for (auto& [item, weight] : weighted) {
      cum += weight;
      items_.push_back(item);
      cums_.push_back(cum);
    }
    EXPECT_EQ(cum, total);
  }

  uint64_t Rank(double y, Criterion criterion) const {
    size_t idx;
    if (criterion == Criterion::kInclusive) {
      idx = static_cast<size_t>(
          std::upper_bound(items_.begin(), items_.end(), y) -
          items_.begin());
    } else {
      idx = static_cast<size_t>(
          std::lower_bound(items_.begin(), items_.end(), y) -
          items_.begin());
    }
    return idx == 0 ? 0 : cums_[idx - 1];
  }

  double Quantile(double q, Criterion criterion) const {
    const uint64_t total = cums_.back();
    const double pos = q * static_cast<double>(total);
    uint64_t target;
    if (criterion == Criterion::kInclusive) {
      target = static_cast<uint64_t>(std::ceil(pos));
      if (target == 0) target = 1;
    } else {
      target = static_cast<uint64_t>(std::floor(pos)) + 1;
    }
    if (target > total) return items_.back();
    const size_t idx = static_cast<size_t>(
        std::lower_bound(cums_.begin(), cums_.end(), target) -
        cums_.begin());
    return items_[idx];
  }

 private:
  std::vector<double> items_;
  std::vector<uint64_t> cums_;
};

RefView MakeRef(const ReqSketch<double>& sketch) {
  std::vector<std::pair<double, uint64_t>> weighted;
  sketch.AppendWeightedItems(&weighted);
  return RefView(std::move(weighted), sketch.TotalWeight());
}

std::vector<double> MakeProbes(const std::vector<double>& values,
                               util::Xoshiro256& rng, size_t count) {
  std::vector<double> probes;
  probes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Mix of present values and off-grid points, unsorted on purpose.
    const double v = values[rng.NextBounded(values.size())];
    probes.push_back(i % 3 == 0 ? v + 0.25 : v);
  }
  return probes;
}

// GetQuantile and the vector GetQuantiles against the seed-era reference,
// both criteria, on a grid reaching both ends of the rank range: q =
// 1/(2n) (target 1, the smallest retained item), and q just below 1,
// which under exclusive semantics makes the target n (the largest
// retained item).
void CheckQuantiles(const ReqSketch<double>& sketch, const RefView& ref) {
  const double n = static_cast<double>(sketch.n());
  std::vector<double> qs = {1.0 / (2.0 * n), 1.0 / n};
  for (double q : {0.001, 0.01, 0.1, 0.25, 0.5, 0.77, 0.9, 0.99, 0.999}) {
    qs.push_back(q);
  }
  qs.push_back(1.0 - 1.0 / (2.0 * n));
  qs.push_back(std::nextafter(1.0, 0.0));
  for (Criterion criterion :
       {Criterion::kInclusive, Criterion::kExclusive}) {
    const std::vector<double> batch = sketch.GetQuantiles(qs, criterion);
    ASSERT_EQ(batch.size(), qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      const double expected = ref.Quantile(qs[i], criterion);
      ASSERT_EQ(sketch.GetQuantile(qs[i], criterion), expected)
          << "q=" << qs[i] << " criterion=" << static_cast<int>(criterion);
      ASSERT_EQ(batch[i], expected) << "q=" << qs[i];
    }
  }
}

// The full surface check for one sketch state: bulk kernel (pointer and
// vector forms) vs scalar loop vs seed-era reference, both criteria, plus
// quantiles and CDF.
void CheckPlainSurface(const ReqSketch<double>& sketch,
                       const std::vector<double>& probes) {
  const RefView ref = MakeRef(sketch);
  for (Criterion criterion :
       {Criterion::kInclusive, Criterion::kExclusive}) {
    const std::vector<uint64_t> bulk = sketch.GetRanks(probes, criterion);
    std::vector<uint64_t> bulk_ptr(probes.size());
    sketch.GetRanks(probes.data(), probes.size(), bulk_ptr.data(),
                    criterion);
    ASSERT_EQ(bulk, bulk_ptr);
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(bulk[i], sketch.GetRank(probes[i], criterion))
          << "probe " << i;
      ASSERT_EQ(bulk[i], ref.Rank(probes[i], criterion)) << "probe " << i;
    }
  }
  CheckQuantiles(sketch, ref);
  // CDF at sorted distinct splits == per-split normalized ranks.
  std::vector<double> splits = probes;
  std::sort(splits.begin(), splits.end());
  splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
  const std::vector<double> cdf = sketch.GetCDF(splits);
  ASSERT_EQ(cdf.size(), splits.size() + 1);
  for (size_t i = 0; i < splits.size(); ++i) {
    const double expected =
        static_cast<double>(ref.Rank(splits[i], Criterion::kInclusive)) /
        static_cast<double>(sketch.n());
    ASSERT_EQ(cdf[i], expected) << "split " << i;
  }
  ASSERT_EQ(cdf.back(), 1.0);
}

TEST(QueryEngineEquivalenceTest, PlainSketchRandomizedInterleaving) {
  for (uint32_t k : {16u, 64u}) {
    ReqConfig config;
    config.k_base = k;
    config.seed = 1234 + k;
    ReqSketch<double> sketch(config);
    util::Xoshiro256 rng(99 + k);
    const auto values = workload::GenerateLognormal(60000, 7 + k);

    size_t consumed = 0;
    for (size_t round = 0; round < 12; ++round) {
      // Alternate single-item updates (a level-0 tail) with batches
      // (cascade-heavy path) between query checkpoints.
      const size_t chunk = 1 + rng.NextBounded(9000);
      const size_t end = std::min(values.size(), consumed + chunk);
      if (round % 2 == 0) {
        for (size_t i = consumed; i < end; ++i) sketch.Update(values[i]);
      } else {
        sketch.Update(values.data() + consumed, end - consumed);
      }
      consumed = end;
      const auto probes = MakeProbes(values, rng, 200);
      CheckPlainSurface(sketch, probes);
      // A point update right before querying leaves an unsorted level-0
      // tail for the index to sort.
      sketch.Update(values[rng.NextBounded(consumed)]);
      CheckPlainSurface(sketch, probes);
    }
  }
}

TEST(QueryEngineEquivalenceTest, IncrementalRepairMatchesFullRebuild) {
  ReqConfig config;
  config.k_base = 32;
  config.seed = 5;
  ReqSketch<double> sketch(config);

  util::Xoshiro256 rng(17);
  const auto values = workload::GenerateUniform(40000, 23);
  size_t consumed = 0;
  while (consumed < values.size()) {
    const size_t end =
        std::min(values.size(), consumed + 1 + rng.NextBounded(3000));
    sketch.Update(values.data() + consumed, end - consumed);
    consumed = end;
    // Seed-era full rebuild, from scratch after every batch.
    std::vector<std::pair<double, uint64_t>> weighted;
    sketch.AppendWeightedItems(&weighted);
    const SortedView<double> full(std::move(weighted), sketch.TotalWeight());
    const auto probes = MakeProbes(values, rng, 100);
    std::vector<uint64_t> full_ranks(probes.size());
    full.GetRanks(probes.data(), probes.size(), full_ranks.data(),
                  Criterion::kInclusive);
    ASSERT_EQ(sketch.GetRanks(probes), full_ranks);
    for (double q : {0.001, 0.3, 0.5, 0.9, 0.995}) {
      ASSERT_EQ(sketch.GetQuantile(q),
                full.GetQuantile(q, Criterion::kInclusive));
    }
    std::vector<double> splits = probes;
    std::sort(splits.begin(), splits.end());
    splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
    ASSERT_EQ(sketch.GetCDF(splits),
              full.GetCDF(splits, Criterion::kInclusive));
  }
}

TEST(QueryEngineEquivalenceTest, MergeDirtiesUpperLevelsConsistently) {
  // Merging leaves long unsorted tails on many levels at once; the level
  // scans must still match the reference exactly.
  ReqConfig config;
  config.k_base = 16;
  config.seed = 3;
  ReqSketch<double> sketch(config);
  util::Xoshiro256 rng(31);
  const auto values = workload::GenerateUniform(30000, 41);
  sketch.Update(values.data(), 10000);
  CheckPlainSurface(sketch, MakeProbes(values, rng, 100));

  ReqConfig side_config = config;
  side_config.seed = 77;
  ReqSketch<double> side(side_config);
  side.Update(values.data() + 10000, 20000);
  sketch.Merge(side);
  CheckPlainSurface(sketch, MakeProbes(values, rng, 150));
  // Point update after the merge: a fresh level-0 tail on top of the
  // merged upper levels.
  sketch.Update(values[5]);
  CheckPlainSurface(sketch, MakeProbes(values, rng, 150));
}

TEST(QueryEngineEquivalenceTest, QueriesDoNotPerturbSerializedState) {
  // The view builder works on copies: running the whole query surface must
  // not change the sketch's serialized bytes (storage order included).
  ReqConfig config;
  config.k_base = 32;
  config.seed = 11;
  ReqSketch<double> sketch(config);
  const auto values = workload::GenerateLognormal(50000, 13);
  sketch.Update(values);
  const auto before = SerializeSketch(sketch);
  util::Xoshiro256 rng(7);
  const auto probes = MakeProbes(values, rng, 300);
  (void)sketch.GetRanks(probes);
  (void)sketch.GetQuantile(0.5);
  std::vector<double> splits = probes;
  std::sort(splits.begin(), splits.end());
  splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
  (void)sketch.GetCDF(splits);
  EXPECT_EQ(SerializeSketch(sketch), before);
}

TEST(QueryEngineEquivalenceTest, ChainBulkMatchesScalarLoop) {
  ReqConfig config;
  config.k_base = 16;
  config.seed = 9;
  ReqChain<double> chain(config);
  util::Xoshiro256 rng(53);
  // Long enough to force several close-outs.
  const auto values = workload::GenerateUniform(120000, 61);
  size_t consumed = 0;
  while (consumed < values.size()) {
    const size_t end =
        std::min(values.size(), consumed + 1 + rng.NextBounded(30000));
    chain.Update(values.data() + consumed, end - consumed);
    consumed = end;
    const auto probes = MakeProbes(values, rng, 120);
    const auto bulk = chain.GetRanks(probes);
    std::vector<uint64_t> bulk_ptr(probes.size());
    chain.GetRanks(probes.data(), probes.size(), bulk_ptr.data(),
                   Criterion::kInclusive);
    ASSERT_EQ(bulk, bulk_ptr);
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(bulk[i], chain.GetRank(probes[i])) << "probe " << i;
    }
    std::vector<double> splits = probes;
    std::sort(splits.begin(), splits.end());
    splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
    const auto cdf = chain.GetCDF(splits);
    for (size_t i = 0; i < splits.size(); ++i) {
      ASSERT_EQ(cdf[i],
                static_cast<double>(chain.GetRank(splits[i])) /
                    static_cast<double>(chain.n()));
    }
    const auto quantiles = chain.GetQuantiles({0.1, 0.5, 0.9});
    ASSERT_EQ(quantiles[1], chain.GetQuantile(0.5));
  }
  EXPECT_GT(chain.num_summaries(), 1u);
}

TEST(QueryEngineEquivalenceTest, ShardedBulkMatchesScalarLoop) {
  concurrency::ShardedReqConfig config;
  config.num_shards = 4;
  config.buffer_capacity = 512;
  config.base.k_base = 32;
  config.base.seed = 21;
  concurrency::ShardedReqSketch<double> sharded(config);
  util::Xoshiro256 rng(71);
  const auto values = workload::GenerateLognormal(40000, 83);
  for (size_t i = 0; i < values.size(); ++i) {
    sharded.Update(i % config.num_shards, values[i]);
  }
  sharded.FlushAll();

  const auto probes = MakeProbes(values, rng, 200);
  const auto bulk = sharded.GetRanks(probes);
  std::vector<uint64_t> bulk_ptr(probes.size());
  sharded.GetRanks(probes.data(), probes.size(), bulk_ptr.data(),
                   Criterion::kInclusive);
  ASSERT_EQ(bulk, bulk_ptr);
  const auto merged = sharded.Merged();
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(bulk[i], sharded.GetRank(probes[i])) << "probe " << i;
    ASSERT_EQ(bulk[i], merged.GetRank(probes[i])) << "probe " << i;
  }
  // Single-shard flush between query rounds: answers must track the
  // refreshed merged view exactly.
  sharded.Update(0, values[0]);
  sharded.Flush(0);
  const auto bulk2 = sharded.GetRanks(probes);
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(bulk2[i], sharded.GetRank(probes[i])) << "probe " << i;
  }
}

TEST(QueryEngineEquivalenceTest, WindowedBulkMatchesScalarLoop) {
  window::WindowedReqConfig config;
  config.num_buckets = 4;
  config.bucket_items = 5000;
  config.base.k_base = 32;
  config.base.seed = 29;
  window::WindowedReqSketch<double> windowed(config);
  util::Xoshiro256 rng(91);
  const auto values = workload::GenerateUniform(36000, 97);
  size_t consumed = 0;
  while (consumed < values.size()) {
    const size_t end =
        std::min(values.size(), consumed + 1 + rng.NextBounded(7000));
    windowed.Update(values.data() + consumed, end - consumed);
    consumed = end;
    const auto probes = MakeProbes(values, rng, 120);
    const auto bulk = windowed.GetRanks(probes);
    std::vector<uint64_t> bulk_ptr(probes.size());
    windowed.GetRanks(probes.data(), probes.size(), bulk_ptr.data(),
                      Criterion::kInclusive);
    ASSERT_EQ(bulk, bulk_ptr);
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(bulk[i], windowed.GetRank(probes[i])) << "probe " << i;
    }
  }
  EXPECT_GT(windowed.rotations(), 0u);
}

TEST(QueryEngineEquivalenceTest, SerdeRoundTripIsByteStable) {
  // A restored sketch's levels hold exactly the serialized items:
  // round-tripping is byte-stable and query-equivalent.
  ReqConfig config;
  config.k_base = 64;
  config.seed = 47;
  ReqSketch<double> sketch(config);
  const auto values = workload::GenerateLognormal(80000, 51);
  sketch.Update(values);
  const auto bytes = SerializeSketch(sketch);
  auto restored = DeserializeSketch<double>(bytes);
  EXPECT_EQ(SerializeSketch(restored), bytes);
  util::Xoshiro256 rng(3);
  const auto probes = MakeProbes(values, rng, 150);
  EXPECT_EQ(restored.GetRanks(probes), sketch.GetRanks(probes));
  EXPECT_EQ(restored.GetQuantile(0.99), sketch.GetQuantile(0.99));
}

TEST(QueryEngineEquivalenceTest, QuantilesFromLraLevels) {
  // LRA stores every level ascending, so the selection reads its runs
  // forward rather than backward.
  for (uint32_t k : {16u, 64u}) {
    ReqConfig config;
    config.k_base = k;
    config.accuracy = RankAccuracy::kLowRanks;
    config.seed = 401 + k;
    ReqSketch<double> sketch(config);
    util::Xoshiro256 rng(403 + k);
    const auto values = workload::GenerateLognormal(50000, 409 + k);
    size_t consumed = 0;
    while (consumed < values.size()) {
      const size_t end =
          std::min(values.size(), consumed + 1 + rng.NextBounded(9000));
      sketch.Update(values.data() + consumed, end - consumed);
      consumed = end;
      CheckQuantiles(sketch, MakeRef(sketch));
      sketch.Update(values[rng.NextBounded(consumed)]);
      CheckQuantiles(sketch, MakeRef(sketch));
    }
  }
}

TEST(QueryEngineEquivalenceTest, QuantilesOnDuplicateHeavyStreams) {
  // ~40 distinct values: equal items sit in many levels at once, so the
  // counts of items < x and <= x differ in every run.
  auto values = workload::GenerateUniform(60000, 419);
  for (double& v : values) v = std::floor(v * 40.0);
  for (RankAccuracy accuracy :
       {RankAccuracy::kHighRanks, RankAccuracy::kLowRanks}) {
    ReqConfig config;
    config.k_base = 16;
    config.accuracy = accuracy;
    config.seed = 421;
    ReqSketch<double> sketch(config);
    util::Xoshiro256 rng(431);
    size_t consumed = 0;
    while (consumed < values.size()) {
      const size_t end =
          std::min(values.size(), consumed + 1 + rng.NextBounded(7000));
      sketch.Update(values.data() + consumed, end - consumed);
      consumed = end;
      CheckQuantiles(sketch, MakeRef(sketch));
    }
    EXPECT_GT(sketch.num_levels(), 3u);
  }
}

TEST(QueryEngineEquivalenceTest, QuantilesAfterNWayMerge) {
  // An N-way merge concatenates the sources' buffers into each level;
  // levels it leaves under capacity keep the concatenation as a long
  // unsorted tail (here over 1,000 items in total).
  for (RankAccuracy accuracy :
       {RankAccuracy::kHighRanks, RankAccuracy::kLowRanks}) {
    ReqConfig config;
    config.k_base = 32;
    config.accuracy = accuracy;
    config.seed = 433;
    std::vector<ReqSketch<double>> sources;
    for (uint64_t s = 0; s < 3; ++s) {
      ReqConfig source_config = config;
      source_config.seed = 439 + s;
      sources.emplace_back(source_config);
      sources.back().Update(workload::GenerateLognormal(60000, 443 + s));
    }
    ReqSketch<double> merged(config);
    merged.Merge(sources.data(), sources.size());
    size_t tail_items = 0;
    for (const auto& level : merged.levels()) {
      tail_items += level.size() - level.sorted_prefix();
    }
    EXPECT_GT(tail_items, 1000u);
    CheckQuantiles(merged, MakeRef(merged));
  }
}

TEST(QueryEngineEquivalenceTest, QuantilesFromASingleLevel) {
  for (RankAccuracy accuracy :
       {RankAccuracy::kHighRanks, RankAccuracy::kLowRanks}) {
    ReqConfig config;
    config.k_base = 32;
    config.accuracy = accuracy;
    config.seed = 457;
    ReqSketch<double> sketch(config);
    const auto values = workload::GenerateLognormal(200, 461);
    for (size_t i = 0; i < values.size(); ++i) {
      sketch.Update(values[i]);
      CheckQuantiles(sketch, MakeRef(sketch));
    }
    EXPECT_EQ(sketch.num_levels(), 1u);
  }
}

}  // namespace
}  // namespace req
