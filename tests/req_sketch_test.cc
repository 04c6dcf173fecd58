#include "core/req_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/req_common.h"
#include "core/req_serde.h"
#include "sim/metrics.h"
#include "workload/distributions.h"
#include "workload/stream_orders.h"

namespace req {
namespace {

ReqConfig MakeConfig(uint32_t k_base = 16,
                     RankAccuracy acc = RankAccuracy::kLowRanks,
                     uint64_t seed = 42) {
  ReqConfig config;
  config.k_base = k_base;
  config.accuracy = acc;
  config.seed = seed;
  return config;
}

TEST(ReqSketchTest, EmptySketch) {
  ReqSketch<double> sketch(MakeConfig());
  EXPECT_TRUE(sketch.is_empty());
  EXPECT_EQ(sketch.n(), 0u);
  EXPECT_EQ(sketch.RetainedItems(), 0u);
  EXPECT_EQ(sketch.num_levels(), 1u);
  EXPECT_THROW(sketch.GetRank(1.0), std::logic_error);
  EXPECT_THROW(sketch.GetQuantile(0.5), std::logic_error);
  EXPECT_THROW(sketch.MinItem(), std::logic_error);
  EXPECT_THROW(sketch.MaxItem(), std::logic_error);
}

TEST(ReqSketchTest, RejectsInvalidConfig) {
  ReqConfig bad = MakeConfig();
  bad.k_base = 3;
  EXPECT_THROW(ReqSketch<double>{bad}, std::invalid_argument);
  bad.k_base = 2;
  EXPECT_THROW(ReqSketch<double>{bad}, std::invalid_argument);
}

TEST(ReqSketchTest, RejectsNaN) {
  ReqSketch<double> sketch(MakeConfig());
  EXPECT_THROW(sketch.Update(std::nan("")), std::invalid_argument);
  EXPECT_TRUE(sketch.is_empty());
}

TEST(ReqSketchTest, SingleItem) {
  ReqSketch<double> sketch(MakeConfig());
  sketch.Update(3.5);
  EXPECT_FALSE(sketch.is_empty());
  EXPECT_EQ(sketch.n(), 1u);
  EXPECT_EQ(sketch.GetRank(3.5, Criterion::kInclusive), 1u);
  EXPECT_EQ(sketch.GetRank(3.5, Criterion::kExclusive), 0u);
  EXPECT_EQ(sketch.GetRank(3.0), 0u);
  EXPECT_EQ(sketch.GetRank(4.0), 1u);
  EXPECT_EQ(sketch.GetQuantile(0.5), 3.5);
  EXPECT_EQ(sketch.MinItem(), 3.5);
  EXPECT_EQ(sketch.MaxItem(), 3.5);
}

// Before any compaction happens the sketch is exact.
TEST(ReqSketchTest, ExactBeforeFirstCompaction) {
  ReqSketch<double> sketch(MakeConfig());
  const uint32_t cap = sketch.level_capacity();
  for (uint32_t i = 0; i < cap - 1; ++i) {
    sketch.Update(static_cast<double>(i));
  }
  EXPECT_EQ(sketch.NumCompactions(), 0u);
  for (uint32_t i = 0; i < cap - 1; ++i) {
    EXPECT_EQ(sketch.GetRank(static_cast<double>(i)), i + 1);
  }
}

TEST(ReqSketchTest, TotalWeightEqualsN) {
  ReqSketch<double> sketch(MakeConfig());
  const auto values = workload::GenerateUniform(50000, 7);
  uint64_t count = 0;
  for (double v : values) {
    sketch.Update(v);
    ++count;
    if (count % 9973 == 0) {
      EXPECT_EQ(sketch.TotalWeight(), count);
    }
  }
  EXPECT_EQ(sketch.TotalWeight(), sketch.n());
  EXPECT_EQ(sketch.n(), values.size());
}

TEST(ReqSketchTest, RankAtExtremes) {
  ReqSketch<double> sketch(MakeConfig());
  const auto values = workload::GenerateUniform(20000, 8);
  for (double v : values) sketch.Update(v);
  // Everything is <= max and nothing is < min.
  EXPECT_EQ(sketch.GetRank(sketch.MaxItem(), Criterion::kInclusive),
            sketch.n());
  EXPECT_EQ(sketch.GetRank(sketch.MinItem(), Criterion::kExclusive), 0u);
  EXPECT_EQ(sketch.GetRank(-1e18), 0u);
  EXPECT_EQ(sketch.GetRank(1e18), sketch.n());
}

TEST(ReqSketchTest, MinMaxTracked) {
  ReqSketch<double> sketch(MakeConfig());
  const auto values = workload::GenerateGaussian(30000, 9);
  double lo = values[0], hi = values[0];
  for (double v : values) {
    sketch.Update(v);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_EQ(sketch.MinItem(), lo);
  EXPECT_EQ(sketch.MaxItem(), hi);
  EXPECT_EQ(sketch.GetQuantile(0.0), lo);
  EXPECT_EQ(sketch.GetQuantile(1.0), hi);
}

// LRA orientation: the lowest-ranked items at level 0 are never compacted,
// so sufficiently low ranks are exact (the protected-half property the
// paper's error analysis hinges on).
TEST(ReqSketchTest, LraProtectsLowRanks) {
  ReqConfig config = MakeConfig(16, RankAccuracy::kLowRanks);
  ReqSketch<double> sketch(config);
  auto values = workload::GenerateSequential(100000);
  workload::Shuffle(&values, 11);
  for (double v : values) sketch.Update(v);
  // The protected half of level 0 is capacity/2 items; the lowest ones
  // should have exactly correct ranks.
  const uint32_t protect = sketch.level_capacity() / 2;
  for (uint32_t r = 1; r <= protect / 2; ++r) {
    EXPECT_EQ(sketch.GetRank(static_cast<double>(r - 1)), r)
        << "rank " << r << " should be exact";
  }
}

TEST(ReqSketchTest, HraProtectsHighRanks) {
  ReqConfig config = MakeConfig(16, RankAccuracy::kHighRanks);
  ReqSketch<double> sketch(config);
  const size_t n = 100000;
  auto values = workload::GenerateSequential(n);
  workload::Shuffle(&values, 12);
  for (double v : values) sketch.Update(v);
  const uint32_t protect = sketch.level_capacity() / 2;
  for (uint32_t d = 0; d < protect / 2; ++d) {
    const double y = static_cast<double>(n - 1 - d);
    EXPECT_EQ(sketch.GetRank(y), n - d) << "top-rank item " << y;
  }
}

// Statistical accuracy: relative error at the accurate end stays within a
// few standard errors for a random stream.
TEST(ReqSketchTest, RelativeErrorWithinBound) {
  const size_t n = 200000;
  const uint32_t k_base = 32;
  ReqSketch<double> sketch(MakeConfig(k_base, RankAccuracy::kHighRanks));
  auto values = workload::GenerateUniform(n, 13);
  for (double v : values) sketch.Update(v);

  sim::RankOracle oracle(values);
  const auto grid = sim::GeometricRankGrid(n, /*from_high_end=*/true);
  const auto samples = sim::EvaluateRankErrors(
      oracle,
      [&](double y) { return sketch.GetRank(y, Criterion::kInclusive); },
      grid, /*from_high_end=*/true);
  const auto summary = sim::Summarize(samples);
  // RelativeStdErr is ~2.83/k_base ~ 0.088; allow 4x for a max over ~40
  // correlated grid points.
  EXPECT_LT(summary.max_relative_error, 4.0 * sketch.RelativeStdErr())
      << "max rel err " << summary.max_relative_error;
}

TEST(ReqSketchTest, HigherKIsMoreAccurate) {
  const size_t n = 100000;
  auto values = workload::GenerateUniform(n, 14);
  sim::RankOracle oracle(values);
  const auto grid = sim::GeometricRankGrid(n, true);

  double errs[2];
  const uint32_t ks[2] = {8, 64};
  for (int i = 0; i < 2; ++i) {
    double total = 0.0;
    for (uint64_t seed = 0; seed < 3; ++seed) {
      ReqSketch<double> sketch(
          MakeConfig(ks[i], RankAccuracy::kHighRanks, 100 + seed));
      for (double v : values) sketch.Update(v);
      const auto samples = sim::EvaluateRankErrors(
          oracle, [&](double y) { return sketch.GetRank(y); }, grid, true);
      total += sim::Summarize(samples).mean_relative_error;
    }
    errs[i] = total / 3.0;
  }
  EXPECT_LT(errs[1], errs[0] * 0.5)
      << "k=64 err " << errs[1] << " vs k=8 err " << errs[0];
}

TEST(ReqSketchTest, SpaceGrowsSubLinearly) {
  ReqSketch<double> sketch(MakeConfig(16));
  const auto values = workload::GenerateUniform(1 << 18, 15);
  for (double v : values) sketch.Update(v);
  // 2^18 items, retained should be a few thousand at most.
  EXPECT_LT(sketch.RetainedItems(), values.size() / 20);
  EXPECT_GE(sketch.num_levels(), 3u);
}

TEST(ReqSketchTest, NBoundGrowsBySquaring) {
  ReqSketch<double> sketch(MakeConfig(16));
  const uint64_t n0 = sketch.n_bound();
  EXPECT_EQ(n0, params::InitialN(16));
  const auto values = workload::GenerateUniform(
      static_cast<size_t>(n0 * n0 + 10), 16);
  for (double v : values) sketch.Update(v);
  EXPECT_GE(sketch.n_bound(), sketch.n());
  // After exceeding N0 the bound is N0^2; after exceeding that, N0^4.
  EXPECT_EQ(sketch.n_bound(), n0 * n0 * n0 * n0);
}

TEST(ReqSketchTest, FixedNModeDoesNotGrow) {
  ReqConfig config = MakeConfig(16);
  config.n_hint = 1 << 20;
  ReqSketch<double> sketch(config);
  const uint64_t bound = sketch.n_bound();
  EXPECT_EQ(bound, uint64_t{1} << 20);
  const auto values = workload::GenerateUniform(50000, 17);
  for (double v : values) sketch.Update(v);
  EXPECT_EQ(sketch.n_bound(), bound);
}

TEST(ReqSketchTest, CdfMonotoneAndEndsAtOne) {
  ReqSketch<double> sketch(MakeConfig());
  const auto values = workload::GenerateGaussian(50000, 18);
  for (double v : values) sketch.Update(v);
  const std::vector<double> splits = {-3.0, -1.0, 0.0, 1.0, 3.0};
  const auto cdf = sketch.GetCDF(splits);
  ASSERT_EQ(cdf.size(), splits.size() + 1);
  for (size_t i = 0; i + 1 < cdf.size(); ++i) {
    EXPECT_LE(cdf[i], cdf[i + 1]);
  }
  EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
  // Gaussian CDF at 0 ~ 0.5.
  EXPECT_NEAR(cdf[2], 0.5, 0.05);
}

TEST(ReqSketchTest, PmfNonNegativeSumsToOne) {
  ReqSketch<double> sketch(MakeConfig());
  const auto values = workload::GenerateGaussian(50000, 19);
  for (double v : values) sketch.Update(v);
  const std::vector<double> splits = {-2.0, 0.0, 2.0};
  const auto pmf = sketch.GetPMF(splits);
  double total = 0.0;
  for (double p : pmf) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ReqSketchTest, CdfRejectsBadSplits) {
  ReqSketch<double> sketch(MakeConfig());
  sketch.Update(1.0);
  EXPECT_THROW(sketch.GetCDF({}), std::invalid_argument);
  EXPECT_THROW(sketch.GetCDF({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(sketch.GetCDF({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(sketch.GetCDF({1.0, std::nan("")}), std::invalid_argument);
}

TEST(ReqSketchTest, QuantileRankRoundTrip) {
  ReqSketch<double> sketch(MakeConfig(32));
  const auto values = workload::GenerateUniform(100000, 20);
  for (double v : values) sketch.Update(v);
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double item = sketch.GetQuantile(q);
    const double back = sketch.GetNormalizedRank(item);
    EXPECT_NEAR(back, q, 0.03) << "q=" << q;
  }
}

TEST(ReqSketchTest, QuantilesMonotoneInQ) {
  ReqSketch<double> sketch(MakeConfig());
  const auto values = workload::GenerateLognormal(50000, 21);
  for (double v : values) sketch.Update(v);
  const std::vector<double> qs = {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0};
  const auto quantiles = sketch.GetQuantiles(qs);
  for (size_t i = 0; i + 1 < quantiles.size(); ++i) {
    EXPECT_LE(quantiles[i], quantiles[i + 1]);
  }
}

TEST(ReqSketchTest, QuantileRejectsOutOfRange) {
  ReqSketch<double> sketch(MakeConfig());
  sketch.Update(1.0);
  EXPECT_THROW(sketch.GetQuantile(-0.1), std::invalid_argument);
  EXPECT_THROW(sketch.GetQuantile(1.1), std::invalid_argument);
}

TEST(ReqSketchTest, DuplicateHeavyStream) {
  ReqSketch<double> sketch(MakeConfig());
  // 90% of the stream is the value 5.0.
  const size_t n = 50000;
  util::Xoshiro256 rng(22);
  uint64_t fives = 0;
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < 0.9) {
      sketch.Update(5.0);
      ++fives;
    } else {
      sketch.Update(rng.NextDouble() * 10.0);
    }
  }
  const double est = sketch.GetNormalizedRank(5.0, Criterion::kInclusive) -
                     sketch.GetNormalizedRank(5.0, Criterion::kExclusive);
  EXPECT_NEAR(est, static_cast<double>(fives) / n, 0.05);
}

TEST(ReqSketchTest, AllEqualStream) {
  ReqSketch<double> sketch(MakeConfig());
  for (int i = 0; i < 30000; ++i) sketch.Update(7.0);
  EXPECT_EQ(sketch.GetRank(7.0, Criterion::kInclusive), sketch.n());
  EXPECT_EQ(sketch.GetRank(7.0, Criterion::kExclusive), 0u);
  EXPECT_EQ(sketch.GetQuantile(0.5), 7.0);
  EXPECT_EQ(sketch.MinItem(), 7.0);
  EXPECT_EQ(sketch.MaxItem(), 7.0);
}

TEST(ReqSketchTest, DeterministicGivenSeed) {
  const auto values = workload::GenerateUniform(60000, 23);
  ReqSketch<double> a(MakeConfig(16, RankAccuracy::kLowRanks, 99));
  ReqSketch<double> b(MakeConfig(16, RankAccuracy::kLowRanks, 99));
  for (double v : values) {
    a.Update(v);
    b.Update(v);
  }
  EXPECT_EQ(a.RetainedItems(), b.RetainedItems());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.GetQuantile(q), b.GetQuantile(q));
  }
  EXPECT_EQ(a.GetRank(0.5), b.GetRank(0.5));
}

TEST(ReqSketchTest, DifferentSeedsDiffer) {
  const auto values = workload::GenerateUniform(60000, 24);
  ReqSketch<double> a(MakeConfig(16, RankAccuracy::kLowRanks, 1));
  ReqSketch<double> b(MakeConfig(16, RankAccuracy::kLowRanks, 2));
  for (double v : values) {
    a.Update(v);
    b.Update(v);
  }
  // Estimates agree approximately but the internal samples differ.
  bool any_difference = false;
  for (double q : {0.3, 0.5, 0.7, 0.9, 0.95, 0.99}) {
    if (a.GetQuantile(q) != b.GetQuantile(q)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ReqSketchTest, IntItemType) {
  ReqSketch<int64_t> sketch{ReqConfig{.k_base = 16, .seed = 3}};
  for (int64_t i = 0; i < 50000; ++i) sketch.Update(i % 1000);
  EXPECT_EQ(sketch.n(), 50000u);
  const int64_t median = sketch.GetQuantile(0.5);
  EXPECT_NEAR(static_cast<double>(median), 500.0, 60.0);
}

// Custom comparator: reverse ordering turns LRA into accuracy at what the
// natural order calls high ranks (the Section 1 trick).
TEST(ReqSketchTest, CustomComparator) {
  ReqSketch<double, std::greater<double>> sketch(
      ReqConfig{.k_base = 16, .accuracy = RankAccuracy::kLowRanks},
      std::greater<double>());
  for (int i = 1; i <= 10000; ++i) sketch.Update(static_cast<double>(i));
  // Under std::greater, "rank of y" counts items >= y.
  EXPECT_EQ(sketch.GetRank(10000.0, Criterion::kInclusive), 1u);
  EXPECT_EQ(sketch.MinItem(), 10000.0);  // "smallest" in reversed order
  EXPECT_EQ(sketch.MaxItem(), 1.0);
}

TEST(ReqSketchTest, RankBoundsBracketEstimate) {
  ReqSketch<double> sketch(MakeConfig(32, RankAccuracy::kHighRanks));
  const auto values = workload::GenerateUniform(100000, 25);
  for (double v : values) sketch.Update(v);
  sim::RankOracle oracle(values);
  for (uint64_t r : {90000ull, 99000ull, 99900ull}) {
    const double y = oracle.ItemAtRank(r);
    const uint64_t lb = sketch.GetRankLowerBound(y, 3);
    const uint64_t ub = sketch.GetRankUpperBound(y, 3);
    const uint64_t est = sketch.GetRank(y);
    EXPECT_LE(lb, est);
    EXPECT_GE(ub, est);
    // With 3 sigmas the true rank should essentially always be inside.
    EXPECT_LE(lb, oracle.RankInclusive(y));
    EXPECT_GE(ub, oracle.RankInclusive(y));
  }
}

TEST(ReqSketchTest, InvalidNormalizedRankRejected) {
  ReqSketch<double> sketch(MakeConfig());
  for (int i = 0; i < 100; ++i) sketch.Update(static_cast<double>(i));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sketch.GetQuantile(nan), std::invalid_argument);
  EXPECT_THROW(sketch.GetQuantile(-0.001), std::invalid_argument);
  EXPECT_THROW(sketch.GetQuantile(1.001), std::invalid_argument);
  EXPECT_THROW(sketch.GetQuantile(
                   -std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // Batch form validates every rank before producing anything.
  EXPECT_THROW(sketch.GetQuantiles({0.5, nan}), std::invalid_argument);
  EXPECT_THROW(sketch.GetQuantiles({0.5, 2.0}), std::invalid_argument);
  EXPECT_NO_THROW(sketch.GetQuantile(0.0));
  EXPECT_NO_THROW(sketch.GetQuantile(1.0));
  EXPECT_NO_THROW(sketch.GetQuantiles({0.0, 0.5, 1.0}));
}

TEST(ReqSketchTest, ResetMatchesFreshSketch) {
  // Reset() is the cheap bucket-retirement primitive of the windowed
  // subsystem: a reset sketch must be indistinguishable from a fresh one,
  // down to serialized bytes, for the same subsequent input.
  const ReqConfig config = MakeConfig(16, RankAccuracy::kHighRanks, 42);
  ReqSketch<double> reset_sketch(config);
  const auto first = workload::GenerateUniform(50000, 1);
  for (double v : first) reset_sketch.Update(v);
  reset_sketch.Reset();
  EXPECT_TRUE(reset_sketch.is_empty());
  EXPECT_EQ(reset_sketch.num_levels(), 1u);
  EXPECT_THROW(reset_sketch.MinItem(), std::logic_error);

  ReqSketch<double> fresh(config);
  const auto second = workload::GenerateUniform(20000, 2);
  for (double v : second) {
    reset_sketch.Update(v);
    fresh.Update(v);
  }
  EXPECT_EQ(SerializeSketch(reset_sketch), SerializeSketch(fresh));
}

TEST(ReqSketchTest, ResetWithSeedReseeds) {
  ReqSketch<double> sketch(MakeConfig(16, RankAccuracy::kHighRanks, 42));
  sketch.Update(1.0);
  sketch.Reset(/*seed=*/77);
  EXPECT_EQ(sketch.config().seed, 77u);
  // And behaves like a sketch constructed with that seed.
  ReqConfig other = MakeConfig(16, RankAccuracy::kHighRanks, 77);
  ReqSketch<double> fresh(other);
  const auto values = workload::GenerateUniform(30000, 3);
  for (double v : values) {
    sketch.Update(v);
    fresh.Update(v);
  }
  EXPECT_EQ(SerializeSketch(sketch), SerializeSketch(fresh));
}

TEST(ReqSketchTest, EstimateRetainedItemsIsCheapUpperBound) {
  ReqSketch<double> sketch(MakeConfig());
  EXPECT_GE(sketch.EstimateRetainedItems(), sketch.RetainedItems());
  const auto values = workload::GenerateUniform(200000, 4);
  for (double v : values) {
    sketch.Update(v);
  }
  EXPECT_GE(sketch.EstimateRetainedItems(), sketch.RetainedItems());
  EXPECT_EQ(sketch.EstimateRetainedItems(),
            sketch.num_levels() * sketch.level_capacity());
}

// Between queries a sketch holds little more than the payload its
// checkpoint blob carries: each level's buffer grows only to what the
// level can hold, and no scratch stays behind. Right after N squares a
// special compaction halves the retained set while the buffers keep their
// capacity, so the bound at every batch boundary is relative to the
// largest blob seen so far; at a few fixed sizes it is relative to the
// current blob.
TEST(ReqSketchTest, ResidentBytesStayNearTheCheckpointBlob) {
  const std::vector<uint64_t> checkpoints = {10000, 100000, 1000000};
  for (uint32_t k : {16u, 64u, 256u}) {
    for (RankAccuracy acc :
         {RankAccuracy::kLowRanks, RankAccuracy::kHighRanks}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " acc="
                                      << static_cast<int>(acc));
      ReqSketch<double> sketch(MakeConfig(k, acc));
      size_t next = 0;
      size_t peak_blob = 0;
      uint64_t seed = 1;
      while (next < checkpoints.size()) {
        const uint64_t batch =
            std::min<uint64_t>(512, checkpoints[next] - sketch.n());
        sketch.Update(workload::GenerateLognormal(batch, seed++));
        const size_t blob = SerializeSketch(sketch).size();
        peak_blob = std::max(peak_blob, blob);
        const size_t resident = sketch.MemoryBytes();
        // Level 0 is filled by room, so its buffer never passes B.
        ASSERT_LE(sketch.levels()[0].buffer_capacity(),
                  sketch.level_capacity());
        if (sketch.n() > 10000) {
          ASSERT_LE(resident, 1.75 * peak_blob) << "n=" << sketch.n();
        }
        if (sketch.n() == checkpoints[next]) {
          EXPECT_LE(resident, 1.5 * blob) << "n=" << sketch.n();
          ++next;
        }
      }
    }
  }
}

// Copies and moves own their levels: each continues exactly as the
// original does under the same further batches, and updates to one never
// reach the other.
TEST(ReqSketchTest, CopiesAndMovesAreIndependentOfTheSource) {
  static_assert(std::is_nothrow_move_constructible_v<ReqSketch<double>>,
                "containers of sketches must move, not copy, on growth");
  const ReqConfig config = MakeConfig(32, RankAccuracy::kHighRanks, 7);
  const auto feed = [](ReqSketch<double>* sketch, uint64_t seed) {
    for (uint64_t b = 0; b < 24; ++b) {
      sketch->Update(workload::GenerateLognormal(512, seed * 100 + b));
    }
  };
  const std::vector<double> splits = {0.5, 1.0, 2.0};
  ReqSketch<double> original(config);
  feed(&original, 1);
  original.GetCDF(splits);  // copies also carry a warm view cache
  const std::vector<uint8_t> before = SerializeSketch(original);

  ReqSketch<double> copy_constructed(original);
  ReqSketch<double> copy_assigned(config);
  copy_assigned.Update(5.0);
  copy_assigned = original;
  ReqSketch<double> move_source(original);
  ReqSketch<double> move_constructed(std::move(move_source));
  ReqSketch<double> move_assign_source(original);
  ReqSketch<double> move_assigned(config);
  move_assigned.Update(5.0);
  move_assigned = std::move(move_assign_source);

  ReqSketch<double>* results[] = {&copy_constructed, &copy_assigned,
                                  &move_constructed, &move_assigned};
  for (ReqSketch<double>* result : results) {
    EXPECT_EQ(SerializeSketch(*result), before);
    feed(result, 2);
    EXPECT_EQ(SerializeSketch(original), before);
  }
  feed(&original, 2);
  const std::vector<uint8_t> after = SerializeSketch(original);
  EXPECT_NE(after, before);
  for (ReqSketch<double>* result : results) {
    EXPECT_EQ(SerializeSketch(*result), after);
    EXPECT_EQ(result->GetCDF(splits), original.GetCDF(splits));
  }
}

// A merge reads its sources and never writes them: neither the sources
// special-compacted on a copy of their levels (a smaller N bound than the
// target's) nor the ones read in place (the same bound).
TEST(ReqSketchTest, MergeLeavesEverySourceUnchanged) {
  std::vector<ReqSketch<double>> sources;
  const size_t sizes[] = {2000, 5000, 9000, 100000};
  for (size_t i = 0; i < 4; ++i) {
    sources.emplace_back(MakeConfig(16, RankAccuracy::kHighRanks, 10 + i));
    sources.back().Update(workload::GenerateLognormal(sizes[i], 20 + i));
  }
  std::vector<std::vector<uint8_t>> before;
  for (const auto& source : sources) before.push_back(SerializeSketch(source));
  ReqSketch<double> target(MakeConfig(16, RankAccuracy::kHighRanks, 3));
  target.Update(workload::GenerateLognormal(100000, 30));
  ASSERT_LT(sources[0].n_bound(), target.n_bound());
  ASSERT_EQ(sources[3].n_bound(), target.n_bound());
  target.Merge(sources.data(), sources.size());
  target.Merge(sources[1]);
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(SerializeSketch(sources[i]), before[i]) << "source " << i;
  }
  EXPECT_EQ(target.n(), 100000u + 2000 + 2 * 5000 + 9000 + 100000);
}

}  // namespace
}  // namespace req
