// Tests for the Section 5 close-out chain (ReqChain).
#include "core/req_chain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/req_common.h"
#include "sim/metrics.h"
#include "workload/distributions.h"
#include "workload/stream_orders.h"

namespace req {
namespace {

ReqConfig MakeConfig(uint32_t k_base = 16, uint64_t seed = 3) {
  ReqConfig config;
  config.k_base = k_base;
  config.seed = seed;
  return config;
}

TEST(ReqChainTest, EmptyChain) {
  ReqChain<double> chain(MakeConfig());
  EXPECT_TRUE(chain.is_empty());
  EXPECT_EQ(chain.num_summaries(), 1u);
  EXPECT_THROW(chain.GetRank(1.0), std::logic_error);
  EXPECT_THROW(chain.GetQuantile(0.5), std::logic_error);
}

TEST(ReqChainTest, InvalidNormalizedRankRejected) {
  ReqChain<double> chain(MakeConfig());
  for (int i = 0; i < 100; ++i) chain.Update(static_cast<double>(i));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(chain.GetQuantile(nan), std::invalid_argument);
  EXPECT_THROW(chain.GetQuantile(-0.001), std::invalid_argument);
  EXPECT_THROW(chain.GetQuantile(1.001), std::invalid_argument);
  EXPECT_NO_THROW(chain.GetQuantile(0.0));
  EXPECT_NO_THROW(chain.GetQuantile(1.0));
}

// A lone NaN split has no neighbour to fail the ascending-order check,
// so the NaN check itself must reject it, as the sketch's GetCDF does.
TEST(ReqChainTest, NaNSplitRejected) {
  ReqChain<double> chain(MakeConfig());
  for (int i = 0; i < 100; ++i) chain.Update(static_cast<double>(i));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(chain.GetCDF({nan}), std::invalid_argument);
  EXPECT_THROW(chain.GetCDF({1.0, nan}), std::invalid_argument);
}

TEST(ReqChainTest, SmallStreamSingleSummary) {
  ReqChain<double> chain(MakeConfig());
  for (int i = 0; i < 50; ++i) chain.Update(static_cast<double>(i));
  EXPECT_EQ(chain.num_summaries(), 1u);
  EXPECT_EQ(chain.n(), 50u);
  EXPECT_EQ(chain.GetRank(24.0), 25u);
}

TEST(ReqChainTest, SummariesOpenAsStreamGrows) {
  ReqChain<double> chain(MakeConfig(16));
  const uint64_t n0 = params::InitialN(16);  // 128
  const auto values = workload::GenerateUniform(
      static_cast<size_t>(n0 * n0 + 100), 1);
  for (double v : values) chain.Update(v);
  // Crossed N0 and N0^2: three summaries.
  EXPECT_EQ(chain.num_summaries(), 3u);
  EXPECT_EQ(chain.n(), values.size());
}

TEST(ReqChainTest, DoubleLogSummaryCount) {
  ReqChain<double> chain(MakeConfig(16));
  const auto values = workload::GenerateUniform(500000, 2);
  for (double v : values) chain.Update(v);
  // log2 log2 growth: 128 -> 16384 -> 2.7e8; 500k needs 3 summaries.
  EXPECT_LE(chain.num_summaries(), 3u);
}

TEST(ReqChainTest, RankIsSumOfSummaries) {
  ReqChain<double> chain(MakeConfig(32));
  const size_t n = 150000;
  const auto values = workload::GenerateUniform(n, 3);
  for (double v : values) chain.Update(v);
  sim::RankOracle oracle(values);
  const auto grid = sim::GeometricRankGrid(n, true);
  const auto samples = sim::EvaluateRankErrors(
      oracle, [&](double y) { return chain.GetRank(y); }, grid, true);
  const auto summary = sim::Summarize(samples);
  // Section 5: per-summary relative error implies total relative error.
  EXPECT_LT(summary.max_relative_error, 0.5);
  EXPECT_LT(summary.mean_relative_error, 0.12);
}

TEST(ReqChainTest, QuantileAcrossSummaries) {
  ReqChain<double> chain(MakeConfig(32));
  const size_t n = 100000;
  auto values = workload::GenerateSequential(n);
  workload::Shuffle(&values, 4);
  for (double v : values) chain.Update(v);
  for (double q : {0.1, 0.5, 0.9}) {
    const double v = chain.GetQuantile(q);
    EXPECT_NEAR(v / static_cast<double>(n), q, 0.05) << "q=" << q;
  }
}

// q = 0 and q = 1 answer the exact stream extremes, under both
// criteria, although compaction drops the extreme at the inaccurate end
// from every summary's buffers (the minimum under HRA, the maximum under
// LRA).
TEST(ReqChainTest, QuantilesAtZeroAndOneAreTheExactExtremes) {
  const auto values = workload::GenerateLognormal(200000, 6);
  const auto [min_it, max_it] =
      std::minmax_element(values.begin(), values.end());
  for (RankAccuracy accuracy :
       {RankAccuracy::kHighRanks, RankAccuracy::kLowRanks}) {
    ReqConfig config = MakeConfig(16);
    config.accuracy = accuracy;
    ReqChain<double> chain(config);
    chain.Update(values);
    ASSERT_GT(chain.num_summaries(), 1u);
    for (Criterion criterion :
         {Criterion::kInclusive, Criterion::kExclusive}) {
      EXPECT_EQ(chain.GetQuantile(0.0, criterion), *min_it);
      EXPECT_EQ(chain.GetQuantile(1.0, criterion), *max_it);
      const std::vector<double> q =
          chain.GetQuantiles({0.0, 0.5, 1.0}, criterion);
      EXPECT_EQ(q.front(), *min_it);
      EXPECT_EQ(q.back(), *max_it);
    }
  }
}

TEST(ReqChainTest, SpaceComparableToInPlaceGrowth) {
  ReqChain<double> chain(MakeConfig(16));
  ReqSketch<double> inplace(MakeConfig(16));
  const auto values = workload::GenerateUniform(300000, 5);
  for (double v : values) {
    chain.Update(v);
    inplace.Update(v);
  }
  // The chain stores all closed summaries; Section 5 argues the total is
  // dominated by the last summary (constant-factor overhead).
  EXPECT_LT(chain.RetainedItems(), 5 * inplace.RetainedItems());
}

}  // namespace
}  // namespace req
