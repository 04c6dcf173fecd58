// The query contract every summary shares through SummaryQueries
// (core/summary_queries.h), checked once over the sketch, the sliding
// window, the Section 5 chain and the sharded sketch:
//   - on an empty summary every query throws std::logic_error, whatever
//     its arguments;
//   - NaN or out-of-range ranks, empty, NaN or non-ascending split points
//     and NaN bulk points throw std::invalid_argument, and on a sharded
//     sketch none of those rejections builds a merged view;
//   - the surface agrees with itself: bulk and normalized ranks with
//     GetRank, GetQuantile with GetQuantiles, GetPMF with the differences
//     of GetCDF, the rank bounds bracket GetRank, and MinItem()/MaxItem()
//     and the quantiles at 0 and 1 are the exact extremes of the items the
//     summary covers.
#include "core/summary_queries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "concurrency/sharded_req_sketch.h"
#include "core/req_chain.h"
#include "core/req_sketch.h"
#include "window/windowed_req_sketch.h"
#include "workload/distributions.h"

namespace req {
namespace {

using concurrency::ShardedReqSketch;
using window::WindowedReqSketch;

constexpr uint32_t kK = 16;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// How each summary is built and fed. Feed leaves every item visible to
// queries (the sharded sketch flushes); a summary covers the last n() items
// fed to it.
template <typename S>
struct Traits;

template <>
struct Traits<ReqSketch<double>> {
  static std::unique_ptr<ReqSketch<double>> Make() {
    ReqConfig config;
    config.k_base = kK;
    return std::make_unique<ReqSketch<double>>(config);
  }
  static void Feed(ReqSketch<double>* s, const std::vector<double>& items) {
    s->Update(items);
  }
};

template <>
struct Traits<WindowedReqSketch<double>> {
  // Four buckets of 4,096 items: 20,000 items rotate the first bucket out
  // and leave four live buckets.
  static std::unique_ptr<WindowedReqSketch<double>> Make() {
    window::WindowedReqConfig config;
    config.num_buckets = 4;
    config.bucket_items = 4096;
    config.base.k_base = kK;
    return std::make_unique<WindowedReqSketch<double>>(config);
  }
  static void Feed(WindowedReqSketch<double>* s,
                   const std::vector<double>& items) {
    s->Update(items);
  }
};

template <>
struct Traits<ReqChain<double>> {
  // N0 = 8 * k = 128 squares to 16,384, so 20,000 items close out two
  // summaries and fill a third.
  static std::unique_ptr<ReqChain<double>> Make() {
    ReqConfig config;
    config.k_base = kK;
    return std::make_unique<ReqChain<double>>(config);
  }
  static void Feed(ReqChain<double>* s, const std::vector<double>& items) {
    s->Update(items);
  }
};

template <>
struct Traits<ShardedReqSketch<double>> {
  static std::unique_ptr<ShardedReqSketch<double>> Make() {
    concurrency::ShardedReqConfig config;
    config.num_shards = 3;
    config.buffer_capacity = 256;
    config.base.k_base = kK;
    return std::make_unique<ShardedReqSketch<double>>(config);
  }
  static void Feed(ShardedReqSketch<double>* s,
                   const std::vector<double>& items) {
    for (size_t i = 0; i < items.size(); ++i) s->Update(i % 3, items[i]);
    s->FlushAll();
  }
};

// Every query of the surface, each with arguments that are valid for a
// non-empty summary.
template <typename S>
void ExpectEveryQueryThrowsLogicError(const S& s) {
  const std::vector<double> points = {1.0, 2.0};
  uint64_t out[2];
  EXPECT_THROW(s.GetRank(1.0), std::logic_error);
  EXPECT_THROW(s.GetNormalizedRank(1.0), std::logic_error);
  EXPECT_THROW(s.GetRanks(points), std::logic_error);
  EXPECT_THROW(s.GetRanks(points.data(), points.size(), out),
               std::logic_error);
  EXPECT_THROW(s.GetQuantile(0.5), std::logic_error);
  EXPECT_THROW(s.GetQuantiles({0.0, 0.5, 1.0}), std::logic_error);
  EXPECT_THROW(s.GetCDF(points), std::logic_error);
  EXPECT_THROW(s.GetPMF(points), std::logic_error);
  EXPECT_THROW(s.GetRankLowerBound(1.0, 2), std::logic_error);
  EXPECT_THROW(s.GetRankUpperBound(1.0, 2), std::logic_error);
  EXPECT_THROW(s.MinItem(), std::logic_error);
  EXPECT_THROW(s.MaxItem(), std::logic_error);
  // The empty state wins over a bad argument.
  EXPECT_THROW(s.GetQuantile(2.0), std::logic_error);
  EXPECT_THROW(s.GetQuantiles({kNaN}), std::logic_error);
  EXPECT_THROW(s.GetCDF({2.0, 1.0}), std::logic_error);
  EXPECT_THROW(s.GetPMF({}), std::logic_error);
  EXPECT_THROW(s.GetRanks({kNaN}), std::logic_error);
}

// Every argument the surface rejects, one named query each.
template <typename S>
std::vector<std::pair<std::string, std::function<void(const S&)>>>
BadArgumentQueries() {
  std::vector<std::pair<std::string, std::function<void(const S&)>>> queries =
      {{"GetQuantile(NaN)", [](const S& s) { s.GetQuantile(kNaN); }},
       {"GetQuantile(-0.5)", [](const S& s) { s.GetQuantile(-0.5); }},
       {"GetQuantile(1.5)", [](const S& s) { s.GetQuantile(1.5); }},
       {"GetQuantiles({0.5, 1.5})",
        [](const S& s) { s.GetQuantiles({0.5, 1.5}); }},
       {"GetQuantiles({0, NaN})",
        [](const S& s) { s.GetQuantiles({0.0, kNaN}); }},
       {"GetRanks({1, NaN})", [](const S& s) { s.GetRanks({1.0, kNaN}); }},
       {"GetRanks(ptr with NaN)", [](const S& s) {
          const double points[2] = {1.0, kNaN};
          uint64_t out[2];
          s.GetRanks(points, 2, out);
        }}};
  const std::vector<std::pair<std::string, std::vector<double>>> splits = {
      {"{}", {}},
      {"{2, 1}", {2.0, 1.0}},
      {"{1, 1}", {1.0, 1.0}},
      {"{NaN}", {kNaN}},
      {"{1, NaN}", {1.0, kNaN}}};
  for (const auto& [name, split] : splits) {
    queries.emplace_back("GetCDF(" + name + ")",
                         [split = split](const S& s) { s.GetCDF(split); });
    queries.emplace_back("GetPMF(" + name + ")",
                         [split = split](const S& s) { s.GetPMF(split); });
  }
  return queries;
}

template <typename S>
void ExpectBadArgumentsRejected(const S& s) {
  for (const auto& [name, query] : BadArgumentQueries<S>()) {
    EXPECT_THROW(query(s), std::invalid_argument) << name;
  }
}

template <typename S>
class SummaryQueriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    summary_ = Traits<S>::Make();
    stream_ = workload::GenerateLognormal(20000, 29);
  }

  // Feeds the stream and returns the items the summary now covers.
  std::vector<double> FeedStream() {
    Traits<S>::Feed(summary_.get(), stream_);
    return std::vector<double>(stream_.end() - summary_->n(), stream_.end());
  }

  std::unique_ptr<S> summary_;
  std::vector<double> stream_;
};

using Summaries =
    ::testing::Types<ReqSketch<double>, WindowedReqSketch<double>,
                     ReqChain<double>, ShardedReqSketch<double>>;
TYPED_TEST_SUITE(SummaryQueriesTest, Summaries);

TYPED_TEST(SummaryQueriesTest, EveryQueryOnAnEmptySummaryThrowsLogicError) {
  ExpectEveryQueryThrowsLogicError(*this->summary_);
}

TYPED_TEST(SummaryQueriesTest, BadArgumentsThrowInvalidArgument) {
  this->FeedStream();
  ExpectBadArgumentsRejected(*this->summary_);
  // Nothing was left half done: the summary still answers.
  EXPECT_GT(this->summary_->GetRank(1.0), 0u);
}

TYPED_TEST(SummaryQueriesTest, SurfaceAgreesWithItself) {
  const std::vector<double> covered = this->FeedStream();
  const auto& s = *this->summary_;
  ASSERT_GT(s.n(), 0u);
  std::vector<double> points = {0.05, 0.5, 1.0, 2.0, 8.0};
  std::vector<double> shuffled = {8.0, 0.5, 2.0, 0.05, 1.0};
  const std::vector<uint64_t> bulk = s.GetRanks(shuffled);
  for (size_t i = 0; i < shuffled.size(); ++i) {
    const uint64_t rank = s.GetRank(shuffled[i]);
    EXPECT_EQ(bulk[i], rank) << shuffled[i];
    EXPECT_EQ(s.GetNormalizedRank(shuffled[i]),
              static_cast<double>(rank) / static_cast<double>(s.n()));
    EXPECT_EQ(s.GetRanks(shuffled, Criterion::kExclusive)[i],
              s.GetRank(shuffled[i], Criterion::kExclusive));
  }

  const std::vector<double> cdf = s.GetCDF(points);
  const std::vector<double> pmf = s.GetPMF(points);
  ASSERT_EQ(cdf.size(), points.size() + 1);
  ASSERT_EQ(pmf.size(), cdf.size());
  EXPECT_EQ(cdf.back(), 1.0);
  EXPECT_EQ(pmf[0], cdf[0]);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_EQ(pmf[i], cdf[i] - cdf[i - 1]) << i;
  }
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(cdf[i], s.GetNormalizedRank(points[i])) << points[i];
  }

  for (double y : points) {
    const uint64_t rank = s.GetRank(y);
    for (int devs = 1; devs <= 3; ++devs) {
      EXPECT_LE(s.GetRankLowerBound(y, devs), rank) << y;
      EXPECT_GE(s.GetRankUpperBound(y, devs), rank) << y;
      EXPECT_LE(s.GetRankUpperBound(y, devs), s.n()) << y;
    }
  }

  const double min = *std::min_element(covered.begin(), covered.end());
  const double max = *std::max_element(covered.begin(), covered.end());
  EXPECT_EQ(s.MinItem(), min);
  EXPECT_EQ(s.MaxItem(), max);
  const std::vector<double> qs = {0.0, 0.1, 0.5, 0.9, 0.99, 1.0};
  for (Criterion criterion : {Criterion::kInclusive, Criterion::kExclusive}) {
    const std::vector<double> quantiles = s.GetQuantiles(qs, criterion);
    ASSERT_EQ(quantiles.size(), qs.size());
    EXPECT_EQ(quantiles.front(), min);
    EXPECT_EQ(quantiles.back(), max);
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(s.GetQuantile(qs[i], criterion), quantiles[i]) << qs[i];
      if (i > 0) {
        EXPECT_LE(quantiles[i - 1], quantiles[i]) << qs[i];
      }
    }
  }
}

// A rejected query on a sharded sketch builds no merged view: the
// footprint, which counts a published view, is unchanged after each one.
TEST(ShardedSummaryQueries, RejectedQueriesBuildNoMergedView) {
  using Sharded = ShardedReqSketch<double>;
  auto sharded = Traits<Sharded>::Make();
  const size_t empty_bytes = sharded->MemoryBytes();
  ExpectEveryQueryThrowsLogicError(*sharded);
  EXPECT_EQ(sharded->MemoryBytes(), empty_bytes);

  Traits<Sharded>::Feed(sharded.get(),
                        workload::GenerateLognormal(5000, 31));
  sharded->TrimMemory();
  const size_t bytes = sharded->MemoryBytes();
  for (const auto& [name, query] : BadArgumentQueries<Sharded>()) {
    EXPECT_THROW(query(*sharded), std::invalid_argument) << name;
    EXPECT_EQ(sharded->MemoryBytes(), bytes) << name << " built a view";
    sharded->TrimMemory();  // drops a view a failure above built
  }
  // The first accepted query builds the view.
  sharded->GetCDF({1.0});
  EXPECT_GT(sharded->MemoryBytes(), bytes);
}

}  // namespace
}  // namespace req
