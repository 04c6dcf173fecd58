// Concurrent const-query safety for the plain ReqSketch, the sliding
// window and the Section 5 chain: many threads may share a const sketch,
// window or chain and issue order-based queries at the same time. Every
// query reads the levels through a query-local index and touches no
// shared state. These tests pin that contract and are run under
// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/req_chain.h"
#include "core/req_sketch.h"
#include "window/windowed_req_sketch.h"
#include "workload/distributions.h"

namespace req {
namespace {

ReqSketch<double> BuildSketch(size_t n) {
  ReqConfig config;
  config.k_base = 32;
  config.seed = 99;
  ReqSketch<double> sketch(config);
  const auto values = workload::GenerateLognormal(n, 3);
  sketch.Update(values.data(), values.size());
  return sketch;
}

// All threads start at once on a sketch no query has touched and race
// bulk rank and quantile queries: each builds its own query-local index
// over the shared levels, and all must agree with an untouched twin.
TEST(ConcurrentQueriesTest, ColdCacheColdStartAgrees) {
  const ReqSketch<double> sketch = BuildSketch(100000);
  constexpr int kThreads = 8;

  const std::vector<double> qs{0.01, 0.25, 0.5, 0.9, 0.999};
  const std::vector<double> ys = workload::GenerateLognormal(64, 5);
  // Answers from an identical sketch, so the shared one stays cold.
  const ReqSketch<double> twin = BuildSketch(100000);
  const std::vector<double> reference = twin.GetQuantiles(qs);
  const std::vector<uint64_t> reference_ranks = twin.GetRanks(ys);

  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> answers(kThreads);
  std::vector<std::vector<uint64_t>> ranks(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Crude barrier so every thread races the first query.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      if (t % 2 == 0) {
        ranks[t] = sketch.GetRanks(ys);
        answers[t] = sketch.GetQuantiles(qs);
      } else {
        answers[t] = sketch.GetQuantiles(qs);
        ranks[t] = sketch.GetRanks(ys);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(answers[t], reference);
    EXPECT_EQ(ranks[t], reference_ranks);
  }
}

// Mixed query types (ranks, quantiles, CDF, raw rank loop) hammering one
// shared const sketch.
TEST(ConcurrentQueriesTest, MixedQueryTypesNoRace) {
  const ReqSketch<double> sketch = BuildSketch(50000);
  const auto values = workload::GenerateLognormal(256, 17);
  std::vector<double> splits{0.5, 1.0, 2.0, 4.0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      uint64_t sink = 0;
      for (int i = 0; i < 300; ++i) {
        switch ((t + i) % 4) {
          case 0:
            sink += sketch.GetRank(values[i % values.size()]);
            break;
          case 1:
            sink += static_cast<uint64_t>(
                sketch.GetQuantile((i % 99 + 1) / 100.0));
            break;
          case 2:
            sink += static_cast<uint64_t>(sketch.GetCDF(splits)[0] * 1e6);
            break;
          case 3:
            sink += sketch.GetRanks({values[0], values[1]})[0];
            break;
        }
      }
      EXPECT_GT(sink, 0u);
    });
  }
  for (auto& th : threads) th.join();
}

// Every query after an update sees it (single-writer phase).
TEST(ConcurrentQueriesTest, InvalidationStillWorksSingleThreaded) {
  ReqConfig config;
  config.k_base = 16;
  ReqSketch<double> sketch(config);

  const std::vector<double> ys{0.5, 1.5, 2.5, 3.5};
  sketch.Update(1.0);
  EXPECT_EQ(sketch.GetQuantile(0.5), 1.0);
  EXPECT_EQ(sketch.GetRanks(ys), (std::vector<uint64_t>{0, 1, 1, 1}));
  sketch.Update(2.0);
  EXPECT_EQ(sketch.GetRanks(ys), (std::vector<uint64_t>{0, 1, 2, 2}));
  sketch.Update(3.0);
  EXPECT_EQ(sketch.GetRanks(ys), (std::vector<uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(sketch.GetQuantile(1.0), 3.0);
  EXPECT_EQ(sketch.GetSortedView().total_weight(), 3u);
}

// Eight threads mix every query kind on one const window (a count-driven
// window that has rotated, so several buckets are live): each query
// builds its own index over the shared buckets, and every answer must
// equal the same query on an untouched serial twin.
TEST(ConcurrentQueriesTest, WindowQueriesFromManyThreadsMatchSerialTwin) {
  window::WindowedReqConfig config;
  config.num_buckets = 4;
  config.bucket_items = 4096;
  config.base.k_base = 32;
  config.base.seed = 71;
  const std::vector<double> values = workload::GenerateLognormal(30000, 73);
  window::WindowedReqSketch<double> built(config);
  built.Update(values);
  const window::WindowedReqSketch<double> window = built;
  const window::WindowedReqSketch<double> twin = built;
  ASSERT_GT(window.rotations(), 0u);

  const std::vector<double> qs{0.01, 0.5, 0.9, 0.99, 0.999};
  const std::vector<double> ys = workload::GenerateLognormal(64, 79);
  const std::vector<double> splits{0.25, 0.5, 1.0, 2.0, 4.0, 8.0};
  const std::vector<double> quantiles = twin.GetQuantiles(qs);
  const std::vector<uint64_t> ranks = twin.GetRanks(ys);
  const std::vector<double> cdf = twin.GetCDF(splits);
  std::vector<uint64_t> single;
  for (double y : ys) single.push_back(twin.GetRank(y));

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < 40; ++i) {
        switch ((t + i) % 4) {
          case 0:
            mismatches[t] += window.GetQuantiles(qs) != quantiles;
            break;
          case 1:
            mismatches[t] += window.GetRanks(ys) != ranks;
            break;
          case 2:
            mismatches[t] += window.GetCDF(splits) != cdf;
            break;
          case 3:
            for (size_t j = 0; j < ys.size(); ++j) {
              mismatches[t] += window.GetRank(ys[j]) != single[j];
            }
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

// Eight threads mix every query kind on one const chain that has closed
// out summaries: each query builds its own index over the shared
// summaries, and every answer must equal the same query on a serial twin
// fed the same stream.
TEST(ConcurrentQueriesTest, ChainQueriesFromManyThreadsMatchSerialTwin) {
  ReqConfig config;
  config.k_base = 32;
  config.seed = 83;
  const std::vector<double> values = workload::GenerateLognormal(100000, 89);
  ReqChain<double> built(config);
  built.Update(values);
  ReqChain<double> twin(config);
  twin.Update(values);
  const ReqChain<double>& chain = built;
  ASSERT_GT(chain.num_summaries(), 2u);

  const std::vector<double> qs{0.0, 0.01, 0.5, 0.9, 0.999, 1.0};
  const std::vector<double> ys = workload::GenerateLognormal(64, 97);
  const std::vector<double> splits{0.25, 0.5, 1.0, 2.0, 4.0, 8.0};
  const std::vector<double> quantiles = twin.GetQuantiles(qs);
  const std::vector<uint64_t> ranks = twin.GetRanks(ys);
  const std::vector<double> cdf = twin.GetCDF(splits);
  std::vector<uint64_t> single;
  for (double y : ys) single.push_back(twin.GetRank(y));

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < 40; ++i) {
        switch ((t + i) % 4) {
          case 0:
            mismatches[t] += chain.GetQuantiles(qs) != quantiles;
            break;
          case 1:
            mismatches[t] += chain.GetRanks(ys) != ranks;
            break;
          case 2:
            mismatches[t] += chain.GetCDF(splits) != cdf;
            break;
          case 3:
            for (size_t j = 0; j < ys.size(); ++j) {
              mismatches[t] += chain.GetRank(ys[j]) != single[j];
            }
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace req
