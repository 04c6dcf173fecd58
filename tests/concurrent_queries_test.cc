// Concurrent const-query safety for the plain ReqSketch: many threads may
// share a const sketch and issue order-based queries at the same time.
// Bulk rank and CDF queries lazily fill the memoized sorted view (before
// the double-checked view cache that fill was a data race); quantile
// queries select from the levels through a query-local index and touch
// no shared state. These tests pin both contracts and are run under
// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/req_sketch.h"
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

// All threads start on a COLD cache and race a bulk rank query: exactly
// one builds the sorted view, everyone must read the same memoized object
// and agree on every answer. The quantile queries raced beside it build
// no view (they select from the levels) and must agree as well.
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
      // Crude barrier so every thread races the first (cache-filling)
      // query.
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

// PrepareSortedView warms the cache; concurrent readers afterwards take
// only the lock-free fast path, and GetSortedView shares the same build.
TEST(ConcurrentQueriesTest, PrepareSortedViewWarmsCache) {
  const ReqSketch<double> sketch = BuildSketch(30000);
  sketch.PrepareSortedView();
  const auto& cached = sketch.CachedSortedView();
  EXPECT_EQ(&cached, &sketch.CachedSortedView())
      << "repeated calls must share one memoized view";
  EXPECT_EQ(sketch.GetSortedView().total_weight(), cached.total_weight());

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(&sketch.CachedSortedView(), &cached);
      }
    });
  }
  for (auto& th : threads) th.join();
}

// An update must still invalidate the memoized view (single-writer phase),
// and PrepareSortedView on an empty sketch is a harmless no-op.
TEST(ConcurrentQueriesTest, InvalidationStillWorksSingleThreaded) {
  ReqConfig config;
  config.k_base = 16;
  ReqSketch<double> sketch(config);
  sketch.PrepareSortedView();  // empty: no-op, must not throw

  sketch.Update(1.0);
  EXPECT_EQ(sketch.GetQuantile(0.5), 1.0);
  sketch.Update(2.0);
  sketch.Update(3.0);
  EXPECT_EQ(sketch.GetQuantile(1.0), 3.0);
  EXPECT_EQ(sketch.CachedSortedView().total_weight(), 3u);
}

}  // namespace
}  // namespace req
