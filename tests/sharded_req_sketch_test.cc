// Functional tests for the concurrent sharded orchestrator
// (concurrency/sharded_req_sketch.h): single-shard equivalence with the
// plain sketch, flush/epoch semantics, bulk/per-item feeding equivalence,
// merging, serialization round trips, and multi-threaded ingestion (the
// latter doubles as a ThreadSanitizer target in CI).
#include "concurrency/sharded_req_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "workload/distributions.h"

namespace req {
namespace concurrency {
namespace {

ShardedReqConfig MakeConfig(size_t shards, size_t buffer = 256,
                            uint32_t k_base = 32) {
  ShardedReqConfig config;
  config.num_shards = shards;
  config.buffer_capacity = buffer;
  config.base.k_base = k_base;
  config.base.seed = 4242;
  return config;
}

TEST(ShardedReqSketchTest, RejectsBadConfigAndShardIndex) {
  EXPECT_THROW(ShardedReqSketch<double>(MakeConfig(0)),
               std::invalid_argument);
  ShardedReqSketch<double> sketch(MakeConfig(2));
  EXPECT_THROW(sketch.Update(2, 1.0), std::invalid_argument);
}

// Queries on an empty sharded sketch throw the same "empty sketch"
// std::logic_error as a plain ReqSketch -- including after shards were
// flushed while empty (no empty merged view is built and queried).
TEST(ShardedReqSketchTest, EmptyQueriesThrowLikePlainSketch) {
  ShardedReqSketch<double> sketch(MakeConfig(2));
  const uint64_t epoch_before = sketch.Epoch();
  sketch.FlushAll();  // all shards empty: a no-op, not an epoch bump
  EXPECT_EQ(sketch.Epoch(), epoch_before);
  EXPECT_TRUE(sketch.is_empty());
  EXPECT_THROW(sketch.GetRank(1.0), std::logic_error);
  EXPECT_THROW(sketch.GetNormalizedRank(1.0), std::logic_error);
  EXPECT_THROW(sketch.GetRanks({1.0}), std::logic_error);
  EXPECT_THROW(sketch.GetQuantile(0.5), std::logic_error);
  EXPECT_THROW(sketch.GetQuantiles({0.5}), std::logic_error);
  EXPECT_THROW(sketch.GetCDF({1.0}), std::logic_error);
  EXPECT_THROW(sketch.GetPMF({1.0}), std::logic_error);
  EXPECT_THROW(sketch.GetRankLowerBound(1.0, 2), std::logic_error);
  EXPECT_THROW(sketch.GetRankUpperBound(1.0, 2), std::logic_error);
  EXPECT_THROW(sketch.MinItem(), std::logic_error);
  EXPECT_THROW(sketch.MaxItem(), std::logic_error);
  // Buffered-but-unflushed items are not visible yet either.
  sketch.Update(0, 1.0);
  EXPECT_THROW(sketch.GetQuantile(0.5), std::logic_error);
  // Once anything is flushed, the queries work.
  sketch.Flush(0);
  EXPECT_EQ(sketch.GetQuantile(0.5), 1.0);
}

TEST(ShardedReqSketchTest, InvalidNormalizedRankRejectedBeforeMerge) {
  ShardedReqSketch<double> sketch(MakeConfig(2));
  sketch.Update(0, 1.0);
  sketch.FlushAll();
  const uint64_t epoch = sketch.Epoch();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sketch.GetQuantile(nan), std::invalid_argument);
  EXPECT_THROW(sketch.GetQuantile(-0.5), std::invalid_argument);
  EXPECT_THROW(sketch.GetQuantiles({0.5, 1.5}), std::invalid_argument);
  EXPECT_EQ(sketch.Epoch(), epoch);
  EXPECT_EQ(sketch.GetQuantile(1.0), 1.0);
}

// One shard fed through the staging buffer is byte-identical to a plain
// ReqSketch fed item by item: the buffer drains through the batch
// Update(const T*, size_t), which is bit-identical to single-item updates.
TEST(ShardedReqSketchTest, OneShardMatchesPlainSketchByteForByte) {
  const auto values = workload::GenerateLognormal(20000, 7);

  ShardedReqConfig config = MakeConfig(1, /*buffer=*/512);
  ShardedReqSketch<double> sharded(config);
  for (double v : values) sharded.Update(0, v);
  sharded.FlushAll();

  ReqConfig plain_config = config.base;  // shard 0 seed == base seed
  ReqSketch<double> plain(plain_config);
  for (double v : values) plain.Update(v);

  EXPECT_EQ(SerializeSketch(sharded.ShardSnapshot(0)),
            SerializeSketch(plain));
  EXPECT_EQ(sharded.GetRank(values[123]), plain.GetRank(values[123]));
}

TEST(ShardedReqSketchTest, BulkAndPerItemFeedingAreIdentical) {
  const auto values = workload::GenerateUniform(30000, 11);

  ShardedReqSketch<double> per_item(MakeConfig(3));
  ShardedReqSketch<double> bulk(MakeConfig(3));
  for (size_t shard = 0; shard < 3; ++shard) {
    std::vector<double> slice;
    for (size_t i = shard; i < values.size(); i += 3) {
      slice.push_back(values[i]);
    }
    for (double v : slice) per_item.Update(shard, v);
    bulk.Update(shard, slice);
  }
  per_item.FlushAll();
  bulk.FlushAll();

  EXPECT_EQ(per_item.Serialize(), bulk.Serialize());
}

TEST(ShardedReqSketchTest, QueriesSeeOnlyFlushedItems) {
  ShardedReqSketch<double> sketch(MakeConfig(2, /*buffer=*/1024));
  for (int i = 0; i < 100; ++i) sketch.Update(0, static_cast<double>(i));
  // Below buffer capacity: nothing flushed yet.
  EXPECT_TRUE(sketch.is_empty());
  EXPECT_EQ(sketch.BufferedItems(), 100u);
  EXPECT_THROW(sketch.GetRank(50.0), std::logic_error);

  const uint64_t epoch_before = sketch.Epoch();
  sketch.FlushAll();
  EXPECT_GT(sketch.Epoch(), epoch_before);
  EXPECT_EQ(sketch.n(), 100u);
  EXPECT_EQ(sketch.BufferedItems(), 0u);
  EXPECT_EQ(sketch.GetRank(99.0), 100u);
  EXPECT_EQ(sketch.MinItem(), 0.0);
  EXPECT_EQ(sketch.MaxItem(), 99.0);

  // A no-op FlushAll must not bump the epoch (the cached merged view
  // stays valid).
  const uint64_t epoch_after = sketch.Epoch();
  sketch.FlushAll();
  EXPECT_EQ(sketch.Epoch(), epoch_after);
}

TEST(ShardedReqSketchTest, ExactBookkeepingAcrossShards) {
  const auto values = workload::GenerateGaussian(50000, 23);
  ShardedReqSketch<double> sketch(MakeConfig(4));
  for (size_t i = 0; i < values.size(); ++i) {
    sketch.Update(i % 4, values[i]);
  }
  sketch.FlushAll();

  EXPECT_EQ(sketch.n(), values.size());
  EXPECT_EQ(sketch.MinItem(),
            *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(sketch.MaxItem(),
            *std::max_element(values.begin(), values.end()));
  EXPECT_EQ(sketch.GetRank(sketch.MaxItem()), sketch.n());

  const auto merged = sketch.Merged();
  EXPECT_EQ(merged.n(), values.size());
  EXPECT_EQ(merged.TotalWeight(), values.size());
}

TEST(ShardedReqSketchTest, QuerySurfaceMatchesMergedSketch) {
  const auto values = workload::GenerateLognormal(40000, 5);
  ShardedReqSketch<double> sketch(MakeConfig(4));
  for (size_t i = 0; i < values.size(); ++i) {
    sketch.Update(i % 4, values[i]);
  }
  sketch.FlushAll();
  const auto merged = sketch.Merged();

  const std::vector<double> probes{values[1], values[100], values[999]};
  EXPECT_EQ(sketch.GetRanks(probes), merged.GetRanks(probes));
  for (double q : {0.1, 0.5, 0.99}) {
    EXPECT_EQ(sketch.GetQuantile(q), merged.GetQuantile(q));
  }
  EXPECT_EQ(sketch.GetQuantiles({0.25, 0.75}),
            merged.GetQuantiles({0.25, 0.75}));
  std::vector<double> splits = probes;
  std::sort(splits.begin(), splits.end());
  EXPECT_EQ(sketch.GetCDF(splits), merged.GetCDF(splits));
  EXPECT_EQ(sketch.GetPMF(splits), merged.GetPMF(splits));
  EXPECT_EQ(sketch.GetRankLowerBound(probes[0], 2),
            merged.GetRankLowerBound(probes[0], 2));
  EXPECT_EQ(sketch.GetRankUpperBound(probes[0], 2),
            merged.GetRankUpperBound(probes[0], 2));
}

TEST(ShardedReqSketchTest, MergeAbsorbsAnotherShardedSketch) {
  ShardedReqSketch<double> a(MakeConfig(2));
  ShardedReqSketch<double> b(MakeConfig(3));  // shard counts may differ
  for (int i = 0; i < 10000; ++i) {
    a.Update(i % 2, static_cast<double>(i));
  }
  for (int i = 0; i < 5000; ++i) {
    b.Update(i % 3, static_cast<double>(-i));
  }
  a.FlushAll();
  a.Merge(b);  // flushes b internally

  EXPECT_EQ(a.n(), 15000u);
  EXPECT_EQ(a.MinItem(), -4999.0);
  EXPECT_EQ(a.MaxItem(), 9999.0);
  EXPECT_EQ(b.n(), 5000u) << "merge source keeps its own contents";
  EXPECT_THROW(a.Merge(a), std::invalid_argument);
}

TEST(ShardedReqSketchTest, SerializationRoundTrip) {
  const auto values = workload::GeneratePareto(30000, 77);
  ShardedReqSketch<double> sketch(MakeConfig(4, /*buffer=*/128));
  for (size_t i = 0; i < values.size(); ++i) {
    sketch.Update(i % 4, values[i]);
  }
  sketch.FlushAll();
  const auto bytes = sketch.Serialize();
  const auto restored = ShardedReqSketch<double>::Deserialize(bytes);

  EXPECT_EQ(restored.n(), sketch.n());
  EXPECT_EQ(restored.num_shards(), sketch.num_shards());
  EXPECT_EQ(restored.MinItem(), sketch.MinItem());
  EXPECT_EQ(restored.MaxItem(), sketch.MaxItem());
  for (double q : {0.1, 0.5, 0.9, 0.999}) {
    EXPECT_EQ(restored.GetQuantile(q), sketch.GetQuantile(q));
  }
  EXPECT_EQ(restored.Serialize(), bytes);
}

TEST(ShardedReqSketchTest, SerializeRequiresFlush) {
  ShardedReqSketch<double> sketch(MakeConfig(1));
  sketch.Update(0, 1.0);
  EXPECT_THROW(sketch.Serialize(), std::logic_error);
  sketch.FlushAll();
  EXPECT_NO_THROW(sketch.Serialize());
}

// TrimMemory drops the cached merged sketch, charging it off MemoryBytes,
// without a new epoch; the next query rebuilds the same merge.
TEST(ShardedReqSketchTest, TrimMemoryDropsTheMergedView) {
  const auto values = workload::GenerateLognormal(40000, 31);
  ShardedReqSketch<double> sketch(MakeConfig(4, /*buffer=*/512));
  for (size_t i = 0; i < values.size(); ++i) {
    sketch.Update(i % 4, values[i]);
  }
  sketch.FlushAll();
  // Trim the shards first, so the trim under test has only the merged
  // view left to release.
  sketch.TrimMemory();
  const size_t without_view = sketch.MemoryBytes();

  (void)sketch.GetQuantile(0.5);
  const ReqSketch<double> merged = sketch.Merged();
  const size_t with_view = sketch.MemoryBytes();
  EXPECT_GE(with_view - without_view,
            sizeof(ReqSketch<double>) +
                merged.RetainedItems() * sizeof(double));
  const uint64_t epoch = sketch.Epoch();

  sketch.TrimMemory();
  EXPECT_EQ(sketch.MemoryBytes(), without_view);
  EXPECT_EQ(sketch.Epoch(), epoch);
  EXPECT_EQ(SerializeSketch(sketch.Merged()), SerializeSketch(merged));
  EXPECT_EQ(sketch.MemoryBytes(), with_view);
}

// Producers on every shard race a query thread and an administrative
// flusher; run under TSan in CI. Checks exact final bookkeeping and that
// mid-stream queries return sane (monotone-bounded) answers.
TEST(ShardedReqSketchStressTest, ConcurrentProducersFlusherAndQueries) {
  constexpr size_t kShards = 4;
  constexpr uint64_t kPerShard = 100000;
  ShardedReqSketch<double> sketch(MakeConfig(kShards, /*buffer=*/512));

  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (size_t shard = 0; shard < kShards; ++shard) {
    producers.emplace_back([&, shard] {
      for (uint64_t i = 0; i < kPerShard; ++i) {
        sketch.Update(shard,
                      static_cast<double>((i * 2654435761ULL) % 1000003));
      }
    });
  }
  std::thread flusher([&] {
    while (!done.load(std::memory_order_acquire)) {
      sketch.FlushAll();
      std::this_thread::yield();
    }
  });
  std::thread querier([&] {
    uint64_t checks = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t visible = sketch.n();
      if (visible > 0) {
        const uint64_t rank = sketch.GetRank(1000003.0);
        // The merged view may lag n() (flushes land between the two
        // reads), but a rank can never exceed the items ever ingested.
        EXPECT_LE(rank, kShards * kPerShard);
        const double q = sketch.GetQuantile(0.5);
        EXPECT_GE(q, 0.0);
        EXPECT_LT(q, 1000003.0);
        ++checks;
      }
      std::this_thread::yield();
    }
    EXPECT_GT(checks, 0u);
  });

  for (auto& p : producers) p.join();
  done.store(true, std::memory_order_release);
  flusher.join();
  querier.join();
  sketch.FlushAll();

  EXPECT_EQ(sketch.n(), kShards * kPerShard);
  EXPECT_EQ(sketch.Merged().TotalWeight(), kShards * kPerShard);
}

// Concurrent BULK queries (the co-scan kernel) against live producers and
// flushes: several threads hammer GetRanks/GetCDF on the shared merged
// view while shards are mutated. Run under TSan in CI; each bulk answer
// batch must be internally consistent (monotone in the query points).
TEST(ShardedReqSketchStressTest, ConcurrentBulkQueries) {
  constexpr size_t kShards = 4;
  constexpr size_t kQueriers = 3;
  constexpr uint64_t kPerShard = 50000;
  ShardedReqSketch<double> sketch(MakeConfig(kShards, /*buffer=*/512));

  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (size_t shard = 0; shard < kShards; ++shard) {
    producers.emplace_back([&, shard] {
      for (uint64_t i = 0; i < kPerShard; ++i) {
        sketch.Update(shard,
                      static_cast<double>((i * 2654435761ULL) % 1000003));
      }
      sketch.Flush(shard);
    });
  }
  std::vector<std::thread> queriers;
  for (size_t t = 0; t < kQueriers; ++t) {
    queriers.emplace_back([&, t] {
      std::vector<double> probes;
      for (size_t i = 0; i < 64; ++i) {
        probes.push_back(static_cast<double>((i * 40013 + t) % 1000003));
      }
      std::vector<double> sorted_probes = probes;
      std::sort(sorted_probes.begin(), sorted_probes.end());
      std::vector<uint64_t> out(probes.size());
      uint64_t checks = 0;
      // Checks until the producers are done, and once more after: by then
      // every shard has flushed, so n() > 0 and a querier the scheduler
      // kept off the CPU for the whole load still checks once.
      for (bool last = false; !last;) {
        last = done.load(std::memory_order_acquire);
        if (!last && sketch.n() == 0) {
          std::this_thread::yield();
          continue;
        }
        sketch.GetRanks(probes.data(), probes.size(), out.data(),
                        Criterion::kInclusive);
        sketch.GetRanks(sorted_probes.data(), sorted_probes.size(),
                        out.data(), Criterion::kInclusive);
        // Ranks of ascending probes are non-decreasing within one batch
        // (each batch is answered from one immutable snapshot view).
        for (size_t i = 1; i < out.size(); ++i) {
          ASSERT_LE(out[i - 1], out[i]);
        }
        const auto cdf = sketch.GetCDF(sorted_probes);
        ASSERT_EQ(cdf.back(), 1.0);
        ++checks;
        std::this_thread::yield();
      }
      EXPECT_GT(checks, 0u);
    });
  }

  for (auto& p : producers) p.join();
  done.store(true, std::memory_order_release);
  for (auto& q : queriers) q.join();
  sketch.FlushAll();
  EXPECT_EQ(sketch.n(), kShards * kPerShard);
}

}  // namespace
}  // namespace concurrency
}  // namespace req
