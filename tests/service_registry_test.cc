// SketchRegistry + engine tests: directory semantics (create/find/drop,
// epoch-cached LIST snapshots), per-engine behavior -- including the
// plain engine's bit-identical-to-in-process guarantee and the snapshot
// blob format -- and registry-level concurrency stresses that the CI
// ThreadSanitizer job runs.
#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "gtest/gtest.h"
#include "service/sketch_registry.h"
#include "util/random.h"
#include "window/windowed_req_sketch.h"

namespace req {
namespace service {
namespace {

std::vector<double> TestStream(uint64_t seed, size_t count) {
  util::Xoshiro256 rng(seed);
  std::vector<double> values(count);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

const std::vector<double> kQs = {0.0, 0.01, 0.25, 0.5, 0.9,
                                 0.99, 0.999, 1.0};

// --- registry directory ----------------------------------------------------

TEST(SketchRegistry, CreateFindDrop) {
  SketchRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.Find("a"), nullptr);
  EXPECT_THROW(registry.Require("a"), MetricNotFound);

  MetricSpec spec;
  auto engine = registry.Create("a", spec);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->kind(), EngineKind::kPlain);
  EXPECT_EQ(registry.Find("a"), engine);
  EXPECT_EQ(registry.Require("a"), engine);
  EXPECT_EQ(registry.size(), 1u);

  EXPECT_THROW(registry.Create("a", spec), MetricExists);

  EXPECT_TRUE(registry.Drop("a"));
  EXPECT_FALSE(registry.Drop("a"));
  EXPECT_EQ(registry.Find("a"), nullptr);

  // A handle taken before the drop keeps working (shared ownership).
  const std::vector<double> items = {1.0, 2.0, 3.0};
  engine->Append(items.data(), items.size());
  EXPECT_EQ(engine->AcceptedN(), 3u);
}

TEST(SketchRegistry, RejectsBadNamesAndSpecs) {
  SketchRegistry registry;
  MetricSpec spec;
  EXPECT_THROW(registry.Create("", spec), std::runtime_error);
  EXPECT_THROW(registry.Create("has space", spec), std::runtime_error);

  MetricSpec odd_k;
  odd_k.base.k_base = 33;  // must be even
  EXPECT_THROW(registry.Create("m", odd_k), std::invalid_argument);

  MetricSpec tickless_window;
  tickless_window.kind = EngineKind::kWindowed;
  tickless_window.bucket_items = 0;  // no Rotate() on the wire
  EXPECT_THROW(registry.Create("m", tickless_window),
               std::invalid_argument);

  MetricSpec one_bucket;
  one_bucket.kind = EngineKind::kWindowed;
  one_bucket.num_buckets = 1;
  EXPECT_THROW(registry.Create("m", one_bucket), std::invalid_argument);

  EXPECT_EQ(registry.size(), 0u);
}

// The sharded kind is retired: CREATE refuses it with a message that
// names the replacement, and nothing is created.
TEST(SketchRegistry, RefusesShardedCreate) {
  SketchRegistry registry;
  registry.Create("kept", MetricSpec{});
  MetricSpec sharded;
  sharded.kind = EngineKind::kSharded;
  try {
    registry.Create("m", sharded);
    FAIL() << "sharded CREATE was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "sharded engines are retired; create a plain metric");
  }
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Find("m"), nullptr);
  EXPECT_EQ(registry.List().size(), 1u);
}

TEST(SketchRegistry, ListIsSorted) {
  SketchRegistry registry;
  MetricSpec spec;
  registry.Create("zeta", spec);
  registry.Create("alpha", spec);
  registry.Create("mid.dle", spec);

  const std::vector<std::string> names = registry.List();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "mid.dle");
  EXPECT_EQ(names[2], "zeta");

  // A drop shows in the next list; the list taken before it survives.
  registry.Drop("mid.dle");
  const std::vector<std::string> after = registry.List();
  EXPECT_EQ(after.size(), 2u);
  EXPECT_EQ(names.size(), 3u);
}

// --- plain engine ----------------------------------------------------------

TEST(PlainEngine, MatchesInProcessSketchBitIdentically) {
  MetricSpec spec;
  spec.base.k_base = 64;
  SketchRegistry registry;
  auto engine = registry.Create("m", spec);

  // Feed through the engine in ragged batches; feed the reference the
  // same stream in one call. The batch-update equivalence guarantee makes
  // chunking irrelevant, so the two must agree bit-for-bit.
  const std::vector<double> stream = TestStream(42, 50000);
  size_t i = 0, step = 1;
  while (i < stream.size()) {
    const size_t len = std::min(step, stream.size() - i);
    engine->Append(stream.data() + i, len);
    i += len;
    step = step * 3 + 1;
    if (step > 7000) step = 1;
  }

  ReqSketch<double> reference(spec.base);
  reference.Update(stream);

  EXPECT_EQ(engine->AcceptedN(), stream.size());
  const std::vector<double> expected_q = reference.GetQuantiles(kQs);
  const std::vector<double> served_q =
      engine->GetQuantiles(kQs, Criterion::kInclusive);
  ASSERT_EQ(served_q.size(), expected_q.size());
  for (size_t j = 0; j < expected_q.size(); ++j) {
    EXPECT_EQ(served_q[j], expected_q[j]) << "q=" << kQs[j];
  }

  const std::vector<double> points = TestStream(43, 512);
  EXPECT_EQ(engine->GetRanks(points, Criterion::kInclusive),
            reference.GetRanks(points));
  std::vector<double> splits = {1e3, 1e4, 1e5, 5e5, 9e5};
  EXPECT_EQ(engine->GetCDF(splits, Criterion::kInclusive),
            reference.GetCDF(splits));

  // Snapshot blob: kind tag + byte-exact ReqSerde payload.
  const std::vector<uint8_t> blob = engine->Snapshot();
  ASSERT_EQ(SnapshotBlobKind(blob), EngineKind::kPlain);
  EXPECT_EQ(SnapshotBlobPayload(blob), SerializeSketch(reference));
}

TEST(PlainEngine, QueriesSeeEveryAcknowledgedAppend) {
  SketchRegistry registry;
  auto engine = registry.Create("m", MetricSpec{});
  const std::vector<double> items = {5.0, 1.0, 3.0};
  engine->Append(items.data(), items.size());
  // The query right after the ack must see all 3 items.
  EXPECT_EQ(engine->GetRanks({3.0}, Criterion::kInclusive)[0], 2u);
  EXPECT_EQ(engine->GetQuantiles({1.0}, Criterion::kInclusive)[0], 5.0);
}

TEST(PlainEngine, EmptyAndNaNHandling) {
  SketchRegistry registry;
  auto engine = registry.Create("m", MetricSpec{});
  EXPECT_THROW(engine->GetQuantiles({0.5}, Criterion::kInclusive),
               std::logic_error);
  const double nan = std::nan("");
  const std::vector<double> bad = {1.0, nan};
  EXPECT_THROW(engine->Append(bad.data(), bad.size()),
               std::invalid_argument);
  EXPECT_EQ(engine->AcceptedN(), 0u);  // strong guarantee: nothing applied
  // A snapshot of an empty metric still round-trips.
  ReqSketch<double> restored =
      DeserializeSketch<double>(SnapshotBlobPayload(engine->Snapshot()));
  EXPECT_TRUE(restored.is_empty());
  // Out-of-range q on a non-empty metric (on an empty one, the
  // empty-state logic_error wins, as checked above).
  const std::vector<double> ok = {1.0};
  engine->Append(ok.data(), ok.size());
  EXPECT_THROW(engine->GetQuantiles({2.0}, Criterion::kInclusive),
               std::invalid_argument);
}

// --- windowed engine -------------------------------------------------------

TEST(WindowedEngine, TracksWindowAndExpiresOldData) {
  MetricSpec spec;
  spec.kind = EngineKind::kWindowed;
  spec.num_buckets = 4;
  spec.bucket_items = 1000;
  spec.base.k_base = 64;
  SketchRegistry registry;
  auto engine = registry.Create("m", spec);

  // Reference window fed the identical stream: engine answers must match
  // (same config, same seeds, same count-driven rotation boundaries).
  window::WindowedReqConfig wconfig;
  wconfig.num_buckets = spec.num_buckets;
  wconfig.bucket_items = spec.bucket_items;
  wconfig.base = spec.base;
  window::WindowedReqSketch<double> reference(wconfig);

  // Phase 1: low values fill most of the window.
  const std::vector<double> low = TestStream(1, 3500);
  engine->Append(low.data(), low.size());
  reference.Update(low);
  // Phase 2: high values push every low bucket out.
  std::vector<double> high = TestStream(2, 4000);
  for (double& v : high) v += 1e7;
  engine->Append(high.data(), high.size());
  reference.Update(high);

  const std::vector<double> served =
      engine->GetQuantiles(kQs, Criterion::kInclusive);
  const std::vector<double> expected = reference.GetQuantiles(kQs);
  ASSERT_EQ(served.size(), expected.size());
  for (size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(served[j], expected[j]) << "q=" << kQs[j];
  }
  // The old epoch is gone from the window: its median sits in the new
  // data's range.
  EXPECT_GE(served[3], 1e7);

  const std::vector<uint8_t> blob = engine->Snapshot();
  ASSERT_EQ(SnapshotBlobKind(blob), EngineKind::kWindowed);
  auto restored = window::WindowedReqSketch<double>::Deserialize(
      SnapshotBlobPayload(blob));
  EXPECT_EQ(restored.n(), reference.n());
  EXPECT_EQ(restored.GetQuantile(0.5), reference.GetQuantile(0.5));
}

TEST(WindowedEngine, EmptyAndNaNHandling) {
  MetricSpec spec;
  spec.kind = EngineKind::kWindowed;
  spec.num_buckets = 4;
  spec.bucket_items = 1000;
  SketchRegistry registry;
  auto engine = registry.Create("m", spec);
  EXPECT_THROW(engine->GetQuantiles({0.5}, Criterion::kInclusive),
               std::logic_error);
  EXPECT_THROW(engine->GetRanks({1.0}, Criterion::kInclusive),
               std::logic_error);
  EXPECT_THROW(engine->GetCDF({1.0}, Criterion::kInclusive),
               std::logic_error);
  const double nan = std::nan("");
  const std::vector<double> bad = {1.0, nan};
  EXPECT_THROW(engine->Append(bad.data(), bad.size()),
               std::invalid_argument);
  EXPECT_EQ(engine->AcceptedN(), 0u);  // strong guarantee: nothing applied
  // A snapshot of an empty window still round-trips.
  auto restored = window::WindowedReqSketch<double>::Deserialize(
      SnapshotBlobPayload(engine->Snapshot()));
  EXPECT_TRUE(restored.is_empty());
  // Out-of-range q on a non-empty window (on an empty one, the
  // empty-state logic_error wins, as checked above).
  const std::vector<double> ok = {1.0};
  engine->Append(ok.data(), ok.size());
  EXPECT_THROW(engine->GetQuantiles({2.0}, Criterion::kInclusive),
               std::invalid_argument);
}

// --- concurrency stress (TSan target) --------------------------------------

TEST(SketchRegistry, ConcurrentTenantsAndDirectoryChurn) {
  SketchRegistry registry;
  MetricSpec plain;
  MetricSpec windowed;
  windowed.kind = EngineKind::kWindowed;
  windowed.num_buckets = 4;
  windowed.bucket_items = 2000;
  registry.Create("stress.plain", plain);
  registry.Create("stress.windowed", windowed);

  constexpr size_t kItemsPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // One writer per metric (each engine serializes its own producers
  // anyway; one writer keeps the stress deterministic in volume).
  const std::vector<std::string> metrics = {"stress.plain",
                                            "stress.windowed"};
  for (size_t w = 0; w < metrics.size(); ++w) {
    threads.emplace_back([&, w] {
      auto engine = registry.Require(metrics[w]);
      const std::vector<double> stream =
          TestStream(100 + w, kItemsPerWriter);
      for (size_t i = 0; i < stream.size(); i += 97) {
        engine->Append(stream.data() + i,
                       std::min<size_t>(97, stream.size() - i));
      }
    });
  }
  // Two query threads hammering all metrics.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const std::string& name : metrics) {
          auto engine = registry.Find(name);
          if (!engine) continue;
          try {
            engine->GetQuantiles({0.5, 0.99}, Criterion::kInclusive);
            engine->GetRanks({1e5}, Criterion::kInclusive);
          } catch (const std::logic_error&) {
            // Empty at this instant: legal.
          }
        }
      }
    });
  }
  // Directory churn: transient metrics created and dropped while LIST
  // snapshots are being taken.
  threads.emplace_back([&] {
    MetricSpec spec;
    for (int i = 0; i < 200; ++i) {
      const std::string name = "churn." + std::to_string(i % 5);
      try {
        registry.Create(name, spec);
      } catch (const MetricExists&) {
      }
      registry.List();
      registry.Drop(name);
    }
  });

  for (size_t w = 0; w < metrics.size(); ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = metrics.size(); t < threads.size(); ++t) {
    threads[t].join();
  }

  // All writers joined: totals are exact and queries see everything.
  auto engine = registry.Require("stress.plain");
  EXPECT_EQ(engine->AcceptedN(), kItemsPerWriter);
  EXPECT_EQ(engine->GetRanks({2e6}, Criterion::kInclusive)[0],
            kItemsPerWriter);
  EXPECT_EQ(registry.Require("stress.windowed")->AcceptedN(),
            kItemsPerWriter);
}

// Append returns the accepted count at its own batch's apply point, which
// is what the server acks. Concurrent appends to one metric must therefore
// return distinct counts: exactly 64, 128, ..., total, one per batch.
TEST(SketchRegistry, ConcurrentAppendsReturnTheirOwnApplyPoint) {
  SketchRegistry registry;
  MetricSpec plain;
  MetricSpec windowed;
  windowed.kind = EngineKind::kWindowed;
  for (const auto& [name, spec] :
       {std::make_pair("acks.plain", plain),
        std::make_pair("acks.windowed", windowed)}) {
    auto engine = registry.Create(name, spec);
    constexpr size_t kThreads = 4;
    constexpr size_t kBatches = 200;
    constexpr size_t kBatch = 64;
    std::vector<std::vector<uint64_t>> returned(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const std::vector<double> stream = TestStream(200 + t, kBatch);
        for (size_t b = 0; b < kBatches; ++b) {
          returned[t].push_back(engine->Append(stream.data(), kBatch));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    std::vector<uint64_t> all;
    for (const std::vector<uint64_t>& acks : returned) {
      // One thread's batches apply in its own call order.
      EXPECT_TRUE(std::is_sorted(acks.begin(), acks.end())) << name;
      all.insert(all.end(), acks.begin(), acks.end());
    }
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), kThreads * kBatches) << name;
    for (size_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ(all[i], (i + 1) * kBatch) << name;
    }
    EXPECT_EQ(engine->AcceptedN(), kThreads * kBatches * kBatch) << name;
  }
}

// Queries from other threads on a contended metric must see every append
// acknowledged before they began: each append applies its batch before it
// returns, and each query reads the live structure under the state lock.
TEST(SketchRegistry, QueriesSeeEveryAckedAppendUnderContention) {
  constexpr size_t kAppenders = 2;
  constexpr size_t kBatches = 300;
  constexpr size_t kBatch = 64;
  SketchRegistry registry;
  MetricSpec plain;
  MetricSpec windowed = plain;
  windowed.kind = EngineKind::kWindowed;
  windowed.num_buckets = 2;
  windowed.bucket_items = kAppenders * kBatches * kBatch;  // never rotates
  for (const auto& [name, spec] : {std::make_pair("q.plain", plain),
                                   std::make_pair("q.windowed", windowed)}) {
    auto engine = registry.Create(name, spec);
    std::atomic<size_t> appenders_left{kAppenders};
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> stale{0};
    std::vector<std::thread> threads;
    for (size_t a = 0; a < kAppenders; ++a) {
      threads.emplace_back([&, a] {
        const std::vector<double> stream = TestStream(300 + a, kBatch);
        for (size_t b = 0; b < kBatches; ++b) {
          engine->Append(stream.data(), kBatch);
        }
        appenders_left.fetch_sub(1, std::memory_order_release);
      });
    }
    for (size_t q = 0; q < 2; ++q) {
      threads.emplace_back([&] {
        // The pass that starts after the appenders finish is the last,
        // so every querier queries at least once.
        bool last = false;
        do {
          last = appenders_left.load(std::memory_order_acquire) == 0;
          const uint64_t v = engine->AcceptedN();
          if (v == 0) continue;
          const uint64_t rank =
              engine->GetRanks({DBL_MAX}, Criterion::kInclusive)[0];
          if (rank < v) stale.fetch_add(1, std::memory_order_relaxed);
          queries.fetch_add(1, std::memory_order_relaxed);
        } while (!last);
      });
    }
    for (std::thread& thread : threads) thread.join();

    EXPECT_GT(queries.load(), 0u) << name;
    EXPECT_EQ(stale.load(), 0u) << name;
    EXPECT_EQ(engine->AcceptedN(), kAppenders * kBatches * kBatch) << name;
    EXPECT_EQ(engine->GetRanks({DBL_MAX}, Criterion::kInclusive)[0],
              engine->AcceptedN())
        << name;
  }
}

}  // namespace
}  // namespace service
}  // namespace req
