// WindowedReqSketch: rotation semantics, window-scoped estimates, batch
// equivalence, serde round trips, and query-surface edge cases.
#include "window/windowed_req_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "workload/distributions.h"

namespace req {
namespace window {
namespace {

WindowedReqConfig MakeConfig(size_t buckets = 4, uint64_t bucket_items = 1000,
                             uint32_t k_base = 16) {
  WindowedReqConfig config;
  config.num_buckets = buckets;
  config.bucket_items = bucket_items;
  config.base.k_base = k_base;
  config.base.seed = 42;
  return config;
}

TEST(WindowedReqSketchTest, ConfigValidation) {
  WindowedReqConfig config = MakeConfig();
  config.num_buckets = 1;
  EXPECT_THROW(WindowedReqSketch<double> w(config), std::invalid_argument);
  config.num_buckets = 4;
  config.base.k_base = 7;  // odd
  EXPECT_THROW(WindowedReqSketch<double> w(config), std::invalid_argument);
}

TEST(WindowedReqSketchTest, EmptyWindowThrowsOnEveryQuery) {
  WindowedReqSketch<double> w(MakeConfig());
  EXPECT_TRUE(w.is_empty());
  EXPECT_THROW(w.GetRank(1.0), std::logic_error);
  EXPECT_THROW(w.GetNormalizedRank(1.0), std::logic_error);
  EXPECT_THROW(w.GetRanks({1.0}), std::logic_error);
  EXPECT_THROW(w.GetQuantile(0.5), std::logic_error);
  EXPECT_THROW(w.GetQuantiles({0.5}), std::logic_error);
  EXPECT_THROW(w.GetCDF({1.0}), std::logic_error);
  EXPECT_THROW(w.GetPMF({1.0}), std::logic_error);
  EXPECT_THROW(w.GetRankLowerBound(1.0, 2), std::logic_error);
  EXPECT_THROW(w.GetRankUpperBound(1.0, 2), std::logic_error);
  EXPECT_THROW(w.MinItem(), std::logic_error);
  EXPECT_THROW(w.MaxItem(), std::logic_error);
  EXPECT_THROW(w.MergedSnapshot(), std::logic_error);
  // A window that rotated back to empty behaves the same.
  w.Update(1.0);
  for (size_t i = 0; i < w.num_buckets(); ++i) w.Rotate();
  EXPECT_TRUE(w.is_empty());
  EXPECT_THROW(w.GetQuantile(0.5), std::logic_error);
}

TEST(WindowedReqSketchTest, InvalidNormalizedRankRejected) {
  WindowedReqSketch<double> w(MakeConfig());
  for (int i = 0; i < 100; ++i) w.Update(static_cast<double>(i));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(w.GetQuantile(nan), std::invalid_argument);
  EXPECT_THROW(w.GetQuantile(-0.01), std::invalid_argument);
  EXPECT_THROW(w.GetQuantile(1.01), std::invalid_argument);
  EXPECT_THROW(w.GetQuantiles({0.5, nan}), std::invalid_argument);
  EXPECT_NO_THROW(w.GetQuantile(0.0));
  EXPECT_NO_THROW(w.GetQuantile(1.0));
}

TEST(WindowedReqSketchTest, CountDrivenRotationKeepsLastWindow) {
  // B=4 buckets x 1000 items: after 10k sequential items the window holds
  // exactly the last 4000 (current full bucket + 3 predecessors), with
  // exact extremes.
  WindowedReqSketch<double> w(MakeConfig(4, 1000));
  for (int i = 0; i < 10000; ++i) w.Update(static_cast<double>(i));
  EXPECT_EQ(w.n(), 4000u);
  EXPECT_EQ(w.rotations(), 9u);
  EXPECT_EQ(w.head(), w.rotations() % w.num_buckets());
  EXPECT_EQ(w.MinItem(), 6000.0);
  EXPECT_EQ(w.MaxItem(), 9999.0);
  // Ranks are window-relative: an item below the window has rank 0 and an
  // item above it has rank n.
  EXPECT_EQ(w.GetRank(5999.0), 0u);
  EXPECT_EQ(w.GetRank(9999.0), 4000u);
  // The median of [6000, 9999] sits near 8000 (multiplicative error).
  EXPECT_NEAR(w.GetQuantile(0.5), 8000.0, 400.0);
  // Items keep expiring as the stream continues.
  for (int i = 10000; i < 11000; ++i) w.Update(static_cast<double>(i));
  EXPECT_EQ(w.n(), 4000u);
  EXPECT_EQ(w.MinItem(), 7000.0);
}

TEST(WindowedReqSketchTest, PartialWindowMatchesPlainSketch) {
  // Before the first rotation everything lives in bucket epoch 0, the
  // only live bucket, so the window answers from its levels exactly as a
  // plain sketch with the bucket's configuration does.
  WindowedReqConfig config = MakeConfig(4, 100000, 32);
  WindowedReqSketch<double> w(config);
  // The effective per-bucket config (the window fixes n_hint to the whole
  // window's worst-case n); bucket epoch 0 keeps the base seed.
  ReqSketch<double> plain(w.config().base);
  const auto values = workload::GenerateLognormal(50000, 7);
  for (double v : values) {
    w.Update(v);
    plain.Update(v);
  }
  EXPECT_EQ(w.rotations(), 0u);
  EXPECT_EQ(w.n(), plain.n());
  for (double y : {0.2, 0.7, 1.0, 2.5, 9.0}) {
    EXPECT_EQ(w.GetRank(y), plain.GetRank(y)) << "y=" << y;
  }
  for (double q : {0.01, 0.5, 0.99}) {
    EXPECT_EQ(w.GetQuantile(q), plain.GetQuantile(q)) << "q=" << q;
  }
  EXPECT_EQ(w.GetCDF({0.5, 1.0, 2.0}), plain.GetCDF({0.5, 1.0, 2.0}));
}

TEST(WindowedReqSketchTest, BatchUpdateMatchesPerItem) {
  // Batch chunks break exactly at rotation boundaries: identical window
  // state, bucket by bucket.
  const auto values = workload::GenerateLognormal(25000, 3);
  WindowedReqSketch<double> a(MakeConfig(4, 1000));
  WindowedReqSketch<double> b(MakeConfig(4, 1000));
  for (double v : values) a.Update(v);
  b.Update(values);
  EXPECT_EQ(a.n(), b.n());
  EXPECT_EQ(a.rotations(), b.rotations());
  EXPECT_EQ(a.Serialize(), b.Serialize());
}

TEST(WindowedReqSketchTest, RejectedNaNDoesNotRotate) {
  // A rejected single-item update must not expire a bucket of live data:
  // validation happens before the rotation check.
  WindowedReqSketch<double> w(MakeConfig(4, 100));
  for (int i = 0; i < 400; ++i) w.Update(static_cast<double>(i));
  ASSERT_EQ(w.CurrentBucketN(), 100u);  // current bucket full
  const uint64_t n_before = w.n();
  const uint64_t rotations_before = w.rotations();
  EXPECT_THROW(w.Update(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(w.n(), n_before);
  EXPECT_EQ(w.rotations(), rotations_before);
  EXPECT_EQ(w.MinItem(), 0.0);  // oldest bucket still alive
}

TEST(WindowedReqSketchTest, BatchUpdateRejectsNaNUpFront) {
  WindowedReqSketch<double> w(MakeConfig(4, 100));
  std::vector<double> values(250, 1.0);
  values.back() = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(w.Update(values), std::invalid_argument);
  // Strong guarantee: nothing was applied, not even the NaN-free prefix.
  EXPECT_TRUE(w.is_empty());
  EXPECT_EQ(w.rotations(), 0u);
}

TEST(WindowedReqSketchTest, TickDrivenRotation) {
  // bucket_items = 0: the window never rotates on its own; Rotate() is the
  // injected clock tick.
  WindowedReqSketch<double> w(MakeConfig(3, 0));
  for (int i = 0; i < 5000; ++i) w.Update(static_cast<double>(i));
  EXPECT_EQ(w.rotations(), 0u);
  EXPECT_EQ(w.n(), 5000u);
  w.Rotate();  // tick: [0,5000) now one bucket old
  for (int i = 5000; i < 6000; ++i) w.Update(static_cast<double>(i));
  EXPECT_EQ(w.n(), 6000u);
  w.Rotate();  // tick
  w.Rotate();  // tick: [0,5000) retired
  EXPECT_EQ(w.n(), 1000u);
  EXPECT_EQ(w.MinItem(), 5000.0);
  // Rotating an empty current bucket is legal and retires the oldest.
  w.Rotate();
  w.Rotate();
  w.Rotate();
  EXPECT_TRUE(w.is_empty());
}

TEST(WindowedReqSketchTest, RankBoundsScaleWithWindowNotLifetime) {
  // Stream 20 windows' worth of items; the confidence interval width must
  // track the window's n (4000), not the 80000-item lifetime.
  WindowedReqSketch<double> w(MakeConfig(4, 1000, 16));
  for (int i = 0; i < 80000; ++i) w.Update(static_cast<double>(i));
  const uint64_t n = w.n();
  ASSERT_EQ(n, 4000u);
  const double y = 79000.0;  // inside the window
  const uint64_t rank = w.GetRank(y);
  const uint64_t lo = w.GetRankLowerBound(y, 2);
  const uint64_t hi = w.GetRankUpperBound(y, 2);
  EXPECT_LE(lo, rank);
  EXPECT_GE(hi, rank);
  EXPECT_LE(hi, n);  // clamped to the window's n
  // HRA margin at rank r is 2 * RelStdErr * (n - r): tiny here, far below
  // what a lifetime-n margin (~20x) would produce.
  const double margin = 2.0 * w.RelativeStdErr() *
                        static_cast<double>(n - rank);
  EXPECT_GE(static_cast<double>(lo),
            static_cast<double>(rank) - margin - 1.0);
  EXPECT_LE(static_cast<double>(hi),
            static_cast<double>(rank) + margin + 1.0);
}

TEST(WindowedReqSketchTest, WindowedAccuracyOverSlidingStream) {
  // Relative-error check against the exact window contents (buckets hold
  // contiguous stream ranges, so the window is the last n() items).
  const size_t kItems = 60000;
  WindowedReqSketch<double> w(MakeConfig(8, 2000, 32));
  for (size_t i = 0; i < kItems; ++i) w.Update(static_cast<double>(i));
  const uint64_t n = w.n();
  const double window_start = static_cast<double>(kItems - n);
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double est = w.GetQuantile(q);
    const double exact = window_start + q * static_cast<double>(n);
    EXPECT_GE(est, window_start);
    // HRA: the error guarantee scales with the rank distance from the
    // window's max. 3 sigma plus a little slack for the uniform item
    // spacing.
    const double tolerance = 3.0 * w.RelativeStdErr() * (1.0 - q) *
                                 static_cast<double>(n) +
                             64.0;
    EXPECT_NEAR(est, exact, tolerance) << "q=" << q;
  }
}

TEST(WindowedReqSketchTest, SerdeRoundTripPreservesStateAndFuture) {
  WindowedReqSketch<double> w(MakeConfig(4, 1000));
  // 10500 items: the current bucket is mid-fill and has already compacted,
  // the hardest continuation case. ReqSerde v2 persists each bucket's
  // exact PRNG state, so the restored window's later compactions flip the
  // same coins and the whole window continues byte-identically.
  const auto values = workload::GenerateLognormal(10500, 5);
  for (double v : values) w.Update(v);
  const auto bytes = w.Serialize();
  auto restored = WindowedReqSketch<double>::Deserialize(bytes);
  EXPECT_EQ(restored.n(), w.n());
  EXPECT_EQ(restored.rotations(), w.rotations());
  EXPECT_EQ(restored.head(), w.head());
  EXPECT_EQ(restored.num_buckets(), w.num_buckets());
  for (double y : {0.2, 0.7, 1.0, 2.5}) {
    EXPECT_EQ(restored.GetRank(y), w.GetRank(y)) << "y=" << y;
  }
  EXPECT_EQ(restored.GetQuantile(0.99), w.GetQuantile(0.99));
  // Continuation: same rotation schedule and bucket epoch seeds.
  const auto more = workload::GenerateLognormal(5000, 6);
  for (double v : more) {
    restored.Update(v);
    w.Update(v);
  }
  EXPECT_EQ(restored.rotations(), w.rotations());
  EXPECT_EQ(restored.Serialize(), w.Serialize());
}

TEST(WindowedReqSketchTest, SerdeEmptyRoundTrip) {
  WindowedReqSketch<double> w(MakeConfig());
  auto restored = WindowedReqSketch<double>::Deserialize(w.Serialize());
  EXPECT_TRUE(restored.is_empty());
  EXPECT_EQ(restored.rotations(), 0u);
  restored.Update(1.0);
  EXPECT_EQ(restored.n(), 1u);
}

TEST(WindowedReqSketchTest, SerdeRejectsCorruptStreams) {
  WindowedReqSketch<double> w(MakeConfig(4, 500));
  for (int i = 0; i < 3000; ++i) w.Update(static_cast<double>(i));
  auto bytes = w.Serialize();
  {
    auto bad = bytes;
    bad[0] ^= 0xff;  // magic
    EXPECT_THROW(WindowedReqSketch<double>::Deserialize(bad),
                 std::runtime_error);
  }
  {
    auto bad = bytes;
    bad[4] ^= 0xff;  // version
    EXPECT_THROW(WindowedReqSketch<double>::Deserialize(bad),
                 std::runtime_error);
  }
  {
    auto bad = bytes;
    bad.resize(bad.size() / 3);  // truncation
    EXPECT_THROW(WindowedReqSketch<double>::Deserialize(bad),
                 std::runtime_error);
  }
  {
    // Shrink the declared bucket_items below what buckets actually hold:
    // the ceiling check must fire (bucket_items is the u64 at offset 9).
    auto bad = bytes;
    bad[9] = 1;
    for (int i = 1; i < 8; ++i) bad[9 + i] = 0;
    EXPECT_THROW(WindowedReqSketch<double>::Deserialize(bad),
                 std::runtime_error);
  }
  {
    // Shrink num_buckets (u32 at offset 5) from 4 to 2: the first two
    // bucket payloads parse cleanly, so only the whole-input-consumed
    // check catches the silent loss of the other two.
    auto bad = bytes;
    bad[5] = 2;
    EXPECT_THROW(WindowedReqSketch<double>::Deserialize(bad),
                 std::runtime_error);
  }
  {
    // An implausible bucket_items in a tick-driven stream must throw a
    // *data* error from Deserialize, not the constructor's
    // invalid_argument.
    WindowedReqSketch<double> tick(MakeConfig(4, 0));
    tick.Update(1.0);
    auto bad = tick.Serialize();
    for (int i = 0; i < 8; ++i) bad[9 + i] = 0xff;  // bucket_items = 2^64-1
    EXPECT_THROW(WindowedReqSketch<double>::Deserialize(bad),
                 std::runtime_error);
  }
}

TEST(WindowedReqSketchTest, CopyIsIndependent) {
  WindowedReqSketch<double> a(MakeConfig(4, 1000));
  for (int i = 0; i < 3500; ++i) a.Update(static_cast<double>(i));
  WindowedReqSketch<double> b = a;
  EXPECT_EQ(b.n(), a.n());
  EXPECT_EQ(b.GetQuantile(0.5), a.GetQuantile(0.5));
  for (int i = 0; i < 2000; ++i) b.Update(10000.0 + i);
  EXPECT_NE(b.n(), 0u);
  EXPECT_EQ(a.n(), 3500u);       // a unaffected
  EXPECT_EQ(a.MaxItem(), 3499.0);
}

TEST(WindowedReqSketchTest, RetainedItemsBounded) {
  WindowedReqSketch<double> w(MakeConfig(4, 1000));
  for (int i = 0; i < 10000; ++i) w.Update(static_cast<double>(i));
  EXPECT_GT(w.RetainedItems(), 0u);
  EXPECT_LE(w.RetainedItems(), w.EstimateRetainedItems());
  // The window stores far fewer universe items than it covers.
  EXPECT_LT(w.RetainedItems(), 4000u);
}

TEST(WindowedReqSketchTest, MergedSnapshotIsStandalone) {
  WindowedReqSketch<double> w(MakeConfig(4, 1000));
  for (int i = 0; i < 6000; ++i) w.Update(static_cast<double>(i));
  ReqSketch<double> snapshot = w.MergedSnapshot();
  EXPECT_EQ(snapshot.n(), w.n());
  // The window holds exactly [2000, 6000), so the rank of y is y - 1999.
  // The snapshot is a merged sketch of it: within Theorem 1 of the exact
  // rank (4 standard errors from the protected high end).
  const double n = 4000.0;
  const double eps = 4 * params::RelativeStdErr(16);
  for (double y : {2000.0, 2500.0, 3500.0, 5000.0, 5900.0}) {
    const double exact = y - 1999.0;
    EXPECT_NEAR(static_cast<double>(snapshot.GetRank(y)), exact,
                eps * (n - exact) + 1)
        << "y=" << y;
  }
  EXPECT_EQ(snapshot.GetRank(5999.0), 4000u);
  EXPECT_EQ(snapshot.MinItem(), 2000.0);
  EXPECT_EQ(snapshot.MaxItem(), 5999.0);
  // Snapshot keeps answering while the window moves on.
  for (int i = 6000; i < 9000; ++i) w.Update(static_cast<double>(i));
  EXPECT_EQ(snapshot.n(), 4000u);
  EXPECT_EQ(snapshot.GetRank(5999.0), 4000u);
}

// Window answers come from the live buckets' levels read as one summary,
// not from a merged sketch, so they are checked against exact ranks of
// the window's items -- the last n() items of the stream, since
// count-driven buckets hold contiguous stream ranges -- with Theorem 1's
// relative bound at 4 standard errors (params::RelativeStdErr), measured
// from the protected end, the rule reqbench applies to served answers.
// GetRank, GetRanks and GetCDF are one weighted count, so they must also
// agree bit for bit.
TEST(WindowedReqSketchTest, AnswersWithinTheorem1OfExactWindowRanks) {
  for (RankAccuracy accuracy :
       {RankAccuracy::kHighRanks, RankAccuracy::kLowRanks}) {
    for (uint32_t k : {16u, 64u}) {
      WindowedReqConfig config = MakeConfig(4, 2000, k);
      config.base.accuracy = accuracy;
      WindowedReqSketch<double> w(config);
      const bool hra = accuracy == RankAccuracy::kHighRanks;
      const double eps = 4 * params::RelativeStdErr(k);
      const auto values = workload::GenerateLognormal(20000, 500 + k);
      size_t fed = 0;
      while (fed < values.size()) {
        const size_t chunk = std::min<size_t>(1700, values.size() - fed);
        w.Update(values.data() + fed, chunk);
        fed += chunk;
        SCOPED_TRACE(testing::Message()
                     << (hra ? "HRA" : "LRA") << " k=" << k
                     << " fed=" << fed);
        std::vector<double> items(values.begin() + (fed - w.n()),
                                  values.begin() + fed);
        std::sort(items.begin(), items.end());
        const double n = static_cast<double>(w.n());
        // Distance of a rank from the protected end.
        const auto side = [&](double rank) { return hra ? n - rank : rank; };
        const auto count_below = [&](double y) {
          return static_cast<double>(
              std::lower_bound(items.begin(), items.end(), y) -
              items.begin());
        };
        const auto count_through = [&](double y) {
          return static_cast<double>(
              std::upper_bound(items.begin(), items.end(), y) -
              items.begin());
        };

        const std::vector<double> qs = {0.001, 0.01, 0.1, 0.25, 0.5,
                                        0.75,  0.9,  0.99, 0.999};
        const std::vector<double> quantiles = w.GetQuantiles(qs);
        for (size_t i = 0; i < qs.size(); ++i) {
          const double below = count_below(quantiles[i]);
          const double through = count_through(quantiles[i]);
          const double target = qs[i] * n;
          const double miss =
              std::max({0.0, below + 1 - target, target - through});
          const double allowed =
              eps * side(hra ? std::min(through, target)
                             : std::max(below + 1, target)) +
              1;
          EXPECT_LE(miss, allowed) << "q=" << qs[i];
          EXPECT_EQ(w.GetQuantile(qs[i]), quantiles[i]) << "q=" << qs[i];
        }

        // Ascending distinct split points across the window, plus one
        // past its maximum.
        std::vector<double> splits;
        for (size_t j = 0; j < 25; ++j) {
          splits.push_back(items[j * items.size() / 25] + 1e-9);
        }
        splits.push_back(items.back() + 1.0);
        splits.erase(std::unique(splits.begin(), splits.end()),
                     splits.end());
        const std::vector<double> cdf = w.GetCDF(splits);
        ASSERT_EQ(cdf.size(), splits.size() + 1);
        EXPECT_EQ(cdf.back(), 1.0);
        // GetRanks sorts its points: hand them over descending.
        const std::vector<double> reversed(splits.rbegin(), splits.rend());
        const std::vector<uint64_t> bulk = w.GetRanks(reversed);
        const std::vector<uint64_t> bulk_exclusive =
            w.GetRanks(reversed, Criterion::kExclusive);
        for (size_t i = 0; i < splits.size(); ++i) {
          const uint64_t rank = w.GetRank(splits[i]);
          const double exact = count_through(splits[i]);
          EXPECT_LE(std::fabs(static_cast<double>(rank) - exact),
                    eps * side(exact) + 1)
              << "split " << splits[i];
          const size_t r = splits.size() - 1 - i;
          EXPECT_EQ(bulk[r], rank);
          EXPECT_EQ(bulk_exclusive[r],
                    w.GetRank(splits[i], Criterion::kExclusive));
          EXPECT_EQ(cdf[i], static_cast<double>(rank) / n);
        }
        EXPECT_EQ(w.GetRank(splits.back()), w.n());
      }
      EXPECT_GE(w.rotations(), 8u);
    }
  }
}

}  // namespace
}  // namespace window
}  // namespace req
