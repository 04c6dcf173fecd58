// Serialization round-trip tests: estimates, state, growth parameters and
// merge-after-deserialize (the distributed scenario of Appendix D).
#include "core/req_serde.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <vector>

#include "core/req_common.h"
#include "core/req_sketch.h"
#include "workload/distributions.h"

namespace req {
namespace {

ReqConfig MakeConfig(uint32_t k_base = 16, uint64_t seed = 7) {
  ReqConfig config;
  config.k_base = k_base;
  config.seed = seed;
  return config;
}

std::vector<double> SortedItems(const ReqSketch<double>& sketch, size_t h) {
  const ItemSpan<double> items = sketch.levels()[h].items();
  std::vector<double> out(items.begin(), items.end());
  std::sort(out.begin(), out.end());
  return out;
}

// Same schedule state and same multiset on every level, in any order.
void ExpectSameLevels(const ReqSketch<double>& a, const ReqSketch<double>& b) {
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (size_t h = 0; h < a.num_levels(); ++h) {
    EXPECT_EQ(a.levels()[h].state(), b.levels()[h].state());
    EXPECT_EQ(a.levels()[h].num_compactions(), b.levels()[h].num_compactions());
    EXPECT_EQ(SortedItems(a, h), SortedItems(b, h)) << "level " << h;
  }
}

void ExpectSameAnswers(const ReqSketch<double>& a, const ReqSketch<double>& b) {
  const std::vector<double> qs = {0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999};
  EXPECT_EQ(a.GetQuantiles(qs), b.GetQuantiles(qs));
  const std::vector<double> splits = {0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0};
  EXPECT_EQ(a.GetRanks(splits), b.GetRanks(splits));
  EXPECT_EQ(a.GetCDF(splits), b.GetCDF(splits));
}

TEST(ReqSerdeTest, EmptySketchRoundTrip) {
  ReqSketch<double> sketch(MakeConfig());
  const auto bytes = SerializeSketch(sketch);
  auto restored = DeserializeSketch<double>(bytes);
  EXPECT_TRUE(restored.is_empty());
  EXPECT_EQ(restored.n(), 0u);
  EXPECT_EQ(restored.config().k_base, 16u);
}

TEST(ReqSerdeTest, EstimatesSurviveRoundTrip) {
  ReqSketch<double> sketch(MakeConfig(32));
  const auto values = workload::GenerateUniform(100000, 1);
  for (double v : values) sketch.Update(v);
  const auto bytes = SerializeSketch(sketch);
  auto restored = DeserializeSketch<double>(bytes);

  EXPECT_EQ(restored.n(), sketch.n());
  EXPECT_EQ(restored.n_bound(), sketch.n_bound());
  EXPECT_EQ(restored.RetainedItems(), sketch.RetainedItems());
  EXPECT_EQ(restored.num_levels(), sketch.num_levels());
  EXPECT_EQ(restored.MinItem(), sketch.MinItem());
  EXPECT_EQ(restored.MaxItem(), sketch.MaxItem());
  for (double y : {0.001, 0.1, 0.5, 0.9, 0.999}) {
    EXPECT_EQ(restored.GetRank(y), sketch.GetRank(y)) << "y=" << y;
  }
  for (double q : {0.01, 0.5, 0.99}) {
    EXPECT_EQ(restored.GetQuantile(q), sketch.GetQuantile(q)) << "q=" << q;
  }
}

TEST(ReqSerdeTest, StatePreserved) {
  ReqSketch<double> sketch(MakeConfig());
  const auto values = workload::GenerateUniform(50000, 2);
  for (double v : values) sketch.Update(v);
  const auto bytes = SerializeSketch(sketch);
  auto restored = DeserializeSketch<double>(bytes);
  ASSERT_EQ(restored.num_levels(), sketch.num_levels());
  for (size_t h = 0; h < sketch.num_levels(); ++h) {
    EXPECT_EQ(restored.levels()[h].state(), sketch.levels()[h].state());
    EXPECT_EQ(restored.levels()[h].num_compactions(),
              sketch.levels()[h].num_compactions());
    EXPECT_EQ(restored.levels()[h].size(), sketch.levels()[h].size());
  }
}

TEST(ReqSerdeTest, DeserializedSketchRemainsUsable) {
  ReqSketch<double> sketch(MakeConfig());
  for (int i = 0; i < 30000; ++i) {
    sketch.Update(static_cast<double>(i % 1000));
  }
  auto restored = DeserializeSketch<double>(SerializeSketch(sketch));
  for (int i = 0; i < 30000; ++i) {
    restored.Update(static_cast<double>(i % 1000));
  }
  EXPECT_EQ(restored.n(), 60000u);
  EXPECT_EQ(restored.TotalWeight(), 60000u);
  EXPECT_NEAR(restored.GetNormalizedRank(499.5), 0.5, 0.05);
}

TEST(ReqSerdeTest, ContinuationIsBitIdentical) {
  // Version 2 persists the exact PRNG state: feeding the same suffix to
  // the original and the restored sketch must produce byte-identical
  // serializations, even when the suffix triggers compactions (coin
  // flips). This is the property the WAL checkpoint-then-replay recovery
  // path depends on.
  ReqSketch<double> sketch(MakeConfig(16, 11));
  const auto values = workload::GenerateLognormal(40000, 4);
  // Stop mid-stream at an odd point so levels are mid-fill.
  const size_t cut = 23457;
  for (size_t i = 0; i < cut; ++i) sketch.Update(values[i]);
  auto restored = DeserializeSketch<double>(SerializeSketch(sketch));
  for (size_t i = cut; i < values.size(); ++i) {
    sketch.Update(values[i]);
    restored.Update(values[i]);
  }
  EXPECT_EQ(SerializeSketch(restored), SerializeSketch(sketch));
  for (double q : {0.01, 0.5, 0.99}) {
    EXPECT_EQ(restored.GetQuantile(q), sketch.GetQuantile(q)) << "q=" << q;
  }
}

TEST(ReqSerdeTest, LegacyVersion1StillAccepted) {
  // A v1 stream is a v2 stream minus the trailing 4x u64 PRNG state, with
  // the version byte set to 1. It must deserialize to a healthy sketch
  // (estimates identical; future coin flips reseeded, not continued).
  ReqSketch<double> sketch(MakeConfig(16, 13));
  const auto values = workload::GenerateUniform(20000, 9);
  for (double v : values) sketch.Update(v);
  auto bytes = SerializeSketch(sketch);
  bytes[4] = 1;  // version byte follows the u32 magic
  bytes.resize(bytes.size() - 4 * sizeof(uint64_t));
  auto restored = DeserializeSketch<double>(bytes);
  EXPECT_EQ(restored.n(), sketch.n());
  for (double y : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(restored.GetRank(y), sketch.GetRank(y)) << "y=" << y;
  }
  restored.Update(1.0);  // remains usable
  EXPECT_EQ(restored.n(), sketch.n() + 1);
}

TEST(ReqSerdeTest, AscendingHraCheckpointRestores) {
  // A v2 checkpoint written when HRA levels were stored ascending (they
  // are now stored descending, in compaction order). It holds a k_base=16
  // HRA sketch, seed 2024, after per-item updates of
  // GenerateLognormal(5000, 31); its level 0 ends in an unsorted insert
  // tail. The format is unchanged, so it restores as-is, with the same
  // multisets a sketch built today from the same stream holds.
  std::ifstream in(REQSKETCH_TEST_DATA_DIR "/hra_k16_ascending_v2.bin",
                   std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 5u);
  ASSERT_EQ(bytes[4], 2);  // version byte follows the u32 magic
  ReqSketch<double> restored = DeserializeSketch<double>(bytes);
  ReqSketch<double> rebuilt(MakeConfig(16, 2024));
  for (double v : workload::GenerateLognormal(5000, 31)) rebuilt.Update(v);

  ExpectSameLevels(restored, rebuilt);
  // Same length, different bytes: only the storage order moved.
  const std::vector<uint8_t> rebuilt_bytes = SerializeSketch(rebuilt);
  EXPECT_EQ(rebuilt_bytes.size(), bytes.size());
  EXPECT_NE(rebuilt_bytes, bytes);
  ExpectSameAnswers(restored, rebuilt);

  // Restored PRNG state + equal multisets: both keep compacting alike.
  const std::vector<double> more = workload::GenerateLognormal(100000, 32);
  restored.Update(more);
  rebuilt.Update(more);
  ExpectSameLevels(restored, rebuilt);
  ExpectSameAnswers(restored, rebuilt);
}

TEST(ReqSerdeTest, BatchedHraSnapshotBytesArePinned) {
  // The serialized bytes of a k_base=64 HRA sketch, seed 12, fed
  // GenerateLognormal(2^21, 1212) in 4096-item batches, as written by the
  // kernel that still sorted compaction tails with std::sort. The stream
  // holds no items that compare equal but differ in bytes (such as -0.0
  // and +0.0), so any correct sort stores every level in the same order:
  // a change to the compaction schedule, the coin flips, the promoted
  // multisets or the storage order changes these bytes.
  std::ifstream in(REQSKETCH_TEST_DATA_DIR "/hra_k64_lognormal_batched_v2.bin",
                   std::ios::binary);
  const std::vector<uint8_t> pinned((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
  ASSERT_GT(pinned.size(), 5u);
  constexpr size_t kBatch = 4096;
  const std::vector<double> values =
      workload::GenerateLognormal(kBatch * 512, 1212);
  ReqSketch<double> sketch(MakeConfig(64, 12));
  for (size_t i = 0; i < values.size(); i += kBatch) {
    sketch.Update(values.data() + i, kBatch);
  }
  EXPECT_EQ(SerializeSketch(sketch), pinned);
}

TEST(ReqSerdeTest, MergeAfterDeserialize) {
  // The distributed pattern: worker sketches are serialized, shipped, and
  // merged at the coordinator.
  std::vector<std::vector<uint8_t>> shipped;
  uint64_t total = 0;
  for (int worker = 0; worker < 5; ++worker) {
    ReqSketch<double> s(MakeConfig(16, 100 + worker));
    const auto values = workload::GenerateUniform(20000, worker);
    for (double v : values) s.Update(v);
    total += s.n();
    shipped.push_back(SerializeSketch(s));
  }
  ReqSketch<double> coordinator(MakeConfig(16, 999));
  for (const auto& bytes : shipped) {
    auto s = DeserializeSketch<double>(bytes);
    coordinator.Merge(s);
  }
  EXPECT_EQ(coordinator.n(), total);
  EXPECT_EQ(coordinator.TotalWeight(), total);
  EXPECT_NEAR(coordinator.GetNormalizedRank(0.5), 0.5, 0.05);
}

TEST(ReqSerdeTest, FloatItemType) {
  ReqConfig config = MakeConfig();
  ReqSketch<float> sketch(config);
  for (int i = 0; i < 10000; ++i) {
    sketch.Update(static_cast<float>(i) * 0.5f);
  }
  auto restored =
      ReqSerde<float, std::less<float>>::Deserialize(
          ReqSerde<float, std::less<float>>::Serialize(sketch));
  EXPECT_EQ(restored.n(), sketch.n());
  EXPECT_EQ(restored.GetRank(2500.0f), sketch.GetRank(2500.0f));
}

TEST(ReqSerdeTest, ConfigFlagsPreserved) {
  ReqConfig config = MakeConfig(64);
  config.accuracy = RankAccuracy::kLowRanks;
  config.coin = CoinMode::kDeterministic;
  config.schedule = SchedulePolicy::kUniform;
  config.n_hint = 1 << 20;
  ReqSketch<double> sketch(config);
  sketch.Update(1.0);
  auto restored = DeserializeSketch<double>(SerializeSketch(sketch));
  EXPECT_EQ(restored.config().accuracy, RankAccuracy::kLowRanks);
  EXPECT_EQ(restored.config().coin, CoinMode::kDeterministic);
  EXPECT_EQ(restored.config().schedule, SchedulePolicy::kUniform);
  EXPECT_EQ(restored.config().n_hint, uint64_t{1} << 20);
  EXPECT_EQ(restored.n_bound(), sketch.n_bound());
}

TEST(ReqSerdeTest, CorruptMagicRejected) {
  ReqSketch<double> sketch(MakeConfig());
  sketch.Update(1.0);
  auto bytes = SerializeSketch(sketch);
  bytes[0] ^= 0xff;
  EXPECT_THROW(DeserializeSketch<double>(bytes), std::runtime_error);
}

TEST(ReqSerdeTest, TruncatedPayloadRejected) {
  ReqSketch<double> sketch(MakeConfig());
  for (int i = 0; i < 1000; ++i) sketch.Update(static_cast<double>(i));
  auto bytes = SerializeSketch(sketch);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(DeserializeSketch<double>(bytes), std::runtime_error);
}

TEST(ReqSerdeTest, WeightMismatchRejected) {
  ReqSketch<double> sketch(MakeConfig());
  for (int i = 0; i < 1000; ++i) sketch.Update(static_cast<double>(i));
  auto bytes = SerializeSketch(sketch);
  // Corrupt n (offset: magic u32 + version u8 + 3 enum u8 + k_base u32).
  const size_t n_offset = 4 + 1 + 3 + 4;
  bytes[n_offset] ^= 0x01;
  EXPECT_THROW(DeserializeSketch<double>(bytes), std::runtime_error);
}

TEST(ReqSerdeTest, SerializedSizeTracksRetained) {
  ReqSketch<double> sketch(MakeConfig());
  const auto values = workload::GenerateUniform(100000, 3);
  for (double v : values) sketch.Update(v);
  const auto bytes = SerializeSketch(sketch);
  // Dominated by 8 bytes per retained item plus ~24 per level + header.
  const size_t expected_min = sketch.RetainedItems() * sizeof(double);
  EXPECT_GE(bytes.size(), expected_min);
  EXPECT_LE(bytes.size(), expected_min + sketch.num_levels() * 64 + 256);
}

}  // namespace
}  // namespace req
