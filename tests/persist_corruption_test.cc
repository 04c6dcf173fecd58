// Corruption fuzzing for the durability files, the on-disk counterpart
// of tests/serde_corruption_test.cc: every byte of every WAL, checkpoint
// slot, and manifest file gets a bit flip, and every file gets truncated
// at many lengths. The bar (enforced under the CI ASan+UBSan job) is
// recover-or-reject: the readers return a valid prefix or nothing, full
// recovery either reconstructs a registry or throws a typed error --
// corrupt input NEVER becomes UB or a crash.
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "persist/durability.h"
#include "persist/log_file.h"
#include "persist/metric_log.h"
#include "service/sketch_registry.h"
#include "util/random.h"

namespace req {
namespace persist {
namespace {

using service::EngineKind;
using service::MetricSpec;
using service::SketchRegistry;

std::string MakeTempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "req_corrupt_" + tag +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// Builds a representative data dir: two metrics, several WAL batches,
// two checkpoints (so both slots and replay bytes exist on disk).
void BuildFixtureDir(const std::string& dir) {
  DurabilityOptions options;
  options.fsync = FsyncPolicy::kNever;
  DurabilityManager manager(dir, options);
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  MetricSpec plain;
  plain.kind = EngineKind::kPlain;
  plain.base.k_base = 32;
  MetricSpec windowed;
  windowed.kind = EngineKind::kWindowed;
  windowed.base.k_base = 32;
  registry.Create("fix/plain", plain);
  registry.Create("fix/windowed", windowed);
  for (size_t round = 0; round < 10; ++round) {
    util::Xoshiro256 rng(round);
    std::vector<double> batch(50);
    for (double& v : batch) v = rng.NextDouble() * 1e6;
    registry.Require("fix/plain")->Append(batch.data(), batch.size());
    registry.Require("fix/windowed")->Append(batch.data(), batch.size());
    if (round == 3 || round == 6) {
      registry.Require("fix/plain")->ForceCheckpoint();
    }
  }
}

std::vector<std::string> FixtureFiles(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  }
  EXPECT_EQ(files.size(), 5u);  // manifest + 2 WALs + 2 slots
  return files;
}

// --- reader-level fuzz (exhaustive: every byte, every truncation) -----------

TEST(PersistCorruption, SegmentReaderSurvivesEveryBitFlip) {
  const std::string dir = MakeTempDir("seg_flip");
  const std::string path = dir + "/" + kWalFileName;
  {
    FileWriter file(path, /*append=*/true, nullptr);
    ResetSegment(&file, kSegmentMagic, 0);
    for (uint8_t r = 0; r < 8; ++r) {
      AppendRecord(&file, std::vector<uint8_t>(40 + r * 7, r));
    }
  }
  const auto pristine_bytes = ReadFileBytes(path);
  ASSERT_TRUE(pristine_bytes.has_value());
  const auto pristine = ReadSegmentFile(path, kSegmentMagic);
  ASSERT_TRUE(pristine.has_value());

  const std::string scratch = dir + "/scratch";
  for (size_t byte = 0; byte < pristine_bytes->size(); ++byte) {
    for (int bit : {0, 3, 7}) {
      std::vector<uint8_t> corrupt = *pristine_bytes;
      corrupt[byte] ^= static_cast<uint8_t>(1u << bit);
      WriteBytes(scratch, corrupt);
      const auto result = ReadSegmentFile(scratch, kSegmentMagic);
      if (!result) continue;  // header flip: whole file rejected
      // Any record the reader RETURNS must match the original at its
      // position: a flip in a record's framing or payload fails the CRC
      // and stops the scan, so returned records are a pristine prefix.
      ASSERT_LE(result->records.size(), pristine->records.size());
      for (size_t i = 0; i < result->records.size(); ++i) {
        EXPECT_EQ(result->records[i], pristine->records[i])
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

// Writes every truncation of `bytes` shorter than the whole to `path` and
// expects the checkpoint reader to reject each one (all-or-nothing).
void ExpectEveryTruncationRejected(const std::string& path,
                                   const std::vector<uint8_t>& bytes) {
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteBytes(path, std::vector<uint8_t>(
                         bytes.begin(),
                         bytes.begin() + static_cast<ptrdiff_t>(len)));
    EXPECT_FALSE(ReadCheckpointFile(path).has_value()) << "len " << len;
  }
}

TEST(PersistCorruption, CheckpointReaderIsAllOrNothing) {
  // A v1 checkpoint as the old layout wrote it (checked-in bytes; see
  // Durability.OldLayoutDataDirBootsAndConvertsOnFirstCheckpoint).
  const auto pristine_bytes = ReadFileBytes(
      REQSKETCH_TEST_DATA_DIR
      "/old_layout_data_dir/m0/ckpt-0000000000000006.snap");
  ASSERT_TRUE(pristine_bytes.has_value());
  const std::string dir = MakeTempDir("ckpt_flip");
  const std::string scratch = dir + "/scratch";
  WriteBytes(scratch, *pristine_bytes);
  const auto pristine = ReadCheckpointFile(scratch);
  ASSERT_TRUE(pristine.has_value());
  EXPECT_EQ(pristine->lsn, 6u);

  for (size_t byte = 0; byte < pristine_bytes->size(); ++byte) {
    std::vector<uint8_t> corrupt = *pristine_bytes;
    corrupt[byte] ^= static_cast<uint8_t>(1u << (byte % 8));
    WriteBytes(scratch, corrupt);
    const auto result = ReadCheckpointFile(scratch);
    if (!result) continue;
    // A flip the reader accepts can only live in v1's CRC-unprotected
    // header metadata; the blob itself must be untouched.
    EXPECT_TRUE(byte >= 8 && byte < 24) << "byte " << byte;
    EXPECT_EQ(result->blob, pristine->blob) << "byte " << byte;
  }
  ExpectEveryTruncationRejected(scratch, *pristine_bytes);
}

TEST(PersistCorruption, SlotReaderRejectsEveryBitFlipAndTruncation) {
  // The slot format's CRC covers lsn and accepted_n too: no flip of any
  // bit anywhere is accepted.
  const std::string dir = MakeTempDir("slot_flip");
  std::vector<uint8_t> blob(300);
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<uint8_t>(i);
  WriteCheckpointFile(dir, kSlotFileNames[1], 9, 450, blob, nullptr);
  const auto pristine_bytes = ReadFileBytes(dir + "/" + kSlotFileNames[1]);
  ASSERT_TRUE(pristine_bytes.has_value());

  const std::string scratch = dir + "/scratch";
  for (size_t byte = 0; byte < pristine_bytes->size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = *pristine_bytes;
      corrupt[byte] ^= static_cast<uint8_t>(1u << bit);
      WriteBytes(scratch, corrupt);
      EXPECT_FALSE(ReadCheckpointFile(scratch).has_value())
          << "byte " << byte << " bit " << bit;
    }
  }
  ExpectEveryTruncationRejected(scratch, *pristine_bytes);
}

TEST(PersistCorruption, RaisedLsnOnTheOlderSlotCannotWin) {
  // Two valid slots; the older one's LSN field is raised above the newer
  // one's. Were the LSN outside the CRC (as in v1), the older slot would
  // win and the WAL records between the two LSNs would be skipped.
  const std::string dir = MakeTempDir("slot_lsn");
  MetricLogOptions options;
  options.fsync = FsyncPolicy::kNever;
  const std::vector<double> batch = {1.0, 2.0, 3.0};
  {
    MetricLog log(dir, "m", {}, options);
    for (uint8_t c = 1; c <= 2; ++c) {
      log.AppendBatch(batch.data(), batch.size());
      log.AppendBatch(batch.data(), batch.size());
      log.WriteCheckpoint(log.next_lsn(), 6u * c,
                          std::vector<uint8_t>(40, c));
    }
    for (int i = 0; i < 3; ++i) log.AppendBatch(batch.data(), batch.size());
  }
  const std::string older = dir + "/" + kSlotFileNames[0];
  auto bytes = ReadFileBytes(older);
  ASSERT_TRUE(bytes.has_value());
  const uint64_t raised = 10;
  std::memcpy(bytes->data() + 12, &raised, 8);  // v2 lsn field
  WriteBytes(older, *bytes);
  ASSERT_EQ(ReadCheckpointLsn(older), std::optional<uint64_t>(raised));

  const RecoveredMetricState state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.snapshot_lsn, 4u);
  EXPECT_EQ(state.snapshot_slot, 1);
  EXPECT_EQ(state.snapshot_blob, std::vector<uint8_t>(40, 2));
  EXPECT_EQ(state.batches.size(), 3u);
  EXPECT_EQ(state.next_lsn, 7u);
}

TEST(PersistCorruption, MetricStateReaderSurvivesTruncationEverywhere) {
  const std::string dir = MakeTempDir("trunc");
  MetricLogOptions options;
  options.fsync = FsyncPolicy::kNever;
  {
    MetricLog log(dir, "m", {}, options);
    std::vector<double> batch = {1.0, 2.0, 3.0};
    for (int i = 0; i < 4; ++i) log.AppendBatch(batch.data(), batch.size());
    log.WriteCheckpoint(4, 12, std::vector<uint8_t>(100, 0x3c));
    for (int i = 0; i < 3; ++i) log.AppendBatch(batch.data(), batch.size());
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    const auto pristine = ReadFileBytes(path);
    ASSERT_TRUE(pristine.has_value());
    for (size_t len = 0; len <= pristine->size(); ++len) {
      WriteBytes(path, std::vector<uint8_t>(
                           pristine->begin(),
                           pristine->begin() + static_cast<ptrdiff_t>(len)));
      const RecoveredMetricState state = ReadMetricState(dir, "m");
      // Batches always form a prefix of the written sequence; the count
      // depends on which file was cut where, but never exceeds 7 and
      // never produces garbage values.
      EXPECT_LE(state.batches.size(), 7u);
      for (const auto& recovered_batch : state.batches) {
        EXPECT_EQ(recovered_batch, (std::vector<double>{1.0, 2.0, 3.0}));
      }
    }
    WriteBytes(path, *pristine);  // restore for the next file's sweep
  }
}

// --- full-stack fuzz (sampled: flip + recover the whole directory) ----------

// One full recovery attempt over a corrupted COPY of the fixture dir.
// Success and typed rejection are both acceptable; UB/crash is not
// (ASan/UBSan turn either into a test failure).
void RecoverOrReject(const std::string& dir) {
  try {
    DurabilityOptions options;
    options.fsync = FsyncPolicy::kNever;
    DurabilityManager manager(dir, options);
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    // If recovery accepted the bytes, the registry must be fully
    // serviceable: every metric answers queries (or reports empty).
    for (const std::string& name : registry.List()) {
      auto engine = registry.Require(name);
      try {
        engine->GetQuantiles({0.5}, Criterion::kInclusive);
      } catch (const std::logic_error&) {
        // empty-sketch query: fine
      }
    }
  } catch (const std::exception&) {
    // rejected: fine
  }
}

TEST(PersistCorruption, FullRecoverySurvivesSampledBitFlips) {
  const std::string fixture = MakeTempDir("full_fixture");
  BuildFixtureDir(fixture);
  const std::vector<std::string> files = FixtureFiles(fixture);

  const std::string work = MakeTempDir("full_work");
  for (const std::string& file : files) {
    const auto pristine = ReadFileBytes(file);
    ASSERT_TRUE(pristine.has_value());
    // Stride keeps the full-stack pass to a few dozen recoveries; the
    // exhaustive per-byte coverage lives in the reader-level tests.
    for (size_t byte = 0; byte < pristine->size(); byte += 41) {
      std::filesystem::remove_all(work);
      std::filesystem::copy(fixture, work,
                            std::filesystem::copy_options::recursive);
      const std::string rel = file.substr(fixture.size());
      std::vector<uint8_t> corrupt = *pristine;
      corrupt[byte] ^= static_cast<uint8_t>(1u << (byte % 8));
      WriteBytes(work + rel, corrupt);
      RecoverOrReject(work);
    }
  }
}

TEST(PersistCorruption, FullRecoverySurvivesSampledTruncations) {
  const std::string fixture = MakeTempDir("trunc_fixture");
  BuildFixtureDir(fixture);
  const std::vector<std::string> files = FixtureFiles(fixture);

  const std::string work = MakeTempDir("trunc_work");
  for (const std::string& file : files) {
    const auto pristine = ReadFileBytes(file);
    ASSERT_TRUE(pristine.has_value());
    for (size_t cut = 1; cut <= 8; ++cut) {
      const size_t len = pristine->size() * cut / 9;
      std::filesystem::remove_all(work);
      std::filesystem::copy(fixture, work,
                            std::filesystem::copy_options::recursive);
      const std::string rel = file.substr(fixture.size());
      WriteBytes(work + rel,
                 std::vector<uint8_t>(pristine->begin(),
                                      pristine->begin() +
                                          static_cast<ptrdiff_t>(len)));
      RecoverOrReject(work);
    }
  }
}

}  // namespace
}  // namespace persist
}  // namespace req
