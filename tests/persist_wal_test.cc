// Durability-layer unit tests: CRC framing, segment/checkpoint file
// round trips and torn-tail semantics, MetricLog appends, checkpoint
// slots, WAL resets and reopens, the old-layout reader, and full
// DurabilityManager + SketchRegistry recovery --
// including the bit-identical-state guarantee for both engine kinds
// (tests/persist_crash_recovery_test.cc proves the same invariant
// against a SIGKILLed daemon process) and the boot of a data dir that
// holds the retired sharded kind.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "persist/crc32c.h"
#include "persist/durability.h"
#include "persist/log_file.h"
#include "persist/metric_log.h"
#include "service/req_client.h"
#include "service/reqd_server.h"
#include "service/sketch_registry.h"
#include "util/random.h"

namespace req {
namespace persist {
namespace {

using service::EngineKind;
using service::MetricSpec;
using service::SketchRegistry;

std::string MakeTempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "req_persist_" + tag +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<double> TestStream(uint64_t seed, size_t count) {
  util::Xoshiro256 rng(seed);
  std::vector<double> values(count);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

MetricLogOptions TestLogOptions() {
  MetricLogOptions options;
  options.fsync = FsyncPolicy::kNever;  // unit tests need no durability
  return options;
}

void TruncateFile(const std::string& path, size_t new_size) {
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(new_size)), 0);
}

// --- crc32c -----------------------------------------------------------------

TEST(Crc32c, KnownAnswers) {
  // The canonical CRC32C check vector (RFC 3720 appendix B.4).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

// The definition of CRC32C, one bit at a time: no tables, no slicing.
uint32_t BitwiseCrc32c(const uint8_t* data, size_t size) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82f63b78u : 0u);
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc32c, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-256 at start offsets 0-7 cover the 8-byte loop, every byte
  // tail it leaves, and every alignment of the first load.
  util::Xoshiro256 rng(3720);
  std::vector<uint8_t> buffer(256 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 256; ++len) {
      ASSERT_EQ(Crc32c(buffer.data() + offset, len),
                BitwiseCrc32c(buffer.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
  std::vector<uint8_t> large(size_t{1} << 20);
  for (uint8_t& b : large) b = static_cast<uint8_t>(rng.Next());
  EXPECT_EQ(Crc32c(large.data(), large.size()),
            BitwiseCrc32c(large.data(), large.size()));
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 37);
  }
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte += 7) {
    data[byte] ^= 0x10;
    EXPECT_NE(Crc32c(data.data(), data.size()), clean);
    data[byte] ^= 0x10;
  }
}

// --- file naming ------------------------------------------------------------

TEST(LogFileNames, ParsesOldLayoutNamesOnly) {
  EXPECT_EQ(ParseLsnFileName("wal-000000000000002a.log", "wal-", ".log"),
            std::optional<uint64_t>(42));
  EXPECT_EQ(ParseLsnFileName("ckpt-ffffffffffffffff.snap", "ckpt-", ".snap"),
            std::optional<uint64_t>(~uint64_t{0}));
  EXPECT_FALSE(ParseLsnFileName("wal-123.log", "wal-", ".log"));
  EXPECT_FALSE(ParseLsnFileName("wal-000000000000000G.log", "wal-", ".log"));
  EXPECT_FALSE(ParseLsnFileName("ckpt-0000000000000000.snap", "wal-",
                                ".log"));
  // The fixed files never read as old-layout ones.
  EXPECT_FALSE(ParseLsnFileName(kWalFileName, "wal-", ".log"));
  for (const char* slot : kSlotFileNames) {
    EXPECT_FALSE(ParseLsnFileName(slot, "ckpt-", ".snap")) << slot;
  }
}

// --- segment files ----------------------------------------------------------

TEST(SegmentFile, RoundTrip) {
  const std::string dir = MakeTempDir("segment_roundtrip");
  const std::string path = dir + "/" + kWalFileName;
  {
    FileWriter file(path, /*append=*/true, nullptr);
    ResetSegment(&file, kSegmentMagic, 7);
    AppendRecord(&file, {1, 2, 3});
    AppendRecord(&file, {0xff});
    AppendRecord(&file, std::vector<uint8_t>(1000, 0xab));
  }
  const auto contents = ReadSegmentFile(path, kSegmentMagic);
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(contents->first_lsn, 7u);
  EXPECT_TRUE(contents->clean_tail);
  EXPECT_EQ(contents->valid_bytes, std::filesystem::file_size(path));
  ASSERT_EQ(contents->records.size(), 3u);
  EXPECT_EQ(contents->records[0], (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(contents->records[2], std::vector<uint8_t>(1000, 0xab));

  EXPECT_FALSE(ReadSegmentFile(path, kManifestMagic).has_value());
  EXPECT_FALSE(ReadSegmentFile(dir + "/nope", kSegmentMagic).has_value());
}

TEST(SegmentFile, TornTailYieldsLongestValidPrefix) {
  const std::string dir = MakeTempDir("segment_torn");
  const std::string path = dir + "/" + kWalFileName;
  {
    FileWriter file(path, /*append=*/true, nullptr);
    ResetSegment(&file, kSegmentMagic, 0);
    AppendRecord(&file, std::vector<uint8_t>(64, 1));
    AppendRecord(&file, std::vector<uint8_t>(64, 2));
    AppendRecord(&file, std::vector<uint8_t>(64, 3));
  }
  const size_t full = std::filesystem::file_size(path);
  // Cut into the third record's payload: two records survive.
  TruncateFile(path, full - 10);
  auto contents = ReadSegmentFile(path, kSegmentMagic);
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(contents->records.size(), 2u);
  EXPECT_FALSE(contents->clean_tail);
  EXPECT_EQ(contents->valid_bytes, 16u + 2 * (8 + 64));
  // Cut into the second record's 8-byte frame header: one record.
  TruncateFile(path, 16 + 8 + 64 + 3);
  contents = ReadSegmentFile(path, kSegmentMagic);
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->valid_bytes, 16u + 8 + 64);
  // Cut into the 16-byte file header: no usable file at all.
  TruncateFile(path, 9);
  EXPECT_FALSE(ReadSegmentFile(path, kSegmentMagic).has_value());
}

// --- checkpoint files -------------------------------------------------------

TEST(CheckpointFile, RoundTripAndAllOrNothing) {
  const std::string dir = MakeTempDir("ckpt");
  const std::string path = dir + "/" + kSlotFileNames[0];
  const std::vector<uint8_t> blob(257, 0x5c);
  WriteCheckpointFile(dir, kSlotFileNames[0], 12, 34567, blob, nullptr);

  auto loaded = ReadCheckpointFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lsn, 12u);
  EXPECT_EQ(loaded->accepted_n, 34567u);
  EXPECT_EQ(loaded->blob, blob);
  EXPECT_EQ(ReadCheckpointLsn(path), std::optional<uint64_t>(12));

  // Overwriting in place with a shorter checkpoint leaves exactly its
  // bytes: the old blob's tail is cut, not left for the reader.
  const std::vector<uint8_t> shorter(100, 0x3d);
  WriteCheckpointFile(dir, kSlotFileNames[0], 13, 99, shorter, nullptr);
  EXPECT_EQ(std::filesystem::file_size(path),
            kCheckpointHeaderBytes + shorter.size());
  loaded = ReadCheckpointFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lsn, 13u);
  EXPECT_EQ(loaded->blob, shorter);

  // Truncation anywhere rejects the whole checkpoint.
  const size_t full = std::filesystem::file_size(path);
  TruncateFile(path, full - 1);
  EXPECT_FALSE(ReadCheckpointFile(path).has_value());
  TruncateFile(path, 20);
  EXPECT_FALSE(ReadCheckpointFile(path).has_value());
  EXPECT_FALSE(ReadCheckpointLsn(path).has_value());
}

// --- MetricLog --------------------------------------------------------------

std::set<std::string> DirNames(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

ino_t InodeOf(const std::string& path) {
  struct stat st = {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

TEST(MetricLog, AppendsRecoverInOrder) {
  const std::string dir = MakeTempDir("mlog_basic");
  const std::vector<double> b0 = {1.0, 2.0, 3.0};
  const std::vector<double> b1 = {4.5};
  const std::vector<double> b2 = {6.0, 7.0};
  {
    MetricLog log(dir, "m", {}, TestLogOptions());
    EXPECT_EQ(log.AppendBatch(b0.data(), b0.size()), 0u);
    EXPECT_EQ(log.AppendBatch(b1.data(), b1.size()), 1u);
    EXPECT_EQ(log.AppendBatch(b2.data(), b2.size()), 2u);
    EXPECT_EQ(log.next_lsn(), 3u);
  }
  EXPECT_EQ(DirNames(dir), std::set<std::string>{kWalFileName});
  const RecoveredMetricState state = ReadMetricState(dir, "m");
  EXPECT_TRUE(state.snapshot_blob.empty());
  EXPECT_EQ(state.snapshot_lsn, 0u);
  ASSERT_EQ(state.batches.size(), 3u);
  EXPECT_EQ(state.batches[0], b0);
  EXPECT_EQ(state.batches[1], b1);
  EXPECT_EQ(state.batches[2], b2);
  EXPECT_EQ(state.next_lsn, 3u);
}

TEST(MetricLog, CheckpointsAlternateSlotsAndResetTheWal) {
  const std::string dir = MakeTempDir("mlog_ckpt");
  const std::string wal = dir + "/" + kWalFileName;
  const std::vector<double> batch = {1.0, 2.0};
  ino_t wal_inode = 0, slot0_inode = 0;
  {
    MetricLog log(dir, "m", {}, TestLogOptions());
    wal_inode = InodeOf(wal);
    for (uint8_t c = 1; c <= 3; ++c) {
      log.AppendBatch(batch.data(), batch.size());
      log.AppendBatch(batch.data(), batch.size());
      log.WriteCheckpoint(log.next_lsn(), /*accepted_n=*/4u * c,
                          std::vector<uint8_t>(4, c));
      // The WAL is cut back to its header; checkpoint c lands in slot
      // (c - 1) % 2 and the other slot keeps its predecessor.
      EXPECT_EQ(std::filesystem::file_size(wal), 16u);
      const std::string slot = dir + "/" + kSlotFileNames[(c - 1) % 2];
      EXPECT_EQ(ReadCheckpointLsn(slot), std::optional<uint64_t>(2u * c));
      if (c == 1) slot0_inode = InodeOf(slot);
    }
    log.AppendBatch(batch.data(), batch.size());
  }
  // Overwritten in place, never replaced: the same files throughout.
  EXPECT_EQ(InodeOf(wal), wal_inode);
  EXPECT_EQ(InodeOf(dir + "/" + kSlotFileNames[0]), slot0_inode);
  EXPECT_EQ(DirNames(dir),
            (std::set<std::string>{kWalFileName, kSlotFileNames[0],
                                   kSlotFileNames[1]}));
  EXPECT_EQ(ReadCheckpointLsn(dir + "/" + kSlotFileNames[1]),
            std::optional<uint64_t>(4));
  const RecoveredMetricState state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.snapshot_blob, std::vector<uint8_t>(4, 3));
  EXPECT_EQ(state.snapshot_lsn, 6u);
  EXPECT_EQ(state.snapshot_accepted_n, 12u);
  EXPECT_EQ(state.snapshot_slot, 0);
  ASSERT_EQ(state.batches.size(), 1u);  // only the post-checkpoint tail
  EXPECT_EQ(state.next_lsn, 7u);
}

TEST(MetricLog, RecoveryContinuesInTheSameWal) {
  const std::string dir = MakeTempDir("mlog_reopen");
  const std::vector<double> batch = {3.25};
  {
    MetricLog log(dir, "m", {}, TestLogOptions());
    for (int i = 0; i < 3; ++i) log.AppendBatch(batch.data(), batch.size());
  }
  // A second log generation, reopened from what recovery read, appends
  // after the first one's records in the same file.
  {
    MetricLog log(dir, "m", ReadMetricState(dir, "m"), TestLogOptions());
    EXPECT_EQ(log.next_lsn(), 3u);
    for (int i = 0; i < 2; ++i) log.AppendBatch(batch.data(), batch.size());
  }
  const RecoveredMetricState state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.batches.size(), 5u);
  EXPECT_EQ(state.next_lsn, 5u);
  EXPECT_EQ(state.wal_valid_bytes,
            std::filesystem::file_size(dir + "/" + kWalFileName));
  EXPECT_EQ(DirNames(dir), std::set<std::string>{kWalFileName});
}

TEST(MetricLog, WalEndingShortOfTheNewestSlotIsReset) {
  // A slot newer than the WAL's last record (the WAL lost records the
  // slot covers, e.g. unsynced ones): appending after those records would
  // number new batches below the slot's LSN, where recovery skips them.
  const std::string dir = MakeTempDir("mlog_short_wal");
  const std::vector<double> batch = {8.5};
  {
    MetricLog log(dir, "m", {}, TestLogOptions());
    for (int i = 0; i < 2; ++i) log.AppendBatch(batch.data(), batch.size());
  }
  WriteCheckpointFile(dir, kSlotFileNames[0], 5, 5, {1, 2, 3}, nullptr);
  RecoveredMetricState state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.snapshot_lsn, 5u);
  EXPECT_TRUE(state.batches.empty());
  EXPECT_EQ(state.wal_valid_bytes, 0u);  // reset, not continued
  {
    MetricLog log(dir, "m", state, TestLogOptions());
    EXPECT_EQ(log.AppendBatch(batch.data(), batch.size()), 5u);
  }
  state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.batches.size(), 1u);
  EXPECT_EQ(state.next_lsn, 6u);
}

// An old-layout segment: wal-<first_lsn>.log holding `count` copies of
// `batch` as APPEND records for metric "m".
void WriteOldSegment(const std::string& dir, uint64_t first_lsn,
                     size_t count, const std::vector<double>& batch) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%016llx.log",
                static_cast<unsigned long long>(first_lsn));
  FileWriter file(dir + "/" + name, /*append=*/true, nullptr);
  ResetSegment(&file, kSegmentMagic, first_lsn);
  service::Request request;
  request.op = service::Opcode::kAppend;
  request.metric = "m";
  request.values = batch;
  for (size_t i = 0; i < count; ++i) {
    AppendRecord(&file, service::EncodeRequest(request));
  }
}

TEST(MetricLog, RecoveryContinuesAcrossOldLayoutSegments) {
  const std::string dir = MakeTempDir("mlog_old_segments");
  const std::vector<double> batch = {3.25};
  WriteOldSegment(dir, 0, 3, batch);
  WriteOldSegment(dir, 3, 2, batch);
  RecoveredMetricState state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.batches.size(), 5u);
  EXPECT_EQ(state.next_lsn, 5u);
  EXPECT_EQ(state.old_layout_files.size(), 2u);
  EXPECT_EQ(state.wal_valid_bytes, 0u);  // no WAL yet: created at 5
  {
    MetricLog log(dir, "m", state, TestLogOptions());
    EXPECT_EQ(log.AppendBatch(batch.data(), batch.size()), 5u);
  }
  state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.batches.size(), 6u);
  EXPECT_EQ(state.next_lsn, 6u);

  // A GAP (lost file) stops the scan there: nothing past it was ever
  // acknowledged contiguously.
  WriteOldSegment(dir, 9, 1, batch);
  state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.batches.size(), 6u);
  EXPECT_EQ(state.next_lsn, 6u);
}

TEST(MetricLog, TornTailIsDiscardedOnRecovery) {
  const std::string dir = MakeTempDir("mlog_torn");
  const std::string wal = dir + "/" + kWalFileName;
  const std::vector<double> batch = {1.0, 2.0, 3.0, 4.0};
  {
    MetricLog log(dir, "m", {}, TestLogOptions());
    for (int i = 0; i < 4; ++i) log.AppendBatch(batch.data(), batch.size());
  }
  TruncateFile(wal, std::filesystem::file_size(wal) - 5);
  RecoveredMetricState state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.batches.size(), 3u);
  EXPECT_EQ(state.next_lsn, 3u);
  EXPECT_TRUE(state.wal_torn);
  // The reopened log cuts the torn bytes before appending, so the next
  // recovery reaches the new record.
  {
    MetricLog log(dir, "m", state, TestLogOptions());
    EXPECT_EQ(log.AppendBatch(batch.data(), batch.size()), 3u);
  }
  state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.batches.size(), 4u);
  EXPECT_EQ(state.next_lsn, 4u);
  EXPECT_FALSE(state.wal_torn);
}

TEST(MetricLog, UnreadableCheckpointThrowsInsteadOfFallingBack) {
  // A slot, WAL or old-layout checkpoint that cannot be read (here a
  // directory: read fails with EISDIR) is not corruption. Falling back to
  // the other slot would silently recover less than the WAL reset already
  // discarded.
  const std::vector<double> batch = {1.0, 2.0};
  const std::vector<std::string> names = {
      kSlotFileNames[0], kSlotFileNames[1], kWalFileName,
      "ckpt-0000000000000005.snap"};
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string dir = MakeTempDir("mlog_unreadable" + std::to_string(i));
    {
      MetricLog log(dir, "m", {}, TestLogOptions());
      log.AppendBatch(batch.data(), batch.size());
      log.WriteCheckpoint(log.next_lsn(), /*accepted_n=*/2, {7, 7, 7});
    }
    std::filesystem::remove(dir + "/" + names[i]);
    std::filesystem::create_directory(dir + "/" + names[i]);
    EXPECT_THROW(ReadMetricState(dir, "m"), IoError) << names[i];
  }
}

TEST(MetricLog, UnlistableMetricDirectoryThrows) {
  const std::string dir = MakeTempDir("mlog_not_a_dir");
  const std::string path = dir + "/m0";
  std::ofstream(path) << "not a directory";
  EXPECT_THROW(ReadMetricState(path, "m"), IoError);
}

// --- DurabilityManager + SketchRegistry ------------------------------------

MetricSpec SpecOf(EngineKind kind) {
  MetricSpec spec;
  spec.kind = kind;
  spec.base.k_base = 32;
  return spec;
}

DurabilityOptions TestDurabilityOptions() {
  DurabilityOptions options;
  options.fsync = FsyncPolicy::kNever;
  return options;
}

TEST(Durability, RecoversAllEngineKindsBitIdentically) {
  const std::string dir = MakeTempDir("recover_all_kinds");
  const std::vector<std::pair<std::string, EngineKind>> metrics = {
      {"svc/plain", EngineKind::kPlain},
      {"svc/window", EngineKind::kWindowed},
  };
  std::vector<std::vector<uint8_t>> reference(metrics.size());
  std::vector<uint64_t> reference_n(metrics.size());
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);  // empty dir: just wires the hook
    for (const auto& [name, kind] : metrics) {
      registry.Create(name, SpecOf(kind));
    }
    // Interleave batches across metrics; checkpoint ONE metric midway so
    // recovery exercises both snapshot+tail and pure-replay paths.
    for (size_t round = 0; round < 20; ++round) {
      for (size_t m = 0; m < metrics.size(); ++m) {
        const std::vector<double> batch =
            TestStream(100 * m + round, 97 + 13 * m);
        registry.Require(metrics[m].first)
            ->Append(batch.data(), batch.size());
      }
      if (round == 11) {
        registry.Require(metrics[1].first)->ForceCheckpoint();
      }
    }
    for (size_t m = 0; m < metrics.size(); ++m) {
      auto engine = registry.Require(metrics[m].first);
      reference[m] = engine->Snapshot();
      reference_n[m] = engine->AcceptedN();
    }
    // No graceful shutdown: the registry and manager just go away, like
    // a crash with a cleanly flushed page cache.
  }
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    ASSERT_EQ(registry.size(), metrics.size());
    for (size_t m = 0; m < metrics.size(); ++m) {
      auto engine = registry.Require(metrics[m].first);
      EXPECT_EQ(engine->AcceptedN(), reference_n[m]) << metrics[m].first;
      EXPECT_EQ(engine->Snapshot(), reference[m])
          << "recovered state differs for " << metrics[m].first;
    }
  }
}

TEST(Durability, UnreadableManifestFailsBootAndKeepsEveryMetric) {
  // A manifest that exists but cannot be read must not boot as an empty
  // directory: that would rewrite it empty and garbage-collect every m<id>/
  // directory. A symlink to itself fails open() with ELOOP, even as root.
  const std::string dir = MakeTempDir("unreadable_manifest");
  const std::vector<double> batch = {1.0, 2.0, 3.0};
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    for (const char* name : {"a", "b", "c"}) {
      registry.Create(name, SpecOf(EngineKind::kPlain));
      registry.Require(name)->Append(batch.data(), batch.size());
    }
  }
  const std::string manifest = dir + "/manifest.log";
  const std::string saved = dir + "/manifest.saved";
  std::filesystem::rename(manifest, saved);
  std::filesystem::create_symlink("manifest.log", manifest);
  EXPECT_THROW(DurabilityManager(dir, TestDurabilityOptions()), IoError);
  for (const char* metric_dir : {"/m0", "/m1", "/m2"}) {
    EXPECT_TRUE(std::filesystem::is_directory(dir + metric_dir)) << metric_dir;
  }
  // Once the manifest is readable again, nothing was lost.
  std::filesystem::remove(manifest);
  std::filesystem::rename(saved, manifest);
  DurabilityManager manager(dir, TestDurabilityOptions());
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  ASSERT_EQ(registry.size(), 3u);
  for (const char* name : {"a", "b", "c"}) {
    EXPECT_EQ(registry.Require(name)->AcceptedN(), batch.size()) << name;
  }
}

TEST(Durability, DropIsDurableAndRemovesFiles) {
  const std::string dir = MakeTempDir("drop");
  const std::vector<double> batch = {1.0, 2.0, 3.0};
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    registry.Create("keep", SpecOf(EngineKind::kPlain));
    registry.Create("drop-me", SpecOf(EngineKind::kPlain));
    registry.Require("drop-me")->Append(batch.data(), batch.size());
    ASSERT_TRUE(registry.Drop("drop-me"));
  }
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_NE(registry.Find("keep"), nullptr);
    EXPECT_EQ(registry.Find("drop-me"), nullptr);
  }
  // Exactly one metric directory remains after GC.
  size_t metric_dirs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_directory()) ++metric_dirs;
  }
  EXPECT_EQ(metric_dirs, 1u);
}

TEST(Durability, CreateDropChurnSurvivesRepeatedRecovery) {
  const std::string dir = MakeTempDir("churn");
  const std::vector<double> batch = {42.0};
  for (int generation = 0; generation < 4; ++generation) {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    EXPECT_EQ(registry.size(), generation == 0 ? 0u : 1u);
    // Same NAME re-created each generation -- ids must not collide.
    if (generation > 0) {
      EXPECT_EQ(registry.Require("churn")->AcceptedN(),
                static_cast<uint64_t>(generation));
      registry.Drop("churn");
    }
    registry.Create("churn", SpecOf(EngineKind::kPlain));
    for (int i = 0; i <= generation; ++i) {
      registry.Require("churn")->Append(batch.data(), batch.size());
    }
  }
}

TEST(Durability, GracefulCheckpointLeavesEmptyReplayTail) {
  const std::string dir = MakeTempDir("graceful");
  std::vector<uint8_t> reference;
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    registry.Create("m", SpecOf(EngineKind::kPlain));
    auto engine = registry.Require("m");
    const std::vector<double> stream = TestStream(7, 5000);
    engine->Append(stream.data(), stream.size());
    engine->ForceCheckpoint();
    reference = engine->Snapshot();
  }
  // The WAL tail after a graceful shutdown is empty: recovery loads the
  // checkpoint and replays nothing.
  {
    const auto entries = std::filesystem::directory_iterator(dir);
    std::string metric_dir;
    for (const auto& entry : entries) {
      if (entry.is_directory()) metric_dir = entry.path().string();
    }
    ASSERT_FALSE(metric_dir.empty());
    const RecoveredMetricState state = ReadMetricState(metric_dir, "m");
    EXPECT_FALSE(state.snapshot_blob.empty());
    EXPECT_TRUE(state.batches.empty());
  }
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    EXPECT_EQ(registry.Require("m")->Snapshot(), reference);
  }
}

// tests/data/old_layout_data_dir was written by the code before the fixed
// file set (ckpt-<lsn>.snap checkpoints, wal-<first_lsn>.log segments).
// Its plain metric "old/plain" (k_base 32) got batches 0-5, a checkpoint
// at LSN 6 and batches 6-8; a second boot opened wal-0000000000000009.log
// and got batches 9-12; then the last record was cut by 7 bytes, a torn
// and unacknowledged batch 12. Batch b is 50 values
// Xoshiro256(7000 + b).NextDouble() * 1e6.
constexpr size_t kOldLayoutBatches = 12;

std::vector<double> OldLayoutBatch(size_t b) {
  util::Xoshiro256 rng(7000 + b);
  std::vector<double> values(50);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

std::string CopyOldLayoutDir(const std::string& tag) {
  const std::string dir = MakeTempDir(tag);
  std::filesystem::copy(REQSKETCH_TEST_DATA_DIR "/old_layout_data_dir", dir,
                        std::filesystem::copy_options::recursive);
  return dir;
}

// Snapshot bytes of a memory-only engine fed old-layout batches 0..n-1.
std::vector<uint8_t> OldLayoutReference(size_t batches) {
  SketchRegistry reference;
  auto engine = reference.Create("old/plain", SpecOf(EngineKind::kPlain));
  for (size_t b = 0; b < batches; ++b) {
    const std::vector<double> batch = OldLayoutBatch(b);
    engine->Append(batch.data(), batch.size());
  }
  return engine->Snapshot();
}

std::vector<uint8_t> BootSnapshot(const std::string& dir) {
  DurabilityManager manager(dir, TestDurabilityOptions());
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  EXPECT_EQ(registry.size(), 1u);
  return registry.Require("old/plain")->Snapshot();
}

TEST(Durability, OldLayoutDataDirBootsAndConvertsOnFirstCheckpoint) {
  const std::string dir = CopyOldLayoutDir("old_layout");
  const std::string metric_dir = dir + "/m0";
  std::ofstream(metric_dir + "/ckpt.tmp") << "stray";
  const std::set<std::string> old_files = {
      "ckpt-0000000000000006.snap", "wal-0000000000000006.log",
      "wal-0000000000000009.log", "ckpt.tmp"};
  ASSERT_EQ(DirNames(metric_dir), old_files);
  const std::vector<uint8_t> reference =
      OldLayoutReference(kOldLayoutBatches);
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    auto engine = registry.Require("old/plain");
    EXPECT_EQ(engine->AcceptedN(), kOldLayoutBatches * 50);
    EXPECT_EQ(engine->Snapshot(), reference);
    // Booting touches no old file; it only adds the WAL.
    std::set<std::string> booted = old_files;
    booted.insert(kWalFileName);
    EXPECT_EQ(DirNames(metric_dir), booted);
    engine->ForceCheckpoint();
    EXPECT_EQ(DirNames(metric_dir),
              (std::set<std::string>{kWalFileName, kSlotFileNames[0]}));
  }
  EXPECT_EQ(BootSnapshot(dir), reference);
}

TEST(Durability, OldLayoutFilesBesideANewerSlotChangeNothing) {
  // A crash that undoes the first checkpoint's deletes leaves the old
  // files beside the slot and the reset WAL: they hold nothing newer.
  const std::string dir = CopyOldLayoutDir("old_layout_leftover");
  const std::string metric_dir = dir + "/m0";
  const std::string saved = MakeTempDir("old_layout_saved");
  std::filesystem::copy(metric_dir, saved);
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    auto engine = registry.Require("old/plain");
    engine->ForceCheckpoint();
    const std::vector<double> batch = OldLayoutBatch(kOldLayoutBatches);
    engine->Append(batch.data(), batch.size());
  }
  for (const auto& entry : std::filesystem::directory_iterator(saved)) {
    std::filesystem::copy_file(entry.path(),
                               metric_dir + "/" +
                                   entry.path().filename().string());
  }
  EXPECT_EQ(DirNames(metric_dir).size(), 5u);  // 3 old + WAL + slot
  EXPECT_EQ(BootSnapshot(dir), OldLayoutReference(kOldLayoutBatches + 1));
}

// --- the retired sharded kind -----------------------------------------------

TEST(Durability, ShardedCreateIsRefusedAndLeavesNoTrace) {
  const std::string dir = MakeTempDir("sharded_create");
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    EXPECT_THROW(registry.Create("retired", SpecOf(EngineKind::kSharded)),
                 std::invalid_argument);
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_EQ(manager.live_metrics(), 0u);
  }
  // No manifest record and no metric directory.
  const auto manifest =
      ReadSegmentFile(dir + "/manifest.log", kManifestMagic);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_TRUE(manifest->records.empty());
  EXPECT_EQ(DirNames(dir), std::set<std::string>{"manifest.log"});
}

// tests/data/sharded_data_dir was written by the code before the sharded
// engine was retired. Both metrics are sharded, k_base 32 (HRA, default
// seed), 3 shards with 256-item staging. Batch b of a metric with stream
// seed s is 100 + 50 * (b % 3) values Xoshiro256(s + b).NextDouble() * 1e6.
//   "sharded/ckpt" (m0): seed 9100, batches 0-23; checkpoint after batch
//                        15 (LSN 16), batches 16-23 in the WAL tail.
//   "sharded/wal"  (m1): seed 9200, batches 0-9, WAL only.
struct ShardedDirMetric {
  const char* name;
  uint64_t seed;
  size_t batches;
};
constexpr ShardedDirMetric kShardedDirMetrics[] = {{"sharded/ckpt", 9100, 24},
                                                   {"sharded/wal", 9200, 10}};

std::vector<double> ShardedDirBatch(const ShardedDirMetric& metric,
                                    size_t b) {
  util::Xoshiro256 rng(metric.seed + b);
  std::vector<double> values(100 + 50 * (b % 3));
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

std::string CopyShardedDir(const std::string& tag) {
  const std::string dir = MakeTempDir(tag);
  std::filesystem::copy(REQSKETCH_TEST_DATA_DIR "/sharded_data_dir", dir,
                        std::filesystem::copy_options::recursive);
  return dir;
}

std::vector<uint8_t> BootedSnapshot(const std::string& dir,
                                    const char* name) {
  DurabilityManager manager(dir, TestDurabilityOptions());
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  auto engine = registry.Require(name);
  EXPECT_EQ(engine->kind(), EngineKind::kPlain) << name;
  return engine->Snapshot();
}

TEST(Durability, ShardedDataDirBootsAsPlainMetrics) {
  const std::string dir = CopyShardedDir("sharded_boot");
  std::vector<double> probes;
  for (int i = 1; i < 100; ++i) probes.push_back(i * 1e4);
  // reqbench's Theorem-1 allowance: 4 standard errors of the relative
  // rank error, measured from the top (HRA).
  const double eps = 4 * params::RelativeStdErr(32);
  std::vector<std::vector<uint8_t>> booted;
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    service::ReqdServer server(&registry);
    server.Start();
    service::ReqClient client;
    client.Connect("127.0.0.1", server.port());
    for (const ShardedDirMetric& metric : kShardedDirMetrics) {
      std::vector<double> stream;
      for (size_t b = 0; b < metric.batches; ++b) {
        const std::vector<double> batch = ShardedDirBatch(metric, b);
        stream.insert(stream.end(), batch.begin(), batch.end());
      }
      EXPECT_EQ(client.Flush(metric.name), stream.size()) << metric.name;
      booted.push_back(client.Snapshot(metric.name));
      EXPECT_EQ(service::SnapshotBlobKind(booted.back()), EngineKind::kPlain)
          << metric.name;
      std::sort(stream.begin(), stream.end());
      const double n = static_cast<double>(stream.size());
      const std::vector<uint64_t> ranks = client.GetRanks(metric.name, probes);
      ASSERT_EQ(ranks.size(), probes.size());
      for (size_t i = 0; i < probes.size(); ++i) {
        const double exact = static_cast<double>(
            std::upper_bound(stream.begin(), stream.end(), probes[i]) -
            stream.begin());
        EXPECT_LE(std::fabs(static_cast<double>(ranks[i]) - exact),
                  eps * (n - exact) + 1)
            << metric.name << " rank of " << probes[i];
      }
    }
    server.Stop();
  }
  // Until a converted metric's first plain checkpoint, every boot converts
  // it again (a crash there is an ordinary restart), so the conversion
  // must be deterministic: a second copy boots to the same bytes.
  const std::string twin = CopyShardedDir("sharded_twin");
  for (size_t m = 0; m < booted.size(); ++m) {
    EXPECT_EQ(BootedSnapshot(twin, kShardedDirMetrics[m].name), booted[m])
        << kShardedDirMetrics[m].name;
  }
  // One more append and a checkpoint: the next boot reads a plain slot
  // and answers bit-identically.
  std::vector<std::vector<uint8_t>> checkpointed;
  std::vector<std::vector<uint64_t>> ranks;
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    for (size_t m = 0; m < booted.size(); ++m) {
      const ShardedDirMetric& metric = kShardedDirMetrics[m];
      auto engine = registry.Require(metric.name);
      EXPECT_EQ(engine->Snapshot(), booted[m]) << metric.name;
      const std::vector<double> batch =
          ShardedDirBatch(metric, metric.batches);
      engine->Append(batch.data(), batch.size());
      engine->ForceCheckpoint();
      checkpointed.push_back(engine->Snapshot());
      ranks.push_back(engine->GetRanks(probes, Criterion::kInclusive));
    }
  }
  // The manifest records both metrics as plain.
  const auto manifest =
      ReadSegmentFile(dir + "/manifest.log", kManifestMagic);
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->records.size(), booted.size());
  for (const std::vector<uint8_t>& record : manifest->records) {
    const service::Request request = service::ParseRequest(
        std::vector<uint8_t>(record.begin() + 8, record.end()));
    EXPECT_EQ(request.op, service::Opcode::kCreate);
    EXPECT_EQ(request.spec.kind, EngineKind::kPlain) << request.metric;
    EXPECT_EQ(request.spec.base.k_base, 32u) << request.metric;
  }
  DurabilityManager manager(dir, TestDurabilityOptions());
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  for (size_t m = 0; m < booted.size(); ++m) {
    auto engine = registry.Require(kShardedDirMetrics[m].name);
    EXPECT_EQ(engine->Snapshot(), checkpointed[m]);
    EXPECT_EQ(engine->GetRanks(probes, Criterion::kInclusive), ranks[m]);
  }
}

// --- the upgrade path for legacy data dirs ----------------------------------

// Boots `dir` and shuts it down as reqd does on SIGTERM: drain the server,
// then checkpoint every resident metric. Returns the snapshot of each
// metric it checkpointed.
std::map<std::string, std::vector<uint8_t>> BootAndShutDown(
    const std::string& dir) {
  DurabilityManager manager(dir, TestDurabilityOptions());
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  service::ReqdServer server(&registry);
  server.Start();
  server.Drain(/*timeout_ms=*/5000);
  std::map<std::string, std::vector<uint8_t>> snapshots;
  for (const std::string& name : registry.List()) {
    if (!registry.IsResident(name)) continue;
    if (SketchRegistry::EnginePtr engine = registry.Find(name)) {
      snapshots[name] = engine->Snapshot();
      engine->ForceCheckpoint();
    }
  }
  return snapshots;
}

// The engine kind of the blob a checkpoint slot holds; the slot must be a
// whole checkpoint in format v2.
EngineKind SlotBlobKind(const std::string& path) {
  const auto header = ReadFileBytes(path, kCheckpointHeaderBytes);
  EXPECT_TRUE(header && header->size() == kCheckpointHeaderBytes) << path;
  uint32_t magic = 0, version = 0;
  if (header && header->size() == kCheckpointHeaderBytes) {
    std::memcpy(&magic, header->data(), 4);
    std::memcpy(&version, header->data() + 4, 4);
  }
  EXPECT_EQ(magic, kCheckpointMagic) << path;
  EXPECT_EQ(version, kCheckpointFormatVersion) << path;
  const auto contents = ReadCheckpointFile(path);
  EXPECT_TRUE(contents.has_value()) << path;
  if (!contents) return EngineKind::kSharded;
  return service::SnapshotBlobKind(contents->blob);
}

// The support window for legacy data dirs (README "Durability &
// recovery"): a pre-fixed-layout or sharded data dir is upgraded by
// booting it and shutting it down twice. One shutdown is not enough for
// the sharded dir: its new plain checkpoint goes to the other slot, and
// m0's older slot keeps the sharded blob until the second checkpoint
// overwrites it.
TEST(Durability, LegacyDataDirsUpgradeInTwoShutdowns) {
  const std::set<std::string> current_files = {
      kWalFileName, kSlotFileNames[0], kSlotFileNames[1]};
  for (const char* legacy : {"old_layout_data_dir", "sharded_data_dir"}) {
    SCOPED_TRACE(legacy);
    const std::string dir = MakeTempDir(std::string("upgrade_") + legacy);
    std::filesystem::copy(std::string(REQSKETCH_TEST_DATA_DIR "/") + legacy,
                          dir, std::filesystem::copy_options::recursive);
    const auto first = BootAndShutDown(dir);
    ASSERT_FALSE(first.empty());
    if (std::string(legacy) == "sharded_data_dir") {
      EXPECT_EQ(SlotBlobKind(dir + "/m0/" + kSlotFileNames[0]),
                EngineKind::kSharded);
    }
    // Nothing acknowledged is lost on the way.
    EXPECT_EQ(BootAndShutDown(dir), first);

    size_t metric_dirs = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (!entry.is_directory()) continue;
      ++metric_dirs;
      const std::string metric_dir = entry.path().string();
      EXPECT_EQ(DirNames(metric_dir), current_files) << metric_dir;
      for (const char* slot : kSlotFileNames) {
        EXPECT_EQ(SlotBlobKind(metric_dir + "/" + slot), EngineKind::kPlain)
            << metric_dir << "/" << slot;
      }
    }
    EXPECT_EQ(metric_dirs, first.size());
  }
}

TEST(Durability, MetricNamesWithSlashesGetSafeDirectories) {
  const std::string dir = MakeTempDir("slashes");
  const std::vector<double> batch = {1.5, 2.5};
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    registry.Create("a/b/../c", SpecOf(EngineKind::kPlain));
    registry.Require("a/b/../c")->Append(batch.data(), batch.size());
  }
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    EXPECT_EQ(registry.Require("a/b/../c")->AcceptedN(), 2u);
  }
  // Nothing escaped the data dir (the metric dir is id-based).
  EXPECT_FALSE(std::filesystem::exists(dir + "/a"));
}

}  // namespace
}  // namespace persist
}  // namespace req
