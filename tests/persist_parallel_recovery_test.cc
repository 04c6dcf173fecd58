// Boot recovery on every core: DurabilityManager::RecoverInto rebuilds
// the manifest-live metrics on up to one thread per core, each thread
// claiming the next metric in name order. The result must not depend on
// how the metrics fell to the threads:
//   * every recovered engine is bit-identical to an in-process reference
//     fed the same batches, for plain and windowed metrics in each state
//     a data dir can hold them in (checkpoint plus WAL tail, tail only,
//     never appended, torn tail), and LIST, size() and every AcceptedN()
//     agree;
//   * the registry charges what the recovered engines hold, WAL replay
//     included;
//   * a failure surfaces as the error of the lowest-named failing metric,
//     the one a serial pass over the metrics would stop at, every time.
// CI runs this suite under ThreadSanitizer and repeats it in Release.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "persist/durability.h"
#include "persist/log_file.h"
#include "service/sketch_registry.h"
#include "service/wire_protocol.h"
#include "util/random.h"

namespace req {
namespace persist {
namespace {

using service::EngineKind;
using service::MetricSpec;
using service::SketchRegistry;

std::string MakeTempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "req_parallel_" + tag +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

DurabilityOptions TestOptions() {
  DurabilityOptions options;
  options.fsync = FsyncPolicy::kNever;
  // Checkpoints land only where a test forces them.
  options.checkpoint_bytes = uint64_t{1} << 40;
  return options;
}

MetricSpec SpecOf(EngineKind kind) {
  MetricSpec spec;
  spec.kind = kind;
  spec.base.k_base = 32;
  spec.num_buckets = 4;
  spec.bucket_items = 300;  // replay rotates the windows
  return spec;
}

std::vector<double> TestBatch(uint64_t seed, size_t count) {
  util::Xoshiro256 rng(seed);
  std::vector<double> values(count);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

std::string MetricName(const char* prefix, size_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "%s/%03zu", prefix, i);
  return name;
}

// The directory of the i-th metric a fresh data dir created.
std::string MetricDir(const std::string& dir, size_t i) {
  return dir + "/m" + std::to_string(i);
}

size_t ExpectedThreads(size_t metrics) {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::max<size_t>(1, std::min(cores, metrics));
}

// Appends a CRC-valid record that is not an APPEND to the metric's WAL,
// right after its last record, where recovery parses it.
void AppendDropRecord(const std::string& metric_dir,
                      const std::string& name) {
  service::Request request;
  request.op = service::Opcode::kDrop;
  request.metric = name;
  FileWriter wal(metric_dir + "/" + kWalFileName, /*append=*/true, nullptr);
  AppendRecord(&wal, service::EncodeRequest(request));
}

uint64_t SumOfFootprints(SketchRegistry* registry) {
  uint64_t sum = 0;
  for (const std::string& name : registry->List()) {
    sum += registry->Require(name)->MemoryFootprint();
  }
  return sum;
}

// What a data dir holds for one metric at the crash.
enum class State { kCheckpointAndTail, kTailOnly, kNeverAppended, kTornTail };

TEST(ParallelRecovery, MatchesInProcessReferencesForEveryMetricState) {
  const std::string dir = MakeTempDir("states");
  constexpr size_t kMetrics = 72;
  std::vector<std::string> names;
  SketchRegistry reference;  // memory-only twins fed what must recover
  {
    DurabilityManager manager(dir, TestOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    for (size_t i = 0; i < kMetrics; ++i) {
      const std::string name = MetricName("rec", i);
      const MetricSpec spec =
          SpecOf(i % 2 == 0 ? EngineKind::kPlain : EngineKind::kWindowed);
      const State state = static_cast<State>((i / 2) % 4);
      names.push_back(name);
      auto engine = registry.Create(name, spec);
      auto twin = reference.Create(name, spec);
      const size_t batches =
          state == State::kNeverAppended ? 0 : 3 + (i * 7) % 5;
      for (size_t b = 0; b < batches; ++b) {
        const std::vector<double> batch =
            TestBatch(1000 * i + b, 97 + 13 * ((i + b) % 7));
        engine->Append(batch.data(), batch.size());
        // A torn tail loses the last record; it was never acknowledged.
        if (state != State::kTornTail || b + 1 < batches) {
          twin->Append(batch.data(), batch.size());
        }
        if (state == State::kCheckpointAndTail && b == batches / 2) {
          engine->ForceCheckpoint();
        }
      }
    }
    // No shutdown checkpoint: the registry and manager just go away.
  }
  for (size_t i = 0; i < kMetrics; ++i) {
    if (static_cast<State>((i / 2) % 4) != State::kTornTail) continue;
    const std::string wal = MetricDir(dir, i) + "/" + kWalFileName;
    std::filesystem::resize_file(wal, std::filesystem::file_size(wal) - 5);
  }

  // Recover, append one more batch everywhere through the reopened WALs,
  // and recover again: a torn tail must have been cut before the append.
  for (int boot = 0; boot < 2; ++boot) {
    DurabilityManager manager(dir, TestOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    EXPECT_EQ(manager.recovery_threads(), ExpectedThreads(kMetrics));
    ASSERT_EQ(registry.size(), kMetrics);
    EXPECT_EQ(registry.List(), names);
    for (size_t i = 0; i < kMetrics; ++i) {
      auto engine = registry.Require(names[i]);
      auto twin = reference.Require(names[i]);
      EXPECT_EQ(engine->AcceptedN(), twin->AcceptedN())
          << names[i] << " boot " << boot;
      EXPECT_EQ(engine->Snapshot(), twin->Snapshot())
          << names[i] << " boot " << boot;
    }
    EXPECT_EQ(registry.AccountedMemoryBytes(), SumOfFootprints(&registry));
    if (boot == 0) {
      for (size_t i = 0; i < kMetrics; ++i) {
        const std::vector<double> batch = TestBatch(777 + i, 64);
        registry.Require(names[i])->Append(batch.data(), batch.size());
        reference.Require(names[i])->Append(batch.data(), batch.size());
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ParallelRecovery, ChargesWhatTheReplayedEnginesHold) {
  // A WAL tail grows each engine past its checkpoint. The charge must
  // include it: otherwise a memory quota admits what the tails hold.
  const std::string dir = MakeTempDir("charge");
  {
    DurabilityManager manager(dir, TestOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    for (size_t i = 0; i < 16; ++i) {
      auto engine = registry.Create(
          MetricName("mem", i),
          SpecOf(i % 4 == 3 ? EngineKind::kWindowed : EngineKind::kPlain));
      for (size_t b = 0; b < 12; ++b) {
        const std::vector<double> batch = TestBatch(50 * i + b, 512);
        engine->Append(batch.data(), batch.size());
        // Half the metrics checkpoint early; the rest replay it all.
        if (i % 2 == 0 && b == 1) engine->ForceCheckpoint();
      }
    }
  }
  DurabilityManager manager(dir, TestOptions());
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  ASSERT_EQ(registry.size(), 16u);
  EXPECT_EQ(registry.AccountedMemoryBytes(), SumOfFootprints(&registry));
  std::filesystem::remove_all(dir);
}

TEST(ParallelRecovery, ThrowsTheLowestNamedFailureEveryTime) {
  // Two metrics hold a CRC-valid record that is not an APPEND. The
  // lower-named one sits behind a long WAL tail and the higher-named one
  // behind a short one, so the higher one usually fails first in time;
  // the error must still be the lower one's, as a serial pass finds it.
  const std::string dir = MakeTempDir("errors");
  constexpr size_t kMetrics = 32;
  constexpr size_t kLow = 9;
  constexpr size_t kHigh = 21;
  {
    DurabilityManager manager(dir, TestOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    for (size_t i = 0; i < kMetrics; ++i) {
      auto engine =
          registry.Create(MetricName("err", i), SpecOf(EngineKind::kPlain));
      const size_t batches = i == kLow ? 400 : 4;
      for (size_t b = 0; b < batches; ++b) {
        const std::vector<double> batch = TestBatch(100 * i + b, 64);
        engine->Append(batch.data(), batch.size());
      }
    }
  }
  AppendDropRecord(MetricDir(dir, kLow), MetricName("err", kLow));
  AppendDropRecord(MetricDir(dir, kHigh), MetricName("err", kHigh));

  for (int rep = 0; rep < 20; ++rep) {
    DurabilityManager manager(dir, TestOptions());
    SketchRegistry registry;
    try {
      manager.RecoverInto(&registry);
      ADD_FAILURE() << "recovery accepted a non-APPEND WAL record";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + MetricName("err", kLow) + "'"),
                std::string::npos)
          << "rep " << rep << ": " << what;
      EXPECT_NE(what.find(MetricDir(dir, kLow) + " "), std::string::npos)
          << "rep " << rep << ": " << what;
      EXPECT_EQ(what.find(MetricName("err", kHigh)), std::string::npos)
          << "rep " << rep << ": " << what;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ParallelRecovery, StartsNoThreadForZeroOrOneMetric) {
  const std::string dir = MakeTempDir("single");
  {
    DurabilityManager manager(dir, TestOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    EXPECT_EQ(manager.recovery_threads(), 1u);
    const std::vector<double> batch = TestBatch(5, 100);
    registry.Create("only", SpecOf(EngineKind::kPlain))
        ->Append(batch.data(), batch.size());
  }
  DurabilityManager manager(dir, TestOptions());
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  EXPECT_EQ(manager.recovery_threads(), 1u);
  EXPECT_EQ(registry.Require("only")->AcceptedN(), 100u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace persist
}  // namespace req
