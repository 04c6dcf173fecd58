// Fault-injection tests for the durability layer: injected short (torn)
// writes, outright write failures, and fsync failures at every I/O
// operation of a scripted workload. The invariant under test is the WAL
// contract: after ANY crash point, recovery restores a state that
// contains every acknowledged batch (it may contain a logged-but-unacked
// suffix), bit-identical to a reference engine fed the same prefix.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "persist/durability.h"
#include "persist/io_injector.h"
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
  const std::string dir = ::testing::TempDir() + "req_fault_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

MetricSpec PlainSpec() {
  MetricSpec spec;
  spec.kind = EngineKind::kPlain;
  spec.base.k_base = 32;
  return spec;
}

// Deterministic batch b of metric m (the sweep's replay oracle).
std::vector<double> ScriptBatch(size_t metric, size_t batch) {
  util::Xoshiro256 rng(1000 * metric + batch);
  std::vector<double> values(50);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

// --- FileWriter through the injector ---------------------------------------

TEST(FaultInjection, WriteFailureTripsAndStaysTripped) {
  const std::string dir = MakeTempDir("trip");
  FaultInjector injector;
  injector.Reset();
  injector.FailAfterOps(2);
  FileWriter file(dir + "/f", /*append=*/true, &injector);
  const uint8_t bytes[16] = {};
  file.Write(bytes, sizeof(bytes));
  file.Write(bytes, sizeof(bytes));
  EXPECT_THROW(file.Write(bytes, sizeof(bytes)), IoError);
  EXPECT_THROW(file.Write(bytes, sizeof(bytes)), IoError);  // stays dead
  EXPECT_THROW(file.Truncate(0), IoError);
  EXPECT_EQ(std::filesystem::file_size(dir + "/f"), 32u);
}

TEST(FaultInjection, TornWritePersistsStrictPrefix) {
  const std::string dir = MakeTempDir("torn");
  FaultInjector injector;
  injector.Reset();
  injector.FailAfterOps(0, /*torn_write=*/true);
  FileWriter file(dir + "/f", /*append=*/true, &injector);
  const uint8_t bytes[16] = {};
  EXPECT_THROW(file.Write(bytes, sizeof(bytes)), IoError);
  EXPECT_EQ(std::filesystem::file_size(dir + "/f"), 8u);  // half landed
}

// --- MetricLog poisoning ----------------------------------------------------

TEST(FaultInjection, PoisonedLogRefusesAppendsUntilRotation) {
  const std::string dir = MakeTempDir("poison");
  FaultInjector injector;
  injector.Reset();
  MetricLogOptions options;
  options.fsync = FsyncPolicy::kNever;
  options.io = &injector;
  MetricLog log(dir, "m", {}, options);
  const std::vector<double> batch = {1.0, 2.0, 3.0};
  ASSERT_EQ(log.AppendBatch(batch.data(), batch.size()), 0u);

  // Tear the next record's write: the batch is NOT logged (no LSN), and
  // the WAL is poisoned -- appending past the tear would strand any
  // later acknowledged record beyond recovery's reach.
  injector.FailAfterOps(injector.ops(), /*torn_write=*/true);
  EXPECT_THROW(log.AppendBatch(batch.data(), batch.size()), IoError);
  injector.Reset();
  EXPECT_THROW(log.AppendBatch(batch.data(), batch.size()), IoError);
  EXPECT_EQ(log.next_lsn(), 1u);

  // Recovery of the poisoned dir sees exactly the pre-fault prefix.
  EXPECT_EQ(ReadMetricState(dir, "m").batches.size(), 1u);

  // A checkpoint resets the WAL past the torn bytes and clears the
  // poison.
  log.WriteCheckpoint(log.next_lsn(), 3, {7, 7});
  ASSERT_EQ(log.AppendBatch(batch.data(), batch.size()), 1u);
  const RecoveredMetricState state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.snapshot_lsn, 1u);
  EXPECT_EQ(state.batches.size(), 1u);
  EXPECT_EQ(state.next_lsn, 2u);
}

TEST(FaultInjection, FsyncFailureSurfacesAsIoErrorBeforeAck) {
  const std::string dir = MakeTempDir("fsync");
  FaultInjector injector;
  injector.Reset();
  MetricLogOptions options;
  options.fsync = FsyncPolicy::kAlways;
  options.io = &injector;
  MetricLog log(dir, "m", {}, options);
  const std::vector<double> batch = {4.0, 5.0};
  ASSERT_EQ(log.AppendBatch(batch.data(), batch.size()), 0u);
  injector.FailFsyncs(true);
  EXPECT_THROW(log.AppendBatch(batch.data(), batch.size()), IoError);
  // The record reached the file but was never acknowledged; recovery
  // resurrecting it is the allowed direction (recovered >= acked).
  injector.FailFsyncs(false);
  EXPECT_GE(ReadMetricState(dir, "m").batches.size(), 1u);
}

// --- engine-level semantics -------------------------------------------------

TEST(FaultInjection, EngineAppendFailureAcknowledgesNothing) {
  const std::string dir = MakeTempDir("engine");
  FaultInjector injector;
  injector.Reset();
  DurabilityOptions options;
  options.fsync = FsyncPolicy::kNever;
  options.io = &injector;
  DurabilityManager manager(dir, options);
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  auto engine = registry.Create("m", PlainSpec());

  const std::vector<double> batch = ScriptBatch(0, 0);
  engine->Append(batch.data(), batch.size());
  const uint64_t acked = engine->AcceptedN();

  injector.FailAfterOps(injector.ops());
  EXPECT_THROW(engine->Append(batch.data(), batch.size()), IoError);
  EXPECT_EQ(engine->AcceptedN(), acked) << "failed append must not ack";
  // Queries keep working on the already-acknowledged state.
  EXPECT_NO_THROW(engine->GetQuantiles({0.5}, Criterion::kInclusive));

  // Clearing the fault and checkpointing (WAL reset) restores the append
  // path. A server checkpoints only after an APPEND that applied, so its
  // poisoned WAL waits for an idle eviction's checkpoint or a restart.
  injector.Reset();
  engine->ForceCheckpoint();
  engine->Append(batch.data(), batch.size());
  EXPECT_EQ(engine->AcceptedN(), acked + batch.size());
}

// --- rehydration stays off the manager's mutex ------------------------------

// Holds the first truncate after Arm() until Release(): a disk that stalls
// in the middle of one metric's I/O.
class StallingTruncateInjector : public IoInjector {
 public:
  void Arm() { armed_.store(true); }

  bool WaitStalled() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [this] { return stalled_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

  void BeforeTruncate() override {
    if (!armed_.exchange(false)) return;
    std::unique_lock<std::mutex> lock(mutex_);
    stalled_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }

 private:
  std::atomic<bool> armed_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stalled_ = false;
  bool released_ = false;
};

TEST(FaultInjection, CreateCompletesWhileARehydrationStallsOnDisk) {
  const std::string dir = MakeTempDir("rehydrate");
  StallingTruncateInjector injector;
  DurabilityOptions options;
  options.fsync = FsyncPolicy::kNever;
  options.io = &injector;
  DurabilityManager manager(dir, options);
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  const std::vector<double> batch = ScriptBatch(0, 0);
  registry.Create("slow", PlainSpec())->Append(batch.data(), batch.size());
  ASSERT_EQ(registry.EvictIdle(0).evicted, 1u);

  // Garbage after the eviction checkpoint's bare WAL header (the first
  // CREATE in a fresh dir gets directory m0): the rehydration's WAL
  // reopen cuts it, and the injector stalls that truncate.
  {
    std::ofstream wal(dir + "/m0/" + kWalFileName,
                      std::ios::binary | std::ios::app);
    ASSERT_TRUE(wal.good());
    wal << "garbage";
  }
  injector.Arm();
  auto rehydrated = std::async(std::launch::async, [&registry] {
    return registry.Require("slow")->AcceptedN();
  });
  ASSERT_TRUE(injector.WaitStalled());

  auto created = std::async(std::launch::async, [&registry] {
    registry.Create("other", PlainSpec());
  });
  const bool created_meanwhile =
      created.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  injector.Release();
  created.get();
  EXPECT_TRUE(created_meanwhile)
      << "CREATE waited for another metric's rehydration I/O";
  EXPECT_EQ(rehydrated.get(), batch.size());
  EXPECT_EQ(registry.Require("slow")->AcceptedN(), batch.size());
}

// --- crash-point sweep ------------------------------------------------------

// Runs the scripted workload against a fresh data dir, with `injector`
// (nullable) wired through the whole stack. Individual IoErrors are
// swallowed the way a serving daemon swallows them (error response, keep
// serving); `acked` records per-metric acknowledged item counts.
void RunScript(const std::string& dir, FaultInjector* injector,
               std::map<std::string, uint64_t>* acked) {
  DurabilityOptions options;
  options.fsync = FsyncPolicy::kAlways;  // exercise fsync crash points
  options.io = injector;
  SketchRegistry registry;
  std::unique_ptr<DurabilityManager> manager;
  try {
    manager = std::make_unique<DurabilityManager>(dir, options);
    manager->RecoverInto(&registry);
  } catch (const IoError&) {
    return;  // crashed before the directory even opened
  }
  const std::vector<std::string> names = {"sweep/a", "sweep/b"};
  for (const std::string& name : names) {
    try {
      registry.Create(name, PlainSpec());
    } catch (const IoError&) {
    }
  }
  for (size_t round = 0; round < 6; ++round) {
    for (size_t m = 0; m < names.size(); ++m) {
      auto engine = registry.Find(names[m]);
      if (!engine) continue;
      const std::vector<double> batch = ScriptBatch(m, round);
      try {
        engine->Append(batch.data(), batch.size());
        (*acked)[names[m]] += batch.size();
      } catch (const IoError&) {
      }
    }
    // Three checkpoints: slot 0, slot 1, then slot 0 overwritten in place.
    if (round % 2 == 1) {
      for (const std::string& name : names) {
        auto engine = registry.Find(name);
        if (!engine) continue;
        try {
          engine->ForceCheckpoint();
        } catch (const IoError&) {
        }
      }
    }
  }
}

size_t MetricIndex(const std::string& name) {
  return name == "sweep/a" ? 0 : 1;
}

// Checks every metric in `expected` against a recovered registry: at
// least the expected items, on a batch boundary, and bit-identical to a
// reference engine fed the recovered prefix.
void ExpectRecovered(SketchRegistry* recovered,
                     const std::map<std::string, uint64_t>& expected,
                     const std::string& crash) {
  for (const auto& [name, n] : expected) {
    auto engine = recovered->Find(name);
    ASSERT_NE(engine, nullptr)
        << "metric " << name << " acked " << n
        << " items but vanished (" << crash << ")";
    const uint64_t recovered_n = engine->AcceptedN();
    EXPECT_GE(recovered_n, n) << "lost acked items at " << crash;
    EXPECT_EQ(recovered_n % 50, 0u) << "partial batch at " << crash;

    SketchRegistry reference;
    auto ref_engine = reference.Create(name, PlainSpec());
    for (size_t b = 0; b < recovered_n / 50; ++b) {
      const std::vector<double> batch = ScriptBatch(MetricIndex(name), b);
      ref_engine->Append(batch.data(), batch.size());
    }
    EXPECT_EQ(engine->Snapshot(), ref_engine->Snapshot())
        << "state diverged at " << crash << " for " << name;
  }
}

TEST(FaultInjection, CrashPointSweepPreservesAckedPrefix) {
  // Dry run: count the script's total I/O operations.
  FaultInjector counter;
  counter.Reset();
  uint64_t total_ops = 0;
  {
    const std::string dir = MakeTempDir("sweep_dry");
    std::map<std::string, uint64_t> acked;
    RunScript(dir, &counter, &acked);
    total_ops = counter.ops();
    ASSERT_GT(total_ops, 20u);
    std::filesystem::remove_all(dir);
  }

  // Recovery runs on healthy I/O (the next boot's disk works).
  DurabilityOptions healthy;
  healthy.fsync = FsyncPolicy::kNever;
  // Sweep every crash point, each as a clean failure and as a torn write
  // (a torn write only differs where op k is a write).
  for (uint64_t run = 0; run < 2 * total_ops; ++run) {
    const uint64_t k = run / 2;
    const std::string dir = MakeTempDir("sweep_run" + std::to_string(run));
    FaultInjector injector;
    injector.Reset();
    injector.FailAfterOps(k, /*torn_write=*/(run % 2) == 1);
    std::map<std::string, uint64_t> acked;
    RunScript(dir, &injector, &acked);
    const std::string crash = "crash point " + std::to_string(k) +
                              (run % 2 == 1 ? " (torn write)" : "");

    // Recover, then append one more batch to each metric through the
    // reopened WAL and recover again: a reopen that appended after torn
    // bytes would leave that batch where no recovery reaches it.
    std::map<std::string, uint64_t> appended;
    {
      DurabilityManager manager(dir, healthy);
      SketchRegistry recovered;
      manager.RecoverInto(&recovered);
      ExpectRecovered(&recovered, acked, crash);
      for (const auto& [name, n] : acked) {
        auto engine = recovered.Find(name);
        if (!engine) continue;
        const uint64_t have = engine->AcceptedN();
        const std::vector<double> batch =
            ScriptBatch(MetricIndex(name), have / 50);
        engine->Append(batch.data(), batch.size());
        appended[name] = have + batch.size();
      }
    }
    {
      DurabilityManager manager(dir, healthy);
      SketchRegistry recovered;
      manager.RecoverInto(&recovered);
      ExpectRecovered(&recovered, appended, crash);
    }
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace persist
}  // namespace req
