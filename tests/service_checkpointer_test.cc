// The background checkpointer of service/reqd_server.h, end to end over
// loopback: an APPEND that carries its metric's WAL past checkpoint_bytes
// acks at once and its checkpoint lands on the server's one checkpointer
// thread; a checkpoint that fails is counted and never turns an applied
// APPEND into an error; a checkpointer held back cannot let a metric's WAL
// grow past twice the threshold; an APPEND refused by a poisoned WAL
// queues the checkpoint that heals it; a memory-only server never starts
// the thread, and Stop() leaves no thread or queued engine handle behind.
//
// Tests that need a checkpoint to have happened wait on the kStats
// counter "checkpoints" rather than assume it ran on the request path.
// The engine-level race between a checkpoint and an idle eviction runs
// here too (under ThreadSanitizer in CI).
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "persist/durability.h"
#include "persist/io_injector.h"
#include "persist/metric_log.h"
#include "service/req_client.h"
#include "service/reqd_server.h"
#include "service/sketch_registry.h"
#include "util/random.h"

namespace req {
namespace service {
namespace {

using persist::DurabilityManager;
using persist::DurabilityOptions;
using persist::FaultInjector;
using persist::FsyncPolicy;

constexpr uint64_t kCheckpointBytes = 16 << 10;
constexpr size_t kBatch = 64;
constexpr uint64_t kWalHeaderBytes = 16;

// A fresh data dir, removed again when the test ends.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path(::testing::TempDir() + "req_checkpointer_" + tag + "_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  const std::string path;
};

std::vector<double> Batch(uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> values(kBatch);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

MetricSpec PlainSpec() {
  MetricSpec spec;
  spec.kind = EngineKind::kPlain;
  spec.base.k_base = 16;
  return spec;
}

DurabilityOptions Options(persist::IoInjector* io) {
  DurabilityOptions options;
  options.fsync = FsyncPolicy::kNever;  // checkpoints still fsync
  options.checkpoint_bytes = kCheckpointBytes;
  options.io = io;
  return options;
}

ReqdServerConfig OneWorker() {
  ReqdServerConfig config;
  config.workers = 1;
  return config;
}

// "Threads:" from /proc/self/status (0 where unavailable).
size_t ThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t count = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      count = std::strtoul(line + 8, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return count;
}

// ThreadCount() once no thread is still exiting: the count can include a
// thread for a moment after its join returned. 0 where unavailable.
size_t SettledThreadCount() {
  size_t last = ThreadCount();
  for (int i = 0; i < 500; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const size_t now = ThreadCount();
    if (now == last) return now;
    last = now;
  }
  return last;
}

// Polls ThreadCount() until it reads `want`; false after 5 s.
bool WaitForThreadCount(size_t want) {
  for (int i = 0; i < 500; ++i) {
    if (ThreadCount() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st = {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

std::string WalPath(const std::string& data_dir, int metric_id) {
  return data_dir + "/m" + std::to_string(metric_id) + "/" +
         persist::kWalFileName;
}

uint64_t Stat(ReqClient* client, const std::string& name) {
  for (const auto& [key, value] : client->Stats()) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "kStats has no counter " << name;
  return 0;
}

// Polls kStats until `name` reaches `want`; false after 20 s.
bool WaitForStat(ReqClient* client, const std::string& name, uint64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (Stat(client, name) >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// Appends to a metric whose WAL holds no record, stopping one batch short
// of checkpoint_bytes: every batch encodes to a record of the same size,
// so the next APPEND crosses. The WAL only grows until then, so reading
// its size races no checkpoint. Returns the count the last APPEND acked.
uint64_t AppendBelowThreshold(ReqClient* client, const std::string& metric,
                              const std::string& wal, uint64_t* seed) {
  EXPECT_EQ(FileBytes(wal), kWalHeaderBytes);
  uint64_t acked = client->Append(metric, Batch((*seed)++));
  const uint64_t record = FileBytes(wal) - kWalHeaderBytes;
  for (uint64_t logged = record; logged + record < kCheckpointBytes;
       logged += record) {
    acked = client->Append(metric, Batch((*seed)++));
  }
  return acked;
}

// AppendBelowThreshold, then the APPEND that crosses; returns its count.
uint64_t AppendPastThreshold(ReqClient* client, const std::string& metric,
                             const std::string& wal, uint64_t* seed) {
  AppendBelowThreshold(client, metric, wal, seed);
  return client->Append(metric, Batch((*seed)++));
}

// Recovers `data_dir` in a fresh registry and returns the metric's
// accepted count.
uint64_t RecoveredCount(const std::string& data_dir,
                        const std::string& metric) {
  DurabilityManager manager(data_dir, Options(nullptr));
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  return registry.Require(metric)->AcceptedN();
}

// Blocks the first fsync after Arm() until Release(). A checkpoint
// fsyncs its slot while it holds its metric's append mutex, so this holds
// the checkpointer inside one checkpoint; later fsyncs pass.
class FsyncGate : public persist::IoInjector {
 public:
  void Arm() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
  }

  void BeforeFsync() override {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!armed_) return;
    armed_ = false;
    blocked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }

  bool WaitBlocked() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(20),
                        [this] { return blocked_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool blocked_ = false;
  bool released_ = false;
};

// Releases the gate when a test leaves its scope, early exits included:
// declared after the server, it runs before the server's Stop() joins a
// checkpointer the gate still holds.
struct ReleaseOnExit {
  FsyncGate* gate;
  ~ReleaseOnExit() { gate->Release(); }
};

// --- the race the checkpointer makes routine -----------------------------

TEST(CheckpointRace, ForceCheckpointAgainstRetireForEviction) {
  // The checkpointer holds engine handles that an idle eviction may
  // retire at any moment. Each checkpoint entry point must read the WAL
  // handle under the append mutex that RetireForEviction releases it
  // under: then a checkpoint either lands before the retirement or finds
  // no WAL, and never touches a released log.
  const ScratchDir scratch("race");
  const std::string& dir = scratch.path;
  DurabilityManager manager(dir, Options(nullptr));
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  const std::vector<double> batch = Batch(1);
  for (int round = 0; round < 8; ++round) {
    SketchRegistry::EnginePtr engine =
        registry.Create("race/" + std::to_string(round), PlainSpec());
    engine->Append(batch.data(), batch.size());
    std::atomic<bool> go{false};
    std::thread checkpointer([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      // A few checkpoints, so that some land after the retirement; each
      // fsyncs, so a longer run only slows the test.
      for (int i = 0; i < 3 && engine->ForceCheckpoint(); ++i) {
        (void)engine->WalThresholdsPassed();
        std::this_thread::yield();
      }
    });
    std::thread evictor([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      engine->RetireForEviction();
    });
    go.store(true, std::memory_order_release);
    checkpointer.join();
    evictor.join();
    EXPECT_TRUE(engine->Retired());
    EXPECT_FALSE(engine->ForceCheckpoint()) << "a retired engine has no WAL";
    EXPECT_EQ(engine->WalThresholdsPassed(), 0);
    EXPECT_THROW(engine->Append(batch.data(), batch.size()), MetricRetired);
  }
}

// --- the checkpointer ------------------------------------------------------

TEST(Checkpointer, ThresholdCrossingCheckpointsInTheBackground) {
  const ScratchDir scratch("background");
  const std::string& dir = scratch.path;
  DurabilityManager manager(dir, Options(nullptr));
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  const size_t threads_before = SettledThreadCount();
  ReqdServer server(&registry, OneWorker());
  server.Start();
  ReqClient client;
  client.Connect("127.0.0.1", server.port());
  client.Create("m", PlainSpec());

  uint64_t seed = 1;
  const uint64_t acked =
      AppendPastThreshold(&client, "m", WalPath(dir, 0), &seed);
  ASSERT_TRUE(WaitForStat(&client, "checkpoints", 1));
  EXPECT_EQ(Stat(&client, "checkpoint_failures"), 0u);
  EXPECT_EQ(server.Checkpoints(), 1u);
  // The checkpoint sat at the WAL position of the last acked APPEND and
  // cut the WAL back to its header: a restart replays nothing.
  EXPECT_EQ(FileBytes(WalPath(dir, 0)), kWalHeaderBytes);
  const persist::RecoveredMetricState state =
      persist::ReadMetricState(dir + "/m0", "m");
  EXPECT_EQ(state.snapshot_accepted_n, acked);
  EXPECT_TRUE(state.batches.empty());
  // One more thread than the reactor's worker and accept threads: the
  // checkpointer, started by the first crossing.
  if (threads_before > 0) {
    EXPECT_TRUE(WaitForThreadCount(threads_before + 3));
  }

  // The next crossing queues the metric again.
  AppendPastThreshold(&client, "m", WalPath(dir, 0), &seed);
  ASSERT_TRUE(WaitForStat(&client, "checkpoints", 2));
  client.Close();
  server.Stop();
  if (threads_before > 0) {
    EXPECT_TRUE(WaitForThreadCount(threads_before));
  }
  EXPECT_EQ(registry.Require("m")->AcceptedN(), RecoveredCount(dir, "m"));
}

TEST(Checkpointer, MemoryOnlyServerStartsNoCheckpointer) {
  SketchRegistry registry;
  const size_t threads_before = SettledThreadCount();
  ReqdServer server(&registry, OneWorker());
  server.Start();
  ReqClient client;
  client.Connect("127.0.0.1", server.port());
  client.Create("m", PlainSpec());
  // Far more than a durable metric would need to cross the threshold.
  for (uint64_t i = 0; i < 4 * kCheckpointBytes / (8 * kBatch); ++i) {
    client.Append("m", Batch(i));
  }
  EXPECT_EQ(Stat(&client, "checkpoints"), 0u);
  EXPECT_EQ(Stat(&client, "checkpoint_failures"), 0u);
  if (threads_before > 0) {
    EXPECT_EQ(ThreadCount(), threads_before + 2);  // worker + accept
  }
  client.Close();
  server.Stop();
}

TEST(Checkpointer, FailedSlotWriteStillAcksTheAppend) {
  // The slot write of the threshold-crossing checkpoint fails. The APPEND
  // was logged and applied before it, so it must answer its accepted
  // count: an error would make a retrying client apply the batch twice.
  const ScratchDir scratch("slot_failure");
  const std::string& dir = scratch.path;
  FaultInjector injector;
  uint64_t acked = 0;
  {
    DurabilityManager manager(dir, Options(&injector));
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    ReqdServer server(&registry, OneWorker());
    server.Start();
    ReqClient client;
    client.Connect("127.0.0.1", server.port());
    client.Create("m", PlainSpec());
    uint64_t seed = 1;
    acked = AppendBelowThreshold(&client, "m", WalPath(dir, 0), &seed);
    // The next APPEND crosses: its WAL write (one op with fsync never)
    // succeeds, and the checkpoint's first op, the slot write, fails.
    injector.FailAfterOps(injector.ops() + 1);
    const std::vector<double> crossing = Batch(seed++);
    EXPECT_EQ(client.Append("m", crossing), acked + crossing.size());
    acked += crossing.size();
    ASSERT_TRUE(WaitForStat(&client, "checkpoint_failures", 1));
    EXPECT_EQ(Stat(&client, "checkpoints"), 0u);
    EXPECT_EQ(Stat(&client, "checkpoint_failures"), 1u);
    EXPECT_EQ(client.Flush("m"), acked);
    client.Close();
    server.Stop();
  }
  EXPECT_EQ(RecoveredCount(dir, "m"), acked);
}

TEST(Checkpointer, FailedCheckpointIsRetriedAtTheNextAppendPastTheThreshold) {
  const ScratchDir scratch("retry");
  const std::string& dir = scratch.path;
  FaultInjector injector;
  uint64_t acked = 0;
  {
    DurabilityManager manager(dir, Options(&injector));
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    ReqdServer server(&registry, OneWorker());
    server.Start();
    ReqClient client;
    client.Connect("127.0.0.1", server.port());
    client.Create("m", PlainSpec());
    const std::string wal = WalPath(dir, 0);
    uint64_t seed = 1;
    AppendBelowThreshold(&client, "m", wal, &seed);
    injector.FailAfterOps(injector.ops() + 1);
    acked = client.Append("m", Batch(seed++));
    ASSERT_TRUE(WaitForStat(&client, "checkpoint_failures", 1));
    // The disk recovers; the WAL was left intact and still holds more
    // than the threshold, so the next APPEND queues the checkpoint again.
    injector.Reset();
    acked = client.Append("m", Batch(seed++));
    ASSERT_TRUE(WaitForStat(&client, "checkpoints", 1));
    EXPECT_EQ(Stat(&client, "checkpoint_failures"), 1u);
    EXPECT_EQ(FileBytes(wal), kWalHeaderBytes);
    client.Close();
    server.Stop();
  }
  const persist::RecoveredMetricState state =
      persist::ReadMetricState(dir + "/m0", "m");
  EXPECT_EQ(state.snapshot_accepted_n, acked);
  EXPECT_TRUE(state.batches.empty());
  EXPECT_EQ(RecoveredCount(dir, "m"), acked);
}

TEST(Checkpointer, PoisonedWalHealsUnderTraffic) {
  // The WAL cut of the metric's first checkpoint fails after its slot is
  // written. That poisons the WAL: the log refuses every append until a
  // checkpoint resets it. Each refused APPEND answers kError and queues
  // the metric for the checkpointer whatever its thresholds, so once the
  // fault clears a checkpoint heals the WAL under steady traffic, with no
  // idle eviction or restart.
  const ScratchDir scratch("poisoned");
  const std::string& dir = scratch.path;
  FaultInjector injector;
  uint64_t acked = 0;
  {
    DurabilityManager manager(dir, Options(&injector));
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    ReqdServer server(&registry, OneWorker());
    server.Start();
    ReqClient client;
    client.Connect("127.0.0.1", server.port());
    client.Create("m", PlainSpec());
    uint64_t seed = 1;
    AppendBelowThreshold(&client, "m", WalPath(dir, 0), &seed);
    // The crossing APPEND's WAL write is one op (fsync never). Its
    // checkpoint then writes, truncates and fsyncs the new slot and
    // fsyncs the directory (four ops), and its next op, the truncate that
    // cuts the WAL, fails. The injector fails every op from there on.
    injector.FailAfterOps(injector.ops() + 5);
    acked = client.Append("m", Batch(seed++));
    ASSERT_TRUE(WaitForStat(&client, "checkpoint_failures", 1));
    EXPECT_EQ(Stat(&client, "checkpoints"), 0u);
    const auto append_fails = [&client, &seed] {
      try {
        client.Append("m", Batch(seed++));
      } catch (const ServiceError& e) {
        EXPECT_EQ(e.status, Status::kError) << e.what();
        return true;
      }
      return false;
    };
    // While the fault holds, every APPEND answers kError.
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(append_fails()) << "APPEND " << i << " acked";
    }
    EXPECT_EQ(Stat(&client, "checkpoints"), 0u);
    EXPECT_EQ(client.Flush("m"), acked);

    // The fault clears: within a bounded wait, APPENDs ack again.
    injector.Reset();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    bool healed = false;
    while (!healed && std::chrono::steady_clock::now() < deadline) {
      healed = !append_fails();
      if (!healed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(healed) << "APPENDs still refused 20 s after the fault";
    acked = client.Flush("m");
    for (int i = 0; i < 10; ++i) acked = client.Append("m", Batch(seed++));
    EXPECT_GE(Stat(&client, "checkpoints"), 1u);
    EXPECT_GE(Stat(&client, "checkpoint_failures"), 1u);
    EXPECT_EQ(client.Flush("m"), acked);
    client.Close();
    server.Stop();
  }
  EXPECT_EQ(RecoveredCount(dir, "m"), acked);
}

TEST(Checkpointer, HeldBackCheckpointerBoundsTheWalAtTwiceTheThreshold) {
  // The checkpointer is held inside metric "held"'s checkpoint while
  // "busy" keeps appending: "busy" queues behind it at one threshold, and
  // each APPEND that finds its WAL at two checkpoints it inline. The WAL
  // never holds more than 2x checkpoint_bytes plus one record, and
  // neither does what recovery would replay.
  const ScratchDir scratch("replay_bound");
  const std::string& dir = scratch.path;
  FsyncGate gate;
  uint64_t held_acked = 0;
  uint64_t busy_acked = 0;
  {
    DurabilityManager manager(dir, Options(&gate));
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    ReqdServer server(&registry, OneWorker());
    server.Start();
    ReleaseOnExit release{&gate};
    ReqClient client;
    client.Connect("127.0.0.1", server.port());
    client.Create("held", PlainSpec());  // m0
    client.Create("busy", PlainSpec());  // m1
    gate.Arm();
    uint64_t seed = 1;
    held_acked = AppendPastThreshold(&client, "held", WalPath(dir, 0), &seed);
    ASSERT_TRUE(gate.WaitBlocked());

    const std::string wal = WalPath(dir, 1);
    busy_acked = client.Append("busy", Batch(seed++));
    const uint64_t record = FileBytes(wal) - kWalHeaderBytes;
    const uint64_t bound = kWalHeaderBytes + 2 * kCheckpointBytes + record;
    // Records that take the WAL to two thresholds: the APPEND of the
    // last one checkpoints inline.
    const uint64_t per_inline = (2 * kCheckpointBytes + record - 1) / record;
    const uint64_t appends = 3 * per_inline + per_inline / 2;
    uint64_t peak = 0;
    for (uint64_t i = 1; i < appends; ++i) {
      busy_acked = client.Append("busy", Batch(seed++));
      const uint64_t bytes = FileBytes(wal);
      peak = std::max(peak, bytes);
      ASSERT_LE(bytes, bound) << "after " << busy_acked << " items";
      const persist::RecoveredMetricState state =
          persist::ReadMetricState(dir + "/m1", "busy");
      ASSERT_LE(state.batches.size() * record, 2 * kCheckpointBytes + record);
    }
    // The WAL grew past one threshold unchecked, up to the second.
    EXPECT_GE(peak + record, kWalHeaderBytes + 2 * kCheckpointBytes);
    // Three inline checkpoints, all while the checkpointer still sat in
    // "held"'s checkpoint.
    EXPECT_EQ(Stat(&client, "checkpoints"), 3u);
    EXPECT_EQ(Stat(&client, "checkpoint_failures"), 0u);

    // Let go: "held"'s checkpoint completes, then "busy"'s queued one.
    gate.Release();
    ASSERT_TRUE(WaitForStat(&client, "checkpoints", 5));
    EXPECT_EQ(FileBytes(WalPath(dir, 0)), kWalHeaderBytes);
    EXPECT_EQ(FileBytes(wal), kWalHeaderBytes);
    EXPECT_EQ(client.Flush("held"), held_acked);
    EXPECT_EQ(client.Flush("busy"), busy_acked);
    client.Close();
    server.Stop();
  }
  EXPECT_EQ(RecoveredCount(dir, "held"), held_acked);
  EXPECT_EQ(RecoveredCount(dir, "busy"), busy_acked);
}

TEST(Checkpointer, StopJoinsTheThreadAndDropsQueuedHandles) {
  const ScratchDir scratch("stop");
  const std::string& dir = scratch.path;
  FsyncGate gate;
  DurabilityManager manager(dir, Options(&gate));
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  const size_t threads_before = SettledThreadCount();
  ReqdServer server(&registry, OneWorker());
  server.Start();
  ReleaseOnExit release{&gate};
  ReqClient client;
  client.Connect("127.0.0.1", server.port());
  client.Create("held", PlainSpec());    // m0
  client.Create("queued", PlainSpec());  // m1
  gate.Arm();
  uint64_t seed = 1;
  AppendPastThreshold(&client, "held", WalPath(dir, 0), &seed);
  ASSERT_TRUE(gate.WaitBlocked());
  AppendPastThreshold(&client, "queued", WalPath(dir, 1), &seed);
  SketchRegistry::EnginePtr queued = registry.Require("queued");
  // The registry, this test, and the checkpointer's queue.
  EXPECT_EQ(queued.use_count(), 3);
  client.Close();

  std::thread stopper([&server] { server.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Release();  // the checkpoint in progress finishes, then Stop joins
  stopper.join();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(queued.use_count(), 2);
  EXPECT_GE(server.Checkpoints(), 1u);
  EXPECT_EQ(server.CheckpointFailures(), 0u);
  if (threads_before > 0) {
    EXPECT_TRUE(WaitForThreadCount(threads_before));
  }
}

}  // namespace
}  // namespace service
}  // namespace req
