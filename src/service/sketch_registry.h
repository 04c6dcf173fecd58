// SketchRegistry: the multi-tenant heart of the quantile service. Maps
// metric names to per-metric engines, each wrapping one of the repo's
// quantile primitives -- chosen once, at CREATE time:
//
//   kPlain    -> ReqSketch<double>: one deterministic sketch. Snapshots
//                serialize byte-identically to an in-process ReqSketch fed
//                the same stream with the same config (the loopback e2e
//                test holds this bit-exactly).
//   kWindowed -> WindowedReqSketch<double>: count-driven sliding window
//                (bucket_items per bucket, num_buckets buckets).
//
// The sharded kind is retired: CREATE refuses it, and a data dir that
// still holds one boots it as a plain metric (its shards merge into one
// sketch -- REQ is fully mergeable, Theorem 3 -- see MakeRecoveredEngine).
//
// Ingest path (both kinds): an append runs in two phases. BeginAppend
// rejects NaN, logs the batch and counts it, and returns a handle that
// holds the engine's append mutex (which orders appending connections,
// many of which may append to one metric) and its state mutex (which
// guards the structure against queries); the handle's Apply then runs one
// batch Update(data, count) on the underlying structure and releases
// both. The server acks an APPEND between the two phases, so its apply
// overlaps the client's next request, and every later operation still
// waits on the mutexes the handle holds.
//
// Query path: a query runs the sketch's or window's own query under the
// state mutex, so every APPEND acknowledged before it is visible. Both
// answer through the query surface every summary shares (SummaryQueries,
// core/summary_queries.h): QUANTILES, RANK and CDF read the levels -- a
// window's, its live buckets' -- through a query-local index, so a query
// after a write pays no view rebuild or merge, and no query leaves
// anything resident: there are no query caches.
//
// Tenancy spine (the million-metric refactor): the name->engine map is
// sharded by name hash into kRegistryShards independent mutex+map shards,
// each with its own epoch and its own sorted-name snapshot cache. A
// CREATE/DROP invalidates only its shard's listing. Every LIST is one
// ListPage(prefix, offset, limit): a k-way merge of the per-shard runs
// that never materializes more than its page (the whole directory for
// List()). Lifecycle: EvictIdle() checkpoints and closes the WAL of metrics
// idle past a TTL (their engines are dropped from memory and rebuilt
// bit-identically from the checkpoint on the next touch -- an acked item
// is never lost), or trims allocator slack when running memory-only.
// Metric-count and memory quotas (SetLimits) reject CREATEs with the
// typed QuotaExceeded below, which the server maps to kQuotaExceeded.
//
// Error model: engines and registry throw the repo's standard exception
// taxonomy (invalid_argument for bad arguments, logic_error for queries on
// empty state, runtime_error for corrupt data) plus the typed
// MetricNotFound / MetricExists / QuotaExceeded below, which the server
// maps to wire statuses. MetricRetired is internal backpressure: an append
// raced an eviction and the server transparently retries against the
// rehydrated engine.
#ifndef REQSKETCH_SERVICE_SKETCH_REGISTRY_H_
#define REQSKETCH_SERVICE_SKETCH_REGISTRY_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "concurrency/epoch_snapshot.h"
#include "concurrency/sharded_req_sketch.h"
#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "persist/metric_log.h"
#include "service/wire_protocol.h"
#include "util/validation.h"
#include "window/windowed_req_sketch.h"

namespace req {
namespace service {

struct MetricNotFound : std::invalid_argument {
  explicit MetricNotFound(const std::string& name)
      : std::invalid_argument("metric not found: " + name) {}
};

struct MetricExists : std::invalid_argument {
  explicit MetricExists(const std::string& name)
      : std::invalid_argument("metric already exists: " + name) {}
};

// CREATE rejected by a registry quota (metric count or accounted memory).
// The server maps this to Status::kQuotaExceeded; clients must treat it as
// a definitive answer, never a transport failure to retry.
struct QuotaExceeded : std::runtime_error {
  explicit QuotaExceeded(const std::string& what) : std::runtime_error(what) {}
};

// An append raced an idle eviction: the engine handle was retired after
// the caller resolved it. Internal backpressure, never surfaced on the
// wire -- the server re-resolves the metric (rehydrating it) and retries.
struct MetricRetired : std::runtime_error {
  MetricRetired()
      : std::runtime_error("metric engine retired by eviction; re-resolve") {}
};

// Validates a CREATE spec before any engine is built, so a bad request
// fails with a precise message instead of surfacing from a constructor
// deep in the stack.
inline void ValidateMetricSpec(const MetricSpec& spec) {
  util::CheckArg(spec.kind != EngineKind::kSharded,
                 "sharded engines are retired; create a plain metric");
  params::ValidateConfig(spec.base);
  util::CheckArg(spec.base.n_hint <= params::kMaxN,
                 "n_hint must not exceed 2^62");
  if (spec.kind == EngineKind::kWindowed) {
    util::CheckArg(spec.num_buckets >= 2 &&
                       spec.num_buckets <= (uint32_t{1} << 16),
                   "num_buckets must be in [2, 2^16]");
    // The wire protocol has no Rotate() injection, so service-managed
    // windows must be count-driven.
    util::CheckArg(spec.bucket_items >= 1,
                   "bucket_items must be >= 1 for service windows");
    util::CheckArg(
        spec.bucket_items <= params::kMaxN / spec.num_buckets,
        "num_buckets * bucket_items must not exceed 2^62");
  }
}

// One metric's engine. Thread safety: appends may come from any number of
// connections concurrently (serialized internally); queries and Snapshot
// may run concurrently with appends and each other.
//
// Durability: when a WAL is attached (SetLog, done by the registry's
// durability hook or the recovery path), every append logs its batch
// BEFORE applying it, under the same append mutex -- so the WAL's batch
// order IS the engine's apply order, and the engine's state at WAL
// position L is exactly "the first L batches applied". Snapshot() and the
// checkpoint hooks quiesce the append path to pin that correspondence.
//
// Lock order: append mutex, then state mutex. An append takes the state
// mutex only after its WAL write, so a query never waits on WAL I/O.
class MetricEngine {
 public:
  // An append between its two phases: logged and counted, not yet
  // applied. Move-only; holds the engine's append and state mutexes until
  // Apply.
  class PendingAppend {
   public:
    PendingAppend(PendingAppend&& other) noexcept
        : engine_(std::exchange(other.engine_, nullptr)),
          append_lock_(std::move(other.append_lock_)),
          state_lock_(std::move(other.state_lock_)),
          values_(std::move(other.values_)),
          data_(other.data_),
          count_(other.count_),
          n_(other.n_) {}
    PendingAppend& operator=(PendingAppend&&) = delete;
    ~PendingAppend() { Apply(); }

    // The metric's AcceptedN() at this batch's log position: what the
    // APPEND's ack carries.
    uint64_t n() const { return n_; }

    // Applies the batch with one batch Update, then releases the state
    // and append mutexes; a no-op once applied. Fail-stop: NaN was
    // rejected before the batch was logged, so only allocation can fail
    // here, and a batch that is logged (and perhaps already acknowledged)
    // must never be served missing, nor answered with an error a client
    // would retry. An exception therefore terminates the process, and a
    // restart replays the batch from the WAL.
    void Apply() noexcept {
      if (engine_ == nullptr) return;
      engine_->UpdateLocked(data_, count_);
      engine_ = nullptr;
      state_lock_.unlock();
      append_lock_.unlock();
    }

   private:
    friend class MetricEngine;

    PendingAppend(MetricEngine* engine,
                  std::unique_lock<std::mutex> append_lock,
                  std::unique_lock<std::mutex> state_lock,
                  const double* data, size_t count,
                  std::vector<double>&& values, uint64_t n)
        : engine_(engine),
          append_lock_(std::move(append_lock)),
          state_lock_(std::move(state_lock)),
          values_(std::move(values)),
          data_(data),
          count_(count),
          n_(n) {}

    MetricEngine* engine_;  // null once applied or moved from
    std::unique_lock<std::mutex> append_lock_;
    std::unique_lock<std::mutex> state_lock_;
    // The batch BeginAppend moved in (empty for Append): a vector's move
    // keeps its buffer, so data_ stays valid through moves of the handle.
    std::vector<double> values_;
    const double* data_;
    size_t count_;
    uint64_t n_;
  };

  virtual ~MetricEngine() = default;

  virtual EngineKind kind() const = 0;
  virtual const MetricSpec& spec() const = 0;

  // Total items accepted since CREATE (acknowledged appends; for windowed
  // metrics this is lifetime-accepted, not in-window).
  uint64_t AcceptedN() const {
    return accepted_n_.load(std::memory_order_acquire);
  }

  // The first phase of an append: rejects NaN, takes the append mutex,
  // checks retirement, logs the batch, then takes the state mutex and
  // counts the batch into AcceptedN(). Every failure throws before
  // anything is logged or counted, leaving `values` untouched: NaN
  // (invalid_argument), a retired engine (MetricRetired), a WAL write
  // that failed or was refused (persist::IoError). The returned handle
  // owns both mutexes, the count and the moved-in values; its Apply (or
  // its destructor) applies the batch and releases the mutexes. Until
  // then no query, snapshot, checkpoint or other append of this metric
  // runs, so an operation that starts after the caller acknowledges
  // handle.n() observes the batch.
  PendingAppend BeginAppend(std::vector<double>&& values) {
    return Begin(values.data(), values.size(), std::move(values));
  }

  // BeginAppend, then Apply, for in-process callers (recovery replay,
  // tests, benches); `data` is read, not copied. Returns AcceptedN() at
  // this batch's log position: a later read of AcceptedN() may already
  // include a concurrent append.
  uint64_t Append(const double* data, size_t count) {
    PendingAppend pending = Begin(data, count, std::vector<double>());
    pending.Apply();
    return pending.n();
  }

  // Resident heap bytes this engine holds (sketch payload and allocator
  // slack; queries leave nothing behind). The registry's quota accounting
  // charges this figure per metric; it is a measurement, not a contract,
  // and may be briefly stale against concurrent appends.
  virtual size_t MemoryFootprint() const = 0;

  // Releases allocator slack (level-buffer slack) without changing any
  // answer. The memory-only idle path; durable idle
  // metrics get evicted outright via RetireForEviction instead.
  virtual void TrimMemory() {}

  // True once RetireForEviction succeeded: the engine took its final
  // checkpoint and closed its WAL. Queries still serve the final state;
  // appends throw MetricRetired so the caller re-resolves the metric.
  bool Retired() const { return retired_.load(std::memory_order_acquire); }

  // Eviction: quiesce appends, checkpoint at the exact WAL position, then
  // poison the append path and release the WAL handle. Strong guarantee --
  // a checkpoint failure throws with the engine still live and appendable.
  // Requires an attached WAL (memory-only metrics are trimmed, not
  // evicted).
  void RetireForEviction() {
    std::lock_guard<std::mutex> produce(append_mutex_);
    util::CheckState(log_ != nullptr, "RetireForEviction requires a WAL");
    CheckpointLocked();
    // Nothing can append between the checkpoint and the flag: both sit
    // under the append mutex. From here the engine is a read-only relic.
    retired_.store(true, std::memory_order_release);
    log_.reset();
  }

  // Order-based queries. Observe every append acknowledged before the
  // call.
  virtual std::vector<uint64_t> GetRanks(const std::vector<double>& ys,
                                         Criterion criterion) = 0;
  virtual std::vector<double> GetQuantiles(const std::vector<double>& qs,
                                           Criterion criterion) = 0;
  virtual std::vector<double> GetCDF(const std::vector<double>& splits,
                                     Criterion criterion) = 0;

  // Serialized engine state: u8 engine kind | engine-specific serde bytes
  // (ReqSerde / windowed serde). Quiesces the append path so the blob
  // sits on a WAL batch boundary.
  std::vector<uint8_t> Snapshot() {
    std::lock_guard<std::mutex> produce(append_mutex_);
    return SnapshotLocked();
  }

  // Attaches the metric's WAL. Called before the engine is published
  // (CREATE) or after replay completes (recovery) -- never while other
  // threads are appending.
  void SetLog(std::shared_ptr<persist::MetricLog> log) {
    log_ = std::move(log);
  }
  persist::MetricLog* wal() const { return log_.get(); }

  // Checkpoints. Both entry points read log_ under the append mutex:
  // RetireForEviction releases the log under that mutex, so an eviction
  // that wins a race with them leaves no WAL to checkpoint instead of a
  // log released mid-call. A server reads WalThresholdsPassed() after
  // each APPEND and leaves the checkpoint itself to its background
  // checkpointer (service/reqd_server.h), off the request path.

  // Whole checkpoint thresholds (the log's checkpoint_bytes) of WAL
  // logged since the last checkpoint, capped at 2; 0 without a WAL
  // (memory-only, or retired by an eviction).
  int WalThresholdsPassed() {
    std::lock_guard<std::mutex> produce(append_mutex_);
    if (!log_) return 0;
    if (log_->ShouldCheckpoint(2)) return 2;
    return log_->ShouldCheckpoint() ? 1 : 0;
  }

  // Checkpoints now, whatever the WAL holds (the server's checkpointer,
  // shutdown, tests). The append mutex pins the snapshot to an exact WAL
  // position: state == first next_lsn() batches. Returns false, writing
  // nothing, without a WAL; throws IoError when the write fails, which
  // leaves the WAL as MetricLog::WriteCheckpoint describes.
  bool ForceCheckpoint() {
    std::lock_guard<std::mutex> produce(append_mutex_);
    if (!log_) return false;
    CheckpointLocked();
    return true;
  }

 protected:
  // Snapshot with append_mutex_ held by the caller.
  virtual std::vector<uint8_t> SnapshotLocked() = 0;

  // Applies a batch that Begin validated, with both mutexes held by the
  // caller (a PendingAppend).
  virtual void UpdateLocked(const double* data, size_t count) = 0;

  // Checkpoint with append_mutex_ held by the caller and a WAL attached.
  void CheckpointLocked() {
    const uint64_t lsn = log_->next_lsn();
    const std::vector<uint8_t> blob = SnapshotLocked();
    log_->WriteCheckpoint(lsn, AcceptedN(), blob);
  }

  // Orders appending connections, so WAL position and apply order agree,
  // and pins the WAL-position <-> engine-state correspondence for
  // snapshots and checkpoints (which hold it to quiesce appends).
  std::mutex append_mutex_;
  // Guards the underlying structure against concurrent appends, queries
  // and snapshots.
  mutable std::mutex state_mutex_;
  std::atomic<uint64_t> accepted_n_{0};
  std::atomic<bool> retired_{false};
  std::shared_ptr<persist::MetricLog> log_;

 private:
  // BeginAppend's body; `owned` is empty, or the vector `data` points
  // into, moved into the handle only once nothing can throw. Retirement
  // is checked under append_mutex_, so no batch can slip past a completed
  // retirement (the engine has released the metric's WAL; an append
  // applied there would be logged nowhere and lost on rehydrate). WAL
  // before apply: if the log write fails (persist::IoError), nothing was
  // counted and nothing gets acknowledged. The reverse order could
  // acknowledge a batch that never reached the log.
  PendingAppend Begin(const double* data, size_t count,
                      std::vector<double>&& owned) {
    for (size_t i = 0; i < count; ++i) {
      util::CheckArg(!std::isnan(data[i]), "cannot append NaN");
    }
    std::unique_lock<std::mutex> produce(append_mutex_);
    if (retired_.load(std::memory_order_relaxed)) throw MetricRetired();
    if (log_) log_->AppendBatch(data, count);
    std::unique_lock<std::mutex> state(state_mutex_);
    const uint64_t n =
        accepted_n_.fetch_add(count, std::memory_order_release) + count;
    return PendingAppend(this, std::move(produce), std::move(state), data,
                         count, std::move(owned), n);
  }
};


// Splits a snapshot blob into its kind tag and serde payload; throws
// runtime_error on an empty or unknown-kind blob.
inline EngineKind SnapshotBlobKind(const std::vector<uint8_t>& blob) {
  util::CheckData(!blob.empty(), "empty snapshot blob");
  util::CheckData(blob[0] <= static_cast<uint8_t>(EngineKind::kWindowed),
                  "unknown snapshot engine kind");
  return static_cast<EngineKind>(blob[0]);
}

inline std::vector<uint8_t> SnapshotBlobPayload(
    const std::vector<uint8_t>& blob) {
  SnapshotBlobKind(blob);  // validates
  return std::vector<uint8_t>(blob.begin() + 1, blob.end());
}

// The structure's own serde bytes, as a snapshot blob carries them.
inline std::vector<uint8_t> SerializeUnderlying(const ReqSketch<double>& s) {
  return SerializeSketch(s);
}
inline std::vector<uint8_t> SerializeUnderlying(
    const window::WindowedReqSketch<double>& window) {
  return window.Serialize();
}

// --- engines (plain / windowed) -------------------------------------------

// Shared machinery for both engine kinds: one underlying structure behind
// the two locks, with one ingest path. Derived classes choose the
// underlying type and its kind tag.
//
// An append's apply phase (UpdateLocked) is one batch Update(data, count)
// on the underlying structure, under both of MetricEngine's mutexes.
// Queries take state_mutex_ alone and call the underlying structure's own
// query, so a query never waits on WAL I/O; the structure keeps no query
// cache, and no copy of the sketch or window is ever kept.
template <typename Underlying>
class SketchEngineBase : public MetricEngine {
 public:
  const MetricSpec& spec() const override { return spec_; }

  // Always false: nothing is staged. Kept only for reqbench's ladder,
  // which reads it for engine.contended_metrics.
  bool StagingMaterialized() const { return false; }

  size_t MemoryFootprint() const override {
    std::lock_guard<std::mutex> lock(state_mutex_);
    // underlying_ is embedded, so its MemoryBytes() (which counts
    // sizeof(Underlying)) must replace -- not add to -- its share of
    // sizeof(*this).
    return sizeof(*this) - sizeof(Underlying) + underlying_.MemoryBytes();
  }

  // Memory-only idle path: release level-buffer slack. Answers are
  // unchanged.
  void TrimMemory() override {
    std::lock_guard<std::mutex> lock(state_mutex_);
    underlying_.TrimMemory();
  }

  std::vector<uint64_t> GetRanks(const std::vector<double>& ys,
                                 Criterion criterion) override {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return underlying_.GetRanks(ys, criterion);
  }
  std::vector<double> GetQuantiles(const std::vector<double>& qs,
                                   Criterion criterion) override {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return underlying_.GetQuantiles(qs, criterion);
  }
  std::vector<double> GetCDF(const std::vector<double>& splits,
                             Criterion criterion) override {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return underlying_.GetCDF(splits, criterion);
  }

 protected:
  // accepted_n != 0 only on the recovery path, restoring the checkpoint's
  // acknowledged-item count before WAL replay re-appends the tail.
  SketchEngineBase(const MetricSpec& spec, Underlying underlying,
                   uint64_t accepted_n = 0)
      : spec_(spec), underlying_(std::move(underlying)) {
    accepted_n_.store(accepted_n, std::memory_order_release);
  }

  // Serializes the live structure under the state lock: a plain blob
  // equals an in-process sketch's fed the same stream; a windowed blob
  // holds the window itself (ring, rotations, bucket epochs), so a
  // restored window keeps expiring correctly. Checkpoints, evictions and
  // wire SNAPSHOTs never copy the structure.
  std::vector<uint8_t> SnapshotLocked() override {
    std::lock_guard<std::mutex> lock(state_mutex_);
    std::vector<uint8_t> blob{static_cast<uint8_t>(kind())};
    const std::vector<uint8_t> bytes = SerializeUnderlying(underlying_);
    blob.insert(blob.end(), bytes.begin(), bytes.end());
    return blob;
  }

  void UpdateLocked(const double* data, size_t count) override {
    underlying_.Update(data, count);
  }

  const MetricSpec spec_;
  Underlying underlying_;  // guarded by state_mutex_
};

// --- plain -----------------------------------------------------------------

class PlainReqEngine final : public SketchEngineBase<ReqSketch<double>> {
 public:
  using Sketch = ReqSketch<double>;

  explicit PlainReqEngine(const MetricSpec& spec)
      : SketchEngineBase(spec, Sketch(spec.base)) {}

  // Recovery: adopts a checkpoint-restored sketch (ReqSerde v2 carries
  // the exact PRNG state, so continuation is bit-identical).
  PlainReqEngine(const MetricSpec& spec, Sketch&& restored,
                 uint64_t accepted_n)
      : SketchEngineBase(spec, std::move(restored), accepted_n) {}

  EngineKind kind() const override { return EngineKind::kPlain; }
};

// --- windowed --------------------------------------------------------------

class WindowedReqEngine final
    : public SketchEngineBase<window::WindowedReqSketch<double>> {
 public:
  using Window = window::WindowedReqSketch<double>;

  explicit WindowedReqEngine(const MetricSpec& spec)
      : SketchEngineBase(spec, Window(MakeConfig(spec))) {}

  // Recovery: adopts a checkpoint-restored window (rotation is
  // count-driven, and each bucket's sketch carries its exact PRNG state,
  // so WAL replay rotates and compacts identically).
  WindowedReqEngine(const MetricSpec& spec, Window&& restored,
                    uint64_t accepted_n)
      : SketchEngineBase(spec, std::move(restored), accepted_n) {}

  EngineKind kind() const override { return EngineKind::kWindowed; }

 private:
  static window::WindowedReqConfig MakeConfig(const MetricSpec& spec) {
    window::WindowedReqConfig config;
    config.num_buckets = spec.num_buckets;
    config.bucket_items = spec.bucket_items;
    config.base = spec.base;
    return config;
  }
};

// --- the registry ----------------------------------------------------------

// What one EvictIdle sweep did: how many metrics it looked at, how many
// it checkpointed out of memory, how many it merely trimmed.
struct EvictionStats {
  size_t scanned = 0;
  size_t evicted = 0;
  size_t trimmed = 0;
};

class SketchRegistry {
 public:
  using EnginePtr = std::shared_ptr<MetricEngine>;

  // Name-hash shards of the directory. Power of two; 64 keeps the
  // hottest realistic core counts from colliding while costing ~6 KiB of
  // fixed overhead for the whole registry.
  static constexpr size_t kRegistryShards = 64;

  // What an evicted metric is charged: directory entry + name, no engine.
  static constexpr uint64_t kEvictedEntryBytes = 256;

  SketchRegistry() = default;
  SketchRegistry(const SketchRegistry&) = delete;
  SketchRegistry& operator=(const SketchRegistry&) = delete;

  // Wires the durability hook (persist::DurabilityManager). Called once,
  // before serving -- typically by DurabilityManager::RecoverInto. Null
  // (the default) runs the registry memory-only.
  void SetDurability(persist::DirectoryHook* durability) {
    durability_ = durability;
  }

  // Tenancy quotas, enforced at CREATE time (0 = unlimited, the
  // default). Memory is accounted per metric from MemoryFootprint(),
  // refreshed by eviction sweeps. Call before serving; not synchronized
  // against in-flight Creates.
  void SetLimits(uint64_t max_metrics, uint64_t max_memory_bytes) {
    max_metrics_.store(max_metrics, std::memory_order_relaxed);
    max_memory_bytes_.store(max_memory_bytes, std::memory_order_relaxed);
  }

  // Creates a metric; throws MetricExists if the name is taken,
  // QuotaExceeded when a tenancy limit would be crossed, invalid_argument
  // / runtime_error on a bad spec or name, or persist::IoError when the
  // durable CREATE record cannot be written (in which case the metric
  // does not exist, in memory or on disk).
  EnginePtr Create(const std::string& name, const MetricSpec& spec) {
    ValidateMetricName(name);
    ValidateMetricSpec(spec);
    EnginePtr engine = MakeEngine(spec);
    const uint64_t footprint = engine->MemoryFootprint();
    Shard& shard = ShardFor(name);
    {
      std::unique_lock<std::shared_mutex> lock(shard.mutex);
      if (shard.metrics.count(name) != 0) throw MetricExists(name);
      ReserveQuota(name, footprint);
      // Durable before visible: the manifest record and the metric's WAL
      // exist before any client can observe (and append to) the metric.
      if (durability_ != nullptr) {
        try {
          engine->SetLog(durability_->OnCreate(name, spec));
        } catch (...) {
          ReleaseQuota(footprint);
          throw;
        }
      }
      auto entry = std::make_shared<Entry>(spec);
      entry->last_touch_ms.store(NowMs(), std::memory_order_relaxed);
      entry->accounted_bytes.store(footprint, std::memory_order_relaxed);
      std::atomic_store_explicit(&entry->engine, engine,
                                 std::memory_order_release);
      shard.metrics.emplace(name, std::move(entry));
      shard.epoch.fetch_add(1, std::memory_order_release);
    }
    return engine;
  }

  // Recovery-path Create: installs the engine RebuildEngine makes from
  // `state` (checkpoint, then WAL tail), WITHOUT notifying the durability
  // hook -- the metric already exists on disk; the caller attaches its
  // reopened log via SetLog. The charge is the footprint after the
  // replay, so a recovered registry accounts what it holds. Quotas are
  // accounted but NOT enforced: recovery must never refuse state that was
  // already acknowledged. Safe to call concurrently for distinct names
  // (boot recovery runs it on every core); before the server starts.
  EnginePtr CreateRecovered(const std::string& name, const MetricSpec& spec,
                            const persist::RecoveredMetricState& state) {
    ValidateMetricName(name);
    ValidateMetricSpec(spec);
    EnginePtr engine = RebuildEngine(spec, state);
    const uint64_t footprint = engine->MemoryFootprint();
    Shard& shard = ShardFor(name);
    {
      std::unique_lock<std::shared_mutex> lock(shard.mutex);
      if (shard.metrics.count(name) != 0) throw MetricExists(name);
      total_metrics_.fetch_add(1, std::memory_order_relaxed);
      memory_bytes_.fetch_add(footprint, std::memory_order_relaxed);
      auto entry = std::make_shared<Entry>(spec);
      entry->last_touch_ms.store(NowMs(), std::memory_order_relaxed);
      entry->accounted_bytes.store(footprint, std::memory_order_relaxed);
      std::atomic_store_explicit(&entry->engine, engine,
                                 std::memory_order_release);
      shard.metrics.emplace(name, std::move(entry));
      shard.epoch.fetch_add(1, std::memory_order_release);
    }
    return engine;
  }

  // The engine for `name`, or nullptr when absent. Touches the metric's
  // idle clock and transparently rehydrates an evicted engine from its
  // eviction checkpoint (bit-identical: the checkpoint sat on a WAL batch
  // boundary and ReqSerde carries exact PRNG state). The returned handle
  // stays valid after a concurrent Drop or eviction (shared ownership);
  // a retired handle throws MetricRetired on Append, and re-resolving
  // through Find yields the fresh engine.
  EnginePtr Find(const std::string& name) {
    Shard& shard = ShardFor(name);
    EntryPtr entry;
    {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      auto it = shard.metrics.find(name);
      if (it == shard.metrics.end()) return nullptr;
      entry = it->second;
    }
    entry->last_touch_ms.store(NowMs(), std::memory_order_relaxed);
    EnginePtr engine = std::atomic_load_explicit(&entry->engine,
                                                 std::memory_order_acquire);
    if (engine) return engine;
    return Rehydrate(name, entry);
  }

  // Find, but throws MetricNotFound instead of returning nullptr.
  EnginePtr Require(const std::string& name) {
    EnginePtr engine = Find(name);
    if (!engine) throw MetricNotFound(name);
    return engine;
  }

  // Whether the metric currently has an engine in memory (false while
  // evicted). Does not touch the idle clock -- observability only.
  bool IsResident(const std::string& name) const {
    const Shard& shard = ShardFor(name);
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.metrics.find(name);
    if (it == shard.metrics.end()) return false;
    return std::atomic_load_explicit(&it->second->engine,
                                     std::memory_order_acquire) != nullptr;
  }

  // Removes a metric; returns whether it existed. In-flight operations on
  // outstanding handles finish safely against the (now unlisted) engine
  // (its WAL goes quiet via MarkDropped). If the durable DROP record
  // fails, the metric is already gone from memory and the error
  // propagates: the next restart resurrects it, which is the recoverable
  // direction (dropping again beats silently losing a live metric).
  bool Drop(const std::string& name) {
    Shard& shard = ShardFor(name);
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.metrics.find(name);
    if (it == shard.metrics.end()) return false;
    EntryPtr entry = it->second;
    {
      // Lock order everywhere: shard.mutex before entry lifecycle.
      // (Rehydrate takes the lifecycle mutex alone.) The dropped flag
      // turns any concurrent rehydrate of this entry into MetricNotFound
      // rather than a resurrection.
      std::lock_guard<std::mutex> lifecycle(entry->lifecycle_mutex);
      entry->dropped.store(true, std::memory_order_release);
      shard.metrics.erase(it);
      total_metrics_.fetch_sub(1, std::memory_order_relaxed);
      memory_bytes_.fetch_sub(
          entry->accounted_bytes.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      shard.epoch.fetch_add(1, std::memory_order_release);
      if (durability_ != nullptr) durability_->OnDrop(name);
    }
    return true;
  }

  // Sweeps every shard for metrics idle past `idle_ms`. Durable idle
  // metrics are evicted: final checkpoint, WAL closed, engine dropped
  // from memory (Find rehydrates on next touch -- no acked item lost).
  // Memory-only idle metrics get TrimMemory() instead. Hot metrics just
  // have their memory accounting refreshed. Safe concurrently with
  // appends/queries/creates/drops; an appender racing an eviction sees
  // MetricRetired and the server retries against the rehydrated engine.
  EvictionStats EvictIdle(uint64_t idle_ms) {
    EvictionStats stats;
    const uint64_t now = NowMs();
    for (Shard& shard : shards_) {
      std::vector<std::pair<std::string, EntryPtr>> candidates;
      {
        std::shared_lock<std::shared_mutex> lock(shard.mutex);
        candidates.reserve(shard.metrics.size());
        for (const auto& [name, entry] : shard.metrics) {
          candidates.emplace_back(name, entry);
        }
      }
      for (auto& [name, entry] : candidates) {
        ++stats.scanned;
        const uint64_t touch =
            entry->last_touch_ms.load(std::memory_order_relaxed);
        EnginePtr engine = std::atomic_load_explicit(
            &entry->engine, std::memory_order_acquire);
        if (touch > now || now - touch < idle_ms) {
          // Hot: refresh the per-metric accounting and move on.
          if (engine) AccountEntry(*entry, engine->MemoryFootprint());
          continue;
        }
        std::lock_guard<std::mutex> lifecycle(entry->lifecycle_mutex);
        if (entry->dropped.load(std::memory_order_acquire)) continue;
        // Re-read the idle clock under the lifecycle lock, against a
        // fresh clock: a Find may have touched this metric (or a slow
        // Rehydrate republished it -- it refreshes the touch under this
        // same mutex) since the unlocked scan above, possibly long ago
        // if this sweep is large. Deciding against the stale sweep-start
        // `now` would re-retire an engine the moment it came back.
        const uint64_t now_locked = NowMs();
        const uint64_t touch_locked =
            entry->last_touch_ms.load(std::memory_order_relaxed);
        engine = std::atomic_load_explicit(&entry->engine,
                                           std::memory_order_acquire);
        if (touch_locked > now_locked || now_locked - touch_locked < idle_ms) {
          if (engine) AccountEntry(*entry, engine->MemoryFootprint());
          continue;
        }
        if (!engine) continue;  // already evicted
        if (durability_ != nullptr && engine->wal() != nullptr) {
          // Unpublish BEFORE retiring. Once the pointer is null, a
          // racing appender's re-resolve parks in Rehydrate on this
          // lifecycle mutex instead of spinning on a still-published
          // retired handle -- with one core, that spin can burn every
          // bounded server retry before this thread runs again. The
          // ordering bounds the race: an append can only see
          // MetricRetired through a handle it grabbed before the null
          // store, so its first re-resolve already blocks until the
          // rehydrated engine is ready.
          EnginePtr empty;
          std::atomic_store_explicit(&entry->engine, empty,
                                     std::memory_order_release);
          try {
            engine->RetireForEviction();
          } catch (...) {
            // Checkpoint failed; the engine is still live and appendable
            // (strong guarantee), so republish it before rethrowing.
            std::atomic_store_explicit(&entry->engine, engine,
                                       std::memory_order_release);
            throw;
          }
          durability_->OnEvict(name);
          AccountEntry(*entry, kEvictedEntryBytes + name.size());
          rehydration_stats_evictions_.fetch_add(1,
                                                 std::memory_order_relaxed);
          ++stats.evicted;
        } else {
          engine->TrimMemory();
          AccountEntry(*entry, engine->MemoryFootprint());
          ++stats.trimmed;
        }
      }
    }
    return stats;
  }

  size_t size() const {
    return total_metrics_.load(std::memory_order_relaxed);
  }

  // Bytes currently charged against the memory quota (sum of per-metric
  // accounted footprints; refreshed by eviction sweeps).
  uint64_t AccountedMemoryBytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }

  uint64_t Evictions() const {
    return rehydration_stats_evictions_.load(std::memory_order_relaxed);
  }
  uint64_t Rehydrations() const {
    return rehydration_stats_rehydrations_.load(std::memory_order_relaxed);
  }

  // Every metric name, sorted: the whole directory as one ListPage.
  std::vector<std::string> List() const {
    return ListPage("", 0, 0, nullptr);
  }

  // One page of the directory, sorted: names matching `prefix` (empty =
  // all), skipping `offset` matches, returning at most `limit` (0 = no
  // limit). *total gets the full match count regardless of paging. Never
  // materializes more than the page plus the per-shard cached runs.
  std::vector<std::string> ListPage(const std::string& prefix,
                                    uint64_t offset, uint64_t limit,
                                    uint64_t* total) const {
    ValidateMetricPrefix(prefix);
    const std::string upper = PrefixSuccessor(prefix);
    struct Range {
      std::shared_ptr<const std::vector<std::string>> names;
      size_t pos;
      size_t end;
    };
    std::vector<Range> ranges;
    ranges.reserve(kRegistryShards);
    uint64_t matched = 0;
    for (const Shard& shard : shards_) {
      std::shared_ptr<const std::vector<std::string>> names =
          ShardNames(shard);
      auto begin = prefix.empty()
                       ? names->begin()
                       : std::lower_bound(names->begin(), names->end(),
                                          prefix);
      auto end = upper.empty()
                     ? names->end()
                     : std::lower_bound(begin, names->end(), upper);
      if (begin == end) continue;
      const size_t b = static_cast<size_t>(begin - names->begin());
      const size_t e = static_cast<size_t>(end - names->begin());
      matched += e - b;
      ranges.push_back(Range{std::move(names), b, e});
    }
    if (total != nullptr) *total = matched;
    std::vector<std::string> page;
    if (offset >= matched) return page;
    const uint64_t want = (limit == 0)
                              ? matched - offset
                              : std::min<uint64_t>(limit, matched - offset);
    page.reserve(static_cast<size_t>(want));
    // K-way merge of the per-shard sorted runs, counting off the offset
    // then emitting the page.
    auto greater = [&ranges](size_t a, size_t b) {
      return (*ranges[a].names)[ranges[a].pos] >
             (*ranges[b].names)[ranges[b].pos];
    };
    std::priority_queue<size_t, std::vector<size_t>, decltype(greater)>
        heap(greater);
    for (size_t i = 0; i < ranges.size(); ++i) heap.push(i);
    uint64_t skipped = 0;
    while (!heap.empty() && page.size() < want) {
      const size_t i = heap.top();
      heap.pop();
      if (skipped < offset) {
        ++skipped;
      } else {
        page.push_back((*ranges[i].names)[ranges[i].pos]);
      }
      if (++ranges[i].pos < ranges[i].end) heap.push(i);
    }
    return page;
  }

 private:
  // One metric's directory slot. Outlives eviction (the engine pointer
  // goes null); erased from the shard map only by Drop.
  struct Entry {
    explicit Entry(const MetricSpec& s) : spec(s) {}
    const MetricSpec spec;
    // Read/written with std::atomic_load/store; null while evicted.
    std::shared_ptr<MetricEngine> engine;
    // Serializes evict vs. rehydrate vs. drop for THIS metric. Taken
    // after the shard mutex when both are held; alone in Rehydrate.
    std::mutex lifecycle_mutex;
    std::atomic<uint64_t> last_touch_ms{0};
    std::atomic<uint64_t> accounted_bytes{0};
    std::atomic<bool> dropped{false};
  };
  using EntryPtr = std::shared_ptr<Entry>;

  struct Shard {
    mutable std::shared_mutex mutex;
    std::map<std::string, EntryPtr> metrics;
    std::atomic<uint64_t> epoch{0};
    // Sorted-name snapshot of THIS shard, keyed on the shard epoch:
    // a CREATE/DROP elsewhere leaves this run untouched.
    concurrency::EpochSnapshotCache<std::vector<std::string>> names_cache;
  };

  Shard& ShardFor(const std::string& name) {
    return shards_[std::hash<std::string>{}(name) & (kRegistryShards - 1)];
  }
  const Shard& ShardFor(const std::string& name) const {
    return shards_[std::hash<std::string>{}(name) & (kRegistryShards - 1)];
  }

  static uint64_t NowMs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // Re-charges a metric at `new_bytes`, keeping the global gauge in sync
  // (modular uint64 arithmetic absorbs shrinking footprints).
  void AccountEntry(Entry& entry, uint64_t new_bytes) {
    const uint64_t old_bytes =
        entry.accounted_bytes.exchange(new_bytes, std::memory_order_relaxed);
    memory_bytes_.fetch_add(new_bytes - old_bytes, std::memory_order_relaxed);
  }

  // Reserves one metric + `footprint` bytes against the quotas, rolling
  // back and throwing QuotaExceeded on either limit. Called under the
  // target shard's unique lock (so a rejected CREATE never becomes
  // visible).
  void ReserveQuota(const std::string& name, uint64_t footprint) {
    const uint64_t max_metrics =
        max_metrics_.load(std::memory_order_relaxed);
    const uint64_t prior_count =
        total_metrics_.fetch_add(1, std::memory_order_relaxed);
    if (max_metrics != 0 && prior_count >= max_metrics) {
      total_metrics_.fetch_sub(1, std::memory_order_relaxed);
      throw QuotaExceeded("metric quota exceeded (limit " +
                          std::to_string(max_metrics) +
                          "): cannot create '" + name + "'");
    }
    const uint64_t max_bytes =
        max_memory_bytes_.load(std::memory_order_relaxed);
    const uint64_t prior_bytes =
        memory_bytes_.fetch_add(footprint, std::memory_order_relaxed);
    if (max_bytes != 0 && prior_bytes + footprint > max_bytes) {
      memory_bytes_.fetch_sub(footprint, std::memory_order_relaxed);
      total_metrics_.fetch_sub(1, std::memory_order_relaxed);
      throw QuotaExceeded("memory quota exceeded (limit " +
                          std::to_string(max_bytes) +
                          " bytes): cannot create '" + name + "'");
    }
  }

  void ReleaseQuota(uint64_t footprint) {
    memory_bytes_.fetch_sub(footprint, std::memory_order_relaxed);
    total_metrics_.fetch_sub(1, std::memory_order_relaxed);
  }

  // Rebuilds an evicted metric's engine from its eviction checkpoint +
  // WAL tail through RebuildEngine, as boot recovery does, so the
  // rehydrated engine is bit-identical to the evicted one. Serialized per
  // entry by the lifecycle mutex; concurrent Finds wait and share the
  // result.
  EnginePtr Rehydrate(const std::string& name, const EntryPtr& entry) {
    std::lock_guard<std::mutex> lifecycle(entry->lifecycle_mutex);
    EnginePtr engine = std::atomic_load_explicit(&entry->engine,
                                                 std::memory_order_acquire);
    if (engine) return engine;  // another thread rehydrated first
    if (entry->dropped.load(std::memory_order_acquire)) return nullptr;
    util::CheckState(durability_ != nullptr,
                     "evicted metric without a durability hook");
    persist::RehydratedMetric r = durability_->OnRehydrate(name);
    EnginePtr fresh = RebuildEngine(entry->spec, r.state);
    fresh->SetLog(std::move(r.log));
    AccountEntry(*entry, fresh->MemoryFootprint());
    // Refresh the idle clock before publishing: rehydration can wait out
    // a long eviction sweep on the durability manager, leaving the
    // Find-time touch older than the idle TTL -- the metric's idle life
    // starts now, when it is actually usable again. The evictor re-reads
    // the touch under this same lifecycle mutex, so a just-published
    // engine can never be re-retired as idle.
    entry->last_touch_ms.store(NowMs(), std::memory_order_relaxed);
    std::atomic_store_explicit(&entry->engine, fresh,
                               std::memory_order_release);
    rehydration_stats_rehydrations_.fetch_add(1, std::memory_order_relaxed);
    return fresh;
  }

  // This shard's sorted name run (epoch-cached; rebuilt only after a
  // CREATE/DROP in this shard).
  std::shared_ptr<const std::vector<std::string>> ShardNames(
      const Shard& shard) const {
    return shard.names_cache.Get(
        [&shard] { return shard.epoch.load(std::memory_order_acquire); },
        [&shard] {
          std::shared_lock<std::shared_mutex> lock(shard.mutex);
          std::vector<std::string> names;
          names.reserve(shard.metrics.size());
          for (const auto& [name, entry] : shard.metrics) {
            (void)entry;
            names.push_back(name);
          }
          return names;  // std::map iterates sorted
        });
  }

  // Smallest string greater than every string with prefix `prefix`, or
  // empty when no finite bound exists (prefix all-0xff or empty).
  static std::string PrefixSuccessor(std::string prefix) {
    while (!prefix.empty()) {
      if (static_cast<unsigned char>(prefix.back()) != 0xff) {
        prefix.back() = static_cast<char>(prefix.back() + 1);
        return prefix;
      }
      prefix.pop_back();
    }
    return prefix;
  }

  // `spec` passed ValidateMetricSpec, so it is plain or windowed.
  static EnginePtr MakeEngine(const MetricSpec& spec) {
    if (spec.kind == EngineKind::kWindowed) {
      return std::make_shared<WindowedReqEngine>(spec);
    }
    return std::make_shared<PlainReqEngine>(spec);
  }

  // The one rebuild routine of boot recovery and rehydration: the engine
  // from the checkpoint blob (empty => a fresh engine), then the WAL tail
  // replayed batch by batch. No log is attached yet, so the replay
  // re-logs nothing.
  static EnginePtr RebuildEngine(const MetricSpec& spec,
                                 const persist::RecoveredMetricState& state) {
    EnginePtr engine = state.snapshot_blob.empty()
                           ? MakeEngine(spec)
                           : MakeRecoveredEngine(spec, state.snapshot_blob,
                                                 state.snapshot_accepted_n);
    for (const std::vector<double>& batch : state.batches) {
      engine->Append(batch.data(), batch.size());
    }
    return engine;
  }

  // Rebuilds an engine from a kind-tagged checkpoint blob. The blob is
  // untrusted (it came off disk): kind mismatches and serde corruption
  // throw runtime_error, which recovery surfaces at startup rather than
  // serving a metric whose state silently disagrees with its spec.
  //
  // A checkpoint of the retired sharded engine restores into a plain
  // metric (the manifest load made its spec plain): its shards merge into
  // one sketch, with Theorem 3's accuracy but not the shards' bytes. Every
  // boot before the first plain checkpoint converts again, so the merge
  // is deterministic.
  static EnginePtr MakeRecoveredEngine(const MetricSpec& spec,
                                       const std::vector<uint8_t>& blob,
                                       uint64_t accepted_n) {
    const EngineKind blob_kind = SnapshotBlobKind(blob);
    const std::vector<uint8_t> payload = SnapshotBlobPayload(blob);
    if (spec.kind == EngineKind::kPlain &&
        blob_kind == EngineKind::kSharded) {
      return std::make_shared<PlainReqEngine>(
          spec, concurrency::ShardedReqSketch<double>::Deserialize(payload)
                    .Merged(),
          accepted_n);
    }
    util::CheckData(blob_kind == spec.kind,
                    "snapshot engine kind differs from metric spec");
    if (spec.kind == EngineKind::kWindowed) {
      return std::make_shared<WindowedReqEngine>(
          spec, window::WindowedReqSketch<double>::Deserialize(payload),
          accepted_n);
    }
    return std::make_shared<PlainReqEngine>(
        spec, DeserializeSketch<double>(payload), accepted_n);
  }

  std::array<Shard, kRegistryShards> shards_;
  persist::DirectoryHook* durability_ = nullptr;
  std::atomic<uint64_t> max_metrics_{0};
  std::atomic<uint64_t> max_memory_bytes_{0};
  std::atomic<uint64_t> total_metrics_{0};
  std::atomic<uint64_t> memory_bytes_{0};
  std::atomic<uint64_t> rehydration_stats_evictions_{0};
  std::atomic<uint64_t> rehydration_stats_rehydrations_{0};
};

}  // namespace service
}  // namespace req

#endif  // REQSKETCH_SERVICE_SKETCH_REGISTRY_H_
