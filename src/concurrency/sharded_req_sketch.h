// ShardedReqSketch: multi-core ingestion for the REQ sketch.
//
// The REQ sketch is fully mergeable (Theorem 3 / Algorithm 3), so the
// scalable ingestion design is shard-per-thread: N independent ReqSketch
// shards, each owned by exactly one producer thread, with queries served
// by merging the shards on demand. This mirrors the DataSketches
// concurrent-sketch architecture (thread-local buffers + merge into a
// shared read view), adapted to REQ's merge-on-query strengths:
//
//   * Each shard has a fixed-capacity, cache-line-aligned SPSC staging
//     buffer (concurrency/spsc_buffer.h). The shard's single producer
//     pushes items lock-free; when the buffer fills, the producer drains
//     it into the shard's ReqSketch through the batch
//     Update(const T*, size_t) -- so the per-item ingest cost stays on the
//     batch fast path (sorted-prefix inserts, one compaction cascade per
//     level-0 fill) and the only synchronization per buffer-full of items
//     is one uncontended shard mutex.
//   * A global atomic epoch counter is bumped after every flush. Queries
//     come from SummaryQueries (core/summary_queries.h), the query
//     surface every summary shares, with one part: a cached merged view
//     (an EpochSnapshotCache, concurrency/epoch_snapshot.h), a ReqSketch
//     built by a single N-way Merge over all shards and tagged with the
//     epoch observed before the merge. While the epoch is unchanged,
//     queries are lock-free (an atomic shared_ptr load, held for the
//     whole query) and read the merged sketch's levels; after a flush,
//     the first query that passes its checks rebuilds the merged sketch.
//
// Threading contract:
//   * SINGLE WRITER PER SHARD: at most one thread may call
//     Update(shard, ...) / Flush(shard) for a given shard at a time.
//     Different shards are fully independent; a natural assignment is
//     shard = thread index.
//   * Any number of threads may run queries concurrently with producers.
//     Queries reflect *flushed* items only: items still in a staging
//     buffer become visible after the owning producer fills the buffer or
//     someone calls Flush/FlushAll. (FlushAll may run concurrently with
//     producers; draining happens under the shard lock.)
//   * Determinism: each shard's sketch is seeded base.seed + shard, and a
//     shard's content is a pure function of its own input sequence and
//     flush boundaries. A fixed per-shard input and flush schedule
//     (e.g. join producers, then FlushAll) reproduces byte-identical
//     serialized state across runs -- even with real concurrency, because
//     cross-shard timing never influences any shard's stream.
#ifndef REQSKETCH_CONCURRENCY_SHARDED_REQ_SKETCH_H_
#define REQSKETCH_CONCURRENCY_SHARDED_REQ_SKETCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "concurrency/epoch_snapshot.h"
#include "concurrency/spsc_buffer.h"
#include "core/req_common.h"
#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "core/summary_queries.h"
#include "util/serde.h"
#include "util/validation.h"

namespace req {
namespace concurrency {

struct ShardedReqConfig {
  // Number of independent shards; one producer thread per shard.
  size_t num_shards = 4;
  // Per-shard staging buffer capacity in items (rounded up to a power of
  // two). Larger buffers amortize the shard lock and the compaction
  // cascade over more items; 4096 doubles is one 32 KiB L1-resident block.
  size_t buffer_capacity = 4096;
  // Configuration for every shard sketch; shard i is seeded
  // base.seed + i so shards draw independent, reproducible coin flips.
  ReqConfig base;
};

template <typename T, typename Compare = std::less<T>>
class ShardedReqSketch
    : public SummaryQueries<ShardedReqSketch<T, Compare>, T, Compare> {
 public:
  using Sketch = ReqSketch<T, Compare>;
  using value_type = T;

  explicit ShardedReqSketch(const ShardedReqConfig& config = {},
                            Compare comp = Compare())
      : config_(config), comp_(comp) {
    util::CheckArg(config.num_shards >= 1, "num_shards must be >= 1");
    util::CheckArg(config.buffer_capacity >= 1 &&
                       config.buffer_capacity <= (uint64_t{1} << 32),
                   "buffer_capacity must be in [1, 2^32]");
    shards_.reserve(config.num_shards);
    for (size_t i = 0; i < config.num_shards; ++i) {
      ReqConfig shard_config = config.base;
      shard_config.seed = config.base.seed + i;
      shards_.push_back(std::make_unique<Shard>(config.buffer_capacity,
                                                shard_config, comp));
    }
  }

  // --- basic accessors -----------------------------------------------------

  const ShardedReqConfig& config() const { return config_; }
  size_t num_shards() const { return shards_.size(); }

  // Total items flushed into shard sketches (what queries can see).
  uint64_t FlushedN() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->flushed_n.load(std::memory_order_acquire);
    }
    return total;
  }
  uint64_t n() const { return FlushedN(); }
  bool is_empty() const { return FlushedN() == 0; }

  // Items sitting in staging buffers, not yet visible to queries. Exact
  // only while producers are quiescent.
  uint64_t BufferedItems() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->buffer.size();
    return total;
  }

  // Stored universe items across all shard sketches (space measure).
  size_t RetainedItems() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total += shard->sketch.RetainedItems();
    }
    return total;
  }

  // Resident heap footprint: every shard's staging buffer (at capacity),
  // flush scratch, and sketch, plus the cached merged view when one is
  // published. Takes each shard lock in turn (never two at once).
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this) + shards_.capacity() * sizeof(void*);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      // sketch.MemoryBytes() counts the sketch header already inside
      // sizeof(Shard); charge the Shard once and subtract the overlap.
      bytes += sizeof(Shard) - sizeof(Sketch) +
               shard->buffer.capacity() * sizeof(T) +
               shard->flush_scratch.capacity() * sizeof(T) +
               shard->sketch.MemoryBytes();
    }
    if (const std::shared_ptr<const Sketch> merged = merged_.Peek()) {
      bytes += merged->MemoryBytes();
    }
    return bytes;
  }

  // Releases allocator slack on every shard (flush scratch, level-buffer
  // slack) and drops the cached merged view. Requires the
  // producers to be quiescent, like Merge; concurrent queries remain safe
  // (a query holding the old merged view keeps it alive through its
  // shared_ptr).
  void TrimMemory() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->sketch.TrimMemory();
      shard->flush_scratch.clear();
      shard->flush_scratch.shrink_to_fit();
    }
    merged_.Clear();
  }

  // Monotone counter bumped after every flush/merge; the cached merged
  // view is tagged with it (exposed for tests and monitoring).
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

  // --- producer API (single writer per shard) ------------------------------

  // Buffers one item for `shard`; flushes the shard when the buffer is
  // full. Only the shard's owning producer thread may call this.
  void Update(size_t shard, const T& item) {
    Shard& s = GetShard(shard);
    while (!s.buffer.TryPush(item)) Flush(shard);
  }

  // Buffers `count` items in order; flushes whenever the staging buffer
  // fills. Flush boundaries land exactly where a per-item loop would put
  // them, so bulk and per-item feeding produce identical shard state.
  void Update(size_t shard, const T* data, size_t count) {
    Shard& s = GetShard(shard);
    while (count > 0) {
      const size_t pushed = s.buffer.TryPushBulk(data, count);
      data += pushed;
      count -= pushed;
      if (count > 0) Flush(shard);
    }
  }

  void Update(size_t shard, const std::vector<T>& items) {
    Update(shard, items.data(), items.size());
  }

  // Drains `shard`'s staging buffer into its sketch via the batch update
  // path. Callable by the shard's producer (buffer-full path) or by an
  // administrative thread acting as the buffer's consumer (e.g. FlushAll
  // before a query barrier) -- the shard lock serializes the two.
  void Flush(size_t shard) {
    Shard& s = GetShard(shard);
    std::lock_guard<std::mutex> lock(s.mutex);
    s.flush_scratch.clear();
    if (s.buffer.PopAll(&s.flush_scratch) > 0) {
      s.sketch.Update(s.flush_scratch.data(), s.flush_scratch.size());
      s.flushed_n.store(s.sketch.n(), std::memory_order_release);
      // Bump INSIDE the shard lock: a FlushAll that serializes behind
      // this flush (and pops nothing) must observe the bumped epoch, or
      // a query after its FlushAll could serve a cached merged view
      // missing items this flush already applied. Safe with View(): it
      // reads the epoch before taking the shard locks, so a concurrent
      // bump can only make its tag stale, never its data.
      BumpEpoch();
    }
  }

  // Flushes every shard. Queries issued afterwards (with producers
  // quiescent) see every item ingested so far.
  void FlushAll() {
    for (size_t i = 0; i < shards_.size(); ++i) Flush(i);
  }

  // --- merging -------------------------------------------------------------

  // Absorbs another sharded sketch: flushes it, snapshots its shard
  // sketches, and N-way-merges them into this sketch's shards
  // round-robin. `other` is flushed but not otherwise modified; shard
  // counts need not match. Requires exclusive access to `other`'s
  // producers; concurrent queries on either object remain safe.
  void Merge(ShardedReqSketch& other) {
    util::CheckArg(this != &other,
                   "cannot merge a sharded sketch into itself");
    other.FlushAll();
    // Snapshot under one lock at a time (never both objects' locks at
    // once), so two threads merging in opposite directions cannot
    // deadlock.
    std::vector<Sketch> snapshots;
    snapshots.reserve(other.shards_.size());
    for (const auto& shard : other.shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      if (!shard->sketch.is_empty()) snapshots.push_back(shard->sketch);
    }
    if (snapshots.empty()) return;
    std::vector<const Sketch*> per_target;
    for (size_t target = 0; target < shards_.size(); ++target) {
      per_target.clear();
      for (size_t j = target; j < snapshots.size(); j += shards_.size()) {
        per_target.push_back(&snapshots[j]);
      }
      if (per_target.empty()) continue;
      Shard& s = *shards_[target];
      std::lock_guard<std::mutex> lock(s.mutex);
      s.sketch.Merge(per_target.data(), per_target.size());
      s.flushed_n.store(s.sketch.n(), std::memory_order_release);
    }
    BumpEpoch();
  }

  // A standalone ReqSketch summarizing all flushed items (a copy of the
  // cached merged view).
  Sketch Merged() const { return *View(); }

  // A copy of one shard's sketch (diagnostics and tests).
  Sketch ShardSnapshot(size_t shard) const {
    const Shard& s = GetShard(shard);
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.sketch;
  }

  // --- queries: SummaryQueries (core/summary_queries.h) --------------------
  //
  // The part is the cached merged view. An empty sketch and a bad argument
  // are rejected before the view is touched, so they never build one.

  double RelativeStdErr() const {
    return params::RelativeStdErr(config_.base.k_base);
  }

  // --- serialization (trivially copyable T) --------------------------------
  //
  // Layout: u32 magic | u8 version | u32 num_shards | u64 buffer_capacity |
  //         per shard: u64 byte count | ReqSerde payload.
  // Serializes flushed state only; call FlushAll() (with producers
  // quiescent) first -- buffered items would otherwise be silently lost,
  // so a non-empty buffer is an error.
  template <typename U = T>
  std::vector<uint8_t> Serialize() const {
    static_assert(std::is_trivially_copyable_v<U>,
                  "Serialize supports trivially copyable item types");
    util::CheckState(BufferedItems() == 0,
                     "Serialize() requires FlushAll() first");
    util::BinaryWriter writer;
    writer.Write<uint32_t>(kMagic);
    writer.Write<uint8_t>(kVersion);
    writer.Write<uint32_t>(static_cast<uint32_t>(shards_.size()));
    writer.Write<uint64_t>(config_.buffer_capacity);
    for (const auto& shard : shards_) {
      std::vector<uint8_t> payload;
      {
        std::lock_guard<std::mutex> lock(shard->mutex);
        payload = ReqSerde<T, Compare>::Serialize(shard->sketch);
      }
      writer.WriteVector<uint8_t>(payload);
    }
    return writer.Release();
  }

  template <typename U = T>
  static ShardedReqSketch Deserialize(const std::vector<uint8_t>& bytes,
                                      Compare comp = Compare()) {
    static_assert(std::is_trivially_copyable_v<U>,
                  "Deserialize supports trivially copyable item types");
    util::BinaryReader reader(bytes);
    util::CheckData(reader.Read<uint32_t>() == kMagic,
                    "not a serialized sharded REQ sketch (bad magic)");
    util::CheckData(reader.Read<uint8_t>() == kVersion,
                    "unsupported sharded sketch serialization version");
    const uint32_t num_shards = reader.Read<uint32_t>();
    util::CheckData(num_shards >= 1 && num_shards <= (1u << 16),
                    "corrupt sharded sketch: implausible shard count");
    ShardedReqConfig config;
    config.num_shards = num_shards;
    config.buffer_capacity = reader.Read<uint64_t>();
    util::CheckData(config.buffer_capacity >= 1 &&
                        config.buffer_capacity <= (uint64_t{1} << 32),
                    "corrupt sharded sketch: implausible buffer capacity");
    std::vector<Sketch> sketches;
    sketches.reserve(num_shards);
    for (uint32_t i = 0; i < num_shards; ++i) {
      const std::vector<uint8_t> payload = reader.ReadVector<uint8_t>();
      sketches.push_back(ReqSerde<T, Compare>::Deserialize(payload, comp));
      // Shards must be mutually mergeable, or the first query (which
      // merges them) would surface data corruption as an invalid-argument
      // error far from the load site.
      util::CheckData(
          sketches[i].config().k_base == sketches[0].config().k_base &&
              sketches[i].config().accuracy ==
                  sketches[0].config().accuracy,
          "corrupt sharded sketch: shards disagree on k_base/accuracy");
    }
    // A num_shards corrupted downward would otherwise parse cleanly and
    // silently drop the unread shard payloads.
    util::CheckData(reader.AtEnd(),
                    "corrupt sharded sketch: trailing bytes");
    config.base = sketches.front().config();
    // Returned as a prvalue (guaranteed elision): the class itself is
    // neither copyable nor movable (per-shard mutexes and atomics).
    return ShardedReqSketch(config, std::move(comp), std::move(sketches));
  }

 private:
  friend class SummaryQueries<ShardedReqSketch, T, Compare>;

  static constexpr uint32_t kMagic = 0x53485251;  // "SHRQ"
  static constexpr uint8_t kVersion = 1;

  // Deserialization: builds the shard scaffolding, then installs the
  // restored shard sketches.
  ShardedReqSketch(const ShardedReqConfig& config, Compare comp,
                   std::vector<Sketch>&& sketches)
      : ShardedReqSketch(config, std::move(comp)) {
    for (size_t i = 0; i < sketches.size(); ++i) {
      Shard& s = *shards_[i];
      s.sketch = std::move(sketches[i]);
      s.flushed_n.store(s.sketch.n(), std::memory_order_release);
    }
  }

  // One shard: staging buffer + sketch + lock, padded to its own cache
  // line so producers on different shards never false-share.
  struct alignas(kCacheLineSize) Shard {
    Shard(size_t buffer_capacity, const ReqConfig& sketch_config,
          const Compare& comp)
        : buffer(buffer_capacity), sketch(sketch_config, comp) {}

    SpscBuffer<T> buffer;
    // Guards sketch, flush_scratch, and the buffer's consumer role.
    mutable std::mutex mutex;
    Sketch sketch;
    // Reused drain target for flushes (allocation-free steady state).
    std::vector<T> flush_scratch;
    // sketch.n() published after each flush, so FlushedN() needs no locks.
    std::atomic<uint64_t> flushed_n{0};
  };

  Shard& GetShard(size_t shard) const {
    util::CheckArg(shard < shards_.size(), "shard index out of range");
    return *shards_[shard];
  }

  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_release); }

  // Returns the current merged view, rebuilding it when stale: the fast
  // path (epoch unchanged) is lock-free, and concurrent queries after a
  // flush trigger exactly one merge (EpochSnapshotCache::Get).
  std::shared_ptr<const Sketch> View() const {
    return merged_.Get(
        [this] { return epoch_.load(std::memory_order_acquire); },
        [this] { return BuildMerged(); });
  }

  // SummaryQueries' hook: the merged view is the one part, held alive
  // for the whole query. The view can only be empty when Merged() cached
  // one before any flush and a query runs between a flush's count store
  // and its epoch bump; that query throws instead of reading it.
  template <typename F>
  auto WithParts(F&& f) const {
    const std::shared_ptr<const Sketch> view = View();
    util::CheckState(!view->is_empty(),
                     "query raced the first flush of a sharded sketch");
    const Sketch* part = view.get();
    return f(&part, size_t{1});
  }

  // One N-way Merge of every non-empty shard. The cache reads the epoch
  // before calling this, so a flush racing with the merge can only make
  // the tag stale (forcing a rebuild on the next query), never let stale
  // data masquerade as fresh.
  Sketch BuildMerged() const {
    ReqConfig merged_config = config_.base;
    // Decorrelate the merged sketch's compaction coin flips from shard 0's
    // (shard i is seeded base.seed + i).
    merged_config.seed = config_.base.seed ^ 0x9e3779b97f4a7c15ULL;
    Sketch merged(merged_config, comp_);
    // Hold every shard lock for the duration of the single N-way merge:
    // the merge then sees one consistent cross-shard snapshot and can
    // pre-size its level buffers once. Flush() takes only its own shard's
    // lock and this acquires in index order, so it cannot deadlock.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    std::vector<const Sketch*> sources;
    sources.reserve(shards_.size());
    for (const auto& shard : shards_) {
      locks.emplace_back(shard->mutex);
      if (!shard->sketch.is_empty()) sources.push_back(&shard->sketch);
    }
    if (!sources.empty()) merged.Merge(sources.data(), sources.size());
    return merged;
  }

  ShardedReqConfig config_;
  Compare comp_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Bumped after every flush/merge; tags the merged view.
  std::atomic<uint64_t> epoch_{0};
  EpochSnapshotCache<Sketch> merged_;
};

}  // namespace concurrency
}  // namespace req

#endif  // REQSKETCH_CONCURRENCY_SHARDED_REQ_SKETCH_H_
