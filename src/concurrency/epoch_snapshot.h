// EpochSnapshotCache: the epoch-tagged read-snapshot primitive behind
// merge-on-query, factored out of the sharded orchestrator so every
// subsystem that publishes an expensive-to-build read view over mutating
// state shares one implementation (and one memory-ordering argument).
//
// Users: the service layer's SketchRegistry, for its sorted
// metric-directory snapshots (LIST; service/sketch_registry.h), and the
// sharded sketch, for its merged read sketch
// (concurrency/sharded_req_sketch.h).
//
// Contract:
//   * Writers bump a monotone epoch counter (owned by the caller) after
//     every mutation that should invalidate the snapshot.
//   * Readers call Get(epoch_of, rebuild). While the stored snapshot's tag
//     equals epoch_of(), the fast path is one atomic shared_ptr load plus
//     the epoch load -- lock-free, any number of concurrent readers.
//   * On a stale tag, rebuilds serialize on an internal mutex and re-check,
//     so a burst of concurrent readers after a mutation triggers exactly
//     one rebuild.
//   * The epoch is re-read (via epoch_of) BEFORE rebuild() runs, under the
//     rebuild lock: a mutation racing with the rebuild can only make the
//     stored tag stale (forcing a fresh rebuild on the next read), never
//     let stale data masquerade as fresh.
//   * Returned shared_ptrs alias the tagged block, so a snapshot stays
//     valid for as long as any reader holds it, across any number of
//     later rebuilds.
#ifndef REQSKETCH_CONCURRENCY_EPOCH_SNAPSHOT_H_
#define REQSKETCH_CONCURRENCY_EPOCH_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

namespace req {
namespace concurrency {

template <typename T>
class EpochSnapshotCache {
 public:
  EpochSnapshotCache() = default;

  // Not copyable or movable: the cache is an implementation detail of one
  // owning object and holds no state worth transplanting (a fresh cache
  // simply rebuilds on first use).
  EpochSnapshotCache(const EpochSnapshotCache&) = delete;
  EpochSnapshotCache& operator=(const EpochSnapshotCache&) = delete;

  // The stored snapshot, stale or not (null when none is stored): for
  // memory accounting, never for answers.
  std::shared_ptr<const T> Peek() const {
    std::shared_ptr<const Tagged> current =
        std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
    return current ? Alias(current) : nullptr;
  }

  // Drops the stored snapshot; the next Get rebuilds. Readers holding the
  // old one keep it alive through their shared_ptrs.
  void Clear() {
    std::atomic_store_explicit(&snapshot_, std::shared_ptr<const Tagged>(),
                               std::memory_order_release);
  }

  // Returns a snapshot no older than the epoch epoch_of() returned at some
  // point during the call. `epoch_of` must be safe to call concurrently
  // (typically an atomic load); `rebuild` is called at most once per Get,
  // under the rebuild lock, and must build the snapshot from the caller's
  // current state.
  template <typename EpochFn, typename RebuildFn>
  std::shared_ptr<const T> Get(EpochFn&& epoch_of, RebuildFn&& rebuild) const {
    std::shared_ptr<const Tagged> current =
        std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
    if (current && current->epoch == epoch_of()) return Alias(current);
    std::lock_guard<std::mutex> lock(rebuild_mutex_);
    current = std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
    if (current && current->epoch == epoch_of()) return Alias(current);
    // Epoch first, then data: see the class comment's race argument.
    const uint64_t epoch = epoch_of();
    auto fresh = std::make_shared<Tagged>(epoch, rebuild());
    std::shared_ptr<const Tagged> published = std::move(fresh);
    std::atomic_store_explicit(&snapshot_, published,
                               std::memory_order_release);
    return Alias(published);
  }

 private:
  struct Tagged {
    Tagged(uint64_t e, T&& v) : epoch(e), value(std::move(v)) {}
    uint64_t epoch;
    T value;
  };

  static std::shared_ptr<const T> Alias(
      const std::shared_ptr<const Tagged>& tagged) {
    return std::shared_ptr<const T>(tagged, &tagged->value);
  }

  mutable std::mutex rebuild_mutex_;
  // Accessed with std::atomic_load/store: readers snapshot it lock-free.
  mutable std::shared_ptr<const Tagged> snapshot_;
};

}  // namespace concurrency
}  // namespace req

#endif  // REQSKETCH_CONCURRENCY_EPOCH_SNAPSHOT_H_
