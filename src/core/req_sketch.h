// ReqSketch: the full Relative Error Quantiles sketch (Algorithm 2 of the
// paper), a stack of relative-compactors where the output stream of level h
// feeds level h+1 and items at level h carry weight 2^h.
//
// Capabilities:
//   * One-pass streaming updates with no advance knowledge of the stream
//     length: the input-size bound N starts at N0 = 8 * k_base and squares
//     whenever exceeded, with per-level parameter recomputation and special
//     compactions (Section 5 / Appendix D, footnote-9 variant). The simpler
//     close-out scheme of Section 5 is implemented separately in
//     req_chain.h.
//   * Batch updates: Update(const T*, size_t) appends run-length chunks
//     directly into level 0 and runs the compaction cascade once per fill
//     instead of once per item. Produces a sketch bit-identical to the
//     equivalent sequence of single-item updates (same seeds, same
//     compaction schedule, same coin flips).
//   * Full mergeability (Theorem 3, Algorithm 3): Merge() combines two
//     sketches built from arbitrary merge trees; compaction-schedule states
//     combine by bitwise OR, parameters regrow as needed, and each level is
//     compacted at most once per merge.
//   * Rank, quantile, CDF and PMF queries with inclusive or exclusive
//     semantics; HRA (accurate near the max; default) or LRA orientation.
//     Bulk queries: GetRanks(const T*, size_t, uint64_t*) answers a whole
//     batch in one co-scan of the sorted view, and GetCDF shares the same
//     kernel.
//
// Storage: each level owns a buffer sized to what it can hold (the growth
// rule in core/relative_compactor.h), so between queries a sketch's
// resident bytes stay close to its retained items -- the payload its
// checkpoint blob carries. No compaction scratch is kept per sketch: the
// streaming path's is per thread, a merge's lives for the call. Each
// level is stored in compaction order (descending for HRA; see
// core/relative_compactor.h); schedule, coin flips, per-level multisets
// and query answers do not depend on it.
//
// Query engine: GetRank sums per-level binary-search counts, and
// GetQuantile(s) select from the levels through a query-local index (the
// stored sorted prefix of each level plus a sorted copy of its insert
// tail; see LevelSelector). Neither builds a sorted view or leaves memory
// behind, so a quantile query right after a write pays no view rebuild.
// The bulk kernels (GetRanks, GetCDF/GetPMF) and GetSortedView go
// through a memoized sorted view that is maintained *incrementally*: the
// cache keeps a sorted run per level (stamped with the level's content
// version) plus a merged run of all levels >= 1, and a rebuild after an
// update re-sorts only the levels that actually changed -- usually just
// level 0, an O(dirty) repair instead of an O(R log R) rebuild. The
// seed-era full path -- AppendWeightedItems into a SortedView (collect +
// sort all weighted pairs) -- is the reference that benches and
// equivalence tests compare against.
//
// Thread safety: any number of threads may run const query methods
// concurrently on a shared sketch (quantile selection takes no lock and
// only reads the levels; the lazily memoized sorted view is filled under
// an internal lock with a double-checked atomic flag), but mutations
// (Update / Merge) still require exclusive access: no query or other
// mutation may run concurrently with them. This is exactly the
// contract the sharded orchestrator in concurrency/sharded_req_sketch.h
// needs: shards are mutated under a per-shard lock while the merged
// read-only view is queried freely from many threads.
//
// Error guarantee (Theorem 1): for a fixed item y, with probability 1-delta,
//   |RankEstimate(y) - R(y)| <= eps * R(y)          (LRA)
//   |RankEstimate(y) - R(y)| <= eps * (n - R(y))    (HRA, mirrored)
// where eps ~ c / k_base. The sketch stores
// O(k_base * log^{1.5}(n / k_base)) items (Theorems 14/36).
#ifndef REQSKETCH_CORE_REQ_SKETCH_H_
#define REQSKETCH_CORE_REQ_SKETCH_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/relative_compactor.h"
#include "core/req_common.h"
#include "core/sorted_view.h"
#include "util/random.h"
#include "util/validation.h"

namespace req {

namespace detail {

// std::atomic<bool> with value-copy semantics so the sketch stays copyable.
// Copies transfer the value, not any synchronization relationship: they are
// only made while the source sketch is externally quiescent.
struct CopyableAtomicBool {
  std::atomic<bool> value{false};
  CopyableAtomicBool() = default;
  CopyableAtomicBool(const CopyableAtomicBool& other) noexcept
      : value(other.value.load(std::memory_order_acquire)) {}
  CopyableAtomicBool& operator=(const CopyableAtomicBool& other) noexcept {
    value.store(other.value.load(std::memory_order_acquire),
                std::memory_order_release);
    return *this;
  }
};

// A mutex that copy/move-constructs to a fresh, unlocked mutex: the lock
// protects per-object lazy initialization, so it never travels with the
// data it guards.
struct CopyableMutex {
  std::mutex mutex;
  CopyableMutex() = default;
  CopyableMutex(const CopyableMutex&) noexcept {}
  CopyableMutex& operator=(const CopyableMutex&) noexcept { return *this; }
};

}  // namespace detail

template <typename T, typename Compare>
struct ReqSerde;  // defined in core/req_serde.h; needs internal access

template <typename T, typename Compare = std::less<T>>
class ReqSketch {
 public:
  using value_type = T;
  using Level = RelativeCompactor<T, Compare>;

  explicit ReqSketch(const ReqConfig& config = ReqConfig(),
                     Compare comp = Compare())
      : config_(config), comp_(std::move(comp)), rng_(config.seed) {
    params::ValidateConfig(config_);
    if (config_.n_hint > 0) {
      n_bound_ = std::max(config_.n_hint, params::InitialN(config_.k_base));
      fixed_n_ = true;
    } else {
      n_bound_ = params::InitialN(config_.k_base);
    }
    RecomputeGeometry();
    levels_.emplace_back(MakeLevel());
    view_cache_.view = SortedView<T, Compare>(comp_);
  }

  // Copies and moves carry the view cache as value data. They are only
  // made while the source is quiescent (same contract as the atomics in
  // the cache machinery).
  ReqSketch(const ReqSketch&) = default;
  ReqSketch(ReqSketch&&) = default;
  ReqSketch& operator=(const ReqSketch&) = default;
  ReqSketch& operator=(ReqSketch&&) = default;

  // --- basic accessors -----------------------------------------------------

  const ReqConfig& config() const { return config_; }
  bool is_empty() const { return n_ == 0; }
  // Exact number of items the sketch represents.
  uint64_t n() const { return n_; }
  // Current input-size upper bound N (squares as the stream grows).
  uint64_t n_bound() const { return n_bound_; }
  size_t num_levels() const { return levels_.size(); }
  uint32_t section_size() const { return section_size_; }
  uint32_t num_sections() const { return num_sections_; }
  uint32_t level_capacity() const {
    return params::Capacity(section_size_, num_sections_);
  }
  const std::vector<Level>& levels() const { return levels_; }

  // Number of items currently stored across all levels (the paper's space
  // measure, "number of universe items stored").
  size_t RetainedItems() const {
    size_t total = 0;
    for (const Level& level : levels_) total += level.size();
    return total;
  }

  // Total weight represented by stored items; equals n() at all times
  // (compactions always promote exactly half of an even-sized range).
  uint64_t TotalWeight() const {
    uint64_t total = 0;
    for (size_t h = 0; h < levels_.size(); ++h) {
      total += levels_[h].size() << h;
    }
    return total;
  }

  uint64_t NumCompactions() const {
    uint64_t total = 0;
    for (const Level& level : levels_) total += level.num_compactions();
    return total;
  }

  // O(1) upper bound on RetainedItems(): a quiescent level never stores
  // more than its capacity B. Useful where an exact count per call would
  // be wasteful -- e.g. the sliding-window wrapper sizing its merge
  // scratch or reporting window memory without walking every bucket level.
  size_t EstimateRetainedItems() const {
    return levels_.size() * static_cast<size_t>(level_capacity());
  }

  // Resident heap footprint of the sketch in bytes: object header, level
  // table, level buffers at capacity, and the memoized view cache (runs,
  // upper run, published view). This is the figure quota accounting
  // charges per metric, so it counts what the allocator holds, not just
  // live items. Takes the view lock briefly so a concurrent view rebuild
  // cannot race the cache walk.
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this) + levels_.capacity() * sizeof(Level);
    for (const Level& level : levels_) {
      bytes += level.buffer_capacity() * sizeof(T);
    }
    std::lock_guard<std::mutex> lock(view_mutex_.mutex);
    const ViewCacheState& c = view_cache_;
    bytes += c.runs.capacity() * sizeof(std::vector<T>);
    for (const std::vector<T>& run : c.runs) {
      bytes += run.capacity() * sizeof(T);
    }
    bytes += c.run_versions.capacity() * sizeof(uint64_t);
    bytes += c.run_valid.capacity() * sizeof(char);
    bytes += c.upper_items.capacity() * sizeof(T);
    bytes += c.upper_weights.capacity() * sizeof(uint64_t);
    bytes += c.view.items().capacity() * sizeof(T);
    bytes += c.view.cum_weights().capacity() * sizeof(uint64_t);
    return bytes;
  }

  // Releases everything except the sketch payload itself: drops the
  // memoized view cache and each level buffer's slack. Accuracy and query
  // answers are unaffected -- the next rank/CDF query simply rebuilds its
  // view, and levels regrow their buffers on demand. Requires exclusive
  // access, like any mutator; the idle-metric steady state after a trim
  // is the paper's O(k log n) payload plus fixed object headers.
  void TrimMemory() {
    {
      std::lock_guard<std::mutex> lock(view_mutex_.mutex);
      ResetViewCache();
    }
    for (Level& level : levels_) level.ShrinkToFit();
  }

  // Exact stream minimum / maximum (tracked outside the buffers).
  const T& MinItem() const {
    util::CheckState(n_ > 0, "MinItem() on an empty sketch");
    return *min_item_;
  }
  const T& MaxItem() const {
    util::CheckState(n_ > 0, "MaxItem() on an empty sketch");
    return *max_item_;
  }

  // --- updates -------------------------------------------------------------

  void Update(const T& item) {
    CheckUpdatable(item);
    GrowIfNeeded(n_ + 1);
    TrackMinMax(item);
    levels_[0].Insert(item);
    ++n_;
    if (levels_[0].IsFull()) CompactCascade(0);
    InvalidateView();
  }

  // Batch update: summarizes `count` items as if each had been passed to
  // the single-item Update, but with the per-item overhead (growth check,
  // min/max tracking, fullness test) amortized over level-0 fills. With
  // identical configuration and seed, the resulting sketch is bit-identical
  // to the one produced by single-item updates: the chunking below breaks
  // exactly at every level-0 fill and every N-regrowth boundary, so the
  // compaction schedule and the coin-flip sequence are the same.
  //
  // Unlike a sequence of single-item updates, the batch validates every
  // item up front: if any item is NaN the call throws without applying
  // anything (strong guarantee).
  void Update(const T* data, size_t count) {
    if (count == 0) return;
    for (size_t i = 0; i < count; ++i) CheckUpdatable(data[i]);

    size_t i = 0;
    while (i < count) {
      GrowIfNeeded(n_ + 1);
      Level& level0 = levels_[0];
      const size_t room = level0.capacity() > level0.size()
                              ? level0.capacity() - level0.size()
                              : 0;
      if (room == 0) {
        // Defensive: cannot normally happen (the cascade below always
        // leaves level 0 under capacity).
        CompactCascade(0);
        continue;
      }
      size_t chunk = std::min(count - i, room);
      if (!fixed_n_) {
        // Never cross an N-regrowth boundary inside a chunk; the next loop
        // iteration regrows first, exactly as single-item updates would.
        chunk = static_cast<size_t>(std::min<uint64_t>(chunk, n_bound_ - n_));
      }
      // Min/max pass fused into the chunk loop: the chunk is still hot in
      // cache when it is appended below.
      const T* mn = data + i;
      const T* mx = data + i;
      for (size_t j = i + 1; j < i + chunk; ++j) {
        if (comp_(data[j], *mn)) mn = data + j;
        if (comp_(*mx, data[j])) mx = data + j;
      }
      TrackMinMax(*mn);
      TrackMinMax(*mx);
      level0.Insert(data + i, chunk);
      n_ += chunk;
      i += chunk;
      if (levels_[0].IsFull()) CompactCascade(0);
    }
    InvalidateView();
  }

  void Update(const std::vector<T>& items) {
    Update(items.data(), items.size());
  }

  // Returns the sketch to its freshly constructed state (same config, same
  // comparator) while keeping the level-0 buffer allocation: the cheap
  // bucket-retirement primitive for the sliding-window subsystem
  // (window/windowed_req_sketch.h). Equivalent to assigning a
  // newly-constructed ReqSketch(config()) but without revalidating the
  // config or reallocating the hot level; with the same seed and input, a
  // Reset() sketch serializes byte-identically to a fresh one.
  void Reset() { Reset(config_.seed); }

  // Reset variant that also reseeds the PRNG (and records the new seed in
  // the config, so serialization round-trips it): the window gives every
  // bucket epoch a distinct deterministic seed, so recycled buckets draw
  // fresh, reproducible coin flips.
  void Reset(uint64_t seed) {
    config_.seed = seed;
    rng_ = util::Xoshiro256(seed);
    n_ = 0;
    if (config_.n_hint > 0) {
      n_bound_ = std::max(config_.n_hint, params::InitialN(config_.k_base));
      fixed_n_ = true;
    } else {
      n_bound_ = params::InitialN(config_.k_base);
      fixed_n_ = false;
    }
    RecomputeGeometry();
    // Keep level 0 (and its buffer); upper levels are torn down, so the
    // level stack matches a fresh sketch exactly. (erase, not resize:
    // Level has no default constructor.)
    levels_.erase(levels_.begin() + 1, levels_.end());
    levels_[0].Clear();
    levels_[0].SetGeometry(section_size_, num_sections_);
    min_item_.reset();
    max_item_.reset();
    // Full view-cache teardown (not just invalidation): freshly created
    // upper levels restart their version counters, so stale cached runs
    // could otherwise alias a new level's early versions.
    ResetViewCache();
  }

  // Merges `other` into this sketch (Algorithm 3). Both sketches must have
  // been built with the same k_base and rank-accuracy orientation. `other`
  // is not modified. After the call, this sketch summarizes the
  // concatenation of both inputs with the guarantees of Theorem 3.
  void Merge(const ReqSketch& other) {
    const ReqSketch* source = &other;
    Merge(&source, 1);
  }

  // N-way merge over a contiguous array of sketches. Equivalent to merging
  // them pairwise left-to-right but cheaper: this sketch grows its bound
  // and pre-sizes every level buffer exactly once for the combined
  // contents, then runs a single bottom-up compaction sweep (at most one
  // scheduled compaction per level for the whole batch) instead of one
  // cascade per source.
  void Merge(const ReqSketch* sketches, size_t count) {
    std::vector<const ReqSketch*> sources;
    sources.reserve(count);
    for (size_t i = 0; i < count; ++i) sources.push_back(&sketches[i]);
    Merge(sources.data(), count);
  }

  // Pointer-array form of the N-way merge, for sources that do not live in
  // a contiguous array (e.g. the per-shard sketches of the concurrent
  // orchestrator). `Merge(&p, 1)` is bit-identical to the pairwise
  // `Merge(*p)` (same special compactions, same coin flips).
  void Merge(const ReqSketch* const* sources, size_t count) {
    uint64_t n_new = n_;
    size_t max_levels = levels_.size();
    for (size_t i = 0; i < count; ++i) {
      const ReqSketch& src = *sources[i];
      util::CheckArg(&src != this, "cannot merge a sketch into itself");
      util::CheckArg(config_.k_base == src.config_.k_base,
                     "cannot merge sketches with different k_base");
      util::CheckArg(config_.accuracy == src.config_.accuracy,
                     "cannot merge sketches with different rank-accuracy "
                     "orientation");
      if (src.is_empty()) continue;
      n_new += src.n_;
      max_levels = std::max(max_levels, src.levels_.size());
    }
    if (n_new == n_) return;  // every source empty

    // Lines 4-7 of Algorithm 3: if our bound is too small, run special
    // compactions and square N (possibly repeatedly). One growth to the
    // final combined size replaces the per-merge regrowth a pairwise
    // cascade would perform.
    GrowIfNeeded(n_new);
    EnsureLevel(max_levels - 1);

    // Lines 10-11: a source sketch built under a smaller bound is
    // special-compacted first, on a copy of its levels under *its*
    // parameters, so the source's storage is never touched. When the
    // bounds already agree the copy is skipped and the source buffers are
    // read in place. All regrowth happens BEFORE the reservation below, in
    // source order (the coin flips it draws are therefore the same as
    // regrowing lazily), so the reservation can use the post-compaction
    // sizes.
    std::vector<std::vector<Level>> regrown(count);
    std::vector<const std::vector<Level>*> level_stacks(count, nullptr);
    for (size_t i = 0; i < count; ++i) {
      const ReqSketch& src = *sources[i];
      if (src.is_empty()) continue;
      if (src.n_bound_ < n_bound_) {
        regrown[i] = src.levels_;
        SpecialCompactLevels(&regrown[i]);
        level_stacks[i] = &regrown[i];
      } else {
        level_stacks[i] = &src.levels_;
      }
    }

    // Size each level once for everything about to arrive, instead of a
    // reallocation per level per source.
    for (size_t h = 0; h < levels_.size(); ++h) {
      size_t total = levels_[h].size();
      for (size_t i = 0; i < count; ++i) {
        const std::vector<Level>* stack = level_stacks[i];
        if (stack != nullptr && h < stack->size()) total += (*stack)[h].size();
      }
      levels_[h].Reserve(total);
    }

    for (size_t i = 0; i < count; ++i) {
      if (level_stacks[i] == nullptr) continue;
      const ReqSketch& src = *sources[i];
      const std::vector<Level>& stack = *level_stacks[i];

      // Combine schedule states (bitwise OR; Facts 18/19) and concatenate
      // buffers level by level.
      for (size_t h = 0; h < stack.size(); ++h) {
        levels_[h].OrState(stack[h].state());
        levels_[h].InsertAll(stack[h].items());
      }

      if (src.min_item_ &&
          (!min_item_ || comp_(*src.min_item_, *min_item_))) {
        min_item_ = src.min_item_;
      }
      if (src.max_item_ &&
          (!max_item_ || comp_(*max_item_, *src.max_item_))) {
        max_item_ = src.max_item_;
      }
    }

    n_ = n_new;

    // Lines 22-24: at most one scheduled compaction per level, bottom-up.
    // Compact() consumes everything beyond the nominal capacity, so a
    // level that received items from many sources still settles in one
    // pass. Such a level can hold many times B items, so its scratch is
    // freed on return rather than kept as the thread's PromoteScratch.
    std::vector<T> promoted;
    for (size_t h = 0; h < levels_.size(); ++h) {
      if (levels_[h].size() >= levels_[h].capacity()) {
        EnsureLevel(h + 1);
        levels_[h].Compact(rng_, &promoted);
        levels_[h + 1].InsertAll(std::move(promoted));
      }
    }
    InvalidateView();
  }

  // --- queries -------------------------------------------------------------

  // Estimate-Rank(y) of Algorithm 2: sum over levels of 2^h times the
  // number of stored items <= y (inclusive) or < y (exclusive). Each level
  // answers by binary search over its sorted prefix plus a scan of its
  // small insert tail: O(levels * log B) rather than O(RetainedItems).
  uint64_t GetRank(const T& y,
                   Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetRank() on an empty sketch");
    uint64_t rank = 0;
    for (size_t h = 0; h < levels_.size(); ++h) {
      rank += levels_[h].CountRank(y, criterion) << h;
    }
    return rank;
  }

  double GetNormalizedRank(
      const T& y, Criterion criterion = Criterion::kInclusive) const {
    return static_cast<double>(GetRank(y, criterion)) /
           static_cast<double>(n_);
  }

  // Bulk rank kernel: fills out[i] with the estimated absolute rank of
  // ys[i]. Sorts the query points once and answers all of them in a
  // single co-scan of the weight-indexed sorted view --
  // O((Q + R) + Q log Q) instead of Q * O(log R). Answers are exactly
  // equal to Q separate view-routed rank queries. NaN query points are
  // rejected up front (the kernel sorts the points, and NaN breaks the
  // strict weak ordering std::sort requires).
  void GetRanks(const T* ys, size_t count, uint64_t* out,
                Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetRanks() on an empty sketch");
    if (count == 0) return;
    detail::CheckBulkQueryPoints(ys, count);
    CachedSortedView().GetRanks(ys, count, out, criterion);
  }

  // Batched rank queries (vector convenience form of the bulk kernel).
  std::vector<uint64_t> GetRanks(
      const std::vector<T>& ys,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetRanks() on an empty sketch");
    std::vector<uint64_t> out(ys.size());
    if (!ys.empty()) {
      detail::CheckBulkQueryPoints(ys.data(), ys.size());
      CachedSortedView().GetRanks(ys.data(), ys.size(), out.data(),
                                  criterion);
    }
    return out;
  }

  // Smallest item whose estimated rank reaches q * n (the target rule is
  // detail::QuantileTarget, shared with SortedView::GetQuantile). Selected
  // from the levels through a query-local index (LevelSelector below): no
  // sorted view is built, storage is not touched, and nothing stays
  // resident after the call.
  T GetQuantile(double q, Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetQuantile() on an empty sketch");
    // NaN-rejecting up front: a NaN q fails both comparisons, so it can
    // never reach the selection.
    util::CheckArg(q >= 0.0 && q <= 1.0, "normalized rank must be in [0, 1]");
    // q = 0 and q = 1 return the exactly tracked extremes (the extreme
    // items themselves may have been compacted out of the buffers).
    if (q == 0.0) return *min_item_;
    if (q == 1.0) return *max_item_;
    return LevelSelector(*this).Select(q, criterion);
  }

  // GetQuantile at each rank; the selection index is built once for the
  // whole batch.
  std::vector<T> GetQuantiles(
      const std::vector<double>& qs,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetQuantiles() on an empty sketch");
    // Validate every rank up front (NaN-rejecting), so a bad rank anywhere
    // in the batch throws before any result is produced or any index built.
    for (double q : qs) {
      util::CheckArg(q >= 0.0 && q <= 1.0,
                     "normalized rank must be in [0, 1]");
    }
    std::optional<LevelSelector> selector;
    std::vector<T> out;
    out.reserve(qs.size());
    for (double q : qs) {
      if (q == 0.0) {
        out.push_back(*min_item_);
      } else if (q == 1.0) {
        out.push_back(*max_item_);
      } else {
        if (!selector) selector.emplace(*this);
        out.push_back(selector->Select(q, criterion));
      }
    }
    return out;
  }

  // CDF at the given (ascending) split points: result[i] is the estimated
  // normalized rank of split[i]; a final entry of 1.0 is appended. The
  // ascending precondition makes this the sort-free case of the bulk
  // kernel: one forward co-scan of the view.
  std::vector<double> GetCDF(
      const std::vector<T>& splits,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetCDF() on an empty sketch");
    CheckSplits(splits);
    return CachedSortedView().GetCDF(splits, criterion);
  }

  // PMF over the intervals defined by the split points (mass of
  // (-inf, s0], (s0, s1], ..., (s_last, +inf) under inclusive semantics).
  std::vector<double> GetPMF(
      const std::vector<T>& splits,
      Criterion criterion = Criterion::kInclusive) const {
    std::vector<double> pmf = GetCDF(splits, criterion);
    for (size_t i = pmf.size(); i-- > 1;) pmf[i] -= pmf[i - 1];
    return pmf;
  }

  // Appends all stored items with their weights (2^level) to `out`; used by
  // the seed-era full view build (benches and tests sort these pairs into
  // a SortedView as the reference) and by aggregators that combine several
  // summaries (e.g., the Section 5 chain in req_chain.h).
  void AppendWeightedItems(std::vector<std::pair<T, uint64_t>>* out) const {
    for (size_t h = 0; h < levels_.size(); ++h) {
      const uint64_t weight = uint64_t{1} << h;
      for (const T& item : levels_[h].items()) {
        out->emplace_back(item, weight);
      }
    }
  }

  // The memoized sorted view of the sketch contents. Built lazily on first
  // use and repaired incrementally after mutations; the reference stays
  // valid until the next mutation.
  //
  // Filling the cache is guarded by a double-checked atomic flag plus a
  // lock, so any number of threads may call this (and the rank/CDF
  // queries that go through it) concurrently on a shared sketch.
  // Mutations still require exclusive access.
  const SortedView<T, Compare>& CachedSortedView() const {
    util::CheckState(n_ > 0, "CachedSortedView() on an empty sketch");
    if (!view_ready_.value.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(view_mutex_.mutex);
      if (!view_ready_.value.load(std::memory_order_relaxed)) {
        RebuildViewLocked();
        view_ready_.value.store(true, std::memory_order_release);
      }
    }
    return view_cache_.view;
  }

  // Eagerly builds the memoized sorted view (no-op on an empty sketch or a
  // warm cache). Callers that hand a sketch to many concurrent readers can
  // warm the cache once here so every subsequent rank/CDF query takes
  // only the lock-free fast path (quantile queries never use the view).
  void PrepareSortedView() const {
    if (n_ > 0) CachedSortedView();
  }

  // Value-semantics accessor kept for compatibility: populates (and then
  // shares) the memoized cache, so a one-shot call pays the build exactly
  // once and query-heavy callers converge on the same cached view as
  // CachedSortedView().
  SortedView<T, Compare> GetSortedView() const {
    util::CheckState(n_ > 0, "GetSortedView() on an empty sketch");
    return CachedSortedView();
  }

  // Conservative a-priori relative standard error at protected ranks
  // (params::RelativeStdErr; Lemma 12).
  double RelativeStdErr() const {
    return params::RelativeStdErr(config_.k_base);
  }

  // Rank confidence bounds at num_std_devs standard deviations (1, 2 or 3).
  uint64_t GetRankLowerBound(const T& y, int num_std_devs,
                             Criterion criterion =
                                 Criterion::kInclusive) const {
    const double estimate = static_cast<double>(GetRank(y, criterion));
    const double margin = num_std_devs * RelativeStdErr() *
                          AccurateSideRank(estimate);
    return static_cast<uint64_t>(std::max(0.0, estimate - margin));
  }
  uint64_t GetRankUpperBound(const T& y, int num_std_devs,
                             Criterion criterion =
                                 Criterion::kInclusive) const {
    const double estimate = static_cast<double>(GetRank(y, criterion));
    const double margin = num_std_devs * RelativeStdErr() *
                          AccurateSideRank(estimate);
    return static_cast<uint64_t>(
        std::min(static_cast<double>(n_), estimate + margin));
  }

 private:
  friend struct ReqSerde<T, Compare>;

  // State behind the memoized sorted view. Everything here is value data
  // (copies travel with the sketch); access is serialized by view_mutex_
  // plus the view_ready_ publication flag.
  struct ViewCacheState {
    // Sorted copy of each level's buffer, stamped with the level's content
    // version at copy time. A rebuild re-sorts only stale runs.
    std::vector<std::vector<T>> runs;
    std::vector<uint64_t> run_versions;
    std::vector<char> run_valid;
    // Merged run of all levels >= 1 (items + per-entry weights). Level 0
    // churns on every update; the upper run survives until a compaction
    // cascade actually touches a higher level.
    std::vector<T> upper_items;
    std::vector<uint64_t> upper_weights;
    size_t upper_levels = 0;  // level count the upper run was built for
    bool upper_valid = false;
    // The published view; rebuilt in place (AssignMerged) so its arrays'
    // capacity is reused across repairs.
    SortedView<T, Compare> view;
  };

  // Quantile selection from the levels (GetQuantile / GetQuantiles).
  // Estimate-Rank weighs a level-h item by 2^h, so the quantile at target
  // t is the smallest retained x whose weighted count of items <= x
  // reaches t; it can be found inside the levels without merging them.
  //
  // The index is query-local and reads the sketch without changing it:
  // each level contributes its stored sorted prefix, read in place, and a
  // copy of its insert tail sorted in the same compaction order
  // (RelativeCompactor::AppendSortedTail). Every run keeps a candidate
  // window; everything left of a window is known to be below the answer
  // and everything right of it above. A round probes the middle item x of
  // the widest window and binary-searches each window for its items < x
  // and <= x. If the weighted count of items < x reaches t, every window
  // keeps only its items < x; if the count of items <= x falls short,
  // only its items > x; otherwise x is the answer. The answer never leaves
  // the windows and each round drops the probe, so it is always found;
  // halving the widest window makes that ~log2(retained) rounds of one
  // binary search per run.
  //
  // The answer equals the sorted view's under comp_. Items that compare
  // equal but are distinguishable (-0.0 and +0.0 under std::less) may come
  // from a different level than the view's pick.
  class LevelSelector {
   public:
    explicit LevelSelector(const ReqSketch& sketch) : sketch_(sketch) {
      const std::vector<Level>& levels = sketch.levels_;
      size_t tail_items = 0;
      for (const Level& level : levels) {
        tail_items += level.size() - level.sorted_prefix();
      }
      // The runs point into tails_, so it must never reallocate.
      tails_.reserve(tail_items);
      runs_.reserve(2 * levels.size());
      const bool descending =
          sketch.config_.accuracy == RankAccuracy::kHighRanks;
      std::vector<T> scratch;
      for (size_t h = 0; h < levels.size(); ++h) {
        const Level& level = levels[h];
        AddRun(level.items().begin(), level.sorted_prefix(), h, descending);
        const size_t offset = tails_.size();
        level.AppendSortedTail(&tails_, &scratch);
        AddRun(tails_.data() + offset, tails_.size() - offset, h, descending);
      }
    }

    T Select(double q, Criterion criterion) {
      // Capping the target at n selects the largest retained item, which
      // is what the view answers for a target above n.
      const uint64_t target =
          std::min(detail::QuantileTarget(q, sketch_.n_, criterion),
                   sketch_.n_);
      const Compare& comp = sketch_.comp_;
      for (Run& run : runs_) {
        run.lo = 0;
        run.hi = run.size;
      }
      while (true) {
        const Run* widest = nullptr;
        size_t width = 0;
        for (const Run& run : runs_) {
          if (run.hi - run.lo > width) {
            width = run.hi - run.lo;
            widest = &run;
          }
        }
        util::CheckState(widest != nullptr,
                         "quantile selection found no item: sketch "
                         "corrupted");
        const T& x = widest->At(widest->lo + width / 2);
        uint64_t below = 0;    // weighted count of items < x
        uint64_t through = 0;  // weighted count of items <= x
        for (Run& run : runs_) {
          run.below = run.LowerBound(x, comp);
          run.through = run.UpperBoundFrom(run.below, x, comp);
          below += static_cast<uint64_t>(run.below) << run.shift;
          through += static_cast<uint64_t>(run.through) << run.shift;
        }
        if (below >= target) {
          for (Run& run : runs_) run.hi = run.below;
        } else if (through < target) {
          for (Run& run : runs_) run.lo = run.through;
        } else {
          return x;
        }
      }
    }

   private:
    // One sorted run of level-`shift` items with its candidate window
    // [lo, hi). Positions count up the comparator's order: At(i) is
    // first[i * step], where a run stored descending (HRA compaction
    // order) starts from its last item with step -1.
    struct Run {
      const T* first;
      ptrdiff_t step;
      size_t size;
      size_t shift;
      size_t lo = 0;
      size_t hi = 0;
      size_t below = 0;    // end of the window's items < the probe
      size_t through = 0;  // end of the window's items <= the probe

      const T& At(size_t i) const {
        return first[static_cast<ptrdiff_t>(i) * step];
      }
      // First position in [lo, hi) whose item is not < x.
      size_t LowerBound(const T& x, const Compare& comp) const {
        size_t a = lo;
        size_t len = hi - lo;
        while (len > 0) {
          const size_t half = len / 2;
          if (comp(At(a + half), x)) {
            a += half + 1;
            len -= half + 1;
          } else {
            len = half;
          }
        }
        return a;
      }
      // First position in [from, hi) whose item is > x, given that the
      // items before `from` are <= x. O(1) unless x has equals here.
      size_t UpperBoundFrom(size_t from, const T& x,
                            const Compare& comp) const {
        if (from == hi || comp(x, At(from))) return from;
        size_t a = from + 1;
        size_t len = hi - a;
        while (len > 0) {
          const size_t half = len / 2;
          if (!comp(x, At(a + half))) {
            a += half + 1;
            len -= half + 1;
          } else {
            len = half;
          }
        }
        return a;
      }
    };

    void AddRun(const T* data, size_t size, size_t h, bool descending) {
      if (size == 0) return;
      if (descending) {
        runs_.push_back(Run{data + size - 1, -1, size, h});
      } else {
        runs_.push_back(Run{data, 1, size, h});
      }
    }

    const ReqSketch& sketch_;
    std::vector<Run> runs_;
    std::vector<T> tails_;
  };

  // Drops the memoized view but keeps the cached runs for incremental
  // repair. Mutators run with exclusive access (no concurrent readers by
  // contract), so plain stores suffice.
  void InvalidateView() {
    view_ready_.value.store(false, std::memory_order_release);
  }

  // Full cache teardown: used when level *objects* are replaced (Reset,
  // deserialization), where a fresh level's restarted version counter
  // could alias a stale cached run.
  void ResetViewCache() {
    view_ready_.value.store(false, std::memory_order_release);
    view_cache_ = ViewCacheState();
    view_cache_.view = SortedView<T, Compare>(comp_);
  }

  // (Re)builds the published view; called under view_mutex_.
  void RebuildViewLocked() const {
    ViewCacheState& c = view_cache_;
    const size_t num_levels = levels_.size();
    if (c.runs.size() != num_levels) {
      c.runs.resize(num_levels);
      c.run_versions.resize(num_levels, 0);
      c.run_valid.resize(num_levels, 0);
      c.upper_valid = false;
    }
    bool upper_dirty = !c.upper_valid || c.upper_levels != num_levels;
    for (size_t h = 0; h < num_levels; ++h) {
      if (c.run_valid[h] && c.run_versions[h] == levels_[h].version()) {
        continue;
      }
      RefreshRun(h);
      c.run_versions[h] = levels_[h].version();
      c.run_valid[h] = 1;
      if (h >= 1) upper_dirty = true;
    }
    if (upper_dirty) RebuildUpperRun();
    const std::vector<T>& run0 = c.runs[0];
    c.view.AssignMerged(c.upper_items.data(), c.upper_weights.data(),
                        c.upper_items.size(), run0.data(), run0.size(),
                        /*b_weight=*/1, TotalWeight());
  }

  // Copies level h's buffer into its cached run and sorts the copy
  // ascending with the compactor's own tail sort: the copy inherits the
  // buffer's sorted prefix, only the tail is sorted (long runs in it --
  // promoted runs, or sorted source buffers concatenated by a merge -- are
  // merged, not re-sorted), and the result joins the prefix in one merge.
  // The sort's scratch is temporary, so the cache holds only the runs.
  // An HRA level stores its prefix, and the runs promoted into its tail,
  // descending: the copy's prefix and tail are each reversed, so both come
  // out ascending and the prefix still leads.
  void RefreshRun(size_t h) const {
    const Level& level = levels_[h];
    std::vector<T>& run = view_cache_.runs[h];
    const ItemSpan<T> span = level.items();
    run.assign(span.begin(), span.end());
    T* first = run.data();
    T* mid = first + std::min(level.sorted_prefix(), run.size());
    T* last = first + run.size();
    if (config_.accuracy == RankAccuracy::kHighRanks) {
      std::reverse(first, mid);
      std::reverse(mid, last);
    }
    std::vector<T> scratch;
    detail::SortPrefixSortedRun(first, mid, last, comp_, &scratch);
  }

  // Merges the cached runs of all levels >= 1 into one weighted run, in
  // one k-way pass straight into upper_items/upper_weights, reserved to
  // the exact total. A heap of run cursors yields the smallest head next;
  // equal items go lower level first, so the run is the stable merge of
  // the levels in level order.
  void RebuildUpperRun() const {
    ViewCacheState& c = view_cache_;
    struct Cursor {
      const T* next;
      const T* end;
      size_t level;
    };
    std::vector<Cursor> heap;
    size_t total = 0;
    for (size_t h = 1; h < levels_.size(); ++h) {
      const std::vector<T>& run = c.runs[h];
      if (run.empty()) continue;
      heap.push_back(Cursor{run.data(), run.data() + run.size(), h});
      total += run.size();
    }
    // True when a's head is emitted after b's: the heap keeps the cursor
    // to emit from at its front.
    const auto after = [this](const Cursor& a, const Cursor& b) {
      if (comp_(*b.next, *a.next)) return true;
      return !comp_(*a.next, *b.next) && a.level > b.level;
    };
    std::make_heap(heap.begin(), heap.end(), after);
    c.upper_items.clear();
    c.upper_weights.clear();
    c.upper_items.reserve(total);
    c.upper_weights.reserve(total);
    while (!heap.empty()) {
      Cursor& top = heap.front();
      c.upper_items.push_back(*top.next);
      c.upper_weights.push_back(uint64_t{1} << top.level);
      if (++top.next == top.end) {
        // The exhausted run leaves; the last cursor takes the root.
        top = heap.back();
        heap.pop_back();
      }
      // Sift the root down to its place.
      size_t i = 0;
      for (size_t child = 1; child < heap.size(); child = 2 * i + 1) {
        if (child + 1 < heap.size() && after(heap[child], heap[child + 1])) {
          ++child;
        }
        if (!after(heap[i], heap[child])) break;
        std::swap(heap[i], heap[child]);
        i = child;
      }
    }
    c.upper_levels = levels_.size();
    c.upper_valid = true;
  }

  Level MakeLevel() {
    return Level(section_size_, num_sections_, config_.accuracy,
                 config_.schedule, config_.coin, comp_);
  }

  // Promotion and sort scratch of the streaming and regrowth compactions,
  // one per thread rather than per sketch, so a metric keeps no scratch
  // between appends. Every use is contained in one call: Compact fills
  // it, and InsertAll moves the items out and leaves it empty.
  static std::vector<T>& PromoteScratch() {
    thread_local std::vector<T> scratch;
    return scratch;
  }

  void EnsureLevel(size_t h) {
    while (levels_.size() <= h) levels_.emplace_back(MakeLevel());
  }

  void RecomputeGeometry() {
    section_size_ = params::SectionSize(config_.k_base, n_bound_);
    num_sections_ = params::NumSections(section_size_, n_bound_);
  }

  // Reject NaN floating-point updates: NaN has no place in a total order.
  void CheckUpdatable(const T& item) {
    if constexpr (std::is_floating_point_v<T>) {
      util::CheckArg(!std::isnan(item), "cannot update sketch with NaN");
    } else {
      (void)item;
    }
  }

  void TrackMinMax(const T& item) {
    if (!min_item_ || comp_(item, *min_item_)) min_item_ = item;
    if (!max_item_ || comp_(*max_item_, item)) max_item_ = item;
  }

  // Section 5 growth: while the bound is exceeded, special-compact every
  // level (bottom-up, the top level excluded per Algorithm 3) and square N,
  // then recompute k and B and reconfigure all levels.
  void GrowIfNeeded(uint64_t n_required) {
    if (fixed_n_) return;  // Theorem 14 mode: parameters fixed a priori.
    while (n_bound_ < n_required) {
      SpecialCompactLevels(&levels_);
      n_bound_ = (n_bound_ >= (uint64_t{1} << 31))
                     ? params::kMaxN
                     : std::min(params::kMaxN, n_bound_ * n_bound_);
      RecomputeGeometry();
      for (Level& level : levels_) {
        level.SetGeometry(section_size_, num_sections_);
      }
    }
  }

  // SpecialCompaction of Algorithm 3 applied to a level stack: compacts
  // every level except the top one down to at most half its capacity,
  // promoting survivors upward.
  void SpecialCompactLevels(std::vector<Level>* levels) {
    if (levels->size() < 2) return;
    std::vector<T>& promoted = PromoteScratch();
    for (size_t h = 0; h + 1 < levels->size(); ++h) {
      (*levels)[h].SpecialCompact(rng_, &promoted);
      (*levels)[h + 1].InsertAll(std::move(promoted));
    }
  }

  // Streaming compaction cascade: compact level h when full; promotions may
  // fill level h+1, which is then compacted in turn (Algorithm 2's
  // recursive Insert). Promotions go through the thread's PromoteScratch,
  // whose allocation is reused across compactions (InsertAll moves the
  // items out but leaves the vector's capacity in place).
  void CompactCascade(size_t h) {
    std::vector<T>& promoted = PromoteScratch();
    while (h < levels_.size() && levels_[h].IsFull()) {
      EnsureLevel(h + 1);
      levels_[h].Compact(rng_, &promoted);
      levels_[h + 1].InsertAll(std::move(promoted));
      ++h;
    }
  }

  // Rank measured from the accurate end: LRA is accurate near rank 0, HRA
  // near rank n.
  double AccurateSideRank(double rank_estimate) const {
    if (config_.accuracy == RankAccuracy::kLowRanks) return rank_estimate;
    return static_cast<double>(n_) - rank_estimate;
  }

  void CheckSplits(const std::vector<T>& splits) const {
    util::CheckArg(!splits.empty(), "split points must be non-empty");
    for (size_t i = 0; i + 1 < splits.size(); ++i) {
      util::CheckArg(comp_(splits[i], splits[i + 1]),
                     "split points must be strictly ascending");
    }
    if constexpr (std::is_floating_point_v<T>) {
      for (const T& s : splits) {
        util::CheckArg(!std::isnan(s), "split points must not be NaN");
      }
    }
  }

  ReqConfig config_;
  Compare comp_;
  util::Xoshiro256 rng_;
  std::vector<Level> levels_;
  uint64_t n_ = 0;
  uint64_t n_bound_ = 0;
  uint32_t section_size_ = 0;
  uint32_t num_sections_ = 0;
  bool fixed_n_ = false;
  std::optional<T> min_item_;
  std::optional<T> max_item_;
  // Memoized sorted view for the bulk rank/CDF queries; invalidated by
  // Update/Merge, repaired incrementally on the next query that uses it.
  // view_ready_ is the double-checked publication flag: readers acquire-load
  // it and only touch view_cache_ once it is true; the fill runs under
  // view_mutex_ so concurrent cold readers build the view exactly once.
  mutable ViewCacheState view_cache_;
  mutable detail::CopyableAtomicBool view_ready_;
  mutable detail::CopyableMutex view_mutex_;
};

}  // namespace req

#endif  // REQSKETCH_CORE_REQ_SKETCH_H_
