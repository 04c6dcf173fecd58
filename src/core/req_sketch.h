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
//     batch in one forward scan of the levels, and GetCDF shares the same
//     scan.
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
// Query engine: the sketch answers through SummaryQueries
// (core/summary_queries.h), the one query surface it shares with the
// sliding window, the Section 5 chain and the sharded sketch, with itself
// as the only part. GetRank sums per-level binary-search counts. Every
// other query -- GetQuantile(s), GetRanks, GetCDF/GetPMF -- reads the
// levels through one query-local index (LevelIndex below: the stored
// sorted prefix of each level plus a sorted copy of its insert tail). No
// query builds a sorted view or leaves memory behind, so a query right
// after a write pays no view rebuild. GetSortedView builds a caller-owned
// view on demand by the seed-era full path -- AppendWeightedItems into a
// SortedView (collect + sort all weighted pairs) -- which is also the
// reference that benches and equivalence tests compare against.
//
// Thread safety: any number of threads may run const query methods
// concurrently on a shared sketch (queries take no lock and only read
// the levels), but mutations (Update / Merge) still require exclusive
// access: no query or other mutation may run concurrently with them.
// This is exactly the contract the sharded orchestrator in
// concurrency/sharded_req_sketch.h needs: shards are mutated under a
// per-shard lock while the merged read-only sketch is queried freely from
// many threads.
//
// Error guarantee (Theorem 1): for a fixed item y, with probability 1-delta,
//   |RankEstimate(y) - R(y)| <= eps * R(y)          (LRA)
//   |RankEstimate(y) - R(y)| <= eps * (n - R(y))    (HRA, mirrored)
// where eps ~ c / k_base. The sketch stores
// O(k_base * log^{1.5}(n / k_base)) items (Theorems 14/36).
#ifndef REQSKETCH_CORE_REQ_SKETCH_H_
#define REQSKETCH_CORE_REQ_SKETCH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/relative_compactor.h"
#include "core/req_common.h"
#include "core/sorted_view.h"
#include "core/summary_queries.h"
#include "util/random.h"
#include "util/validation.h"

namespace req {

template <typename T, typename Compare>
struct ReqSerde;  // defined in core/req_serde.h; needs internal access

template <typename T, typename Compare = std::less<T>>
class ReqSketch
    : public SummaryQueries<ReqSketch<T, Compare>, T, Compare> {
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
  }

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
  // be wasteful -- e.g. the sliding-window wrapper bounding window memory
  // without walking every bucket level.
  size_t EstimateRetainedItems() const {
    return levels_.size() * static_cast<size_t>(level_capacity());
  }

  // Resident heap footprint of the sketch in bytes: object header, level
  // table and level buffers at capacity. This is the figure quota
  // accounting charges per metric, so it counts what the allocator holds,
  // not just live items. Queries add nothing to it: their index is
  // dropped with the query.
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this) + levels_.capacity() * sizeof(Level);
    for (const Level& level : levels_) {
      bytes += level.buffer_capacity() * sizeof(T);
    }
    return bytes;
  }

  // Releases each level buffer's slack. Accuracy and query answers are
  // unaffected; levels regrow their buffers on demand. Requires exclusive
  // access, like any mutator; the idle-metric steady state after a trim
  // is the paper's O(k log n) payload plus fixed object headers.
  void TrimMemory() {
    for (Level& level : levels_) level.ShrinkToFit();
  }

  // Exact stream minimum / maximum (tracked outside the buffers). These
  // hide SummaryQueries' folds, which read them.
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
  }

  // --- queries: SummaryQueries (core/summary_queries.h) --------------------

  // Appends all stored items with their weights (2^level) to `out`; used by
  // GetSortedView and by the equivalence suites' seed-era references.
  void AppendWeightedItems(std::vector<std::pair<T, uint64_t>>* out) const {
    for (size_t h = 0; h < levels_.size(); ++h) {
      const uint64_t weight = uint64_t{1} << h;
      for (const T& item : levels_[h].items()) {
        out->emplace_back(item, weight);
      }
    }
  }

  // A caller-owned sorted view of the sketch contents, built on demand by
  // the seed-era full path: every weighted item from AppendWeightedItems,
  // sorted. No query needs one; callers that co-scan one view many times
  // (benches, reference answers in tests) build theirs here.
  SortedView<T, Compare> GetSortedView() const {
    util::CheckState(n_ > 0, "GetSortedView() on an empty sketch");
    std::vector<std::pair<T, uint64_t>> weighted;
    weighted.reserve(RetainedItems());
    AppendWeightedItems(&weighted);
    return SortedView<T, Compare>(std::move(weighted), n_, comp_);
  }

  // No-op. Queries read the levels, so there is no view to warm; kept for
  // callers written when the sketch memoized one.
  void PrepareSortedView() const {}

  // Conservative a-priori relative standard error at protected ranks
  // (params::RelativeStdErr; Lemma 12).
  double RelativeStdErr() const {
    return params::RelativeStdErr(config_.k_base);
  }

  // The query index: one query-local index over the levels of one or more
  // sketches read as a single summary -- the parts SummaryQueries
  // (core/summary_queries.h) gathers: a sketch itself, a sliding window's
  // live buckets, the Section 5 chain's summaries or a sharded sketch's
  // merged view. Estimate-Rank weighs a level-h item by 2^h, so the rank
  // of y over several sketches is the sum of their weighted counts of
  // items <= y -- Theorem 3's mergeability used at query time, without
  // building the merge -- and the quantile at target t is the smallest
  // retained x whose count reaches t. Both are found inside the levels
  // without merging them.
  //
  // Each level contributes two sorted runs: its stored sorted prefix, read
  // in place, and a copy of its insert tail sorted in the same compaction
  // order (RelativeCompactor::AppendSortedTail). On them the index runs
  //   * quantile selection: every run keeps a candidate window; everything
  //     left of a window is known to be below the answer and everything
  //     right of it above. A round probes the middle item x of the widest
  //     window and binary-searches each window for its items < x and
  //     <= x. If the weighted count of items < x reaches t, every window
  //     keeps only its items < x; if the count of items <= x falls short,
  //     only its items > x; otherwise x is the answer. The answer never
  //     leaves the windows and each round drops the probe, so it is always
  //     found; halving the widest window makes that ~log2(retained) rounds
  //     of one binary search per run;
  //   * an ascending multi-point rank scan: each run is read once, forward,
  //     by a cursor that gallops from one point's position to the next, so
  //     Q ascending points cost O(log gap) per point and run. GetRanks
  //     sorts its points once; GetCDF's splits are already ascending.
  //
  // The index reads the sketches without changing them and is dropped
  // with the query, so nothing stays resident and any number of threads
  // may query at once. Ranks and CDFs equal a sorted view's exactly
  // (integer weighted counts); a selected quantile equals the view's
  // under comp_, though items that compare equal but are distinguishable
  // (-0.0 and +0.0 under std::less) may come from a different level than
  // the view's pick.
  //
  // The index validates nothing: SummaryQueries checks emptiness and
  // arguments before it builds one. Its sketches must be non-empty, share
  // one rank-accuracy orientation and outlive it; the first one's
  // comparator orders the query.
  class LevelIndex {
   public:
    LevelIndex(const ReqSketch* const* sketches, size_t count)
        : comp_(&sketches[0]->comp_) {
      size_t levels = 0;
      size_t tail_items = 0;
      for (size_t i = 0; i < count; ++i) {
        n_ += sketches[i]->n_;
        levels += sketches[i]->levels_.size();
        for (const Level& level : sketches[i]->levels_) {
          tail_items += level.size() - level.sorted_prefix();
        }
      }
      // The runs point into tails_, so it must never reallocate.
      tails_.reserve(tail_items);
      runs_.reserve(2 * levels);
      std::vector<T> scratch;
      for (size_t i = 0; i < count; ++i) {
        const ReqSketch& sketch = *sketches[i];
        const bool descending =
            sketch.config_.accuracy == RankAccuracy::kHighRanks;
        for (size_t h = 0; h < sketch.levels_.size(); ++h) {
          const Level& level = sketch.levels_[h];
          AddRun(level.items().begin(), level.sorted_prefix(), h,
                 descending);
          const size_t offset = tails_.size();
          level.AppendSortedTail(&tails_, &scratch);
          AddRun(tails_.data() + offset, tails_.size() - offset, h,
                 descending);
        }
      }
    }

    // The quantile at normalized rank q: the smallest retained item whose
    // weighted count reaches detail::QuantileTarget(q, n). Narrows the
    // runs' candidate windows, so an index runs one selection at a time.
    T Select(double q, Criterion criterion) {
      // Capping the target at n selects the largest retained item, which
      // is what the view answers for a target above n.
      const uint64_t target =
          std::min(detail::QuantileTarget(q, n_, criterion), n_);
      const Compare& comp = *comp_;
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

    // ranks[i] = weighted count of the items <= points[i] (inclusive) or
    // < points[i] (exclusive), for points ascending under the comparator.
    std::vector<uint64_t> ScanRanks(const std::vector<T>& points,
                                    Criterion criterion) const {
      std::vector<uint64_t> ranks(points.size(), 0);
      const bool inclusive = criterion == Criterion::kInclusive;
      for (const Run& run : runs_) {
        size_t pos = 0;
        for (size_t i = 0; i < points.size(); ++i) {
          pos = run.Advance(pos, points[i], inclusive, *comp_);
          ranks[i] += static_cast<uint64_t>(pos) << run.shift;
        }
      }
      return ranks;
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
      // First position in [from, size) whose item is past y -- > y when
      // inclusive, >= y otherwise -- given that the items before `from`
      // are not. Gallops from `from`, then binary-searches the bracketed
      // range, so an ascending scan pays O(log gap) per point.
      size_t Advance(size_t from, const T& y, bool inclusive,
                     const Compare& comp) const {
        const auto past = [&](const T& item) {
          return inclusive ? comp(y, item) : !comp(item, y);
        };
        if (from >= size || past(At(from))) return from;
        size_t step_size = 1;
        size_t prev = from;  // highest position known not past y
        while (prev + step_size < size && !past(At(prev + step_size))) {
          prev += step_size;
          step_size <<= 1;
        }
        size_t a = prev + 1;
        size_t len = std::min(size, prev + step_size) - a;
        while (len > 0) {
          const size_t half = len / 2;
          if (!past(At(a + half))) {
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

    const Compare* comp_;
    uint64_t n_ = 0;  // total weight of the indexed sketches
    std::vector<Run> runs_;
    std::vector<T> tails_;
  };

 private:
  friend struct ReqSerde<T, Compare>;
  friend class SummaryQueries<ReqSketch, T, Compare>;

  // SummaryQueries' hook: the sketch is its own only part.
  template <typename F>
  auto WithParts(F&& f) const {
    const ReqSketch* self = this;
    return f(&self, size_t{1});
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
};

}  // namespace req

#endif  // REQSKETCH_CORE_REQ_SKETCH_H_
