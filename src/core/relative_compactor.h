// The relative-compactor (Algorithm 1 and Figures 1-2 of the paper).
//
// A relative-compactor is a buffer of capacity B = 2 * k * num_sections that
// ingests a stream of items and, whenever full, performs a *compaction
// operation*: it sorts the buffer, selects the L_C most-compactible items
// (the largest in LRA orientation, the smallest in HRA orientation), removes
// them, and promotes every other one of them -- even- or odd-indexed with
// equal probability (Observation 4) -- to the caller, which feeds them to
// the next level with doubled weight.
//
// The number of compacted items follows the derandomized exponential
// schedule of Section 2.1: during the (C+1)-st compaction,
//     L_C = (z(C) + 1) * k,
// where z(C) is the number of trailing ones in the binary representation of
// the compaction state C. Section j (of size k, numbered from the
// compactible end) therefore participates in every 2^(j-1)-th compaction,
// and the B/2 items on the protected side are never compacted -- the source
// of the multiplicative error guarantee. Fact 5 (between two compactions of
// exactly j sections there is one of > j sections) follows from the
// trailing-ones schedule and is exercised directly by the unit tests.
//
// For mergeability (Appendix D), the state C is public: Algorithm 3 combines
// the states of two sketches with bitwise OR, and "special" compactions
// (parameter regrowth) compact everything above the protected half.
//
// Hot-path structure: the buffer maintains a *sorted-prefix invariant* in
// *compaction order* -- ascending under comp_ for LRA, descending for HRA
// -- so the most-compactible items always sit at the back of the buffer.
// Items [0, sorted_prefix_) are sorted in that order, everything after is
// the unsorted insert tail. Every compaction leaves the surviving buffer
// fully sorted, so between compactions the tail is only the items inserted
// since. Sort() therefore sorts just the tail and runs std::inplace_merge
// (O(u log u + B) for tail length u instead of O(B log B)), and CountRank
// binary-searches the prefix and linearly scans only the tail.
//
// The tail sort (detail::SortTail, below) is the ingest kernel's hottest
// loop: every item passes through a level-0 tail, typically 24-96 random
// items. A branch-free count of the tail's descents picks one of two
// methods. A tail that is a few long ascending runs -- the promoted runs
// that make up an upper level's tail -- is merged run pair by run pair,
// bottom up. Anything else is cut into 8-item blocks, each sorted by a
// 19-comparator network of branch-free compare-exchanges, and the blocks
// are merged pairwise bottom up; each merge runs two branch-free chains at
// once, one from each end. The network is spelled out because the items
// then stay in registers: on random doubles (GCC 12.2 -O3, Xeon), a loop
// over a pair table took 7.6 ns/item against 4.6, and the usual
// `swap ? b : a` compare-exchange, which GCC turns into a branch, 13. The
// sorted tail joins the prefix through std::inplace_merge, whose temporary
// buffer costs one allocation per compaction: a branchy backward merge
// into sketch-owned scratch and a merge fused with the promotion both
// measured no faster at k_base = 16 and slower at 64 and 256. ReqSketch's
// query index sorts a copy of each insert tail with the same routine
// (AppendSortedTail).
//
// Both orientations share one compaction path: promote every other item of
// the sorted suffix, then truncate. HRA is not a mirror image of LRA (no
// compaction at the front, no slide of the survivors), and because the
// survivors are the least-compactible items a level has seen, new items
// mostly sort in behind them, so the backward merge moves little more than
// the tail. The promoted and surviving multisets are those of the former
// ascending HRA layout; only the storage order of HRA levels differs, and
// items that compare equal but are distinguishable (e.g. -0.0 and +0.0
// under std::less) may sit in a different relative order.
//
// Storage: each compactor owns its items in one std::vector<T>, whose
// capacity follows a single growth rule (Grow): it starts at 16 items,
// so an idle level stays cheap; doubles up to the nominal capacity B;
// grows once to B + B/4 past it; and beyond that only to exactly what is
// needed. Level 0 never passes B (the sketch's batch update chunks by the
// room left), and an upper level compacts as soon as it reaches B, so it
// passes B only by the items one promotion brings; merges and restores are
// what reach the exact-size step. No level keeps slack beyond what it can
// hold.
#ifndef REQSKETCH_CORE_RELATIVE_COMPACTOR_H_
#define REQSKETCH_CORE_RELATIVE_COMPACTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/req_common.h"
#include "util/bits.h"
#include "util/random.h"
#include "util/validation.h"

namespace req {

// Minimal non-owning view over a contiguous item run (a level's items()).
// Interface mirrors the read-only subset of std::vector that callers
// (serde, merge, tests) actually use.
template <typename T>
class ItemSpan {
 public:
  ItemSpan() = default;
  ItemSpan(const T* data, size_t size) : data_(data), size_(size) {}

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }

  friend bool operator==(const ItemSpan& a, const ItemSpan& b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (!(a.data_[i] == b.data_[i])) return false;
    }
    return true;
  }
  friend bool operator!=(const ItemSpan& a, const ItemSpan& b) {
    return !(a == b);
  }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

namespace detail {

// Items the tail sort's sorting network handles at once.
inline constexpr size_t kTailBlock = 8;

// Puts (a, b) in order. Items that are cheap to copy are selected by
// indexing a two-item copy with the comparison's result, which GCC keeps
// branch-free (a pair of `swap ? b : a` selects becomes a branch, and on
// random input a network's comparisons are coin flips); others swap.
template <typename T, typename Order>
inline void CompareExchange(T& a, T& b, const Order& order) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    const T pair[2] = {a, b};
    const bool swap = order(b, a);
    a = pair[swap];
    b = pair[!swap];
  } else {
    if (order(b, a)) std::swap(a, b);
  }
}

// Sorts x[0, 8) with an optimal 19-comparator network of depth 6. Spelled
// out rather than looped over a pair table: with constant indices the
// eight items stay in registers.
template <typename T, typename Order>
inline void SortBlock8(T* x, const Order& order) {
  T v0 = std::move(x[0]);
  T v1 = std::move(x[1]);
  T v2 = std::move(x[2]);
  T v3 = std::move(x[3]);
  T v4 = std::move(x[4]);
  T v5 = std::move(x[5]);
  T v6 = std::move(x[6]);
  T v7 = std::move(x[7]);
  CompareExchange(v0, v2, order);
  CompareExchange(v1, v3, order);
  CompareExchange(v4, v6, order);
  CompareExchange(v5, v7, order);
  CompareExchange(v0, v4, order);
  CompareExchange(v1, v5, order);
  CompareExchange(v2, v6, order);
  CompareExchange(v3, v7, order);
  CompareExchange(v0, v1, order);
  CompareExchange(v2, v3, order);
  CompareExchange(v4, v5, order);
  CompareExchange(v6, v7, order);
  CompareExchange(v2, v4, order);
  CompareExchange(v3, v5, order);
  CompareExchange(v1, v4, order);
  CompareExchange(v3, v6, order);
  CompareExchange(v1, v2, order);
  CompareExchange(v3, v4, order);
  CompareExchange(v5, v6, order);
  x[0] = std::move(v0);
  x[1] = std::move(v1);
  x[2] = std::move(v2);
  x[3] = std::move(v3);
  x[4] = std::move(v4);
  x[5] = std::move(v5);
  x[6] = std::move(v6);
  x[7] = std::move(v7);
}

// Stable merge of the sorted runs a[0, na) and b[0, nb) into out. Two
// independent branch-free chains run at once, one emitting the smallest
// items from the front and one the largest from the back; min(na, nb)
// steps of each can run neither off its runs, and a bounded merge places
// what is left between them. The inputs are copied, never moved from:
// each chain may still compare an item the other has already taken.
template <typename T, typename Order>
void MergeRuns(const T* a, size_t na, const T* b, size_t nb, T* out,
               const Order& order) {
  size_t i = 0, j = 0, lo = 0;            // front chain
  size_t ie = na, je = nb, hi = na + nb;  // back chain (one past)
  for (size_t steps = std::min(na, nb); steps > 0; --steps) {
    const bool front_b = order(b[j], a[i]);
    out[lo++] = *(front_b ? b + j : a + i);
    j += front_b;
    i += !front_b;
    const bool back_a = order(b[je - 1], a[ie - 1]);
    out[--hi] = *(back_a ? a + ie - 1 : b + je - 1);
    ie -= back_a;
    je -= !back_a;
  }
  while (i < ie && j < je) {
    const bool take_b = order(b[j], a[i]);
    out[lo++] = *(take_b ? b + j : a + i);
    j += take_b;
    i += !take_b;
  }
  while (i < ie) out[lo++] = a[i++];
  while (j < je) out[lo++] = b[j++];
}

// End of the ascending run of src[0, n) that starts at `start`.
template <typename T, typename Order>
size_t RunEnd(const T* src, size_t start, size_t n, const Order& order) {
  if (start == n) return n;
  size_t end = start + 1;
  while (end < n && !order(src[end], src[end - 1])) ++end;
  return end;
}

// Sorts [first, last) under `order`, growing `scratch` to last - first
// items if it must merge (its contents are overwritten). A branch-free
// count of descents picks the method:
//   * input that is already a few long ascending runs -- the promoted
//     runs that make up an upper level's tail -- is merged run pair by
//     run pair, bottom up, in O(n log runs);
//   * anything else is cut into 8-item blocks, each sorted by the
//     network, which are then merged pairwise bottom up.
template <typename T, typename Order>
void SortTail(T* first, T* last, const Order& order,
              std::vector<T>* scratch) {
  const size_t n = static_cast<size_t>(last - first);
  if (n < 2) return;
  size_t descents = 0;
  for (size_t i = 1; i < n; ++i) descents += order(first[i], first[i - 1]);
  if (descents == 0) return;
  if (n < kTailBlock) {
    std::sort(first, last, order);  // an insertion sort at this size
    return;
  }
  const bool natural_runs = (descents + 1) * kTailBlock <= n;
  if (!natural_runs) {
    size_t b = 0;
    for (; b + kTailBlock <= n; b += kTailBlock) SortBlock8(first + b, order);
    std::sort(first + b, last, order);
    if (n == kTailBlock) return;
  }
  if (scratch->size() < n) scratch->resize(n);
  T* src = first;
  T* dst = scratch->data();
  if (natural_runs) {
    // Each pass scans the runs of the current source and merges them in
    // pairs; it ends when one run is left.
    size_t runs;
    do {
      runs = 0;
      for (size_t start = 0; start < n; ++runs) {
        const size_t mid = RunEnd(src, start, n, order);
        const size_t end = RunEnd(src, mid, n, order);
        MergeRuns(src + start, mid - start, src + mid, end - mid, dst + start,
                  order);
        start = end;
      }
      std::swap(src, dst);
    } while (runs > 1);
  } else {
    for (size_t width = kTailBlock; width < n; width *= 2) {
      for (size_t start = 0; start < n; start += 2 * width) {
        const size_t mid = std::min(start + width, n);
        const size_t end = std::min(mid + width, n);
        MergeRuns(src + start, mid - start, src + mid, end - mid, dst + start,
                  order);
      }
      std::swap(src, dst);
    }
  }
  if (src != first) std::move(src, src + n, first);
}

// Sorts a run whose prefix [first, mid) is already sorted: SortTail on
// [mid, last), then std::inplace_merge of the two parts (the compactor's
// Sort()).
template <typename T, typename Order>
void SortPrefixSortedRun(T* first, T* mid, T* last, const Order& order,
                         std::vector<T>* scratch) {
  SortTail(mid, last, order, scratch);
  std::inplace_merge(first, mid, last, order);
}

}  // namespace detail

template <typename T, typename Compare = std::less<T>>
class RelativeCompactor {
 public:
  RelativeCompactor(uint32_t section_size, uint32_t num_sections,
                    RankAccuracy accuracy, SchedulePolicy schedule,
                    CoinMode coin, Compare comp = Compare())
      : comp_(std::move(comp)),
        section_size_(section_size),
        num_sections_(num_sections),
        accuracy_(accuracy),
        schedule_(schedule),
        coin_(coin) {
    util::CheckArg(section_size >= 2 && section_size % 2 == 0,
                   "section size must be even and >= 2");
    util::CheckArg(num_sections >= 2, "num_sections must be >= 2");
  }

  // --- accessors -----------------------------------------------------------

  uint32_t section_size() const { return section_size_; }
  uint32_t num_sections() const { return num_sections_; }
  uint32_t capacity() const {
    return params::Capacity(section_size_, num_sections_);
  }
  size_t size() const { return items_.size(); }
  bool empty() const { return size() == 0; }
  bool IsFull() const { return size() >= capacity(); }

  // Compaction-schedule state C (number of compactions in streaming use;
  // after merges it is the bitwise OR of the constituents' states).
  uint64_t state() const { return state_; }
  void set_state(uint64_t state) { state_ = state; }
  // Appendix D merge rule: the merged state is the bitwise OR (Fact 18/19).
  void OrState(uint64_t other_state) { state_ |= other_state; }

  uint64_t num_compactions() const { return num_compactions_; }

  ItemSpan<T> items() const { return ItemSpan<T>(items_.data(), size()); }
  // Items the buffer can hold before it next grows (see Grow).
  size_t buffer_capacity() const { return items_.capacity(); }

  // --- updates -------------------------------------------------------------

  // Taken by value: `item` may alias this buffer, which MakeRoom can
  // reallocate.
  void Insert(T item) {
    MakeRoom(1);
    items_.push_back(std::move(item));
    ExtendSortedPrefix();
  }

  // Bulk insert used by the sketch's batch update: appends `count` items
  // in order. Equivalent to `count` scalar Insert calls (including the
  // sorted-prefix bookkeeping) minus the per-call overhead. The range must
  // not alias this buffer.
  void Insert(const T* data, size_t count) {
    MakeRoom(count);
    items_.insert(items_.end(), data, data + count);
    ExtendSortedPrefix();
  }

  // Grows the buffer to hold `total` items exactly (never shrinks, never
  // changes contents); used by merges to size a level once up front.
  void Reserve(size_t total) { items_.reserve(total); }

  // Releases the buffer's slack (the sketch's TrimMemory).
  void ShrinkToFit() { items_.shrink_to_fit(); }

  // Bulk insert used by merge: appends all items from a sibling buffer.
  void InsertAll(ItemSpan<T> other_items) {
    if (other_items.empty()) return;
    MakeRoom(other_items.size());
    items_.insert(items_.end(), other_items.begin(), other_items.end());
    ExtendSortedPrefix();
  }

  // Move-appending overload used for promotion during compaction cascades:
  // the source keeps its allocation (the caller reuses it as a scratch
  // buffer) but its items are moved, not copied.
  void InsertAll(std::vector<T>&& other_items) {
    if (other_items.empty()) return;
    MakeRoom(other_items.size());
    items_.insert(items_.end(), std::make_move_iterator(other_items.begin()),
                  std::make_move_iterator(other_items.end()));
    other_items.clear();
    ExtendSortedPrefix();
  }

  // Drops all contents and schedule state but keeps the buffer's
  // allocation: the cheap-retirement primitive behind ReqSketch::Reset(),
  // which the sliding-window wrapper calls every bucket rotation.
  void Clear() {
    items_.clear();
    sorted_prefix_ = 0;
    state_ = 0;
    num_compactions_ = 0;
  }

  // Reconfigures the section geometry after the sketch's global parameters
  // regrow (N -> N^2 recomputes k and B; Appendix D.1). Existing items and
  // state are preserved; the caller is responsible for having run the
  // special compaction first.
  void SetGeometry(uint32_t section_size, uint32_t num_sections) {
    util::CheckArg(section_size >= 2 && section_size % 2 == 0,
                   "section size must be even and >= 2");
    util::CheckArg(num_sections >= 2, "num_sections must be >= 2");
    section_size_ = section_size;
    num_sections_ = num_sections;
  }

  // --- compaction ----------------------------------------------------------

  // Returns the number of items the schedule will compact next: the paper's
  // L_C = (z(C)+1)*k, clamped to half the capacity (the clamp is the
  // "L <= B/2 always holds" property; it only binds defensively after
  // merges inflate the state).
  uint32_t NextCompactionWidth() const {
    uint32_t sections_involved;
    switch (schedule_) {
      case SchedulePolicy::kExponential:
        sections_involved = static_cast<uint32_t>(
            util::TrailingOnes(state_)) + 1;
        break;
      case SchedulePolicy::kUniform:
        sections_involved = num_sections_;
        break;
      case SchedulePolicy::kSingleSection:
        sections_involved = 1;
        break;
      default:
        sections_involved = 1;
    }
    sections_involved = std::min(sections_involved, num_sections_);
    return sections_involved * section_size_;
  }

  // Performs one scheduled compaction (Lines 5-10 of Algorithm 1, extended
  // per Algorithm 3 to also consume any items beyond the nominal capacity).
  // Fills `*promoted` (cleared first) with the items to be fed to the next
  // level; the caller owns the vector and can reuse it across compactions
  // as a scratch buffer. Leaves `*promoted` empty (and the schedule state
  // untouched) when there is nothing to compact; callers invoke it only
  // when size() >= capacity().
  void Compact(util::Xoshiro256& rng, std::vector<T>* promoted) {
    promoted->clear();
    const uint32_t width = NextCompactionWidth();
    // Everything beyond the nominal capacity B is "extra" (can only appear
    // during merges) and is always included in the compaction.
    const size_t extras = size() > capacity() ? size() - capacity() : 0;
    size_t compact_count =
        std::min(size(), static_cast<size_t>(width) + extras);
    // Keep the compacted range even so exactly half of it is promoted and
    // total weight is conserved (the estimator then satisfies
    // RankEstimate(max) == n exactly).
    compact_count &= ~size_t{1};
    if (compact_count < 2) return;
    CompactRange(compact_count, rng, promoted);
    state_ += 1;
    ++num_compactions_;
  }

  // Value-returning convenience wrapper (tests and simple callers).
  std::vector<T> Compact(util::Xoshiro256& rng) {
    std::vector<T> promoted;
    Compact(rng, &promoted);
    return promoted;
  }

  // "Special" compaction used when parameters regrow and during merges
  // (Algorithm 3, SpecialCompaction): compacts every item above the
  // protected half, leaving at most capacity()/2 items. Leaves `*promoted`
  // empty if the buffer already holds <= capacity()/2 items.
  void SpecialCompact(util::Xoshiro256& rng, std::vector<T>* promoted) {
    promoted->clear();
    const size_t protect = capacity() / 2;
    if (size() <= protect) return;
    const size_t compact_count = (size() - protect) & ~size_t{1};
    if (compact_count < 2) return;
    CompactRange(compact_count, rng, promoted);
    state_ += 1;
    ++num_compactions_;
  }

  std::vector<T> SpecialCompact(util::Xoshiro256& rng) {
    std::vector<T> promoted;
    SpecialCompact(rng, &promoted);
    return promoted;
  }

  // --- queries -------------------------------------------------------------

  // Number of stored items <= y (inclusive) or < y (exclusive), unweighted.
  // Binary search over the sorted prefix plus a linear pass over the insert
  // tail: O(log B + u) instead of O(B).
  uint64_t CountRank(const T& y, Criterion criterion) const {
    const T* first = begin();
    const T* mid = first + sorted_prefix_;
    const T* last = end();
    const bool inclusive = criterion == Criterion::kInclusive;
    uint64_t count;
    if (accuracy_ == RankAccuracy::kLowRanks) {
      const T* split = inclusive ? std::upper_bound(first, mid, y, comp_)
                                 : std::lower_bound(first, mid, y, comp_);
      count = static_cast<uint64_t>(split - first);
    } else {
      // The prefix descends, so the counted items are its suffix.
      const Reversed order{&comp_};
      const T* split = inclusive ? std::lower_bound(first, mid, y, order)
                                 : std::upper_bound(first, mid, y, order);
      count = static_cast<uint64_t>(mid - split);
    }
    if (inclusive) {
      for (const T* it = mid; it != last; ++it) {
        if (!comp_(y, *it)) ++count;  // x <= y
      }
    } else {
      for (const T* it = mid; it != last; ++it) {
        if (comp_(*it, y)) ++count;  // x < y
      }
    }
    return count;
  }

  // Restores buffer contents and schedule state; used by deserialization
  // (core/req_serde.h) only. Items may come in any order: the sorted
  // prefix is recomputed from the data. The buffer becomes `items`, sized
  // as the caller allocated it.
  void Restore(std::vector<T> items, uint64_t state,
               uint64_t num_compactions) {
    items_ = std::move(items);
    sorted_prefix_ = WithOrder([this](const auto& order) {
      return static_cast<size_t>(
          std::is_sorted_until(begin(), end(), order) - begin());
    });
    state_ = state;
    num_compactions_ = num_compactions;
  }

  // Ensures the buffer is sorted in compaction order (see header comment).
  // Merge-based: only the insert tail is sorted from scratch, then merged
  // with the already-sorted prefix -- O(u log u + B) for tail length u
  // instead of the O(B log B) full sort. `scratch` is merge space for the
  // tail sort; its contents are overwritten.
  void Sort(std::vector<T>* scratch) {
    if (sorted_prefix_ == size()) return;
    T* first = begin_mutable();
    WithOrder([&](const auto& order) {
      detail::SortPrefixSortedRun(first, first + sorted_prefix_,
                                  first + size(), order, scratch);
    });
    sorted_prefix_ = size();
  }
  void Sort() {
    std::vector<T> scratch;
    Sort(&scratch);
  }
  bool sorted() const { return sorted_prefix_ == size(); }
  // Length of the sorted prefix (exposed for tests, diagnostics, and the
  // sketch's query index, which reads the prefix in place).
  size_t sorted_prefix() const { return sorted_prefix_; }

  // Appends a copy of the insert tail to `*out`, sorted in compaction
  // order by detail::SortTail (`scratch` is its merge space). The buffer
  // itself is not touched, so a const query can read the sorted prefix in
  // place and this copy beside it (ReqSketch's query index).
  void AppendSortedTail(std::vector<T>* out, std::vector<T>* scratch) const {
    const size_t offset = out->size();
    out->insert(out->end(), begin() + sorted_prefix_, end());
    WithOrder([&](const auto& order) {
      detail::SortTail(out->data() + offset, out->data() + out->size(), order,
                       scratch);
    });
  }

 private:
  // Levels start this small so an idle metric stays cheap; see the
  // header comment for the whole growth rule.
  static constexpr size_t kInitialCapacity = 16;

  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + items_.size(); }
  T* begin_mutable() { return items_.data(); }

  // Makes room for `count` more items.
  void MakeRoom(size_t count) {
    const size_t needed = items_.size() + count;
    if (needed > items_.capacity()) Grow(needed);
  }

  // Grows the buffer to hold at least `needed` items by the rule in the
  // header comment: double up to B, then B + B/4 once, then exactly what
  // is needed.
  void Grow(size_t needed) {
    const size_t cap = items_.capacity();
    const size_t nominal = capacity();
    const size_t grown =
        cap < nominal ? std::min(std::max(2 * cap, kInitialCapacity), nominal)
                      : nominal + nominal / 4;
    items_.reserve(std::max(grown, needed));
  }

  // comp_ with its arguments swapped: the compaction order of HRA levels.
  struct Reversed {
    const Compare* comp;
    bool operator()(const T& a, const T& b) const { return (*comp)(b, a); }
  };

  // Calls f with the comparator of compaction order: comp_ for LRA,
  // Reversed for HRA. Dispatching once per operation keeps the comparator
  // a static type inside sorts and searches.
  template <typename F>
  decltype(auto) WithOrder(F&& f) const {
    if (accuracy_ == RankAccuracy::kLowRanks) return f(comp_);
    return f(Reversed{&comp_});
  }

  // Advances sorted_prefix_ past any newly appended items that continue the
  // compaction order. When the prefix is stalled short of the end this
  // compares one adjacent pair and stops, so it is O(1) amortized; its
  // purpose is to keep already-ordered input (sorted streams, promoted
  // runs landing in an empty or fully sorted buffer) free to sort later.
  void ExtendSortedPrefix() {
    WithOrder([this](const auto& order) {
      const T* data = begin();
      while (sorted_prefix_ < size() &&
             (sorted_prefix_ == 0 ||
              !order(data[sorted_prefix_], data[sorted_prefix_ - 1]))) {
        ++sorted_prefix_;
      }
    });
  }

  // Compacts the `compact_count` items at the back of the sorted buffer
  // (the most compactible: the largest in LRA orientation, the paper's
  // pseudocode; the smallest in HRA, protecting the top of the
  // distribution). Removes them and appends every other one to
  // `*promoted`, in storage order. The coin picks the odd or the even
  // ascending ranks of the range; an HRA range is stored descending and
  // has even length, so its odd ranks sit at even offsets. Leaves the
  // surviving buffer fully sorted. `*promoted` doubles as the sort's
  // scratch, since it is only filled after the sort.
  void CompactRange(size_t compact_count, util::Xoshiro256& rng,
                    std::vector<T>* promoted) {
    Sort(promoted);
    promoted->clear();
    compact_count = std::min(compact_count, size());
    const bool keep_odds = (coin_ == CoinMode::kDeterministic)
                               ? true
                               : rng.NextBit();
    const bool odd_offsets =
        keep_odds == (accuracy_ == RankAccuracy::kLowRanks);
    promoted->reserve(compact_count / 2 + 1);
    T* data = begin_mutable();
    const size_t n = size();
    const size_t start = n - compact_count;
    for (size_t i = start + (odd_offsets ? 1 : 0); i < n; i += 2) {
      promoted->push_back(std::move(data[i]));
    }
    items_.erase(items_.begin() + start, items_.end());
    sorted_prefix_ = size();
  }

  Compare comp_;
  std::vector<T> items_;
  uint32_t section_size_;
  uint32_t num_sections_;
  RankAccuracy accuracy_;
  SchedulePolicy schedule_;
  CoinMode coin_;
  uint64_t state_ = 0;
  uint64_t num_compactions_ = 0;
  // Items [0, sorted_prefix_) are sorted in compaction order;
  // [sorted_prefix_, end) is the unsorted insert tail. Compactions reset it
  // to the full size.
  size_t sorted_prefix_ = 0;
};

}  // namespace req

#endif  // REQSKETCH_CORE_RELATIVE_COMPACTOR_H_
