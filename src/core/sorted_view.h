// A materialized, weight-indexed sorted view of a quantiles sketch.
//
// The REQ sketch answers every query directly from its levels (per-level
// binary searches, and ReqSketch::LevelIndex for selection and multi-point
// rank scans), and so do the sliding window and the Section 5 chain over
// their summaries, so no query needs a view. The view serves callers that
// co-scan one summary's items in sorted order many times:
// ReqSketch::GetSortedView builds one on demand, the equivalence suites
// use one as the seed-era reference their answers must match, and the
// E16 bench times its bulk kernel. It stores structure-of-arrays: one
// contiguous item array plus a parallel *weight-prefix index* (inclusive
// cumulative weights), so a rank binary search touches one cache-dense
// array and a quantile binary search touches only the uint64 prefix
// array (Estimate-Rank in Algorithm 2 is the rank direction; this is its
// inverse).
//
// Construction paths:
//   * from unsorted (item, weight) pairs -- O(S log S) sort; the seed-era
//     path, which GetSortedView and the equivalence references use.
//   * the default constructor: an empty view, only a target to assign a
//     built one to.
//
// Query kernels:
//   * GetRank / GetQuantile: one binary search each. GetQuantile's target
//     rule (detail::QuantileTarget) is shared with ReqSketch's selection.
//   * GetRanks(const T*, size_t, uint64_t*): bulk kernel -- sorts the
//     query points once and answers all of them in a single forward
//     co-scan of the view with galloping advances,
//     O((Q + R') + Q log Q) for Q queries against R entries (R' = span of
//     entries actually crossed) instead of Q * O(log R).
//   * GetCDF: the split points are required ascending, so the same
//     co-scan runs without the sort.
#ifndef REQSKETCH_CORE_SORTED_VIEW_H_
#define REQSKETCH_CORE_SORTED_VIEW_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "core/req_common.h"
#include "util/validation.h"

namespace req {

namespace detail {

// The cumulative weight a quantile query at normalized rank q in [0, 1]
// must reach: ceil(q * n) (at least 1) under inclusive semantics,
// floor(q * n) + 1 under exclusive. The answer is the smallest stored
// item whose inclusive weighted rank is at least the target; a target
// above n (q = 1 under exclusive semantics: for q < 1 and n < 2^53 the
// product rounds below n) answers with the largest stored item.
// SortedView::GetQuantile and ReqSketch's selection over its levels
// share this rule, so the two cannot drift apart.
inline uint64_t QuantileTarget(double q, uint64_t total_weight,
                               Criterion criterion) {
  const double pos = q * static_cast<double>(total_weight);
  if (criterion == Criterion::kInclusive) {
    const uint64_t target = static_cast<uint64_t>(std::ceil(pos));
    return target == 0 ? 1 : target;
  }
  return static_cast<uint64_t>(std::floor(pos)) + 1;
}

}  // namespace detail

template <typename T, typename Compare = std::less<T>>
class SortedView {
 public:
  // Builds from (item, weight) pairs; total_weight must equal the stream
  // length n represented by the sketch.
  SortedView(std::vector<std::pair<T, uint64_t>> weighted_items,
             uint64_t total_weight, Compare comp = Compare())
      : comp_(std::move(comp)), total_weight_(total_weight) {
    util::CheckArg(!weighted_items.empty(),
                   "SortedView requires a non-empty sketch");
    std::sort(weighted_items.begin(), weighted_items.end(),
              [this](const auto& a, const auto& b) {
                return comp_(a.first, b.first);
              });
    items_.reserve(weighted_items.size());
    cum_weights_.reserve(weighted_items.size());
    uint64_t cum = 0;
    for (auto& [item, weight] : weighted_items) {
      cum += weight;
      items_.push_back(std::move(item));
      cum_weights_.push_back(cum);
    }
    util::CheckState(cum == total_weight_,
                     "sorted view weight mismatch: sketch corrupted");
  }

  // An empty view, only to be assigned over: queries are legal only after
  // a built view has been assigned to it.
  explicit SortedView(Compare comp = Compare())
      : comp_(std::move(comp)), total_weight_(0) {}

  size_t size() const { return items_.size(); }
  uint64_t total_weight() const { return total_weight_; }

  // Structure-of-arrays accessors (the weight-prefix index is
  // cum_weights(): inclusive cumulative weight up to each entry).
  const std::vector<T>& items() const { return items_; }
  const std::vector<uint64_t>& cum_weights() const { return cum_weights_; }
  const T& ItemAt(size_t i) const { return items_[i]; }
  uint64_t CumWeightAt(size_t i) const { return cum_weights_[i]; }

  // Estimated absolute rank of y: total weight of stored items <= y
  // (inclusive) or < y (exclusive).
  uint64_t GetRank(const T& y, Criterion criterion) const {
    const size_t idx = UpperIndex(0, y, criterion);
    return idx == 0 ? 0 : cum_weights_[idx - 1];
  }

  // Normalized rank in [0, 1].
  double GetNormalizedRank(const T& y, Criterion criterion) const {
    return static_cast<double>(GetRank(y, criterion)) /
           static_cast<double>(total_weight_);
  }

  // Bulk rank kernel: fills out[i] with GetRank(ys[i], criterion) for all
  // `count` query points. Sorts the query points once (by index, so the
  // output order is the caller's), then answers everything in one forward
  // co-scan with galloping advances. Exactly equal to calling GetRank in
  // a loop.
  void GetRanks(const T* ys, size_t count, uint64_t* out,
                Criterion criterion) const {
    if (count == 0) return;
    // Local order buffer: any number of threads may run bulk queries
    // concurrently on one shared view.
    std::vector<size_t> order(count);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return comp_(ys[a], ys[b]); });
    size_t pos = 0;
    for (size_t q : order) {
      pos = UpperIndex(pos, ys[q], criterion);
      out[q] = pos == 0 ? 0 : cum_weights_[pos - 1];
    }
  }

  // CDF at the given (pre-validated, ascending) split points: result[i] is
  // the normalized rank of split[i]; a final entry of 1.0 is appended.
  // Ascending inputs make this the sort-free case of the bulk kernel: one
  // co-scan, no per-split binary search over the full view.
  std::vector<double> GetCDF(const std::vector<T>& splits,
                             Criterion criterion) const {
    std::vector<double> cdf;
    cdf.reserve(splits.size() + 1);
    const double denom = static_cast<double>(total_weight_);
    size_t pos = 0;
    for (const T& split : splits) {
      pos = UpperIndex(pos, split, criterion);
      const uint64_t rank = pos == 0 ? 0 : cum_weights_[pos - 1];
      cdf.push_back(static_cast<double>(rank) / denom);
    }
    cdf.push_back(1.0);
    return cdf;
  }

  // Quantile for normalized rank q in [0, 1]: the smallest stored item whose
  // cumulative weight reaches q * n (inclusive), or the smallest item whose
  // cumulative weight exceeds q * n (exclusive). q = 0 returns the smallest
  // stored item, q = 1 the largest. One binary search over the weight-prefix
  // index only (no item comparisons).
  const T& GetQuantile(double q, Criterion criterion) const {
    util::CheckArg(q >= 0.0 && q <= 1.0,
                   "normalized rank must be in [0, 1]");
    const uint64_t target = detail::QuantileTarget(q, total_weight_, criterion);
    if (target > total_weight_) return items_.back();
    // First entry with cum_weight >= target.
    const size_t idx = static_cast<size_t>(
        std::lower_bound(cum_weights_.begin(), cum_weights_.end(), target) -
        cum_weights_.begin());
    return items_[idx];
  }

 private:
  // First index in [lo, size) whose item is past y: > y under inclusive
  // semantics, >= y under exclusive. Galloping (exponential) probe from
  // `lo` followed by a binary search inside the located range, so a
  // forward co-scan pays O(log gap) per query rather than O(log R).
  size_t UpperIndex(size_t lo, const T& y, Criterion criterion) const {
    const size_t n = items_.size();
    const auto past = [&](const T& item) {
      return criterion == Criterion::kInclusive ? comp_(y, item)
                                                : !comp_(item, y);
    };
    if (lo >= n || past(items_[lo])) return lo;
    // items_[lo] is not past y; gallop until one is (or the end).
    size_t step = 1;
    size_t prev = lo;  // highest index known not past y
    while (prev + step < n && !past(items_[prev + step])) {
      prev += step;
      step <<= 1;
    }
    const size_t hi = std::min(n, prev + step);
    // Invariant: items_[prev] not past, items_[hi] past (or hi == n).
    size_t first = prev + 1;
    size_t len = hi - first;
    while (len > 0) {
      const size_t half = len / 2;
      if (!past(items_[first + half])) {
        first += half + 1;
        len -= half + 1;
      } else {
        len = half;
      }
    }
    return first;
  }

  Compare comp_;
  std::vector<T> items_;
  std::vector<uint64_t> cum_weights_;
  uint64_t total_weight_;
};

}  // namespace req

#endif  // REQSKETCH_CORE_SORTED_VIEW_H_
