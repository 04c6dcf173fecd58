// SummaryQueries: the one query surface of every REQ summary.
//
// A summary is one or more ReqSketch "parts" read as a single stream: a
// sketch is its own part, a sliding window's parts are its live buckets
// and the Section 5 chain's its summaries (both oldest first), and a
// sharded sketch's is its merged view. Estimate-Rank weighs a level-h item
// by 2^h, so the rank of y over the parts is the sum of their weighted
// counts of items <= y -- Theorem 3's mergeability used at query time,
// without building the merge. GetRank sums per-level binary-search counts;
// every other query reads the parts through one query-local
// ReqSketch::LevelIndex, dropped with the query. q = 0 and q = 1, like
// MinItem()/MaxItem(), are the exact extremes folded from the parts, and
// normalized ranks, CDFs and rank bounds use the parts' total n (the
// bounds also their k_base and orientation).
//
// Every query checks emptiness first (std::logic_error), then its
// arguments (std::invalid_argument), and only then gathers the parts, so a
// rejected query builds nothing -- a sharded sketch's merged view
// included. The messages are literals: the checks allocate nothing.
//
// A class gains the surface by deriving from
// SummaryQueries<Derived, T, Compare> and befriending it. The base reads
// its public is_empty(), its comparator member comp_ (which orders split
// and bulk points before any part is gathered), and its private hook
//   template <typename F> auto WithParts(F&& f) const;
// which returns f(parts, count) for `count` >= 1 non-empty
// `const ReqSketch<T, Compare>*` parts that share one k_base and
// orientation and stay alive for the call. The base holds no state.
#ifndef REQSKETCH_CORE_SUMMARY_QUERIES_H_
#define REQSKETCH_CORE_SUMMARY_QUERIES_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/req_common.h"
#include "util/validation.h"

namespace req {

template <typename T, typename Compare>
class ReqSketch;

template <typename Derived, typename T, typename Compare>
class SummaryQueries {
 public:
  // Estimate-Rank(y) of Algorithm 2: the sum over the parts' levels of 2^h
  // times the number of stored items <= y (inclusive) or < y (exclusive),
  // each level by binary search over its sorted prefix plus a scan of its
  // small insert tail.
  uint64_t GetRank(const T& y,
                   Criterion criterion = Criterion::kInclusive) const {
    CheckNonEmpty("GetRank() on an empty summary");
    return derived().WithParts([&](const Part* const* parts, size_t count) {
      return WeightedCount(parts, count, y, criterion);
    });
  }

  double GetNormalizedRank(
      const T& y, Criterion criterion = Criterion::kInclusive) const {
    CheckNonEmpty("GetNormalizedRank() on an empty summary");
    return derived().WithParts([&](const Part* const* parts, size_t count) {
      return static_cast<double>(WeightedCount(parts, count, y, criterion)) /
             static_cast<double>(TotalN(parts, count));
    });
  }

  // Bulk rank kernel: out[i] = GetRank(ys[i]). Sorts the points once and
  // answers all of them in one forward scan of the parts' levels.
  void GetRanks(const T* ys, size_t count, uint64_t* out,
                Criterion criterion = Criterion::kInclusive) const {
    CheckNonEmpty("GetRanks() on an empty summary");
    if (count == 0) return;
    CheckNotNaN(ys, count, "bulk query points must not be NaN");
    const Compare& comp = derived().comp_;
    std::vector<size_t> order(count);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return comp(ys[a], ys[b]); });
    std::vector<T> points;
    points.reserve(count);
    for (size_t i : order) points.push_back(ys[i]);
    const std::vector<uint64_t> ranks = derived().WithParts(
        [&](const Part* const* parts, size_t num_parts) {
          return typename Part::LevelIndex(parts, num_parts)
              .ScanRanks(points, criterion);
        });
    for (size_t i = 0; i < count; ++i) out[order[i]] = ranks[i];
  }

  std::vector<uint64_t> GetRanks(
      const std::vector<T>& ys,
      Criterion criterion = Criterion::kInclusive) const {
    std::vector<uint64_t> out(ys.size());
    GetRanks(ys.data(), ys.size(), out.data(), criterion);
    return out;
  }

  // Smallest item whose estimated rank reaches q * n (the target rule is
  // detail::QuantileTarget, shared with SortedView::GetQuantile).
  T GetQuantile(double q, Criterion criterion = Criterion::kInclusive) const {
    CheckNonEmpty("GetQuantile() on an empty summary");
    return GetQuantiles({q}, criterion).front();
  }

  // GetQuantile at each rank, every rank validated first; the index is
  // built on the first rank other than 0 and 1.
  std::vector<T> GetQuantiles(
      const std::vector<double>& qs,
      Criterion criterion = Criterion::kInclusive) const {
    CheckNonEmpty("GetQuantiles() on an empty summary");
    for (double q : qs) {
      util::CheckArg(q >= 0.0 && q <= 1.0,
                     "normalized rank must be in [0, 1]");
    }
    return derived().WithParts([&](const Part* const* parts, size_t count) {
      const T& min_item = Extreme(parts, count, /*max=*/false);
      const T& max_item = Extreme(parts, count, /*max=*/true);
      std::optional<typename Part::LevelIndex> index;
      std::vector<T> out;
      out.reserve(qs.size());
      for (double q : qs) {
        if (q == 0.0) {
          out.push_back(min_item);
        } else if (q == 1.0) {
          out.push_back(max_item);
        } else {
          if (!index) index.emplace(parts, count);
          out.push_back(index->Select(q, criterion));
        }
      }
      return out;
    });
  }

  // CDF at strictly ascending split points: result[i] is the estimated
  // normalized rank of splits[i], and a final 1.0 is appended. The
  // ascending precondition makes this the sort-free case of the scan.
  std::vector<double> GetCDF(
      const std::vector<T>& splits,
      Criterion criterion = Criterion::kInclusive) const {
    CheckNonEmpty("GetCDF() on an empty summary");
    const Compare& comp = derived().comp_;
    util::CheckArg(!splits.empty(), "split points must be non-empty");
    for (size_t i = 0; i + 1 < splits.size(); ++i) {
      util::CheckArg(comp(splits[i], splits[i + 1]),
                     "split points must be strictly ascending");
    }
    CheckNotNaN(splits.data(), splits.size(),
                "split points must not be NaN");
    return derived().WithParts([&](const Part* const* parts, size_t count) {
      const typename Part::LevelIndex index(parts, count);
      const double denom = static_cast<double>(TotalN(parts, count));
      std::vector<double> cdf;
      cdf.reserve(splits.size() + 1);
      for (uint64_t rank : index.ScanRanks(splits, criterion)) {
        cdf.push_back(static_cast<double>(rank) / denom);
      }
      cdf.push_back(1.0);
      return cdf;
    });
  }

  // PMF over the intervals the split points define (mass of (-inf, s0],
  // (s0, s1], ..., (s_last, +inf) under inclusive semantics).
  std::vector<double> GetPMF(
      const std::vector<T>& splits,
      Criterion criterion = Criterion::kInclusive) const {
    std::vector<double> pmf = GetCDF(splits, criterion);
    for (size_t i = pmf.size(); i-- > 1;) pmf[i] -= pmf[i - 1];
    return pmf;
  }

  // Rank confidence bounds at num_std_devs standard deviations (1, 2 or
  // 3) around GetRank(y) (params::RankBound).
  uint64_t GetRankLowerBound(const T& y, int num_std_devs,
                             Criterion criterion =
                                 Criterion::kInclusive) const {
    return RankBound(y, num_std_devs, criterion, /*upper=*/false);
  }
  uint64_t GetRankUpperBound(const T& y, int num_std_devs,
                             Criterion criterion =
                                 Criterion::kInclusive) const {
    return RankBound(y, num_std_devs, criterion, /*upper=*/true);
  }

  // Exact extremes of the summarized stream, by value: a part need not
  // outlive the call.
  T MinItem() const {
    CheckNonEmpty("MinItem() on an empty summary");
    return derived().WithParts([&](const Part* const* parts, size_t count) {
      return Extreme(parts, count, /*max=*/false);
    });
  }
  T MaxItem() const {
    CheckNonEmpty("MaxItem() on an empty summary");
    return derived().WithParts([&](const Part* const* parts, size_t count) {
      return Extreme(parts, count, /*max=*/true);
    });
  }

 private:
  using Part = ReqSketch<T, Compare>;

  const Derived& derived() const {
    return static_cast<const Derived&>(*this);
  }

  void CheckNonEmpty(const char* message) const {
    util::CheckState(!derived().is_empty(), message);
  }

  // Rejects NaN before it reaches a sort or a scan: NaN breaks the strict
  // weak ordering both rely on.
  static void CheckNotNaN([[maybe_unused]] const T* values,
                          [[maybe_unused]] size_t count,
                          [[maybe_unused]] const char* message) {
    if constexpr (std::is_floating_point_v<T>) {
      for (size_t i = 0; i < count; ++i) {
        util::CheckArg(!std::isnan(values[i]), message);
      }
    }
  }

  static uint64_t TotalN(const Part* const* parts, size_t count) {
    uint64_t n = 0;
    for (size_t i = 0; i < count; ++i) n += parts[i]->n();
    return n;
  }

  static uint64_t WeightedCount(const Part* const* parts, size_t count,
                                const T& y, Criterion criterion) {
    uint64_t rank = 0;
    for (size_t i = 0; i < count; ++i) {
      const auto& levels = parts[i]->levels();
      for (size_t h = 0; h < levels.size(); ++h) {
        rank += levels[h].CountRank(y, criterion) << h;
      }
    }
    return rank;
  }

  // The parts' exact minimum or maximum; the first part wins ties.
  const T& Extreme(const Part* const* parts, size_t count, bool max) const {
    const Compare& comp = derived().comp_;
    const T* best = max ? &parts[0]->MaxItem() : &parts[0]->MinItem();
    for (size_t i = 1; i < count; ++i) {
      const T& item = max ? parts[i]->MaxItem() : parts[i]->MinItem();
      if (max ? comp(*best, item) : comp(item, *best)) best = &item;
    }
    return *best;
  }

  uint64_t RankBound(const T& y, int num_std_devs, Criterion criterion,
                     bool upper) const {
    CheckNonEmpty(upper ? "GetRankUpperBound() on an empty summary"
                        : "GetRankLowerBound() on an empty summary");
    return derived().WithParts([&](const Part* const* parts, size_t count) {
      const ReqConfig& config = parts[0]->config();
      return params::RankBound(
          static_cast<double>(WeightedCount(parts, count, y, criterion)),
          TotalN(parts, count), config.k_base, config.accuracy,
          num_std_devs, upper);
    });
  }
};

}  // namespace req

#endif  // REQSKETCH_CORE_SUMMARY_QUERIES_H_
