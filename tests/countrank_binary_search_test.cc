// The binary-search CountRank (sorted prefix + linear tail) must agree
// exactly with a brute-force linear scan, for every buffer state the
// compactor can reach: pure insert tails, fully sorted post-compaction
// buffers, and mixtures of both -- under both criteria, both orientations,
// and a non-default comparator.
#include "core/relative_compactor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "core/req_common.h"
#include "util/random.h"

namespace req {
namespace {

// Reference implementation: the pre-optimization linear scan.
template <typename T, typename Compare>
uint64_t BruteForceCountRank(ItemSpan<T> items, const T& y,
                             Criterion criterion, const Compare& comp) {
  uint64_t count = 0;
  if (criterion == Criterion::kInclusive) {
    for (const T& x : items) {
      if (!comp(y, x)) ++count;  // x <= y
    }
  } else {
    for (const T& x : items) {
      if (comp(x, y)) ++count;  // x < y
    }
  }
  return count;
}

// Levels keep their sorted prefix in compaction order: ascending under the
// comparator for LRA, descending for HRA.
template <typename Compare = std::less<double>>
bool InCompactionOrder(const double* first, const double* last,
                       RankAccuracy acc, const Compare& comp = Compare()) {
  if (acc == RankAccuracy::kLowRanks) return std::is_sorted(first, last, comp);
  return std::is_sorted(first, last,
                        [&comp](double a, double b) { return comp(b, a); });
}

template <typename Compare>
void CheckAllProbes(const RelativeCompactor<double, Compare>& c,
                    const std::vector<double>& probes, const Compare& comp) {
  for (double y : probes) {
    for (Criterion criterion :
         {Criterion::kInclusive, Criterion::kExclusive}) {
      ASSERT_EQ(c.CountRank(y, criterion),
                BruteForceCountRank(c.items(), y, criterion, comp))
          << "y=" << y << " inclusive="
          << (criterion == Criterion::kInclusive)
          << " size=" << c.size() << " prefix=" << c.sorted_prefix();
    }
  }
}

// Drives a compactor through many insert/compact cycles with duplicate-rich
// random input and cross-checks CountRank against the brute force at every
// step. The small integer value grid forces ties, which is where
// upper/lower_bound semantics can silently diverge from a scan.
template <typename Compare = std::less<double>>
void RunRandomizedCheck(RankAccuracy acc, uint64_t seed,
                        Compare comp = Compare()) {
  RelativeCompactor<double, Compare> c(4, 4, acc,
                                       SchedulePolicy::kExponential,
                                       CoinMode::kRandom, comp);
  util::Xoshiro256 rng(seed);
  std::vector<double> probes;
  for (int g = -1; g <= 20; ++g) {
    probes.push_back(static_cast<double>(g));
    probes.push_back(static_cast<double>(g) + 0.5);
  }
  for (int round = 0; round < 400; ++round) {
    c.Insert(static_cast<double>(rng.Next() % 20));
    if (c.IsFull()) {
      // Query the full buffer (sorted prefix + full tail) before the
      // compaction consumes it...
      CheckAllProbes(c, probes, comp);
      c.Compact(rng);
      // ...and the fully sorted survivor buffer right after.
      ASSERT_TRUE(
          InCompactionOrder(c.items().begin(), c.items().end(), acc, comp));
      ASSERT_EQ(c.sorted_prefix(), c.size());
    }
    CheckAllProbes(c, probes, comp);
  }
}

TEST(CountRankBinarySearchTest, MatchesBruteForceHra) {
  RunRandomizedCheck(RankAccuracy::kHighRanks, 21);
}

TEST(CountRankBinarySearchTest, MatchesBruteForceLra) {
  RunRandomizedCheck(RankAccuracy::kLowRanks, 22);
}

TEST(CountRankBinarySearchTest, MatchesBruteForceReversedComparator) {
  RunRandomizedCheck<std::greater<double>>(RankAccuracy::kHighRanks, 23,
                                           std::greater<double>());
  RunRandomizedCheck<std::greater<double>>(RankAccuracy::kLowRanks, 24,
                                           std::greater<double>());
}

// The sorted-prefix invariant itself: the prefix range is always sorted in
// compaction order, and appending a run that continues that order to a
// sorted buffer extends the prefix (keeping sorted streams cheap) while a
// disordered append freezes it. Negating the values turns the LRA case
// into the HRA one.
TEST(CountRankBinarySearchTest, SortedPrefixInvariant) {
  for (RankAccuracy acc :
       {RankAccuracy::kLowRanks, RankAccuracy::kHighRanks}) {
    const double s = acc == RankAccuracy::kLowRanks ? 1.0 : -1.0;
    RelativeCompactor<double> c(4, 4, acc, SchedulePolicy::kExponential,
                                CoinMode::kRandom);
    for (double v : {1.0, 2.0, 3.0}) c.Insert(s * v);
    EXPECT_EQ(c.sorted_prefix(), 3u);  // in-order inserts extend the prefix
    c.Insert(s * 0.5);                 // out of order: prefix freezes
    EXPECT_EQ(c.sorted_prefix(), 3u);
    c.Insert(s * 7.0);  // still frozen: the tail is unsorted territory
    EXPECT_EQ(c.sorted_prefix(), 3u);
    const auto& items = c.items();
    EXPECT_TRUE(InCompactionOrder(items.begin(),
                                  items.begin() + c.sorted_prefix(), acc));
    c.Sort();
    EXPECT_EQ(c.sorted_prefix(), c.size());
    EXPECT_TRUE(InCompactionOrder(items.begin(), items.end(), acc));
    // LRA holds {0.5, 1, 2, 3, 7}; HRA holds {-7, -3, -2, -1, -0.5}.
    EXPECT_EQ(c.CountRank(s * 3.0, Criterion::kInclusive), s > 0 ? 4u : 2u);
    EXPECT_EQ(c.CountRank(s * 3.0, Criterion::kExclusive), s > 0 ? 3u : 1u);
  }
}

// Restore (deserialization) recomputes the prefix from the data: a payload
// fully sorted in compaction order is recognized as such, any other keeps
// only its leading run -- including an HRA payload stored ascending, which
// still restores and answers exactly.
TEST(CountRankBinarySearchTest, RestoreRecomputesPrefix) {
  RelativeCompactor<double> c(4, 4, RankAccuracy::kHighRanks,
                              SchedulePolicy::kExponential,
                              CoinMode::kRandom);
  c.Restore({4.0, 3.0, 2.0, 1.0}, 0, 0);
  EXPECT_EQ(c.sorted_prefix(), 4u);
  EXPECT_TRUE(c.sorted());
  c.Restore({1.0, 3.0, 2.0}, 5, 2);
  EXPECT_EQ(c.sorted_prefix(), 1u);
  EXPECT_FALSE(c.sorted());
  EXPECT_EQ(c.CountRank(2.0, Criterion::kInclusive), 2u);
  c.Restore({1.0, 2.0, 3.0, 4.0}, 5, 2);
  EXPECT_EQ(c.sorted_prefix(), 1u);
  EXPECT_EQ(c.CountRank(2.5, Criterion::kInclusive), 2u);
  EXPECT_EQ(c.CountRank(3.0, Criterion::kExclusive), 2u);
}

}  // namespace
}  // namespace req
