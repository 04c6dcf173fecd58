#include "core/relative_compactor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/req_common.h"
#include "util/random.h"

namespace req {
namespace {

using Compactor = RelativeCompactor<double>;

Compactor MakeCompactor(uint32_t k = 4, uint32_t sections = 4,
                        RankAccuracy acc = RankAccuracy::kLowRanks,
                        SchedulePolicy sched = SchedulePolicy::kExponential,
                        CoinMode coin = CoinMode::kRandom) {
  return Compactor(k, sections, acc, sched, coin);
}

TEST(RelativeCompactorTest, CapacityFormula) {
  Compactor c = MakeCompactor(4, 5);
  EXPECT_EQ(c.capacity(), 2u * 4u * 5u);
  EXPECT_EQ(c.section_size(), 4u);
  EXPECT_EQ(c.num_sections(), 5u);
}

TEST(RelativeCompactorTest, RejectsBadParameters) {
  EXPECT_THROW(MakeCompactor(3, 4), std::invalid_argument);  // odd k
  EXPECT_THROW(MakeCompactor(0, 4), std::invalid_argument);
  EXPECT_THROW(MakeCompactor(4, 1), std::invalid_argument);
}

TEST(RelativeCompactorTest, InsertUntilFull) {
  Compactor c = MakeCompactor();
  for (uint32_t i = 0; i < c.capacity(); ++i) {
    EXPECT_FALSE(c.IsFull());
    c.Insert(static_cast<double>(i));
  }
  EXPECT_TRUE(c.IsFull());
  EXPECT_EQ(c.size(), c.capacity());
}

// The schedule: first compaction has z(0)=0 -> 1 section -> k items.
TEST(RelativeCompactorTest, FirstCompactionWidthIsOneSection) {
  Compactor c = MakeCompactor(4, 4);
  EXPECT_EQ(c.NextCompactionWidth(), 4u);
}

// The exponential schedule follows (z(C)+1)*k for C = 0, 1, 2, ...
TEST(RelativeCompactorTest, ScheduleFollowsTrailingOnes) {
  Compactor c = MakeCompactor(4, 8);
  util::Xoshiro256 rng(1);
  const uint32_t expected_sections[] = {1, 2, 1, 3, 1, 2, 1, 4,
                                        1, 2, 1, 3, 1, 2, 1, 5};
  for (uint32_t step = 0; step < 16; ++step) {
    EXPECT_EQ(c.NextCompactionWidth(), expected_sections[step] * 4)
        << "compaction " << step;
    while (!c.IsFull()) c.Insert(0.0);
    c.Compact(rng);
  }
}

// L_C <= B/2 always (the clamp in Algorithm 1): even with an artificially
// inflated state, the width never exceeds half the capacity.
TEST(RelativeCompactorTest, WidthNeverExceedsHalfCapacity) {
  Compactor c = MakeCompactor(4, 4);
  c.set_state(~uint64_t{0});  // all ones: maximal trailing-ones count
  EXPECT_LE(c.NextCompactionWidth(), c.capacity() / 2);
}

TEST(RelativeCompactorTest, CompactRemovesScheduledCountAndPromotesHalf) {
  Compactor c = MakeCompactor(4, 4);
  util::Xoshiro256 rng(2);
  while (!c.IsFull()) c.Insert(static_cast<double>(c.size()));
  const size_t before = c.size();
  const std::vector<double> promoted = c.Compact(rng);
  EXPECT_EQ(before - c.size(), 2 * promoted.size());
  EXPECT_EQ(promoted.size(), 2u);  // first compaction: k=4 items, half out
  EXPECT_EQ(c.state(), 1u);
  EXPECT_EQ(c.num_compactions(), 1u);
}

// LRA orientation: the compacted items are the *largest*; the smallest
// B/2 items are never touched.
TEST(RelativeCompactorTest, LraCompactsLargest) {
  Compactor c = MakeCompactor(4, 4, RankAccuracy::kLowRanks);
  util::Xoshiro256 rng(3);
  const uint32_t cap = c.capacity();
  for (uint32_t i = 0; i < cap; ++i) c.Insert(static_cast<double>(i));
  const std::vector<double> promoted = c.Compact(rng);
  // Scheduled width = 4, so items {28,29,30,31} were compacted.
  for (double p : promoted) EXPECT_GE(p, cap - 4.0);
  for (double x : c.items()) EXPECT_LT(x, cap - 4.0);
}

// HRA orientation mirrors: the smallest items are compacted.
TEST(RelativeCompactorTest, HraCompactsSmallest) {
  Compactor c = MakeCompactor(4, 4, RankAccuracy::kHighRanks);
  util::Xoshiro256 rng(4);
  const uint32_t cap = c.capacity();
  for (uint32_t i = 0; i < cap; ++i) c.Insert(static_cast<double>(i));
  const std::vector<double> promoted = c.Compact(rng);
  for (double p : promoted) EXPECT_LT(p, 4.0);
  for (double x : c.items()) EXPECT_GE(x, 4.0);
}

// Observation 4: the promoted items are exactly the even- or odd-indexed
// items of the sorted compacted range, each parity occurring.
TEST(RelativeCompactorTest, PromotedAreAlternatingItems) {
  bool saw_even = false, saw_odd = false;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    Compactor c = MakeCompactor(4, 4, RankAccuracy::kLowRanks);
    util::Xoshiro256 rng(seed);
    const uint32_t cap = c.capacity();
    for (uint32_t i = 0; i < cap; ++i) c.Insert(static_cast<double>(i));
    const std::vector<double> promoted = c.Compact(rng);
    ASSERT_EQ(promoted.size(), 2u);
    // Compacted range was {28,29,30,31}: evens {28,30}, odds {29,31}.
    if (promoted[0] == 28.0) {
      EXPECT_EQ(promoted[1], 30.0);
      saw_even = true;
    } else {
      EXPECT_EQ(promoted[0], 29.0);
      EXPECT_EQ(promoted[1], 31.0);
      saw_odd = true;
    }
  }
  EXPECT_TRUE(saw_even);
  EXPECT_TRUE(saw_odd);
}

// Weight conservation: every compaction removes an even count and promotes
// exactly half of it.
TEST(RelativeCompactorTest, CompactionConservesWeight) {
  Compactor c = MakeCompactor(4, 6);
  util::Xoshiro256 rng(5);
  uint64_t inserted = 0;
  uint64_t promoted_total = 0;
  for (int round = 0; round < 200; ++round) {
    while (!c.IsFull()) {
      c.Insert(rng.NextDouble());
      ++inserted;
    }
    const auto promoted = c.Compact(rng);
    promoted_total += promoted.size();
    EXPECT_EQ(inserted, c.size() + 2 * promoted_total);
  }
}

// The deterministic coin always keeps odd-indexed items.
TEST(RelativeCompactorTest, DeterministicCoinKeepsOdds) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Compactor c = MakeCompactor(4, 4, RankAccuracy::kLowRanks,
                                SchedulePolicy::kExponential,
                                CoinMode::kDeterministic);
    util::Xoshiro256 rng(seed);
    const uint32_t cap = c.capacity();
    for (uint32_t i = 0; i < cap; ++i) c.Insert(static_cast<double>(i));
    const std::vector<double> promoted = c.Compact(rng);
    ASSERT_EQ(promoted.size(), 2u);
    EXPECT_EQ(promoted[0], 29.0);
    EXPECT_EQ(promoted[1], 31.0);
  }
}

// Uniform schedule policy always compacts the full second half.
TEST(RelativeCompactorTest, UniformScheduleCompactsHalf) {
  Compactor c = MakeCompactor(4, 4, RankAccuracy::kLowRanks,
                              SchedulePolicy::kUniform);
  EXPECT_EQ(c.NextCompactionWidth(), c.capacity() / 2);
  util::Xoshiro256 rng(6);
  while (!c.IsFull()) c.Insert(static_cast<double>(c.size()));
  const auto promoted = c.Compact(rng);
  EXPECT_EQ(promoted.size(), c.capacity() / 4);
  EXPECT_EQ(c.NextCompactionWidth(), c.capacity() / 2);  // unchanged
}

// Single-section policy always compacts exactly one section.
TEST(RelativeCompactorTest, SingleSectionSchedule) {
  Compactor c = MakeCompactor(4, 4, RankAccuracy::kLowRanks,
                              SchedulePolicy::kSingleSection);
  util::Xoshiro256 rng(7);
  for (int round = 0; round < 10; ++round) {
    while (!c.IsFull()) c.Insert(static_cast<double>(c.size()));
    EXPECT_EQ(c.NextCompactionWidth(), c.section_size());
    c.Compact(rng);
  }
}

// Fact 5 holds over the live schedule: between two compactions involving
// exactly j sections there is one involving more than j sections.
TEST(RelativeCompactorTest, Fact5OnLiveSchedule) {
  Compactor c = MakeCompactor(2, 8);
  util::Xoshiro256 rng(8);
  std::vector<uint32_t> widths;
  for (int round = 0; round < 120; ++round) {
    while (!c.IsFull()) c.Insert(rng.NextDouble());
    widths.push_back(c.NextCompactionWidth() / c.section_size());
    c.Compact(rng);
  }
  for (size_t i = 0; i < widths.size(); ++i) {
    for (size_t j = i + 1; j < widths.size(); ++j) {
      if (widths[j] == widths[i]) {
        bool bigger_between = false;
        for (size_t m = i + 1; m < j; ++m) {
          if (widths[m] > widths[i]) {
            bigger_between = true;
            break;
          }
        }
        EXPECT_TRUE(bigger_between)
            << "two " << widths[i] << "-section compactions at " << i
            << " and " << j << " with nothing bigger between";
        break;  // only need the *next* equal-width compaction
      }
    }
  }
}

// SpecialCompact leaves at most capacity/2 (+1 for parity) items.
TEST(RelativeCompactorTest, SpecialCompactLeavesProtectedHalf) {
  Compactor c = MakeCompactor(4, 4);
  util::Xoshiro256 rng(9);
  for (uint32_t i = 0; i < c.capacity(); ++i) {
    c.Insert(static_cast<double>(i));
  }
  const auto promoted = c.SpecialCompact(rng);
  EXPECT_LE(c.size(), c.capacity() / 2 + 1);
  EXPECT_EQ(promoted.size(), (c.capacity() - c.size()) / 2);
}

TEST(RelativeCompactorTest, SpecialCompactNoOpWhenSmall) {
  Compactor c = MakeCompactor(4, 4);
  util::Xoshiro256 rng(10);
  for (uint32_t i = 0; i < c.capacity() / 2; ++i) {
    c.Insert(static_cast<double>(i));
  }
  EXPECT_TRUE(c.SpecialCompact(rng).empty());
  EXPECT_EQ(c.size(), c.capacity() / 2);
  EXPECT_EQ(c.num_compactions(), 0u);
}

// Merge state rule: OR of states (Fact 18).
TEST(RelativeCompactorTest, OrState) {
  Compactor c = MakeCompactor();
  c.set_state(0b0101);
  c.OrState(0b0011);
  EXPECT_EQ(c.state(), 0b0111u);
}

TEST(RelativeCompactorTest, CountRankInclusiveExclusive) {
  Compactor c = MakeCompactor();
  for (double x : {1.0, 2.0, 2.0, 3.0}) c.Insert(x);
  EXPECT_EQ(c.CountRank(2.0, Criterion::kInclusive), 3u);
  EXPECT_EQ(c.CountRank(2.0, Criterion::kExclusive), 1u);
  EXPECT_EQ(c.CountRank(0.5, Criterion::kInclusive), 0u);
  EXPECT_EQ(c.CountRank(9.0, Criterion::kInclusive), 4u);
}

// Compaction with items beyond nominal capacity (merge situation) consumes
// the extras too.
TEST(RelativeCompactorTest, CompactConsumesExtras) {
  Compactor c = MakeCompactor(4, 4);
  util::Xoshiro256 rng(11);
  const uint32_t cap = c.capacity();
  for (uint32_t i = 0; i < cap + 10; ++i) c.Insert(static_cast<double>(i));
  const size_t before = c.size();
  const auto promoted = c.Compact(rng);
  // width 4 + extras 10 = 14 items compacted, 7 promoted.
  EXPECT_EQ(before - c.size(), 14u);
  EXPECT_EQ(promoted.size(), 7u);
  EXPECT_LT(c.size(), cap);
}

// Restore round-trips buffer contents and schedule state.
TEST(RelativeCompactorTest, RestoreStateForSerde) {
  Compactor c = MakeCompactor(4, 4);
  c.Restore({3.0, 1.0, 2.0}, 5, 2);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.state(), 5u);
  EXPECT_EQ(c.num_compactions(), 2u);
  EXPECT_EQ(c.CountRank(2.0, Criterion::kInclusive), 2u);
}

// The tail sort behind Sort() and the sorted-view builder must return a
// sorted permutation of its input under any order, for every tail length
// the kernel sees and beyond. Long strings are included on purpose: a
// moved-from std::string is empty, so a merge that reads an item it has
// already moved away, or a pass that scans the wrong buffer, fails here
// even where doubles would happen to pass. A concatenation of 64 sorted
// runs (the shape an N-way merge leaves in a level) must cost
// O(n log runs) comparisons, not O(n * runs).
TEST(RelativeCompactorTest, TailSortReturnsSortedPermutation) {
  util::Xoshiro256 rng(2024);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 70; ++n) lengths.push_back(n);
  for (size_t n : {100, 127, 128, 129, 255, 256, 257, 500, 1000, 1023, 1024,
                   1025, 1999, 2000}) {
    lengths.push_back(n);
  }

  const auto check = [](auto input, const auto& order, const char* shape) {
    auto expected = input;
    std::sort(expected.begin(), expected.end(), order);
    auto scratch = decltype(input)();
    detail::SortTail(input.data(), input.data() + input.size(), order,
                     &scratch);
    EXPECT_EQ(input, expected) << shape << " n=" << input.size();
  };
  const auto as_strings = [](const std::vector<double>& values) {
    std::vector<std::string> out;
    for (double v : values) {
      const std::string digits = std::to_string(static_cast<int>(v));
      out.push_back("a-long-item-past-the-small-string-buffer-" +
                    std::string(6 - digits.size(), '0') + digits);
    }
    return out;
  };
  const auto check_all_orders = [&](const std::vector<double>& values,
                                    const char* shape) {
    check(values, std::less<double>(), shape);
    check(values, std::greater<double>(), shape);
    check(as_strings(values), std::less<std::string>(), shape);
    check(as_strings(values), std::greater<std::string>(), shape);
  };

  for (size_t n : lengths) {
    // Duplicate-rich integer values.
    std::vector<double> values(n);
    for (double& v : values) {
      v = static_cast<double>(rng.NextBounded(n / 4 + 2));
    }
    check_all_orders(values, "duplicates");
    // Sorted and reversed.
    std::sort(values.begin(), values.end());
    check_all_orders(values, "sorted");
    std::reverse(values.begin(), values.end());
    check_all_orders(values, "reversed");
    // 64 concatenated sorted runs of distinct values.
    for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
    std::shuffle(values.begin(), values.end(), rng);
    const size_t runs = std::min<size_t>(64, n);
    for (size_t r = 0; r < runs; ++r) {
      std::sort(values.begin() + r * n / runs,
                values.begin() + (r + 1) * n / runs);
    }
    check_all_orders(values, "64 runs");
    if (n >= 1000) {
      size_t comparisons = 0;
      const auto counting = [&comparisons](double a, double b) {
        ++comparisons;
        return a < b;
      };
      std::vector<double> scratch;
      detail::SortTail(values.data(), values.data() + n, counting, &scratch);
      EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
      // A descent count, then log2(64) = 6 passes of a run scan and a
      // merge: at most 13n. Merging the runs one after another would
      // cost ~32n comparisons.
      EXPECT_LE(comparisons, 14 * n) << "n=" << n;
    }
  }

  // With a sorted prefix in front, the tail joins it in order.
  for (size_t n : lengths) {
    std::vector<double> values(n);
    for (double& v : values) {
      v = static_cast<double>(rng.NextBounded(n / 4 + 2));
    }
    const size_t prefix = rng.NextBounded(n + 1);
    std::sort(values.begin(), values.begin() + prefix);
    std::vector<double> expected = values;
    std::sort(expected.begin(), expected.end());
    std::vector<double> scratch;
    detail::SortPrefixSortedRun(values.data(), values.data() + prefix,
                                values.data() + n, std::less<double>(),
                                &scratch);
    EXPECT_EQ(values, expected) << "prefix=" << prefix << " n=" << n;
  }
}

// A level's buffer starts at 16 items, doubles up to the nominal capacity
// B, grows once to B + B/4 past it, and beyond that only to exactly what
// is needed. Clear keeps the allocation.
TEST(RelativeCompactorTest, BufferGrowsToWhatTheLevelCanHold) {
  Compactor c = MakeCompactor(4, 10);  // B = 80
  EXPECT_EQ(c.buffer_capacity(), 0u);
  std::vector<size_t> capacities;
  for (int i = 0; i < 103; ++i) {
    c.Insert(static_cast<double>(i));
    if (capacities.empty() || capacities.back() != c.buffer_capacity()) {
      capacities.push_back(c.buffer_capacity());
    }
  }
  EXPECT_EQ(capacities,
            (std::vector<size_t>{16, 32, 64, 80, 100, 101, 102, 103}));
  const std::vector<double> more(7, 1.0);
  c.Insert(more.data(), more.size());
  EXPECT_EQ(c.buffer_capacity(), 110u);
  c.Clear();
  EXPECT_EQ(c.buffer_capacity(), 110u);
  c.ShrinkToFit();
  EXPECT_EQ(c.buffer_capacity(), 0u);
}

}  // namespace
}  // namespace req
