// Parameterized sweep over compactor geometries, orientations, schedules
// and coins: the structural invariants of Algorithm 1 must hold for every
// configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/relative_compactor.h"
#include "core/req_common.h"
#include "util/bits.h"
#include "util/random.h"

namespace req {
namespace {

// The compaction algorithm of the layout that stored every level ascending
// under the comparator: sort the whole buffer, compact the top of it (LRA)
// or the bottom (HRA), promote the odd or even ranks of that range, erase
// the range. Same schedule and coin as RelativeCompactor, which stores HRA
// levels descending instead.
template <typename Compare>
class ReferenceCompactor {
 public:
  ReferenceCompactor(uint32_t k, uint32_t sections, RankAccuracy acc,
                     SchedulePolicy sched, CoinMode coin, Compare comp)
      : k_(k),
        sections_(sections),
        acc_(acc),
        sched_(sched),
        coin_(coin),
        comp_(comp) {}

  const std::vector<double>& items() const { return items_; }
  uint64_t state() const { return state_; }
  bool IsFull() const { return items_.size() >= capacity(); }
  void Insert(double x) { items_.push_back(x); }
  void InsertAll(const std::vector<double>& xs) {
    items_.insert(items_.end(), xs.begin(), xs.end());
  }

  std::vector<double> Compact(util::Xoshiro256& rng) {
    uint32_t involved = 1;
    if (sched_ == SchedulePolicy::kExponential) {
      involved = static_cast<uint32_t>(util::TrailingOnes(state_)) + 1;
    } else if (sched_ == SchedulePolicy::kUniform) {
      involved = sections_;
    }
    const size_t width = std::min(involved, sections_) * k_;
    const size_t extras =
        items_.size() > capacity() ? items_.size() - capacity() : 0;
    const size_t count = std::min(items_.size(), width + extras) & ~size_t{1};
    std::vector<double> promoted;
    if (count < 2) return promoted;
    std::sort(items_.begin(), items_.end(), comp_);
    const bool keep_odds = coin_ == CoinMode::kDeterministic || rng.NextBit();
    const size_t start =
        acc_ == RankAccuracy::kLowRanks ? items_.size() - count : 0;
    for (size_t i = start + (keep_odds ? 1 : 0); i < start + count; i += 2) {
      promoted.push_back(items_[i]);
    }
    items_.erase(items_.begin() + static_cast<ptrdiff_t>(start),
                 items_.begin() + static_cast<ptrdiff_t>(start + count));
    ++state_;
    return promoted;
  }

 private:
  size_t capacity() const { return params::Capacity(k_, sections_); }

  uint32_t k_;
  uint32_t sections_;
  RankAccuracy acc_;
  SchedulePolicy sched_;
  CoinMode coin_;
  Compare comp_;
  uint64_t state_ = 0;
  std::vector<double> items_;
};

template <typename Range, typename Compare>
std::vector<double> SortedCopy(const Range& range, const Compare& comp) {
  std::vector<double> out(range.begin(), range.end());
  std::sort(out.begin(), out.end(), comp);
  return out;
}

// Runs a two-level cascade of RelativeCompactors in lockstep with the
// reference on a duplicate-rich integer-valued stream (level 1 also sees
// promoted runs arriving through InsertAll). After every compaction the
// promoted and surviving multisets, state() and num_compactions() match.
template <typename Compare>
void RunLockstep(uint32_t k, uint32_t sections, RankAccuracy acc,
                 SchedulePolicy sched, CoinMode coin, uint64_t seed,
                 Compare comp = Compare()) {
  std::vector<RelativeCompactor<double, Compare>> levels;
  std::vector<ReferenceCompactor<Compare>> refs;
  for (int h = 0; h < 2; ++h) {
    levels.emplace_back(k, sections, acc, sched, coin, comp);
    refs.emplace_back(k, sections, acc, sched, coin, comp);
  }
  util::Xoshiro256 rng(seed);
  util::Xoshiro256 ref_rng(seed);
  util::Xoshiro256 input(seed + 1);
  // About three copies of each value per level-0 fill.
  const uint64_t distinct = params::Capacity(k, sections) / 3 + 1;
  std::vector<double> promoted;
  int compactions = 0;
  while (compactions < 300) {
    const double x = static_cast<double>(input.Next() % distinct);
    levels[0].Insert(x);
    refs[0].Insert(x);
    for (size_t h = 0; h < levels.size() && levels[h].IsFull(); ++h) {
      ASSERT_TRUE(refs[h].IsFull());
      levels[h].Compact(rng, &promoted);
      const std::vector<double> ref_promoted = refs[h].Compact(ref_rng);
      ++compactions;
      ASSERT_EQ(SortedCopy(promoted, comp), SortedCopy(ref_promoted, comp))
          << "level " << h << ", compaction " << compactions;
      ASSERT_EQ(SortedCopy(levels[h].items(), comp),
                SortedCopy(refs[h].items(), comp))
          << "level " << h << ", compaction " << compactions;
      ASSERT_EQ(levels[h].state(), refs[h].state());
      ASSERT_EQ(levels[h].num_compactions(), refs[h].state());
      if (h + 1 < levels.size()) {
        refs[h + 1].InsertAll(ref_promoted);
        levels[h + 1].InsertAll(std::move(promoted));
      }
    }
  }
}

using CompactorParam =
    std::tuple<uint32_t /*k*/, uint32_t /*sections*/, RankAccuracy,
               SchedulePolicy, CoinMode>;

class CompactorSweep : public ::testing::TestWithParam<CompactorParam> {
 protected:
  RelativeCompactor<double> Make() const {
    const auto& [k, sections, acc, sched, coin] = GetParam();
    return RelativeCompactor<double>(k, sections, acc, sched, coin);
  }
};

TEST_P(CompactorSweep, WidthAlwaysWithinBounds) {
  auto c = Make();
  util::Xoshiro256 rng(1);
  for (int round = 0; round < 200; ++round) {
    const uint32_t width = c.NextCompactionWidth();
    ASSERT_GE(width, c.section_size());
    ASSERT_LE(width, c.capacity() / 2);
    ASSERT_EQ(width % c.section_size(), 0u);
    while (!c.IsFull()) c.Insert(rng.NextDouble());
    c.Compact(rng);
  }
}

TEST_P(CompactorSweep, CompactionAlwaysShrinksBelowCapacity) {
  auto c = Make();
  util::Xoshiro256 rng(2);
  for (int round = 0; round < 100; ++round) {
    while (!c.IsFull()) c.Insert(rng.NextDouble());
    c.Compact(rng);
    ASSERT_LT(c.size(), c.capacity());
  }
}

TEST_P(CompactorSweep, WeightConservedExactly) {
  auto c = Make();
  util::Xoshiro256 rng(3);
  uint64_t inserted = 0, promoted = 0;
  for (int round = 0; round < 100; ++round) {
    while (!c.IsFull()) {
      c.Insert(rng.NextDouble());
      ++inserted;
    }
    promoted += c.Compact(rng).size();
    ASSERT_EQ(inserted, c.size() + 2 * promoted);
  }
}

TEST_P(CompactorSweep, ProtectedHalfNeverCompacted) {
  const auto& [k, sections, acc, sched, coin] = GetParam();
  auto c = Make();
  util::Xoshiro256 rng(4);
  // Feed a known value ordering; track that the most-protected extreme
  // value inserted early never leaves the buffer.
  const double protected_value =
      acc == RankAccuracy::kLowRanks ? -1e18 : 1e18;
  c.Insert(protected_value);
  for (int round = 0; round < 60; ++round) {
    while (!c.IsFull()) c.Insert(rng.NextDouble());
    c.Compact(rng);
    const auto& items = c.items();
    ASSERT_NE(std::find(items.begin(), items.end(), protected_value),
              items.end())
        << "protected extreme evicted in round " << round;
  }
}

TEST_P(CompactorSweep, PromotedItemsComeFromCompactedRange) {
  const auto& [k, sections, acc, sched, coin] = GetParam();
  auto c = Make();
  util::Xoshiro256 rng(5);
  for (uint32_t i = 0; i < c.capacity(); ++i) {
    c.Insert(static_cast<double>(i));
  }
  const uint32_t width = c.NextCompactionWidth();
  const auto promoted = c.Compact(rng);
  // In LRA, the compacted range is the top `width` values; in HRA the
  // bottom `width`.
  for (double p : promoted) {
    if (acc == RankAccuracy::kLowRanks) {
      ASSERT_GE(p, static_cast<double>(c.capacity() - width));
    } else {
      ASSERT_LT(p, static_cast<double>(width));
    }
  }
}

TEST_P(CompactorSweep, StateAdvancesByOnePerCompaction) {
  auto c = Make();
  util::Xoshiro256 rng(6);
  for (uint64_t round = 1; round <= 50; ++round) {
    while (!c.IsFull()) c.Insert(rng.NextDouble());
    c.Compact(rng);
    ASSERT_EQ(c.state(), round);
    ASSERT_EQ(c.num_compactions(), round);
  }
}

TEST_P(CompactorSweep, MatchesAscendingReference) {
  const auto& [k, sections, acc, sched, coin] = GetParam();
  RunLockstep<std::less<double>>(k, sections, acc, sched, coin, 7);
}

std::string CompactorParamName(
    const ::testing::TestParamInfo<CompactorParam>& info) {
  const auto& [k, sections, acc, sched, coin] = info.param;
  std::string name = "k" + std::to_string(k) + "_s" +
                     std::to_string(sections) + "_";
  name += acc == RankAccuracy::kLowRanks ? "lra" : "hra";
  name += sched == SchedulePolicy::kExponential
              ? "_exp"
              : (sched == SchedulePolicy::kUniform ? "_uni" : "_one");
  name += coin == CoinMode::kRandom ? "_rnd" : "_det";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompactorSweep,
    ::testing::Combine(
        ::testing::Values(2u, 4u, 16u),
        ::testing::Values(3u, 4u, 8u),
        ::testing::Values(RankAccuracy::kLowRanks,
                          RankAccuracy::kHighRanks),
        ::testing::Values(SchedulePolicy::kExponential,
                          SchedulePolicy::kUniform,
                          SchedulePolicy::kSingleSection),
        ::testing::Values(CoinMode::kRandom, CoinMode::kDeterministic)),
    CompactorParamName);

// Under std::greater "ascending" runs from large to small, so LRA compacts
// the smallest values and HRA the largest; the equivalence holds all the
// same.
TEST(CompactorReferenceTest, ReversedComparatorMatchesAscendingReference) {
  for (RankAccuracy acc :
       {RankAccuracy::kLowRanks, RankAccuracy::kHighRanks}) {
    for (CoinMode coin : {CoinMode::kRandom, CoinMode::kDeterministic}) {
      const SchedulePolicy sched = SchedulePolicy::kExponential;
      RunLockstep<std::greater<double>>(4, 3, acc, sched, coin, 11);
    }
  }
}

}  // namespace
}  // namespace req
