// Common types and parameter derivations for the REQ sketch
// (Cormode, Karnin, Liberty, Thaler, Veselý: "Relative Error Streaming
// Quantiles", PODS 2021; arXiv:2004.01668).
//
// Parameter scheme (Appendix D.1, Eq. (16), with practical constants):
//   - The user-facing parameter is k_base (the paper's k-hat), which alone
//     governs accuracy: Var[Err(y)] = O(R(y)^2 / k_base^2).
//   - For a current input-size upper bound N, the per-level section size is
//       k(N) = 2 * ceil(k_base / sqrt(log2(N / k_base)))
//     and the number of sections is
//       num_sections(N) = ceil(log2(N / k(N))) + 1,
//     giving buffer capacity B(N) = 2 * k(N) * num_sections(N).
//   - N starts at N0 = 8 * k_base and squares whenever the input outgrows it
//     (Section 5 / Appendix D), after which k and B are recomputed and each
//     level undergoes a "special" compaction down to B/2 items.
//
// The paper's worst-case constants (2^5 multiplier on k, N0 = 2^8 k-hat) are
// exposed in theory.h for the bound-validation benches; the sketch itself
// uses the practical constants above, which preserve every structural
// property the analysis relies on (Fact 5, Observation 4, protected half,
// L <= B/2) while keeping memory reasonable.
#ifndef REQSKETCH_CORE_REQ_COMMON_H_
#define REQSKETCH_CORE_REQ_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/bits.h"
#include "util/validation.h"

namespace req {

// Which end of the rank range gets the multiplicative guarantee.
// kHighRanks (HRA) protects items near the maximum (latency p99/p99.9 use
// case); it is the "reversed comparator" construction from Section 1.
// kLowRanks (LRA) is the orientation the paper's pseudocode uses.
enum class RankAccuracy : uint8_t {
  kLowRanks = 0,
  kHighRanks = 1,
};

// How the compaction coin is flipped (Observation 4).
// kRandom is the paper's algorithm. kDeterministic always keeps odd-indexed
// items; with k set per Appendix C this realizes the derandomized
// O(eps^-1 log^3(eps n)) deterministic sketch discussed there.
enum class CoinMode : uint8_t {
  kRandom = 0,
  kDeterministic = 1,
};

// Compaction schedule policy. kExponential is Algorithm 1's derandomized
// exponential schedule L_C = (z(C)+1)*k. The others exist for the E9
// ablation: kUniform always compacts the full second half (L = B/2), which
// the paper shows forces k ~ 1/eps^2; kSingleSection always compacts only
// the top section (L = k), which discards the protected-prefix growth and
// degrades the per-level halving property.
enum class SchedulePolicy : uint8_t {
  kExponential = 0,
  kUniform = 1,
  kSingleSection = 2,
};

// Rank/quantile query semantics: inclusive counts items <= y (the paper's
// R(y)); exclusive counts items < y.
enum class Criterion : uint8_t {
  kInclusive = 0,
  kExclusive = 1,
};

struct ReqConfig {
  // Accuracy parameter k-hat; even, >= 4. Larger is more accurate:
  // relative rank error standard deviation ~ c / k_base at protected ranks.
  uint32_t k_base = 32;
  RankAccuracy accuracy = RankAccuracy::kHighRanks;
  CoinMode coin = CoinMode::kRandom;
  SchedulePolicy schedule = SchedulePolicy::kExponential;
  // If nonzero, the stream length is known in advance (Theorem 14 mode):
  // parameters are fixed for this N and never regrown.
  uint64_t n_hint = 0;
  uint64_t seed = 0x5eed5eed5eed5eedULL;
};

namespace params {

// N never grows beyond this; squaring stops here (practically unbounded).
inline constexpr uint64_t kMaxN = uint64_t{1} << 62;

inline constexpr uint32_t kMinK = 4;
inline constexpr uint32_t kMinNumSections = 3;

// Initial input-size estimate N0 as a function of k_base.
inline uint64_t InitialN(uint32_t k_base) { return uint64_t{8} * k_base; }

// Section size k(N) = 2 * ceil(k_base / sqrt(log2(N / k_base))), even and
// >= kMinK. Shrinks by ~sqrt(2) each time N squares (Appendix D.1).
inline uint32_t SectionSize(uint32_t k_base, uint64_t n_bound) {
  const double ratio =
      std::max(2.0, static_cast<double>(n_bound) / k_base);
  const double log_ratio = std::max(1.0, std::log2(ratio));
  const uint32_t k = 2 * static_cast<uint32_t>(
                             std::ceil(k_base / std::sqrt(log_ratio)));
  return std::max(kMinK, k);
}

// Number of sections: ceil(log2(N / k)) + 1, at least kMinNumSections.
// The "+1" extra section is the merge-analysis slack from Eq. (16).
inline uint32_t NumSections(uint32_t section_size, uint64_t n_bound) {
  const uint64_t ratio = std::max<uint64_t>(2, n_bound / section_size);
  const uint32_t sections =
      static_cast<uint32_t>(util::CeilLog2(ratio)) + 1;
  return std::max(kMinNumSections, sections);
}

// Buffer capacity B = 2 * k * num_sections.
inline uint32_t Capacity(uint32_t section_size, uint32_t num_sections) {
  return 2 * section_size * num_sections;
}

// Conservative a-priori relative standard error at protected ranks:
// sigma[Err(y)] / R*(y) where R*(y) is the rank measured from the accurate
// end. Derived from Lemma 12's Var <= 2^5 R^2 / (k B) with this
// implementation's k * B ~= 4 k_base^2. Single source of truth for the
// sketch and every wrapper that reports its error bound.
inline double RelativeStdErr(uint32_t k_base) {
  return 2.83 / static_cast<double>(k_base);
}

// Rank confidence bound at num_std_devs standard deviations (1, 2 or 3)
// around a rank estimate over n items: the margin is RelativeStdErr times
// the estimate's distance from the accurate end (rank 0 for LRA, n for
// HRA), and the bound is clamped to [0, n]. The sketch and the window
// share it.
inline uint64_t RankBound(double estimate, uint64_t n, uint32_t k_base,
                          RankAccuracy accuracy, int num_std_devs,
                          bool upper) {
  const double accurate_side = accuracy == RankAccuracy::kLowRanks
                                   ? estimate
                                   : static_cast<double>(n) - estimate;
  const double margin =
      num_std_devs * RelativeStdErr(k_base) * accurate_side;
  if (upper) {
    return static_cast<uint64_t>(
        std::min(static_cast<double>(n), estimate + margin));
  }
  return static_cast<uint64_t>(std::max(0.0, estimate - margin));
}

inline void ValidateConfig(const ReqConfig& config) {
  util::CheckArg(config.k_base >= kMinK,
                 "k_base must be >= 4 (got " +
                     std::to_string(config.k_base) + ")");
  util::CheckArg(config.k_base % 2 == 0,
                 "k_base must be even (Algorithm 1 requires k in 2N+), got " +
                     std::to_string(config.k_base));
}

}  // namespace params
}  // namespace req

#endif  // REQSKETCH_CORE_REQ_COMMON_H_
