// The "simple" unknown-stream-length scheme of Section 5.
//
// Instead of regrowing parameters in place (which ReqSketch does, following
// footnote 9 and the Appendix D analysis), this scheme starts with an
// estimate N_0, and when the stream outgrows the current estimate N_i it
// "closes out" the current summary -- keeping it read-only -- and opens a
// fresh summary built for N_{i+1} = N_i^2. At most log2 log2(eps n)
// summaries ever exist, their sizes are geometrically dominated by the last
// one, and the rank estimate for y is the sum of the per-summary estimates
// (each sub-stream achieving relative error eps implies the total does).
//
// Queries: the full surface of SummaryQueries (core/summary_queries.h),
// with the non-empty summaries, oldest first, as the parts. GetRank is
// that sum, and bulk ranks and CDFs equal it exactly. q = 0 and q = 1,
// like MinItem()/MaxItem(), are the exact stream extremes.
//
// Thread safety: the chain keeps no query state, so any number of threads
// may run const queries concurrently on a shared chain; Update requires
// exclusive access.
//
// This class exists so the E8 bench can compare both schemes against the
// known-n baseline; for general use prefer ReqSketch, which additionally
// supports merging.
#ifndef REQSKETCH_CORE_REQ_CHAIN_H_
#define REQSKETCH_CORE_REQ_CHAIN_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/req_common.h"
#include "core/req_sketch.h"
#include "core/summary_queries.h"
#include "util/validation.h"

namespace req {

template <typename T, typename Compare = std::less<T>>
class ReqChain : public SummaryQueries<ReqChain<T, Compare>, T, Compare> {
 public:
  explicit ReqChain(const ReqConfig& config = ReqConfig(),
                    Compare comp = Compare())
      : config_(config), comp_(comp) {
    params::ValidateConfig(config_);
    current_bound_ = params::InitialN(config_.k_base);
    OpenSummary();
  }

  bool is_empty() const { return n_ == 0; }
  uint64_t n() const { return n_; }

  // Number of summaries (closed + active); bounded by log2 log2 of the
  // stream length over N0.
  size_t num_summaries() const { return summaries_.size(); }

  size_t RetainedItems() const {
    size_t total = 0;
    for (const auto& s : summaries_) total += s->RetainedItems();
    return total;
  }

  void Update(const T& item) {
    // Section 5: when the *total* stream length reaches the current
    // estimate N_i, close out and open the next summary for N_{i+1}.
    if (n_ >= current_bound_) CloseOutAndGrow();
    summaries_.back()->Update(item);
    ++n_;
  }

  // Batch update: forwards run-length chunks to the active summary's batch
  // path, breaking exactly at every close-out boundary, so the resulting
  // chain is identical to the one built by single-item updates.
  void Update(const T* data, size_t count) {
    size_t i = 0;
    while (i < count) {
      if (n_ >= current_bound_) CloseOutAndGrow();
      const size_t chunk = static_cast<size_t>(
          std::min<uint64_t>(count - i, current_bound_ - n_));
      summaries_.back()->Update(data + i, chunk);
      n_ += chunk;
      i += chunk;
    }
  }

  void Update(const std::vector<T>& items) {
    Update(items.data(), items.size());
  }

 private:
  friend class SummaryQueries<ReqChain, T, Compare>;
  using Summary = ReqSketch<T, Compare>;

  // SummaryQueries' hook: the non-empty summaries, oldest first, are the
  // parts.
  template <typename F>
  auto WithParts(F&& f) const {
    std::vector<const Summary*> live;
    live.reserve(summaries_.size());
    for (const auto& s : summaries_) {
      if (!s->is_empty()) live.push_back(s.get());
    }
    return f(live.data(), live.size());
  }

  // Closes out the active summary (it stays read-only) and opens the next
  // one with the squared estimate.
  void CloseOutAndGrow() {
    current_bound_ = (current_bound_ >= (uint64_t{1} << 31))
                         ? params::kMaxN
                         : current_bound_ * current_bound_;
    OpenSummary();
  }

  void OpenSummary() {
    ReqConfig sub_config = config_;
    sub_config.n_hint = current_bound_;  // fixed-N summary (Theorem 14)
    // Derive a distinct deterministic seed per summary.
    sub_config.seed = config_.seed + 0x9e3779b97f4a7c15ULL *
                                         (summaries_.size() + 1);
    summaries_.push_back(std::make_unique<Summary>(sub_config, comp_));
  }

  ReqConfig config_;
  Compare comp_;
  std::vector<std::unique_ptr<Summary>> summaries_;
  uint64_t current_bound_ = 0;
  uint64_t n_ = 0;
};

}  // namespace req

#endif  // REQSKETCH_CORE_REQ_CHAIN_H_
