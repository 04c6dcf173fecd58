// Versioned binary serialization for ReqSketch, for sketches of trivially
// copyable item types (the common numeric case). A serialized sketch can be
// shipped to another process and merged there, which is the
// distributed-aggregation scenario Theorem 3 / Appendix D is about.
//
// Layout (little-endian):
//   u32 magic | u8 version | u8 accuracy | u8 coin | u8 schedule
//   u32 k_base | u64 n | u64 n_bound | u64 n_hint | u64 seed | u8 fixed_n
//   u8 has_min | T min | u8 has_max | T max
//   u32 num_levels
//   per level: u64 state | u64 num_compactions | u64 count | T[count]
//   v2 only: u64 rng_state[4]
//
// Level items are written in storage order: sorted in compaction order
// (ascending for LRA, descending for HRA) up to an unsorted insert tail.
// Readers accept any order -- Restore() recomputes the sorted prefix -- so
// HRA checkpoints written when levels were stored ascending still restore
// (tests/req_serde_test.cc). That change of storage order kept the version
// at 2 on purpose: the format itself is unchanged, and a bump would only
// make older binaries reject new checkpoints.
//
// Version 2 (current) appends the exact Xoshiro256 state, so a restored
// sketch continues BIT-IDENTICALLY to the original under the same future
// updates -- the property the durability layer's checkpoint-then-replay
// contract (src/persist/) is built on. Version 1 streams (no trailing
// state) are still accepted: the PRNG is reseeded from the stored seed,
// which keeps the sketch a valid summary with identical estimates but
// makes subsequent coin flips fresh independent randomness rather than a
// bitwise continuation (the analysis permits either).
//
// Validation guarantees: Deserialize treats the byte stream as untrusted.
// Every field is checked before it is used to size an allocation or index
// anything -- magic/version, enum ranges, k_base and size-bound
// plausibility, level count, per-level item counts (against both the
// remaining payload bytes and the level capacity), min/max presence
// consistent with n (n > 0 requires both extremes, n == 0 forbids them,
// so GetQuantile(0)/GetQuantile(1) can never dereference an empty
// optional), no NaN items or extremes for floating-point T, every stored
// item inside [min, max], and total stored weight equal to n. A corrupt or
// truncated input of any shape either round-trips to a healthy sketch or
// throws std::runtime_error -- it never reaches undefined behavior. The
// corrupt-input fuzz suite (tests/serde_corruption_test.cc) bit-flips and
// truncates serialized sketches to hold this line.
#ifndef REQSKETCH_CORE_REQ_SERDE_H_
#define REQSKETCH_CORE_REQ_SERDE_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/req_sketch.h"
#include "util/serde.h"
#include "util/validation.h"

namespace req {

template <typename T, typename Compare>
struct ReqSerde {
  static_assert(std::is_trivially_copyable_v<T>,
                "ReqSerde supports trivially copyable item types");

  static constexpr uint32_t kMagic = 0x52455153;  // "REQS"
  static constexpr uint8_t kVersion = 2;
  static constexpr uint8_t kMinVersion = 1;

  static std::vector<uint8_t> Serialize(const ReqSketch<T, Compare>& sketch) {
    util::BinaryWriter writer;
    writer.Write<uint32_t>(kMagic);
    writer.Write<uint8_t>(kVersion);
    writer.Write<uint8_t>(static_cast<uint8_t>(sketch.config_.accuracy));
    writer.Write<uint8_t>(static_cast<uint8_t>(sketch.config_.coin));
    writer.Write<uint8_t>(static_cast<uint8_t>(sketch.config_.schedule));
    writer.Write<uint32_t>(sketch.config_.k_base);
    writer.Write<uint64_t>(sketch.n_);
    writer.Write<uint64_t>(sketch.n_bound_);
    writer.Write<uint64_t>(sketch.config_.n_hint);
    writer.Write<uint64_t>(sketch.config_.seed);
    writer.Write<uint8_t>(sketch.fixed_n_ ? 1 : 0);
    writer.Write<uint8_t>(sketch.min_item_.has_value() ? 1 : 0);
    if (sketch.min_item_) writer.Write<T>(*sketch.min_item_);
    writer.Write<uint8_t>(sketch.max_item_.has_value() ? 1 : 0);
    if (sketch.max_item_) writer.Write<T>(*sketch.max_item_);
    writer.Write<uint32_t>(static_cast<uint32_t>(sketch.levels_.size()));
    for (const auto& level : sketch.levels_) {
      writer.Write<uint64_t>(level.state());
      writer.Write<uint64_t>(level.num_compactions());
      // One contiguous copy per level, straight out of its buffer.
      const ItemSpan<T> items = level.items();
      writer.WriteArray<T>(items.data(), items.size());
    }
    for (uint64_t word : sketch.rng_.state()) writer.Write<uint64_t>(word);
    return writer.Release();
  }

  static ReqSketch<T, Compare> Deserialize(const std::vector<uint8_t>& bytes,
                                           Compare comp = Compare()) {
    util::BinaryReader reader(bytes);
    util::CheckData(reader.Read<uint32_t>() == kMagic,
                    "not a serialized REQ sketch (bad magic)");
    const uint8_t version = reader.Read<uint8_t>();
    util::CheckData(version >= kMinVersion && version <= kVersion,
                    "unsupported REQ sketch serialization version");
    ReqConfig config;
    const uint8_t accuracy = reader.Read<uint8_t>();
    const uint8_t coin = reader.Read<uint8_t>();
    const uint8_t schedule = reader.Read<uint8_t>();
    util::CheckData(accuracy <= 1 && coin <= 1 && schedule <= 2,
                    "corrupt REQ sketch: bad enum value");
    config.accuracy = static_cast<RankAccuracy>(accuracy);
    config.coin = static_cast<CoinMode>(coin);
    config.schedule = static_cast<SchedulePolicy>(schedule);
    config.k_base = reader.Read<uint32_t>();
    // Validate before any allocation sized by these fields.
    util::CheckData(config.k_base >= params::kMinK &&
                        config.k_base % 2 == 0 &&
                        config.k_base <= (uint32_t{1} << 24),
                    "corrupt REQ sketch: implausible k_base");
    const uint64_t n = reader.Read<uint64_t>();
    const uint64_t n_bound = reader.Read<uint64_t>();
    config.n_hint = reader.Read<uint64_t>();
    config.seed = reader.Read<uint64_t>();
    const bool fixed_n = reader.Read<uint8_t>() != 0;
    // Validate before any allocation sized by these fields. (A fixed-n
    // sketch may legitimately have n > n_bound: it degrades gracefully
    // when the hint was too small.)
    util::CheckData(n_bound <= params::kMaxN &&
                        config.n_hint <= params::kMaxN &&
                        (fixed_n || n <= n_bound),
                    "corrupt REQ sketch: implausible size bounds");

    ReqSketch<T, Compare> sketch(config, comp);
    sketch.n_ = n;
    sketch.n_bound_ = n_bound;
    sketch.fixed_n_ = fixed_n;
    sketch.RecomputeGeometry();

    const uint8_t has_min = reader.Read<uint8_t>();
    util::CheckData(has_min <= 1, "corrupt REQ sketch: bad min-presence flag");
    if (has_min != 0) sketch.min_item_ = reader.Read<T>();
    const uint8_t has_max = reader.Read<uint8_t>();
    util::CheckData(has_max <= 1, "corrupt REQ sketch: bad max-presence flag");
    if (has_max != 0) sketch.max_item_ = reader.Read<T>();
    // The extremes must be present exactly when the sketch is non-empty:
    // GetQuantile(0.0)/GetQuantile(1.0) (and the merge min/max fold)
    // dereference them whenever n > 0, so a stream with n > 0 but absent
    // extremes would be a latent dereference of an empty optional.
    util::CheckData((n > 0) == (has_min != 0) && (n > 0) == (has_max != 0),
                    "corrupt REQ sketch: min/max presence inconsistent "
                    "with n");
    if constexpr (std::is_floating_point_v<T>) {
      util::CheckData(!(has_min && std::isnan(*sketch.min_item_)) &&
                          !(has_max && std::isnan(*sketch.max_item_)),
                      "corrupt REQ sketch: NaN extreme");
    }
    util::CheckData(n == 0 || !comp(*sketch.max_item_, *sketch.min_item_),
                    "corrupt REQ sketch: min exceeds max");

    const uint32_t num_levels = reader.Read<uint32_t>();
    util::CheckData(num_levels >= 1 && num_levels <= 64,
                    "corrupt REQ sketch: implausible level count");
    // Restore() recomputes each level's sorted-prefix bookkeeping from the
    // payload, so the deserialized object's query hot paths are in the
    // same state as the original's after its last update.
    sketch.levels_.clear();
    for (uint32_t h = 0; h < num_levels; ++h) {
      sketch.levels_.emplace_back(sketch.MakeLevel());
      const uint64_t state = reader.Read<uint64_t>();
      const uint64_t num_compactions = reader.Read<uint64_t>();
      // Check the declared item count against both the remaining payload
      // bytes and the structural invariant (a quiescent level never holds
      // more than its capacity) BEFORE ReadArray sizes an allocation by it.
      const uint64_t count = reader.Read<uint64_t>();
      util::CheckData(count <= reader.remaining() / sizeof(T),
                      "corrupt REQ sketch: level item count exceeds "
                      "payload");
      util::CheckData(count <= sketch.level_capacity(),
                      "corrupt REQ sketch: level item count exceeds "
                      "capacity");
      // An empty sketch stores nothing; without this, the range check
      // below would dereference the (absent) extremes.
      util::CheckData(n > 0 || count == 0,
                      "corrupt REQ sketch: items in an empty sketch");
      std::vector<T> items = reader.ReadArray<T>(count);
      for (const T& item : items) {
        if constexpr (std::is_floating_point_v<T>) {
          util::CheckData(!std::isnan(item), "corrupt REQ sketch: NaN item");
        }
        util::CheckData(!comp(item, *sketch.min_item_) &&
                            !comp(*sketch.max_item_, item),
                        "corrupt REQ sketch: item outside [min, max]");
      }
      sketch.levels_.back().Restore(std::move(items), state,
                                    num_compactions);
    }
    util::CheckData(sketch.TotalWeight() == n,
                    "corrupt REQ sketch: weight does not match n");
    if (version >= 2) {
      // Exact PRNG state: the restored sketch's future coin flips are
      // bitwise-identical to the original's (checkpoint-replay equality).
      // Any 256-bit value is a valid generator state, so no range check.
      std::array<uint64_t, 4> rng_state;
      for (uint64_t& word : rng_state) word = reader.Read<uint64_t>();
      sketch.rng_.set_state(rng_state);
    }
    // The payload length is fully determined by the declared counts, so a
    // well-formed stream ends exactly here; trailing bytes mean a count
    // was corrupted downward (silent data loss) and must be rejected.
    util::CheckData(reader.AtEnd(), "corrupt REQ sketch: trailing bytes");
    return sketch;
  }
};

// Convenience wrappers.
template <typename T, typename Compare>
std::vector<uint8_t> SerializeSketch(const ReqSketch<T, Compare>& sketch) {
  return ReqSerde<T, Compare>::Serialize(sketch);
}

template <typename T, typename Compare = std::less<T>>
ReqSketch<T, Compare> DeserializeSketch(const std::vector<uint8_t>& bytes,
                                        Compare comp = Compare()) {
  return ReqSerde<T, Compare>::Deserialize(bytes, comp);
}

}  // namespace req

#endif  // REQSKETCH_CORE_REQ_SERDE_H_
