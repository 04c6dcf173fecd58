// Contiguous level storage for the REQ sketch.
//
// A LevelArena owns ONE flat item buffer holding every level of a sketch,
// plus a per-level slot table {offset, size, capacity}. Levels are laid out
// back to back in level order, each inside a fixed-capacity slot, so a
// query, merge or serde pass that walks "all retained items" streams one
// contiguous allocation instead of chasing a vector-of-vectors across the
// heap. See src/core/DESIGN_arena.md for the layout rationale and the
// invariants listed below.
//
// Invariants:
//   * slots are contiguous: slot[i].offset == slot[i-1].offset +
//     slot[i-1].cap, slot[0].offset == 0, and data_.size() == sum of caps.
//   * slot[i].size <= slot[i].cap at all times; the bytes past size inside
//     a slot are default-constructed filler, never read.
//   * slot ids are stable: growing slot i moves the *contents* of slots
//     > i up, but ids, sizes and relative order never change.
//
// Growth: a slot that outgrows its capacity (merge concatenation, bound
// regrowth) shifts every later slot up in one move pass -- O(total) but
// rare by construction: the compaction invariant keeps a quiescent level
// under its nominal capacity B, which is the slot's initial reservation,
// and the N-way merge pre-reserves every slot once up front
// (ReserveSlots) before inserting anything.
//
// The arena is a dumb storage engine on purpose: all sketch semantics
// (schedules, sorting invariants, compaction) live in RelativeCompactor,
// which addresses its slot through this class. Copying an arena copies the
// flat buffer; the compactors bound to it are re-pointed by their owner
// (ReqSketch's copy/move constructors).
//
// Item-type requirements: T must be default-constructible and
// copy/move-assignable (slot regions are value-initialized filler that
// items are assigned into) in addition to the comparator requirements the
// sketch already imposes. This is one notch stricter than the
// vector-per-level storage it replaced, which only needed T to be
// insertable; every item type the library is used/tested with (numeric
// types, std::string, plain structs) satisfies it.
#ifndef REQSKETCH_CORE_LEVEL_ARENA_H_
#define REQSKETCH_CORE_LEVEL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "util/validation.h"

namespace req {

// Minimal non-owning view over a contiguous item run (the arena hands these
// out instead of `const std::vector<T>&`). Interface mirrors the read-only
// subset of std::vector that callers (serde, merge, tests) actually use.
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

template <typename T>
class LevelArena {
 public:
  LevelArena() = default;

  size_t num_slots() const { return slots_.size(); }

  // Appends a new slot; `cap_hint` bounds the eagerly materialized
  // capacity. Materialization is clamped (kInitialSlotCap) and grows by
  // doubling on demand: slot regions are value-initialized vector storage,
  // so an eager multi-megabyte region would be *touched*, not just
  // reserved -- and untrusted inputs (serde with a corrupt k_base) can
  // request absurd capacities that are rejected only after the level
  // object exists. Returns the slot id.
  uint32_t AddSlot(size_t cap_hint) {
    const size_t cap = std::min(cap_hint, kInitialSlotCap);
    const size_t offset = data_.size();
    data_.resize(offset + cap);
    slots_.push_back(Slot{offset, 0, cap});
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  // Drops every slot with id >= count and releases its region (the flat
  // buffer keeps its heap allocation, so re-adding slots is cheap). Used
  // by ReqSketch::Reset -- bucket rotation must not leak retired-level
  // regions -- and by deserialization before rebuilding the level stack.
  void TruncateSlots(size_t count) {
    if (count >= slots_.size()) return;
    data_.resize(count == 0 ? 0 : slots_[count - 1].offset +
                                      slots_[count - 1].cap);
    slots_.resize(count);
  }

  T* Data(uint32_t s) { return data_.data() + slots_[s].offset; }
  const T* Data(uint32_t s) const { return data_.data() + slots_[s].offset; }
  size_t Size(uint32_t s) const { return slots_[s].size; }
  size_t SlotCapacity(uint32_t s) const { return slots_[s].cap; }
  // Total items stored across all slots (not counting slack capacity).
  size_t TotalSize() const {
    size_t total = 0;
    for (const Slot& slot : slots_) total += slot.size;
    return total;
  }

  // Heap bytes actually held by the arena, slack included: the quota
  // accounting figure behind MemoryFootprint(). Item payload plus the
  // slot table, both at *capacity* (what the allocator charges us), not
  // live size.
  size_t AllocatedBytes() const {
    return data_.capacity() * sizeof(T) + slots_.capacity() * sizeof(Slot);
  }

  // Releases allocator slack: trims each slot's capacity to its live size
  // (one compacting pass, slot order and ids preserved) and shrinks the
  // flat buffer. Steady-state cost of an idle sketch becomes its payload.
  void ShrinkToFit() {
    size_t out = 0;
    for (Slot& slot : slots_) {
      if (slot.offset != out) {
        T* base = data_.data();
        std::move(base + slot.offset, base + slot.offset + slot.size,
                  base + out);
      }
      slot.offset = out;
      slot.cap = slot.size;
      out += slot.size;
    }
    data_.resize(out);
    data_.shrink_to_fit();
    slots_.shrink_to_fit();
  }

  // Ensures slot s can hold at least `cap` items, shifting later slots up
  // as needed. Never shrinks.
  void Reserve(uint32_t s, size_t cap) {
    if (cap <= slots_[s].cap) return;
    GrowSlot(s, cap);
  }

  // Bulk form of Reserve: one pass, one buffer resize, one shift per slot
  // region, back to front. caps[i] is the requested capacity of slot i
  // (ignored where smaller than the current cap). Used by the N-way merge
  // to size every level exactly once before any insertion.
  void ReserveSlots(const std::vector<size_t>& caps) {
    util::CheckArg(caps.size() <= slots_.size(),
                   "ReserveSlots: more capacities than slots");
    size_t total_delta = 0;
    for (size_t i = 0; i < caps.size(); ++i) {
      if (caps[i] > slots_[i].cap) total_delta += caps[i] - slots_[i].cap;
    }
    if (total_delta == 0) return;
    const size_t old_total = data_.size();
    data_.resize(old_total + total_delta);
    // Move each slot's contents to its final offset, highest slot first so
    // regions never overlap a not-yet-moved source.
    size_t new_offset_end = data_.size();
    for (size_t i = slots_.size(); i-- > 0;) {
      Slot& slot = slots_[i];
      const size_t new_cap =
          (i < caps.size() && caps[i] > slot.cap) ? caps[i] : slot.cap;
      const size_t new_offset = new_offset_end - new_cap;
      if (new_offset != slot.offset) {
        // Only the live prefix needs to move; slack is filler.
        std::move_backward(data_.begin() + slot.offset,
                           data_.begin() + slot.offset + slot.size,
                           data_.begin() + new_offset + slot.size);
      }
      slot.offset = new_offset;
      slot.cap = new_cap;
      new_offset_end = new_offset;
    }
    util::CheckState(new_offset_end == 0, "arena slot layout corrupted");
  }

  // Like std::vector::push_back, PushBack is safe when `item` aliases
  // arena storage (e.g. re-inserting an element read through items()):
  // the value is saved before any growth can reallocate the buffer.
  void PushBack(uint32_t s, const T& item) {
    Slot& slot = slots_[s];
    if (slot.size == slot.cap) {
      T saved = item;  // `item` may point into data_; copy before resize
      GrowSlot(s, GrownCap(slot.cap, slot.size + 1));
      data_[slots_[s].offset + slots_[s].size] = std::move(saved);
    } else {
      data_[slot.offset + slot.size] = item;
    }
    ++slots_[s].size;
  }
  void PushBack(uint32_t s, T&& item) {
    Slot& slot = slots_[s];
    if (slot.size == slot.cap) {
      T saved = std::move(item);
      GrowSlot(s, GrownCap(slot.cap, slot.size + 1));
      data_[slots_[s].offset + slots_[s].size] = std::move(saved);
    } else {
      data_[slot.offset + slot.size] = std::move(item);
    }
    ++slots_[s].size;
  }

  // Appends [first, last); move iterators are honored. The range must
  // NOT alias this arena's storage (the same precondition
  // std::vector::insert places on inserted ranges).
  template <typename It>
  void Append(uint32_t s, It first, It last) {
    const size_t count = static_cast<size_t>(std::distance(first, last));
    if (count == 0) return;
    Slot* slot = &slots_[s];
    if (slot->size + count > slot->cap) {
      GrowSlot(s, GrownCap(slot->cap, slot->size + count));
      slot = &slots_[s];
    }
    T* out = data_.data() + slot->offset + slot->size;
    for (; first != last; ++first, ++out) *out = *first;
    slot->size += count;
  }

  void Truncate(uint32_t s, size_t new_size) { slots_[s].size = new_size; }
  void ClearSlot(uint32_t s) { slots_[s].size = 0; }

 private:
  // Largest slot region materialized up front; larger requests grow on
  // demand (amortized O(1) per item, one shift of the slots above per
  // doubling). Kept small so an idle metric's steady-state cost is its
  // sketch payload, not pre-touched filler: at 16 doubles this is 128
  // bytes per level instead of 2 KiB, and a busy level reaches its
  // nominal capacity B after a handful of amortized doublings.
  static constexpr size_t kInitialSlotCap = 16;

  struct Slot {
    size_t offset;
    size_t size;
    size_t cap;
  };

  static size_t GrownCap(size_t cap, size_t needed) {
    const size_t doubled = cap * 2;
    return doubled > needed ? doubled : needed;
  }

  // Grows slot s to new_cap by opening a gap after it: one buffer resize,
  // one shift of everything above. O(items above s), rare by construction.
  void GrowSlot(uint32_t s, size_t new_cap) {
    const size_t delta = new_cap - slots_[s].cap;
    const size_t old_total = data_.size();
    data_.resize(old_total + delta);
    // Shift the live prefix of every later slot, highest first.
    for (size_t i = slots_.size(); i-- > s + 1;) {
      Slot& slot = slots_[i];
      std::move_backward(data_.begin() + slot.offset,
                         data_.begin() + slot.offset + slot.size,
                         data_.begin() + slot.offset + delta + slot.size);
      slot.offset += delta;
    }
    slots_[s].cap = new_cap;
  }

  std::vector<T> data_;
  std::vector<Slot> slots_;
};

}  // namespace req

#endif  // REQSKETCH_CORE_LEVEL_ARENA_H_
