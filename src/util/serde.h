// Minimal binary serialization: little-endian, bounds-checked reader and an
// append-only writer over std::vector<uint8_t>. Used by req_serde.h to make
// sketches portable across processes (the distributed-merge scenario of
// Appendix D).
#ifndef REQSKETCH_UTIL_SERDE_H_
#define REQSKETCH_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/validation.h"

namespace req {
namespace util {

class BinaryWriter {
 public:
  BinaryWriter() = default;
  // Seeds the writer with an existing buffer and appends after its
  // current contents; Release() hands the (grown) buffer back. Lets a
  // caller encode many records into one reusable allocation.
  explicit BinaryWriter(std::vector<uint8_t>&& bytes)
      : bytes_(std::move(bytes)) {}

  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "BinaryWriter requires trivially copyable types");
    const size_t offset = bytes_.size();
    bytes_.resize(offset + sizeof(T));
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }

  void WriteString(const std::string& s) {
    Write<uint64_t>(s.size());
    const size_t offset = bytes_.size();
    bytes_.resize(offset + s.size());
    std::memcpy(bytes_.data() + offset, s.data(), s.size());
  }

  // Length-prefixed write of a contiguous run; the span form lets callers
  // stream directly out of a sketch level's buffer without materializing a
  // vector first.
  template <typename T>
  void WriteArray(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "WriteArray requires trivially copyable types");
    Write<uint64_t>(count);
    const size_t offset = bytes_.size();
    bytes_.resize(offset + count * sizeof(T));
    if (count > 0) {
      std::memcpy(bytes_.data() + offset, data, count * sizeof(T));
    }
  }

  template <typename T>
  void WriteVector(const std::vector<T>& values) {
    WriteArray<T>(values.data(), values.size());
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Release() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

class BinaryReader {
 public:
  BinaryReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit BinaryReader(const std::vector<uint8_t>& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  template <typename T>
  T Read() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "BinaryReader requires trivially copyable types");
    CheckData(pos_ + sizeof(T) <= size_,
              "serialized sketch truncated: fixed-size field");
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string ReadString() {
    const uint64_t n = Read<uint64_t>();
    // Compare against the remaining byte count (never `pos_ + n`, which a
    // crafted length near 2^64 would wrap past the bounds check).
    CheckData(n <= size_ - pos_, "serialized sketch truncated: string");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  // Reads `count` items whose length prefix the caller has already read
  // (and possibly validated against domain invariants). The byte-level
  // bound is re-checked here before anything is allocated, so a crafted
  // count can never trigger an oversized allocation or an out-of-bounds
  // copy.
  template <typename T>
  std::vector<T> ReadArray(uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ReadArray requires trivially copyable types");
    CheckData(count <= (size_ - pos_) / sizeof(T),
              "serialized sketch truncated: array");
    std::vector<T> values(static_cast<size_t>(count));
    if (count > 0) {
      std::memcpy(values.data(), data_ + pos_, count * sizeof(T));
    }
    pos_ += count * sizeof(T);
    return values;
  }

  template <typename T>
  std::vector<T> ReadVector() {
    return ReadArray<T>(Read<uint64_t>());
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace util
}  // namespace req

#endif  // REQSKETCH_UTIL_SERDE_H_
