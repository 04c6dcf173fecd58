// File-level building blocks of the durability layer: an append-only
// POSIX file writer routed through the IoInjector seam, CRC32C record
// framing, and the readers that recover segment/checkpoint files written
// with it.
//
// On-disk formats (little-endian, same conventions as util/serde.h):
//
//   segment  := u32 magic | u32 version | u64 first_lsn | record*
//   record   := u32 payload_len | u32 crc32c(payload) | payload
//   ckpt     := u32 magic | u32 version | u64 lsn | u64 accepted_n |
//               u64 blob_len | u32 crc32c(blob) | blob
//
// Reader contract (the recovery invariant): every file is untrusted. A
// reader returns the longest valid prefix of records -- it stops, without
// throwing, at the first record whose length is implausible, overruns the
// remaining bytes, or fails its CRC. A torn tail (the crash left a
// half-written record) is therefore indistinguishable from a clean end of
// log, which is exactly the semantics a WAL wants: unacknowledged suffix
// discarded, acknowledged prefix intact. Checkpoints are all-or-nothing:
// any corruption rejects the whole file (recovery falls back to an older
// checkpoint or a from-scratch replay). Nothing in this file ever turns
// corrupt input into UB; tests/persist_corruption_test.cc bit-flips and
// truncates every byte under ASan/UBSan to hold that line. A file that
// exists but cannot be read is not corrupt input: the readers throw
// IoError for it (see ReadFileBytes) instead of skipping it.
#ifndef REQSKETCH_PERSIST_LOG_FILE_H_
#define REQSKETCH_PERSIST_LOG_FILE_H_

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "persist/crc32c.h"
#include "persist/io_injector.h"

namespace req {
namespace persist {

inline constexpr uint32_t kSegmentMagic = 0x52534547;    // "RSEG"
inline constexpr uint32_t kManifestMagic = 0x524d414e;   // "RMAN"
inline constexpr uint32_t kCheckpointMagic = 0x52434b50;  // "RCKP"
inline constexpr uint32_t kLogFormatVersion = 1;

// Hard ceiling on one record's payload; matches the wire protocol's frame
// ceiling (WAL records carry wire-encoded APPENDs) and stops a corrupt
// length from driving a multi-gigabyte allocation during recovery.
inline constexpr uint32_t kMaxRecordPayload = uint32_t{1} << 26;  // 64 MiB

inline std::string PersistErrnoMessage(const char* op,
                                       const std::string& path) {
  return std::string(op) + " failed for " + path + ": " +
         std::strerror(errno);
}

// --- low-level file ops (all routed through the injector) -------------------

// Append-only writer over a POSIX fd. Short writes -- injected or real --
// throw IoError AFTER persisting the prefix, which is how a crash torn
// mid-record looks on disk.
class AppendFile {
 public:
  AppendFile() = default;
  AppendFile(const std::string& path, bool truncate, IoInjector* io)
      : path_(path), io_(io) {
    const int flags = O_WRONLY | O_CREAT | O_APPEND |
                      (truncate ? O_TRUNC : 0);
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0) throw IoError(PersistErrnoMessage("open", path));
  }
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  AppendFile(AppendFile&& other) noexcept { *this = std::move(other); }
  AppendFile& operator=(AppendFile&& other) noexcept {
    if (this != &other) {
      CloseQuietly();
      fd_ = other.fd_;
      path_ = std::move(other.path_);
      io_ = other.io_;
      other.fd_ = -1;
    }
    return *this;
  }
  ~AppendFile() { CloseQuietly(); }

  bool valid() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  void Append(const void* data, size_t size) {
    const size_t allowed = io_ ? io_->BeforeWrite(size) : size;
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    size_t written = 0;
    while (written < allowed) {
      const ssize_t got = ::write(fd_, bytes + written, allowed - written);
      if (got < 0) {
        if (errno == EINTR) continue;
        throw IoError(PersistErrnoMessage("write", path_));
      }
      written += static_cast<size_t>(got);
    }
    if (allowed < size) {
      throw IoError("short write (torn record) on " + path_);
    }
  }

  void Fsync() {
    if (io_) io_->BeforeFsync();
    if (::fsync(fd_) != 0) {
      throw IoError(PersistErrnoMessage("fsync", path_));
    }
  }

  void CloseQuietly() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string path_;
  IoInjector* io_ = nullptr;
};

// Fsyncs a directory, making renames/creates/unlinks inside it durable
// (the step the classic tmp-write-rename protocol forgets).
inline void FsyncDir(const std::string& dir, IoInjector* io) {
  if (io) io->BeforeFsync();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw IoError(PersistErrnoMessage("open dir", dir));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw IoError(PersistErrnoMessage("fsync dir", dir));
}

// --- record framing ---------------------------------------------------------

inline void AppendRecord(AppendFile* file,
                         const std::vector<uint8_t>& payload) {
  // One buffered write per record: a crash can tear the record but never
  // interleave two, and the framing costs one memcpy, not three writes.
  std::vector<uint8_t> framed(8 + payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  std::memcpy(framed.data(), &len, 4);
  std::memcpy(framed.data() + 4, &crc, 4);
  std::memcpy(framed.data() + 8, payload.data(), payload.size());
  file->Append(framed.data(), framed.size());
}

namespace detail {

// Closes a descriptor on every exit from ReadFileBytes, throws included.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;
  ~FdCloser() { ::close(fd_); }

 private:
  const int fd_;
};

}  // namespace detail

// Reads a whole file into one buffer sized from fstat, with read(2) to
// EOF (retrying EINTR). Segments are bounded by the checkpoint threshold,
// so whole-file reads during recovery are small and simple beats
// streaming.
//
// Error contract: nullopt means the file does not exist (ENOENT), the one
// failure recovery may read as "absent". Every other open, fstat or read
// failure (EACCES, ELOOP, EISDIR, EIO, ...) throws IoError: treating an
// unreadable checkpoint or manifest as missing would make recovery serve
// less than it acknowledged, or garbage-collect the metrics it could not
// read.
inline std::optional<std::vector<uint8_t>> ReadFileBytes(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw IoError(PersistErrnoMessage("open", path));
  }
  const detail::FdCloser closer(fd);
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    throw IoError(PersistErrnoMessage("fstat", path));
  }
  // One spare byte lets the read that finds EOF land without a resize.
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size) + 1);
  size_t filled = 0;
  for (;;) {
    // Only a file that grew since fstat fills the spare byte.
    if (filled == bytes.size()) bytes.resize(2 * bytes.size());
    const ssize_t got = ::read(fd, &bytes[filled], bytes.size() - filled);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw IoError(PersistErrnoMessage("read", path));
    }
    if (got == 0) break;
    filled += static_cast<size_t>(got);
  }
  bytes.resize(filled);
  return bytes;
}

// The valid prefix of a segment (or manifest) file.
struct SegmentContents {
  uint64_t first_lsn = 0;
  std::vector<std::vector<uint8_t>> records;
  // False when the scan stopped at torn/corrupt bytes rather than a clean
  // end -- diagnostics only; recovery treats both as end-of-log.
  bool clean_tail = true;
};

// Parses a segment-framed file. nullopt when the file is missing or its
// 16-byte header is absent/wrong (such a file carries no usable records);
// otherwise the longest valid record prefix, stopping at the first short,
// oversized, or CRC-failing record. An unreadable file throws IoError.
inline std::optional<SegmentContents> ReadSegmentFile(
    const std::string& path, uint32_t expected_magic) {
  const auto bytes = ReadFileBytes(path);
  if (!bytes || bytes->size() < 16) return std::nullopt;
  const uint8_t* p = bytes->data();
  uint32_t magic = 0, version = 0;
  std::memcpy(&magic, p, 4);
  std::memcpy(&version, p + 4, 4);
  if (magic != expected_magic || version != kLogFormatVersion) {
    return std::nullopt;
  }
  SegmentContents contents;
  std::memcpy(&contents.first_lsn, p + 8, 8);
  size_t pos = 16;
  const size_t size = bytes->size();
  while (pos + 8 <= size) {
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, p + pos, 4);
    std::memcpy(&crc, p + pos + 4, 4);
    if (len < 1 || len > kMaxRecordPayload || len > size - pos - 8) {
      contents.clean_tail = false;
      return contents;
    }
    if (Crc32c(p + pos + 8, len) != crc) {
      contents.clean_tail = false;
      return contents;
    }
    contents.records.emplace_back(p + pos + 8, p + pos + 8 + len);
    pos += 8 + static_cast<size_t>(len);
  }
  contents.clean_tail = (pos == size);
  return contents;
}

// Opens a fresh segment file (truncating any stale file of the same name
// -- recovery re-creates a rotation-produced empty segment in place) and
// writes its header. The caller fsyncs per its policy.
inline AppendFile CreateSegmentFile(const std::string& path, uint32_t magic,
                                    uint64_t first_lsn, IoInjector* io) {
  AppendFile file(path, /*truncate=*/true, io);
  uint8_t header[16];
  const uint32_t version = kLogFormatVersion;
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &version, 4);
  std::memcpy(header + 8, &first_lsn, 8);
  file.Append(header, sizeof(header));
  return file;
}

// --- checkpoint files -------------------------------------------------------

struct CheckpointContents {
  uint64_t lsn = 0;         // WAL position the blob corresponds to
  uint64_t accepted_n = 0;  // items acknowledged at that position
  std::vector<uint8_t> blob;
};

// Writes a checkpoint via the tmp + fsync + rename + dir-fsync protocol:
// after the rename is durable the checkpoint is complete; before it, the
// old state is untouched. A crash anywhere leaves either the old or the
// new checkpoint, never a half-written one that parses.
inline void WriteCheckpointFile(const std::string& dir,
                                const std::string& final_name,
                                const CheckpointContents& contents,
                                IoInjector* io) {
  const std::string tmp_path = dir + "/ckpt.tmp";
  const std::string final_path = dir + "/" + final_name;
  {
    AppendFile file(tmp_path, /*truncate=*/true, io);
    std::vector<uint8_t> header(36);
    const uint32_t version = kLogFormatVersion;
    const uint64_t blob_len = contents.blob.size();
    const uint32_t crc = Crc32c(contents.blob.data(), contents.blob.size());
    std::memcpy(header.data(), &kCheckpointMagic, 4);
    std::memcpy(header.data() + 4, &version, 4);
    std::memcpy(header.data() + 8, &contents.lsn, 8);
    std::memcpy(header.data() + 16, &contents.accepted_n, 8);
    std::memcpy(header.data() + 24, &blob_len, 8);
    std::memcpy(header.data() + 32, &crc, 4);
    file.Append(header.data(), header.size());
    file.Append(contents.blob.data(), contents.blob.size());
    file.Fsync();
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    throw IoError(PersistErrnoMessage("rename", final_path));
  }
  FsyncDir(dir, io);
}

// Parses a checkpoint file; nullopt on ANY corruption (all-or-nothing:
// a checkpoint either restores the exact state or is not used at all) or
// when it is missing. An unreadable file throws IoError.
inline std::optional<CheckpointContents> ReadCheckpointFile(
    const std::string& path) {
  const auto bytes = ReadFileBytes(path);
  if (!bytes || bytes->size() < 36) return std::nullopt;
  const uint8_t* p = bytes->data();
  uint32_t magic = 0, version = 0, crc = 0;
  uint64_t blob_len = 0;
  CheckpointContents contents;
  std::memcpy(&magic, p, 4);
  std::memcpy(&version, p + 4, 4);
  std::memcpy(&contents.lsn, p + 8, 8);
  std::memcpy(&contents.accepted_n, p + 16, 8);
  std::memcpy(&blob_len, p + 24, 8);
  std::memcpy(&crc, p + 32, 4);
  if (magic != kCheckpointMagic || version != kLogFormatVersion) {
    return std::nullopt;
  }
  if (blob_len != bytes->size() - 36) return std::nullopt;
  contents.blob.assign(p + 36, p + 36 + blob_len);
  if (Crc32c(contents.blob.data(), contents.blob.size()) != crc) {
    return std::nullopt;
  }
  return contents;
}

// --- file naming ------------------------------------------------------------

inline std::string SegmentFileName(uint64_t first_lsn) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "wal-%016llx.log",
                static_cast<unsigned long long>(first_lsn));
  return buffer;
}

inline std::string CheckpointFileName(uint64_t lsn) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "ckpt-%016llx.snap",
                static_cast<unsigned long long>(lsn));
  return buffer;
}

// Parses the hex LSN out of a "prefix-%016x.suffix" file name; nullopt
// for names that do not match (stray files are ignored, not deleted).
inline std::optional<uint64_t> ParseLsnFileName(const std::string& name,
                                                const std::string& prefix,
                                                const std::string& suffix) {
  if (name.size() != prefix.size() + 16 + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(prefix.size() + 16, suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  uint64_t lsn = 0;
  for (size_t i = prefix.size(); i < prefix.size() + 16; ++i) {
    const char c = name[i];
    uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
    lsn = (lsn << 4) | digit;
  }
  return lsn;
}

}  // namespace persist
}  // namespace req

#endif  // REQSKETCH_PERSIST_LOG_FILE_H_
