// File-level building blocks of the durability layer: a POSIX file
// writer routed through the IoInjector seam, CRC32C record framing, and
// the readers that recover WAL, manifest and checkpoint files written
// with it.
//
// On-disk formats (little-endian, same conventions as util/serde.h):
//
//   segment  := u32 magic | u32 version | u64 first_lsn | record*
//   record   := u32 payload_len | u32 crc32c(payload) | payload
//   ckpt v2  := u32 magic | u32 version=2 | u32 crc | u64 lsn |
//               u64 accepted_n | u64 blob_len | blob
//               (crc = crc32c of every byte after the crc field)
//   ckpt v1  := u32 magic | u32 version=1 | u64 lsn | u64 accepted_n |
//               u64 blob_len | u32 crc32c(blob) | blob
//
// A segment is a WAL file or the manifest. Checkpoints are written as
// v2; v1 is read only from old-layout ckpt-<lsn>.snap files, and its
// lsn/accepted_n sit outside the CRC.
//
// Reader contract (the recovery invariant): every file is untrusted. A
// reader returns the longest valid prefix of records -- it stops, without
// throwing, at the first record whose length is implausible, overruns the
// remaining bytes, or fails its CRC. A torn tail (the crash left a
// half-written record) is therefore indistinguishable from a clean end of
// log, which is exactly the semantics a WAL wants: unacknowledged suffix
// discarded, acknowledged prefix intact. Checkpoints are all-or-nothing:
// any corruption rejects the whole file (recovery falls back to the other
// slot or a from-scratch replay). Nothing in this file ever turns corrupt
// input into UB; tests/persist_corruption_test.cc bit-flips and truncates
// every byte under ASan/UBSan to hold that line. A file that exists but
// cannot be read is not corrupt input: the readers throw IoError for it
// (see ReadFileBytes) instead of skipping it.
#ifndef REQSKETCH_PERSIST_LOG_FILE_H_
#define REQSKETCH_PERSIST_LOG_FILE_H_

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
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
// Segments, and checkpoints of the old layout (ckpt v1).
inline constexpr uint32_t kLogFormatVersion = 1;
// Checkpoints written today (ckpt v2).
inline constexpr uint32_t kCheckpointFormatVersion = 2;
inline constexpr size_t kCheckpointHeaderBytes = 36;  // both versions

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

// Writer over a POSIX fd. Opening creates the file when it is absent, and
// created() then says so: the new name is durable only after the caller's
// FsyncDir. With `append`, every write lands at the end of the file (WAL,
// manifest); without it, writes start at offset 0 and overwrite in place
// (checkpoint slots). Short writes -- injected or real -- throw IoError
// AFTER persisting the prefix, which is how a crash torn mid-record looks
// on disk.
class FileWriter {
 public:
  FileWriter() = default;
  FileWriter(const std::string& path, bool append, IoInjector* io)
      : path_(path), io_(io) {
    const int flags = O_WRONLY | (append ? O_APPEND : 0);
    fd_ = ::open(path.c_str(), flags);
    if (fd_ < 0 && errno == ENOENT) {
      fd_ = ::open(path.c_str(), flags | O_CREAT, 0644);
      created_ = fd_ >= 0;
    }
    if (fd_ < 0) throw IoError(PersistErrnoMessage("open", path));
  }
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;
  FileWriter(FileWriter&& other) noexcept { *this = std::move(other); }
  FileWriter& operator=(FileWriter&& other) noexcept {
    if (this != &other) {
      CloseQuietly();
      fd_ = other.fd_;
      created_ = other.created_;
      path_ = std::move(other.path_);
      io_ = other.io_;
      other.fd_ = -1;
    }
    return *this;
  }
  ~FileWriter() { CloseQuietly(); }

  bool valid() const { return fd_ >= 0; }
  bool created() const { return created_; }

  void Write(const void* data, size_t size) {
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

  void Truncate(uint64_t length) {
    if (io_) io_->BeforeTruncate();
    if (::ftruncate(fd_, static_cast<off_t>(length)) != 0) {
      throw IoError(PersistErrnoMessage("ftruncate", path_));
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
  bool created_ = false;
  std::string path_;
  IoInjector* io_ = nullptr;
};

// Fsyncs a directory, making creates/renames inside it durable (the step
// the classic tmp-write-rename protocol forgets).
inline void FsyncDir(const std::string& dir, IoInjector* io) {
  if (io) io->BeforeFsync();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw IoError(PersistErrnoMessage("open dir", dir));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw IoError(PersistErrnoMessage("fsync dir", dir));
}

// --- record framing ---------------------------------------------------------

// Cuts an append-mode segment file back to a bare 16-byte header naming
// `first_lsn`; the caller fsyncs. A crash in between leaves no whole
// header, which the reader rejects.
inline void ResetSegment(FileWriter* file, uint32_t magic,
                         uint64_t first_lsn) {
  uint8_t header[16];
  const uint32_t version = kLogFormatVersion;
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &version, 4);
  std::memcpy(header + 8, &first_lsn, 8);
  file->Truncate(0);
  file->Write(header, sizeof(header));
}

inline void AppendRecord(FileWriter* file,
                         const std::vector<uint8_t>& payload) {
  // One buffered write per record: a crash can tear the record but never
  // interleave two, and the framing costs one memcpy, not three writes.
  std::vector<uint8_t> framed(8 + payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  std::memcpy(framed.data(), &len, 4);
  std::memcpy(framed.data() + 4, &crc, 4);
  std::memcpy(framed.data() + 8, payload.data(), payload.size());
  file->Write(framed.data(), framed.size());
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

// Reads a whole file, or its first `limit` bytes, into one buffer sized
// from fstat, with read(2) to EOF (retrying EINTR). WAL tails are bounded
// by the checkpoint threshold, so whole-file reads during recovery are
// small and simple beats streaming.
//
// Error contract: nullopt means the file does not exist (ENOENT), the one
// failure recovery may read as "absent". Every other open, fstat or read
// failure (EACCES, ELOOP, EISDIR, EIO, ...) throws IoError: treating an
// unreadable checkpoint or manifest as missing would make recovery serve
// less than it acknowledged, or garbage-collect the metrics it could not
// read.
inline std::optional<std::vector<uint8_t>> ReadFileBytes(
    const std::string& path, size_t limit = SIZE_MAX) {
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
  std::vector<uint8_t> bytes(
      std::min(static_cast<size_t>(st.st_size), limit) + 1);
  size_t filled = 0;
  while (filled < limit) {
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
  bytes.resize(std::min(filled, limit));
  return bytes;
}

// The valid prefix of a segment (WAL or manifest) file.
struct SegmentContents {
  uint64_t first_lsn = 0;
  std::vector<std::vector<uint8_t>> records;
  // Header plus valid records: where an appender may continue.
  size_t valid_bytes = 0;
  // False when the scan stopped at torn/corrupt bytes rather than a clean
  // end -- the bytes past valid_bytes; recovery treats both as end-of-log.
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
    if (len < 1 || len > kMaxRecordPayload || len > size - pos - 8) break;
    if (Crc32c(p + pos + 8, len) != crc) break;
    contents.records.emplace_back(p + pos + 8, p + pos + 8 + len);
    pos += 8 + static_cast<size_t>(len);
  }
  contents.valid_bytes = pos;
  contents.clean_tail = (pos == size);
  return contents;
}

// --- checkpoint files -------------------------------------------------------

struct CheckpointContents {
  uint64_t lsn = 0;         // WAL position the blob corresponds to
  uint64_t accepted_n = 0;  // items acknowledged at that position
  std::vector<uint8_t> blob;
};

// Writes a v2 checkpoint over dir/name in place: one write from offset 0,
// a truncate to the exact length, and an fsync -- no tmp file, rename or
// unlink. The first write to a name creates the file and fsyncs `dir`. A
// crash part-way tears this file alone and its CRC then rejects it, so a
// caller must never overwrite its only valid checkpoint (MetricLog
// alternates two slots).
inline void WriteCheckpointFile(const std::string& dir,
                                const std::string& name, uint64_t lsn,
                                uint64_t accepted_n,
                                const std::vector<uint8_t>& blob,
                                IoInjector* io) {
  std::vector<uint8_t> bytes(kCheckpointHeaderBytes + blob.size());
  const uint64_t blob_len = blob.size();
  std::memcpy(bytes.data(), &kCheckpointMagic, 4);
  std::memcpy(bytes.data() + 4, &kCheckpointFormatVersion, 4);
  std::memcpy(bytes.data() + 12, &lsn, 8);
  std::memcpy(bytes.data() + 20, &accepted_n, 8);
  std::memcpy(bytes.data() + 28, &blob_len, 8);
  std::copy(blob.begin(), blob.end(), bytes.data() + kCheckpointHeaderBytes);
  const uint32_t crc = Crc32c(bytes.data() + 12, bytes.size() - 12);
  std::memcpy(bytes.data() + 8, &crc, 4);
  FileWriter file(dir + "/" + name, /*append=*/false, io);
  file.Write(bytes.data(), bytes.size());
  file.Truncate(bytes.size());
  file.Fsync();
  if (file.created()) FsyncDir(dir, io);
}

// The LSN a v2 checkpoint's header claims, read without loading the blob.
// Unverified: only ReadCheckpointFile's CRC check vouches for it. nullopt
// when the file is missing or has no whole v2 header; an unreadable file
// throws IoError.
inline std::optional<uint64_t> ReadCheckpointLsn(const std::string& path) {
  const auto header = ReadFileBytes(path, kCheckpointHeaderBytes);
  if (!header || header->size() < kCheckpointHeaderBytes) return std::nullopt;
  uint32_t magic = 0, version = 0;
  uint64_t lsn = 0;
  std::memcpy(&magic, header->data(), 4);
  std::memcpy(&version, header->data() + 4, 4);
  std::memcpy(&lsn, header->data() + 12, 8);
  if (magic != kCheckpointMagic || version != kCheckpointFormatVersion) {
    return std::nullopt;
  }
  return lsn;
}

// Parses a v2 or v1 checkpoint file; nullopt on ANY corruption
// (all-or-nothing: a checkpoint either restores the exact state or is not
// used at all) or when it is missing. An unreadable file throws IoError.
inline std::optional<CheckpointContents> ReadCheckpointFile(
    const std::string& path) {
  const auto bytes = ReadFileBytes(path);
  if (!bytes || bytes->size() < kCheckpointHeaderBytes) return std::nullopt;
  const uint8_t* p = bytes->data();
  const size_t size = bytes->size();
  uint32_t magic = 0, version = 0, crc = 0;
  uint64_t blob_len = 0;
  size_t crc_from = kCheckpointHeaderBytes;  // v1: the CRC covers the blob
  CheckpointContents contents;
  std::memcpy(&magic, p, 4);
  std::memcpy(&version, p + 4, 4);
  if (magic != kCheckpointMagic) return std::nullopt;
  if (version == kCheckpointFormatVersion) {
    std::memcpy(&crc, p + 8, 4);
    std::memcpy(&contents.lsn, p + 12, 8);
    std::memcpy(&contents.accepted_n, p + 20, 8);
    std::memcpy(&blob_len, p + 28, 8);
    crc_from = 12;
  } else if (version == kLogFormatVersion) {
    std::memcpy(&contents.lsn, p + 8, 8);
    std::memcpy(&contents.accepted_n, p + 16, 8);
    std::memcpy(&blob_len, p + 24, 8);
    std::memcpy(&crc, p + 32, 4);
  } else {
    return std::nullopt;
  }
  if (blob_len != size - kCheckpointHeaderBytes ||
      Crc32c(p + crc_from, size - crc_from) != crc) {
    return std::nullopt;
  }
  contents.blob.assign(p + kCheckpointHeaderBytes, p + size);
  return contents;
}

// --- file naming ------------------------------------------------------------

// A metric directory's fixed files (persist/metric_log.h): the WAL, kept
// for the metric's life, and the two checkpoint slots written in turn.
inline constexpr char kWalFileName[] = "wal-live.log";
inline constexpr const char* kSlotFileNames[2] = {"ckpt-0.slot",
                                                  "ckpt-1.slot"};

// Parses the hex LSN out of an old-layout "prefix-%016x.suffix" name
// (wal-<first_lsn>.log segments, ckpt-<lsn>.snap checkpoints); nullopt
// for names that do not match, the fixed names included.
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
