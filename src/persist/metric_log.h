// MetricLog: one metric's write-ahead log plus snapshot checkpoints, the
// per-metric half of the durability subsystem (persist/durability.h owns
// the directory-level manifest).
//
// A metric's directory (data_dir/m<id>/) holds a fixed set of files:
//
//   wal-live.log    the WAL, created at CREATE and kept for the metric's
//                   life; its header names the LSN of its first record.
//                   Record payloads are the wire-encoded APPEND requests
//                   themselves (service/wire_protocol.h), so the log
//                   format inherits the protocol's versioning and its
//                   hardened parser for free
//   ckpt-0.slot     checkpoint slots, written in turn, each created at its
//   ckpt-1.slot     first use: an engine snapshot (kind-tagged serde blob,
//                   identical bytes to a wire SNAPSHOT) and the LSN it was
//                   taken at, under one CRC
//
// The LSN is the count of APPEND BATCHES since CREATE -- not bytes, not
// items. Batches are the engines' replay unit: every engine's state is a
// pure function of the batch sequence (ReqSerde v2 checkpoints carry
// exact PRNG state), so "snapshot at LSN c, replay batches c.."
// reconstructs the pre-crash state bit-identically.
//
// Write protocol per append: frame + CRC the batch, append to the WAL,
// fsync per policy -- all BEFORE the server acknowledges the batch (and
// the engine applies it, right after the ack is sent). A torn tail is
// therefore always an unacknowledged suffix, and recovery may
// legitimately resurrect slightly MORE than the client saw acknowledged
// (the record survived, the ack did not) but never less.
//
// Checkpoint protocol (WriteCheckpoint), which creates, renames and
// unlinks no file once both slots exist:
//   1. overwrite the slot that does NOT hold the newest valid checkpoint
//      (one write from offset 0, a truncate to length, an fsync);
//   2. cut the WAL back to a bare header at the checkpoint's LSN (a
//      truncate, the header write, an fsync).
// A crash during 1 tears that slot alone: its CRC fails, and recovery
// takes the other slot plus the untouched WAL. Between 1 and 2 the WAL
// holds only records below the new slot's LSN, which recovery skips.
// During 2 the WAL has no whole header, which recovery resets. A failure
// in 1 leaves the WAL as it was, so the next checkpoint simply retries.
//
// Who checkpoints, and when: the engine (service/sketch_registry.h) calls
// WriteCheckpoint under its append mutex, so no batch is logged between
// its snapshot and the WAL cut. In a serving reqd that happens on the
// server's one background checkpointer thread, after an APPEND carries
// the WAL past checkpoint_bytes (ShouldCheckpoint); on the APPEND itself
// only if the WAL reaches twice that while the checkpointer has not yet
// reached the metric, which bounds replay at 2x checkpoint_bytes; at
// idle eviction; and for every resident metric at graceful shutdown.
//
// Old layout: directories written by earlier versions hold
// ckpt-<lsn>.snap checkpoints and wal-<first_lsn>.log segments. Recovery
// reads them alongside the fixed files, and the first checkpoint after it
// deletes them (and any ckpt.tmp); a crash that undoes the deletes leaves
// them beside a newer slot, where they change nothing.
#ifndef REQSKETCH_PERSIST_METRIC_LOG_H_
#define REQSKETCH_PERSIST_METRIC_LOG_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "persist/io_injector.h"
#include "persist/log_file.h"
#include "service/wire_protocol.h"

namespace req {
namespace persist {

// When appended records reach the disk.
//   kAlways:   fsync after every record. No acknowledged write is ever
//              lost, at the cost of a disk flush per APPEND.
//   kInterval: fsync when the configured interval has elapsed since the
//              last sync (checked on the append path). Bounds loss to the
//              final interval; the page cache absorbs the rest.
//   kNever:    the OS decides. Loss bounded only by the kernel's
//              writeback horizon; checkpoints and manifest appends are
//              STILL always fsynced (directory metadata must not lie).
enum class FsyncPolicy : uint8_t { kAlways = 0, kInterval = 1, kNever = 2 };

struct MetricLogOptions {
  FsyncPolicy fsync = FsyncPolicy::kInterval;
  uint64_t fsync_interval_ms = 50;
  // WAL bytes since the last checkpoint that trip ShouldCheckpoint().
  uint64_t checkpoint_bytes = uint64_t{4} << 20;
  IoInjector* io = nullptr;
};

// --- per-metric recovery ----------------------------------------------------

// Everything recovery learned from one metric directory.
struct RecoveredMetricState {
  // Newest checkpoint that passed its CRC; empty blob => none usable
  // (replay starts from an empty engine at LSN 0).
  std::vector<uint8_t> snapshot_blob;
  uint64_t snapshot_lsn = 0;
  uint64_t snapshot_accepted_n = 0;
  // WAL tail to replay on top of the snapshot, in LSN order.
  std::vector<std::vector<double>> batches;
  // LSN after the last replayed batch == the reopened MetricLog's next_lsn.
  uint64_t next_lsn = 0;
  // For reopening the MetricLog: the slot the snapshot came from (-1:
  // none, or an old-layout file); the WAL's valid length when its records
  // end exactly at next_lsn (0: reset the WAL at next_lsn instead), and
  // whether bytes past it must be cut; old-layout files to delete.
  int snapshot_slot = -1;
  uint64_t wal_valid_bytes = 0;
  bool wal_torn = false;
  std::vector<std::string> old_layout_files;
};

// Scans one metric directory: picks the newest valid checkpoint, then
// walks the WAL for the contiguous batch run that follows it.
//
// Checkpoints are tried newest first, and the first that passes its CRC
// wins: the two slots ordered by the LSN their headers claim (so only one
// blob is loaded and checked unless it fails), and old-layout
// ckpt-<lsn>.snap files ordered by name; a slot wins an LSN tie.
//
// The WAL scan covers the WAL and any old-layout segments in first-LSN
// order. It skips records the snapshot covers (a crash between a
// checkpoint's two steps leaves some), and stops at the first torn
// record, CRC failure, or LSN gap WITHIN the run -- prefix semantics,
// matching what was ever acknowledged. Corrupt records never throw;
// malformed APPEND payloads inside a CRC-valid record do (CRC says the
// bytes are what was written, so a parse failure means a software bug,
// not bit rot). Unreadable files are not corruption: a directory that
// cannot be listed, or a checkpoint or WAL that exists but cannot be
// read, throws IoError (see ReadFileBytes) rather than recovering less
// than was acknowledged.
inline RecoveredMetricState ReadMetricState(const std::string& dir,
                                            const std::string& metric_name) {
  RecoveredMetricState state;
  struct Checkpoint {
    uint64_t lsn;
    int slot;  // -1: old-layout file
    std::string path;
  };
  std::vector<Checkpoint> checkpoints;
  std::vector<std::string> old_segments;
  using std::filesystem::directory_iterator;
  std::error_code ec;
  directory_iterator entry(dir, ec);
  for (; !ec && entry != directory_iterator(); entry.increment(ec)) {
    const std::string name = entry->path().filename().string();
    if (const auto lsn = ParseLsnFileName(name, "ckpt-", ".snap")) {
      checkpoints.push_back({*lsn, -1, entry->path().string()});
    } else if (ParseLsnFileName(name, "wal-", ".log")) {
      old_segments.push_back(entry->path().string());
    } else if (name != "ckpt.tmp") {
      continue;
    }
    state.old_layout_files.push_back(entry->path().string());
  }
  if (ec) throw IoError("cannot list " + dir + ": " + ec.message());
  for (int slot = 0; slot < 2; ++slot) {
    std::string path = dir + "/" + kSlotFileNames[slot];
    if (const auto lsn = ReadCheckpointLsn(path)) {
      checkpoints.push_back({*lsn, slot, std::move(path)});
    }
  }
  std::sort(checkpoints.begin(), checkpoints.end(),
            [](const Checkpoint& a, const Checkpoint& b) {
              return a.lsn != b.lsn ? a.lsn > b.lsn : a.slot > b.slot;
            });
  for (const Checkpoint& checkpoint : checkpoints) {
    if (auto contents = ReadCheckpointFile(checkpoint.path)) {
      state.snapshot_blob = std::move(contents->blob);
      state.snapshot_lsn = contents->lsn;
      state.snapshot_accepted_n = contents->accepted_n;
      state.snapshot_slot = checkpoint.slot;
      break;
    }
    // Torn or corrupt: fall back to the next newest. A slot torn while
    // being written has the untouched WAL behind it.
  }
  // Equal first LSNs keep insertion order, so the WAL follows an
  // old-layout segment at its LSN (which can only be empty).
  std::multimap<uint64_t, SegmentContents> segments;
  for (const std::string& path : old_segments) {
    if (auto contents = ReadSegmentFile(path, kSegmentMagic)) {
      segments.emplace(contents->first_lsn, std::move(*contents));
    }
  }
  std::optional<uint64_t> wal_end;  // LSN after the WAL's valid records
  if (auto wal = ReadSegmentFile(dir + "/" + kWalFileName, kSegmentMagic)) {
    wal_end = wal->first_lsn + wal->records.size();
    state.wal_valid_bytes = wal->valid_bytes;
    state.wal_torn = !wal->clean_tail;
    segments.emplace(wal->first_lsn, std::move(*wal));
  }
  uint64_t next = state.snapshot_lsn;
  for (const auto& [first_lsn, contents] : segments) {
    if (first_lsn > next) break;  // gap: nothing after it was acknowledged
    uint64_t lsn = first_lsn;
    for (const auto& record : contents.records) {
      if (lsn++ < next) continue;  // already covered by the snapshot
      service::Request request = service::ParseRequest(record);
      if (request.op != service::Opcode::kAppend ||
          request.metric != metric_name) {
        throw std::runtime_error("WAL record " + std::to_string(lsn - 1) +
                                 " in " + dir + " is not an APPEND for '" +
                                 metric_name + "'");
      }
      state.batches.push_back(std::move(request.values));
      ++next;
    }
  }
  state.next_lsn = next;
  if (wal_end != next) {
    // Headerless, or beyond a gap: appending there would put records
    // where no recovery reaches them.
    state.wal_valid_bytes = 0;
    state.wal_torn = false;
  }
  return state;
}

class MetricLog {
 public:
  // Opens the metric's WAL to append after `recovered` (what
  // ReadMetricState found in `dir`; a default state for a CREATE). Appends
  // continue after the WAL's valid records when they end exactly at
  // recovered.next_lsn, once a torn tail is cut; otherwise the WAL is reset
  // to a bare header at next_lsn. Creating the file (a CREATE, or the
  // first boot of an old-layout directory) fsyncs the directory.
  MetricLog(std::string dir, std::string metric_name,
            const RecoveredMetricState& recovered,
            const MetricLogOptions& options)
      : dir_(std::move(dir)),
        metric_name_(std::move(metric_name)),
        options_(options),
        wal_(dir_ + "/" + kWalFileName, /*append=*/true, options.io),
        next_slot_(recovered.snapshot_slot == 0 ? 1 : 0),
        old_layout_files_(recovered.old_layout_files),
        next_lsn_(recovered.next_lsn),
        last_sync_(std::chrono::steady_clock::now()) {
    if (recovered.wal_valid_bytes > 0) {
      if (recovered.wal_torn) wal_.Truncate(recovered.wal_valid_bytes);
      // The records kept are a replay tail like any appended since.
      bytes_since_checkpoint_.store(recovered.wal_valid_bytes - 16,
                                    std::memory_order_relaxed);
    } else {
      ResetSegment(&wal_, kSegmentMagic, recovered.next_lsn);
      wal_.Fsync();
    }
    if (wal_.created()) FsyncDir(dir_, options_.io);
  }

  MetricLog(const MetricLog&) = delete;
  MetricLog& operator=(const MetricLog&) = delete;

  const std::string& dir() const { return dir_; }
  const std::string& metric_name() const { return metric_name_; }

  // LSN the next appended batch will get == batches logged since CREATE.
  uint64_t next_lsn() const {
    return next_lsn_.load(std::memory_order_acquire);
  }

  // Logs one append batch and returns its LSN. Caller context: the
  // engine's append mutex (one writer at a time per metric). Throws
  // IoError on failure, BEFORE the engine applies the batch -- nothing
  // unlogged is ever acknowledged.
  uint64_t AppendBatch(const double* data, size_t count) {
    if (dropped_.load(std::memory_order_acquire)) {
      return next_lsn_.load(std::memory_order_acquire);
    }
    service::Request request;
    request.op = service::Opcode::kAppend;
    request.metric = metric_name_;
    request.values.assign(data, data + count);
    const std::vector<uint8_t> payload = service::EncodeRequest(request);
    std::lock_guard<std::mutex> lock(mutex_);
    // A failed/torn write poisons the WAL: appending more records AFTER
    // garbage bytes would put acknowledged data beyond the tear, where
    // recovery (prefix semantics) can never reach it. The log refuses
    // further appends until a checkpoint resets the WAL; every refusal is
    // an IoError the server answers as kError, so nothing unrecoverable
    // is ever acknowledged, and each refusal queues the metric for the
    // server's checkpointer, whose next checkpoint heals the log.
    if (failed_) {
      throw IoError("WAL write failed; awaiting a checkpoint: " + dir_);
    }
    try {
      AppendRecord(&wal_, payload);
      MaybeSyncLocked();
    } catch (...) {
      failed_ = true;
      throw;
    }
    bytes_since_checkpoint_.fetch_add(payload.size() + 8,
                                      std::memory_order_relaxed);
    return next_lsn_.fetch_add(1, std::memory_order_release);
  }

  // Cheap threshold probe: whether the WAL has logged at least
  // `thresholds` x checkpoint_bytes since the last checkpoint.
  bool ShouldCheckpoint(uint64_t thresholds = 1) const {
    return bytes_since_checkpoint_.load(std::memory_order_relaxed) /
               thresholds >=
           options_.checkpoint_bytes;
  }

  // Persists `blob` (the engine snapshot at WAL position `lsn`) into the
  // slot that does not hold the newest valid checkpoint, then resets the
  // WAL to a bare header at `lsn` (see the protocol above). The first
  // call after recovering an old-layout directory then deletes that
  // layout's files. Caller context: the engine's append mutex, with
  // `lsn == next_lsn()` and `blob` serialized from the state that
  // position corresponds to (see "Who checkpoints" above).
  void WriteCheckpoint(uint64_t lsn, uint64_t accepted_n,
                       const std::vector<uint8_t>& blob) {
    if (dropped_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(mutex_);
    WriteCheckpointFile(dir_, kSlotFileNames[next_slot_], lsn, accepted_n,
                        blob, options_.io);
    next_slot_ ^= 1;  // the slot just written holds the newest checkpoint
    try {
      ResetSegment(&wal_, kSegmentMagic, lsn);
      wal_.Fsync();
    } catch (...) {
      failed_ = true;  // a half-reset WAL takes no records (AppendBatch)
      throw;
    }
    failed_ = false;  // the poisoned bytes are gone
    bytes_since_checkpoint_.store(0, std::memory_order_relaxed);
    // A failed unlink leaves a file the next recovery lists again.
    for (const std::string& path : old_layout_files_) ::unlink(path.c_str());
    old_layout_files_.clear();
  }

  // Flushes the WAL to disk regardless of policy (graceful shutdown, and
  // tests that need a durable prefix without a checkpoint).
  void Sync() {
    if (dropped_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(mutex_);
    wal_.Fsync();
  }

  // After DROP: in-flight handles may still hold this log; every later
  // operation becomes a no-op instead of resurrecting files in a
  // directory the manifest already declared dead.
  void MarkDropped() { dropped_.store(true, std::memory_order_release); }

 private:
  void MaybeSyncLocked() {
    switch (options_.fsync) {
      case FsyncPolicy::kAlways:
        wal_.Fsync();
        break;
      case FsyncPolicy::kInterval: {
        const auto now = std::chrono::steady_clock::now();
        if (now - last_sync_ >=
            std::chrono::milliseconds(options_.fsync_interval_ms)) {
          wal_.Fsync();
          last_sync_ = now;
        }
        break;
      }
      case FsyncPolicy::kNever:
        break;
    }
  }

  const std::string dir_;
  const std::string metric_name_;
  const MetricLogOptions options_;
  // Serializes WAL writes/resets against Sync() (engine append mutex
  // already serializes writers; Sync may come from shutdown).
  std::mutex mutex_;
  FileWriter wal_;
  bool failed_ = false;  // guarded by mutex_; see AppendBatch
  int next_slot_;        // guarded by mutex_: WriteCheckpoint's target
  std::vector<std::string> old_layout_files_;  // guarded by mutex_
  std::atomic<uint64_t> next_lsn_;
  std::atomic<uint64_t> bytes_since_checkpoint_{0};
  std::chrono::steady_clock::time_point last_sync_;
  std::atomic<bool> dropped_{false};
};

// --- registry-facing lifecycle hook -----------------------------------------

// What OnRehydrate hands back for an evicted metric being touched again:
// the durable state to rebuild the engine from, plus its WAL reopened at
// the state's next LSN for the rebuilt engine to append to.
struct RehydratedMetric {
  RecoveredMetricState state;
  std::shared_ptr<MetricLog> log;
};

// Durability hook the registry calls under its exclusive directory lock
// (OnCreate/OnDrop) or the metric's lifecycle lock (OnEvict/OnRehydrate);
// implemented by persist::DurabilityManager, null when the service runs
// without --data-dir.
class DirectoryHook {
 public:
  virtual ~DirectoryHook() = default;
  // The name is known-free. Returns the new metric's WAL (never null);
  // throwing IoError aborts the CREATE before the registry publishes it.
  virtual std::shared_ptr<MetricLog> OnCreate(
      const std::string& name, const service::MetricSpec& spec) = 0;
  virtual void OnDrop(const std::string& name) = 0;
  // The metric just checkpointed and closed its WAL (idle eviction): the
  // manager releases its handle so the engine can be dropped from memory.
  // Default: nothing to release.
  virtual void OnEvict(const std::string& name) { (void)name; }
  // An evicted metric was touched: return its durable state plus its
  // reopened WAL to attach to the rebuilt engine. Only meaningful for managers
  // that actually evict; the default refuses.
  virtual RehydratedMetric OnRehydrate(const std::string& name) {
    throw IoError("metric '" + name + "' has no durable state to rehydrate");
  }
};

}  // namespace persist
}  // namespace req

#endif  // REQSKETCH_PERSIST_METRIC_LOG_H_
