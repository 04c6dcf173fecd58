// Fault-injection seam for the durability layer. Every byte the WAL and
// checkpoint writers persist flows through an IoInjector, so tests can
// force the failure shapes a real disk produces -- short (torn) writes,
// failed fsyncs and truncates, and hard crash points -- without mocking
// the filesystem: the real files are written, just cut off at the
// injected fault, and the recovery path then has to prove itself against
// genuine on-disk artifacts (tests/persist_fault_injection_test.cc sweeps
// crash points).
//
// IoError is the typed failure for the whole persistence stack: both
// injected faults and real I/O errors (ENOSPC, EIO) throw it, and the
// server maps it to wire Status::kError -- a durability failure is a
// server-side fault, never the client's kBadRequest.
#ifndef REQSKETCH_PERSIST_IO_INJECTOR_H_
#define REQSKETCH_PERSIST_IO_INJECTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace req {
namespace persist {

struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Interception points, called immediately before the matching syscall.
// The default implementation injects nothing. One injector may be shared
// by many files/threads; implementations must be thread-safe.
class IoInjector {
 public:
  virtual ~IoInjector() = default;

  // Before writing `size` bytes: the return value caps how many bytes
  // reach the file. Returning < size simulates a torn write (the prefix
  // IS persisted, then the operation fails); throwing IoError simulates
  // a write that failed outright.
  virtual size_t BeforeWrite(size_t size) { return size; }

  // Before fsync()/fdatasync(); throwing IoError simulates sync failure.
  virtual void BeforeFsync() {}

  // Before ftruncate(); throwing IoError simulates a crash just before a
  // file is cut to length.
  virtual void BeforeTruncate() {}
};

// Deterministic fault plans for tests: fail (optionally with a torn
// prefix) once a budget of I/O operations is spent, or fail every fsync.
// After the first fault fires, every subsequent operation fails too --
// the shape of a process that died or a device that went away, which is
// exactly what crash-recovery must withstand.
class FaultInjector : public IoInjector {
 public:
  // Ops (writes, fsyncs and truncates) that succeed before the fault
  // fires. `torn_write` makes the faulting write persist half its bytes
  // first.
  void FailAfterOps(uint64_t ops, bool torn_write = false) {
    fail_after_.store(ops, std::memory_order_relaxed);
    torn_write_.store(torn_write, std::memory_order_relaxed);
  }

  // Every fsync fails; writes keep succeeding (the "lying disk" shape).
  void FailFsyncs(bool fail) {
    fail_fsyncs_.store(fail, std::memory_order_relaxed);
  }

  void Reset() {
    fail_after_.store(~uint64_t{0}, std::memory_order_relaxed);
    torn_write_.store(false, std::memory_order_relaxed);
    fail_fsyncs_.store(false, std::memory_order_relaxed);
    ops_.store(0, std::memory_order_relaxed);
    tripped_.store(false, std::memory_order_relaxed);
  }

  uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }

  size_t BeforeWrite(size_t size) override {
    const uint64_t op = ops_.fetch_add(1, std::memory_order_relaxed);
    if (op < fail_after_.load(std::memory_order_relaxed)) return size;
    // First trip of a torn-write plan: persist a strict prefix. The
    // writer then throws IoError itself (a short write IS a failure);
    // later ops land here again with tripped_ set and fail cleanly.
    if (torn_write_.load(std::memory_order_relaxed) &&
        !tripped_.exchange(true, std::memory_order_relaxed)) {
      return size / 2;
    }
    tripped_.store(true, std::memory_order_relaxed);
    throw IoError("injected write failure (op " + std::to_string(op) + ")");
  }

  void BeforeFsync() override {
    const uint64_t op = ops_.fetch_add(1, std::memory_order_relaxed);
    if (fail_fsyncs_.load(std::memory_order_relaxed)) {
      throw IoError("injected fsync failure");
    }
    FailOnceSpent(op, "fsync");
  }

  void BeforeTruncate() override {
    FailOnceSpent(ops_.fetch_add(1, std::memory_order_relaxed), "truncate");
  }

 private:
  void FailOnceSpent(uint64_t op, const char* what) {
    if (op >= fail_after_.load(std::memory_order_relaxed)) {
      tripped_.store(true, std::memory_order_relaxed);
      throw IoError(std::string("injected ") + what + " failure (op " +
                    std::to_string(op) + ")");
    }
  }

  std::atomic<uint64_t> fail_after_{~uint64_t{0}};
  std::atomic<bool> torn_write_{false};
  std::atomic<bool> fail_fsyncs_{false};
  std::atomic<uint64_t> ops_{0};
  std::atomic<bool> tripped_{false};
};

}  // namespace persist
}  // namespace req

#endif  // REQSKETCH_PERSIST_IO_INJECTOR_H_
