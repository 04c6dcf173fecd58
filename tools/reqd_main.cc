// reqd: the multi-tenant quantile service daemon. Hosts a SketchRegistry
// behind the length-prefixed TCP protocol of service/wire_protocol.h,
// fronted by the epoll reactor of service/reqd_server.h.
//
// Usage:
//   reqd [--bind ADDR] [--port PORT] [--workers N] [--backlog N]
//        [--create NAME:KIND[:K_BASE]]... [--data-dir DIR]
//        [--fsync POLICY] [--checkpoint-bytes N] [--port-file PATH]
//
//   --bind ADDR        IPv4 address to listen on (default 127.0.0.1)
//   --port PORT        TCP port (default 7071; 0 picks an ephemeral port)
//   --workers N        event-loop worker threads (default 0 = hardware
//                      concurrency); connections are distributed
//                      round-robin across them
//   --backlog N        listen backlog (default 0 = auto: scales with
//                      --max-connections, floor 1024)
//   --create SPEC      pre-create a metric at startup; SPEC is
//                      NAME:KIND[:K_BASE] with KIND plain or windowed
//                      (metrics can also be created over the wire).
//                      Skipped when the metric was already recovered
//                      from --data-dir.
//   --data-dir DIR     enable durability: per-metric WAL + snapshot
//                      checkpoints under DIR, recovered on startup (on
//                      one thread per core; the boot line reports the
//                      time and the thread count)
//   --fsync POLICY     always | interval | never (default interval):
//                      when WAL appends reach disk; see README
//   --checkpoint-bytes N   checkpoint a metric (overwrite one of its two
//                      snapshot slots, cut its WAL back to the header)
//                      after N logged bytes, on a background thread
//                      (default 4194304)
//   --port-file PATH   write the bound port to PATH (tmp + rename) once
//                      listening -- how the crash-recovery test finds an
//                      ephemeral-port daemon
//   --max-metrics N    reject CREATEs beyond N metrics (kQuotaExceeded;
//                      0 = unlimited, the default)
//   --max-memory-bytes N   reject CREATEs once accounted sketch memory
//                      would pass N bytes (0 = unlimited)
//   --evict-idle-ms N  background-sweep metrics idle for N ms: durable
//                      ones are checkpointed out of memory (rehydrated
//                      transparently on next touch), memory-only ones
//                      trimmed (0 = sweeper off, the default)
//   --max-connections N    shed connections beyond N live ones with a
//                      kOverloaded answer instead of a worker slot
//                      (0 = uncapped, the default)
//   --idle-timeout-ms N    reap a connection that delivers no byte for
//                      N ms -- the slow-loris defense (0 = never)
//   --request-budget-ms N  answer kDeadlineExceeded when a frame's
//                      budget (stamped at arrival) is spent before
//                      dispatch (0 = unbounded)
//
// The flag table itself lives in service/server_flags.h
// (ParseServerFlags), shared with the benches and tests so every
// embedder of the daemon shape accepts the same options.
//
// Runs until SIGINT/SIGTERM, then shuts down gracefully: stops
// accepting, drains the reactor, and (when durable) writes a final
// checkpoint per metric so a clean restart replays no WAL at all.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "persist/durability.h"
#include "service/reqd_server.h"
#include "service/server_flags.h"
#include "service/sketch_registry.h"

namespace {

// tmp + rename, so a reader never sees a half-written port number.
bool WritePortFile(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  req::service::ServerFlags flags;
  flags.server.port = 7071;
  std::string flag_error;
  if (!req::service::ParseServerFlags(argc, argv, &flags, &flag_error)) {
    std::fprintf(stderr, "%s\n", flag_error.c_str());
    return 2;
  }

  req::service::SketchRegistry registry;
  registry.SetLimits(flags.max_metrics, flags.max_memory_bytes);
  try {
    std::unique_ptr<req::persist::DurabilityManager> durability;
    if (!flags.data_dir.empty()) {
      const auto recovery_start = std::chrono::steady_clock::now();
      durability = std::make_unique<req::persist::DurabilityManager>(
          flags.data_dir, flags.durability);
      durability->RecoverInto(&registry);
      const std::chrono::duration<double, std::milli> recovery =
          std::chrono::steady_clock::now() - recovery_start;
      std::printf("recovered %zu metric(s) from %s in %.1f ms on %zu "
                  "thread(s)\n",
                  registry.size(),
                  flags.data_dir.c_str(),
                  recovery.count(),
                  durability->recovery_threads());
    }
    for (const auto& [name, spec] : flags.precreate) {
      try {
        registry.Create(name, spec);
        std::printf("created metric %s\n", name.c_str());
      } catch (const req::service::MetricExists&) {
        // Already recovered from --data-dir; the durable spec wins.
      }
    }
    // Block the shutdown signals BEFORE spawning server threads, so they
    // inherit the mask and sigwait below is the only consumer.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);

    req::service::ReqdServer server(&registry, flags.server);
    server.Start();
    std::printf("reqd listening on %s:%u (%zu metric(s), %llu worker(s))\n",
                flags.server.bind_address.c_str(), server.port(),
                registry.size(),
                static_cast<unsigned long long>(server.WorkerCount()));
    std::fflush(stdout);
    if (!flags.port_file.empty() &&
        !WritePortFile(flags.port_file, server.port())) {
      std::fprintf(stderr, "reqd: cannot write --port-file %s\n",
                   flags.port_file.c_str());
      return 1;
    }

    // Idle-eviction sweeper: wakes twice per TTL (so a metric is caught
    // within ~1.5x its idle threshold), interruptible for fast shutdown.
    const uint64_t evict_idle_ms = flags.evict_idle_ms;
    std::thread sweeper;
    std::mutex sweep_mutex;
    std::condition_variable sweep_cv;
    std::atomic<bool> sweeping{evict_idle_ms > 0};
    if (evict_idle_ms > 0) {
      sweeper = std::thread([&] {
        const auto period =
            std::chrono::milliseconds(evict_idle_ms / 2 + 1);
        std::unique_lock<std::mutex> lock(sweep_mutex);
        while (sweeping.load()) {
          if (sweep_cv.wait_for(lock, period,
                                [&] { return !sweeping.load(); })) {
            break;
          }
          lock.unlock();
          try {
            registry.EvictIdle(evict_idle_ms);
          } catch (const std::exception& e) {
            // A failed checkpoint left its metric live and appendable;
            // log and keep sweeping the rest next round.
            std::fprintf(stderr, "reqd: eviction sweep: %s\n", e.what());
          }
          lock.lock();
        }
      });
    }

    int sig = 0;
    sigwait(&set, &sig);
    if (sweeper.joinable()) {
      {
        std::lock_guard<std::mutex> lock(sweep_mutex);
        sweeping.store(false);
      }
      sweep_cv.notify_all();
      sweeper.join();
    }
    std::printf("signal %d: shutting down after %llu frame(s) on %llu "
                "connection(s)\n",
                sig,
                static_cast<unsigned long long>(server.FramesServed()),
                static_cast<unsigned long long>(
                    server.ConnectionsAccepted()));
    // Graceful drain: shed new connections, answer every in-flight
    // frame, then stop the reactor (no appends can race the final
    // snapshot); only then checkpoint each metric so the next boot
    // replays nothing.
    server.Drain(/*timeout_ms=*/5000);
    if (durability) {
      const std::vector<std::string> names = registry.List();
      for (const std::string& name : names) {
        // Evicted metrics already sit on their eviction checkpoint;
        // rehydrating one here just to re-checkpoint it would be wasted
        // replay on the shutdown path.
        if (!registry.IsResident(name)) continue;
        req::service::SketchRegistry::EnginePtr engine =
            registry.Find(name);
        if (!engine) continue;
        engine->ForceCheckpoint();
      }
      std::printf("checkpointed %zu metric(s)\n", names.size());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reqd: %s\n", e.what());
    return 1;
  }
  return 0;
}
