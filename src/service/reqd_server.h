// ReqdServer: the TCP front end of the multi-tenant quantile service.
// Accepts connections on a loopback/IPv4 address and speaks the
// length-prefixed protocol of service/wire_protocol.h against a shared
// SketchRegistry.
//
// Concurrency model: an epoll reactor (the C10K shape). One accept
// thread distributes accepted fds round-robin over N event-loop workers
// (default: hardware concurrency); each worker owns an epoll set, an
// eventfd for wakeups/handoff, and the full state of the connections
// assigned to it -- no connection is ever touched by two threads, which
// is what keeps the reactor trivially race-free under TSan. Per
// connection the worker drives a small non-blocking state machine:
//
//   readable --> recv until EAGAIN --> FrameDecoder --> HandleFrame
//      ^                                                   |
//      |                                                   v
//   EPOLLOUT <-- send from the sent offset <-- responses encode into the
//                (EAGAIN arms EPOLLOUT)        connection's output buffer
//
// An APPEND acks once its batch is logged, and takes one more step before
// the next frame. HandleFrame only begins it (MetricEngine::BeginAppend:
// validate, log, count, and hold the metric's append and state mutexes)
// and encodes the ack; the worker then flushes that ack, applies the
// batch, which releases the mutexes, and schedules any checkpoint due. A
// closed-loop client's next request thus overlaps the sketch update, and
// often arrives before the apply ends. So that such a client -- or any
// peer that keeps its socket full -- cannot hold its worker, a read whose
// frames were answered ends that connection's turn: it goes on the
// worker's resume list and is read again once the other ready
// connections have been served.
//
// What an ack promises still holds: the batch is in the WAL, the count is
// the metric's count at the batch's log position, and every operation
// that starts after the ack observes the batch -- queries wait on the
// state mutex, SNAPSHOT and checkpoints on the append mutex, and FLUSH
// reads the count taken before the ack. Every APPEND frame flushes its
// own ack before the next frame is read from the decoder; a peer found
// gone by that flush still has its batch applied before the connection
// closes. The apply is fail-stop: a failure there (only allocation can
// fail) terminates the process rather than serve an acked batch missing,
// and a restart replays the batch from the WAL.
//
// The output queue is one buffer per connection: responses encode at its
// end and sends go out from its sent offset. A full flush clears it and
// keeps its allocation; a partial one drops the sent prefix once that is
// half the buffer, so a peer that never lets the queue drain cannot grow
// it without bound. A peer that queries faster than it reads answers has
// its reads paused once more than kMaxOutboundBytes (8 MiB) wait unsent,
// until the queue flushes -- backpressure, not OOM.
//
// Hostile-network posture (exercised by tests/service_chaos_test.cc and
// tests/service_reactor_test.cc via service/chaos_proxy.h):
//   * A connection keeps its idle and write-stall deadlines in its own
//     fields, so re-arming on every delivered byte is a field write. Each
//     worker tracks the earliest deadline it may hold; once that passes,
//     one pass over its connections (at most one per 25 ms tick) closes
//     the expired ones, so a slow loris mid-frame is reaped after
//     idle_timeout_ms without a timer per connection.
//   * max_connections caps live connections. At the cap, a new
//     connection is answered with a single kOverloaded frame and closed
//     -- a typed rejection the client can back off on, never a silent
//     hang in the accept backlog.
//   * request_budget_ms bounds time-to-first-dispatch per frame. The
//     budget is stamped when the batch of bytes ARRIVES, so pipelined
//     frames queued behind a slow request inherit the wait they already
//     paid. A frame whose budget is spent before dispatch answers
//     kDeadlineExceeded with no work done; after dispatch only read-only
//     ops convert to kDeadlineExceeded -- a mutation that ran (an APPEND
//     once logged) is always acked (kAppend/kFlush carry the accepted
//     count the client reconciles against; answering "timeout" after the
//     fact would desync that accounting).
//   * A peer that takes NO response bytes for send_timeout_ms while the
//     server holds un-flushed output is closed (the write-stall reap;
//     the old thread-per-connection server blocked in send here).
//   * Drain() finishes in-flight frames, answers them, then closes:
//     the graceful half of shutdown, with Stop() as the hard half.
//   * Transient accept failures (EMFILE/ENFILE/ENOBUFS) back off 50 ms
//     instead of hot-spinning: the listener stays readable, so retrying
//     accept immediately would burn a core until an fd frees.
//
// Error handling per frame:
//   * A malformed payload inside a well-delimited frame (bad opcode, bad
//     enum, truncated body) answers kBadRequest and the connection lives
//     on -- framing is still in sync.
//   * A corrupt length prefix (0 or > kMaxFramePayload) means the byte
//     stream itself has lost sync: the server answers one kBadRequest
//     frame best-effort and closes the connection once it flushes.
//   * Registry/engine exceptions map to statuses: MetricNotFound ->
//     kNotFound, MetricExists -> kExists, invalid_argument / logic_error /
//     runtime_error -> kBadRequest, anything else -> kError. The server
//     never dies on a request.
//
// Checkpoints stay off the request path. When an APPEND's WAL write
// carries its metric past checkpoint_bytes, the worker answers the APPEND
// and queues the engine handle for one background checkpointer thread,
// which snapshots the metric under its append mutex (so the snapshot sits
// at an exact WAL position) and cuts its WAL. A metric is queued at most
// once at a time. Should its WAL reach twice the threshold while it is
// still queued, the APPEND that sees this checkpoints inline once its ack
// is sent: the only time a worker waits on a snapshot, and what keeps
// replay bounded at 2x checkpoint_bytes plus one record per concurrent
// appender. A failed checkpoint is counted (kStats
// "checkpoint_failures"), leaves the WAL intact (persist/metric_log.h),
// and is retried at the next APPEND past the threshold; the APPEND that
// triggered it has already acked. An APPEND whose WAL write fails or is
// refused (a failed write or WAL cut poisons the log until a checkpoint
// resets it) answers kError and queues its metric for the checkpointer
// whatever its thresholds, so a poisoned WAL heals under traffic once the
// disk recovers. The thread starts on first use, so a memory-only server
// never starts it.
//
// Lifecycle: Start() binds/listens (port 0 picks an ephemeral port,
// re-read via port() -- how the tests and benches run parallel-safe
// loopback instances), builds the worker pool, and spawns the loops;
// Stop() shuts the listener, wakes every worker, and joins everything,
// the checkpointer last (dropping the handles still queued: a graceful
// shutdown checkpoints every metric afterwards anyway). The destructor
// calls Stop().
#ifndef REQSKETCH_SERVICE_REQD_SERVER_H_
#define REQSKETCH_SERVICE_REQD_SERVER_H_

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "persist/io_injector.h"
#include "service/sketch_registry.h"
#include "service/socket_util.h"
#include "service/wire_protocol.h"
#include "util/validation.h"

namespace req {
namespace service {

struct ReqdServerConfig {
  std::string bind_address = "127.0.0.1";
  // 0: pick an ephemeral port (read it back via port()).
  uint16_t port = 0;
  // Listen backlog. 0 = auto: scales with max_connections, floor 1024
  // (the old fixed 64 dropped SYNs under a C10K connect burst; the
  // kernel clamps to somaxconn either way).
  int backlog = 0;
  // Event-loop worker threads. 0 = hardware concurrency (min 1).
  uint32_t workers = 0;
  // Connection cap; above it new connections get one kOverloaded frame
  // and a close instead of a worker slot. 0 = uncapped.
  uint64_t max_connections = 0;
  // Reap a connection that has gone this long without delivering a byte
  // (slow loris, dead NAT entries). 0 = never reap.
  uint64_t idle_timeout_ms = 0;
  // Per-frame time budget, stamped at batch arrival; exceeded budgets
  // answer kDeadlineExceeded (see the class comment for the mutation
  // carve-out). 0 = unbounded.
  uint64_t request_budget_ms = 0;
  // Close a connection whose peer takes no response bytes for this long
  // while output is queued (a blackholed downstream must not hold its
  // buffers forever). 0 = unbounded.
  uint64_t send_timeout_ms = 30000;
};

class ReqdServer {
 public:
  explicit ReqdServer(SketchRegistry* registry,
                      const ReqdServerConfig& config = {})
      : registry_(registry), config_(config) {
    util::CheckArg(registry != nullptr, "registry must not be null");
  }

  ReqdServer(const ReqdServer&) = delete;
  ReqdServer& operator=(const ReqdServer&) = delete;

  ~ReqdServer() { Stop(); }

  static uint32_t EffectiveWorkers(const ReqdServerConfig& config) {
    if (config.workers > 0) return config.workers;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
  }

  static int EffectiveBacklog(const ReqdServerConfig& config) {
    if (config.backlog > 0) return config.backlog;
    const uint64_t scaled = std::max<uint64_t>(config.max_connections, 1024);
    return static_cast<int>(std::min<uint64_t>(scaled, 65535));
  }

  void Start() {
    util::CheckState(!running_.load(), "server already started");
    ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) throw std::runtime_error(ErrnoMessage("socket"));
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = ParseIPv4(config_.bind_address);
    addr.sin_port = htons(config_.port);
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw std::runtime_error(ErrnoMessage("bind"));
    }
    if (::listen(fd.get(), EffectiveBacklog(config_)) != 0) {
      throw std::runtime_error(ErrnoMessage("listen"));
    }
    // Re-read the bound port (meaningful when config_.port == 0).
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      throw std::runtime_error(ErrnoMessage("getsockname"));
    }
    // Build the worker pool before going live so a failure here leaves
    // the server cleanly stopped (local vectors unwind themselves).
    const uint32_t n = EffectiveWorkers(config_);
    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      auto w = std::make_unique<Worker>();
      w->epoll_fd.Reset(::epoll_create1(EPOLL_CLOEXEC));
      if (!w->epoll_fd.valid()) {
        throw std::runtime_error(ErrnoMessage("epoll_create1"));
      }
      w->event_fd.Reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
      if (!w->event_fd.valid()) {
        throw std::runtime_error(ErrnoMessage("eventfd"));
      }
      epoll_event ev{};
      ev.events = EPOLLIN;  // level-triggered: adoption drains it
      ev.data.fd = w->event_fd.get();
      if (::epoll_ctl(w->epoll_fd.get(), EPOLL_CTL_ADD, w->event_fd.get(),
                      &ev) != 0) {
        throw std::runtime_error(ErrnoMessage("epoll_ctl"));
      }
      workers.push_back(std::move(w));
    }
    port_ = ntohs(bound.sin_port);
    listen_fd_ = std::move(fd);
    workers_ = std::move(workers);
    running_.store(true);
    for (auto& w : workers_) {
      Worker* wp = w.get();
      wp->thread = std::thread([this, wp] { WorkerLoop(wp); });
    }
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  void Stop() {
    if (!running_.exchange(false)) return;
    // Wake a blocked accept() early (Linux returns EINVAL); the accept
    // loop's poll timeout bounds the wait even where shutdown() on a
    // listener is a no-op. The fd is closed only AFTER the join: closing
    // it while the accept thread still reads it would be a race (and a
    // potential fd-reuse hazard). The accept thread is joined before
    // the workers so no fd is pushed into an inbox nobody will sweep.
    ::shutdown(listen_fd_.get(), SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    listen_fd_.Reset();
    for (auto& w : workers_) WakeWorker(w.get());
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
    workers_.clear();
    // No worker is left to queue a checkpoint: drop the queue and let a
    // checkpoint in progress finish.
    {
      std::lock_guard<std::mutex> lock(checkpoint_mutex_);
      checkpoint_stop_ = true;
      checkpoint_queue_.clear();
      checkpoint_claims_.clear();
    }
    checkpoint_cv_.notify_all();
    if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
    checkpoint_stop_ = false;  // a restarted server starts it afresh
  }

  // Graceful shutdown, phase one: stop taking new connections (they shed
  // as kOverloaded), let live connections answer the complete frames
  // they already hold, and close them. Waits up to timeout_ms for the
  // live-connection count to reach zero, then hard-stops whatever is
  // left.
  void Drain(uint64_t timeout_ms = 5000) {
    draining_.store(true, std::memory_order_release);
    for (auto& w : workers_) WakeWorker(w.get());
    const SocketDeadline deadline = DeadlineAfterMs(timeout_ms);
    while (running_.load(std::memory_order_acquire) &&
           SocketClock::now() < deadline) {
      if (live_connections_.load(std::memory_order_acquire) == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Stop();
  }

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  // Event-loop workers currently running (0 when stopped).
  uint64_t WorkerCount() const { return workers_.size(); }

  // Monitoring counters (also exported over the wire via kStats).
  uint64_t ConnectionsAccepted() const { return connections_.load(); }
  uint64_t FramesServed() const { return frames_.load(); }
  // Connections that ended (EOF/reset) with a partial frame still
  // buffered -- each one is a client that died mid-send.
  uint64_t AbortedPartialFrames() const {
    return aborted_partial_frames_.load();
  }
  // Connections answered kOverloaded at the cap (or while draining).
  uint64_t ShedConnections() const { return shed_connections_.load(); }
  // Frames answered kDeadlineExceeded (budget spent).
  uint64_t DeadlineExceededCount() const { return deadline_exceeded_.load(); }
  // Connections reaped by the idle deadline.
  uint64_t IdleReaped() const { return idle_reaped_.load(); }
  // Transient accept() failures (EMFILE and friends) survived.
  uint64_t AcceptFailures() const { return accept_failures_.load(); }
  // Connections currently being served.
  uint64_t LiveConnections() const {
    return live_connections_.load(std::memory_order_acquire);
  }
  // Checkpoints this server wrote after APPENDs crossed checkpoint_bytes,
  // in the background or inline, and those that failed.
  uint64_t Checkpoints() const { return checkpoints_.load(); }
  uint64_t CheckpointFailures() const { return checkpoint_failures_.load(); }

 private:
  // An APPEND that HandleFrame began and acked but did not apply: the
  // worker flushes the ack, then applies (see the class comment). The
  // engine is declared first, so it outlives the append on destruction.
  struct DeferredAppend {
    SketchRegistry::EnginePtr engine;
    std::optional<MetricEngine::PendingAppend> append;
  };

  // Unsent responses above which a connection's reads pause.
  static constexpr size_t kMaxOutboundBytes = size_t{8} << 20;  // 8 MiB
  // Backoff after a transient accept() failure under fd exhaustion.
  static constexpr uint64_t kAcceptBackoffMs = 50;
  // A worker with a deadline armed wakes at least once per tick, and
  // runs at most one deadline pass per tick.
  static constexpr uint64_t kTickMs = 25;

  // Per-connection state, owned by exactly one worker. The output queue
  // (see the class comment) is `out`, sent up to `out_sent`.
  struct Conn {
    explicit Conn(int raw_fd) : fd(raw_fd) {}

    size_t OutboundBytes() const { return out.size() - out_sent; }

    ScopedFd fd;
    FrameDecoder decoder;
    std::vector<uint8_t> out;
    size_t out_sent = 0;
    bool want_write = false;       // EPOLLOUT armed
    bool close_after_flush = false;  // stream desynced; error queued
    bool paused_read = false;      // backpressure: outbound over the cap
    SocketDeadline idle_deadline = NoDeadline();
    SocketDeadline write_deadline = NoDeadline();
  };

  struct Worker {
    ScopedFd epoll_fd;
    ScopedFd event_fd;
    std::thread thread;
    // Handoff from the accept thread; everything else in the struct is
    // touched only by the owning worker thread.
    std::mutex inbox_mutex;
    std::vector<int> inbox;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    // No connection's deadline falls before `next_deadline` (NoDeadline:
    // none armed). Once it passes, ReapExpired walks the connections,
    // no sooner than `next_pass`.
    SocketDeadline next_deadline = NoDeadline();
    SocketDeadline next_pass;
    // Connections whose turn ended after a read's frames were answered,
    // to pump again once the worker's other ready connections had their
    // turn (ResumeConnections); `resuming` is its recycled scratch.
    std::vector<int> resume;
    std::vector<int> resuming;
  };

  static void WakeWorker(Worker* w) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t r =
        ::write(w->event_fd.get(), &one, sizeof(one));
  }

  void AcceptLoop() {
    size_t next_worker = 0;
    while (running_.load(std::memory_order_acquire)) {
      // Poll with a timeout instead of blocking in accept(): Stop() can
      // then flip running_ and join without ever closing the fd under
      // this thread's feet.
      pollfd pfd{};
      pfd.fd = listen_fd_.get();
      pfd.events = POLLIN;
      const int polled = ::poll(&pfd, 1, /*timeout_ms=*/250);
      if (!running_.load(std::memory_order_acquire)) break;
      if (polled <= 0) continue;  // timeout or EINTR: re-check and wait
      const int conn = ::accept(listen_fd_.get(), nullptr, nullptr);
      if (conn < 0) {
        // Only a dead listener ends the loop. Transient failures --
        // EMFILE/ENFILE under fd pressure, ENOBUFS/ENOMEM, an aborted
        // handshake -- must not leave a long-running daemon silently
        // unable to accept forever. The listener stays readable while
        // the backlog holds connections we cannot take, so poll returns
        // immediately and a bare retry would hot-spin at 100% CPU:
        // back off before the next attempt.
        if (errno == EBADF || errno == EINVAL) break;
        accept_failures_.fetch_add(1, std::memory_order_relaxed);
        SleepWhileRunning(kAcceptBackoffMs);
        continue;
      }
      SetNoDelay(conn);
      if (!SetNonBlocking(conn)) {
        accept_failures_.fetch_add(1, std::memory_order_relaxed);
        ::close(conn);
        continue;
      }
      bool shed = draining_.load(std::memory_order_acquire);
      if (!shed && config_.max_connections > 0) {
        shed = live_connections_.load(std::memory_order_acquire) >=
               config_.max_connections;
      }
      if (shed) {
        // At capacity (or draining): one typed rejection, then close.
        // Status != kOk responses parse regardless of the request opcode
        // the client had in flight, so this unsolicited frame is always
        // intelligible. The send is deadline-bounded -- a shedding
        // server must not be stallable by the peer it is shedding.
        shed_connections_.fetch_add(1, std::memory_order_relaxed);
        ScopedFd rejected(conn);
        Response response;
        response.status = Status::kOverloaded;
        response.error = "server at connection capacity; retry with backoff";
        std::vector<uint8_t> out;
        AppendResponseFrame(Opcode::kPing, response, &out);
        SendAllDeadline(rejected.get(), out.data(), out.size(),
                        DeadlineAfterMs(1000));
        continue;
      }
      connections_.fetch_add(1, std::memory_order_relaxed);
      live_connections_.fetch_add(1, std::memory_order_acq_rel);
      Worker* w = workers_[next_worker++ % workers_.size()].get();
      {
        std::lock_guard<std::mutex> lock(w->inbox_mutex);
        w->inbox.push_back(conn);
      }
      WakeWorker(w);
    }
  }

  // Sleeps in small slices so Stop() is never delayed by a backoff.
  void SleepWhileRunning(uint64_t ms) {
    const SocketDeadline until = DeadlineAfterMs(ms);
    while (running_.load(std::memory_order_acquire) &&
           SocketClock::now() < until) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min<uint64_t>(ms, 10)));
    }
  }

  void WorkerLoop(Worker* w) {
    std::vector<uint8_t> payload;  // frame scratch, reused across conns
    constexpr int kMaxEvents = 128;
    epoll_event events[kMaxEvents];
    while (running_.load(std::memory_order_acquire)) {
      int timeout_ms = w->next_deadline == NoDeadline()
                           ? 250
                           : static_cast<int>(kTickMs);
      if (draining_.load(std::memory_order_acquire)) timeout_ms = 10;
      if (!w->resume.empty()) timeout_ms = 0;
      const int n =
          ::epoll_wait(w->epoll_fd.get(), events, kMaxEvents, timeout_ms);
      if (!running_.load(std::memory_order_acquire)) break;
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      bool adopt = false;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == w->event_fd.get()) {
          adopt = true;
          continue;
        }
        auto it = w->conns.find(fd);
        if (it == w->conns.end()) continue;  // closed earlier this batch
        Conn* c = it->second.get();
        bool alive = true;
        if (events[i].events & EPOLLOUT) {
          alive = FlushOutbound(w, c);
          if (alive && c->paused_read && c->OutboundBytes() == 0) {
            // The queue drained: resume the reads backpressure paused.
            // Explicit, because edge-triggered EPOLLIN will not re-fire
            // for bytes that were already waiting while we were paused.
            alive = PumpConn(w, c, &payload);
          }
        }
        if (alive && (events[i].events &
                      (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR))) {
          alive = PumpConn(w, c, &payload);
        }
        if (!alive) CloseConn(w, fd);
      }
      ResumeConnections(w, &payload);
      // Adoption AFTER the event batch and the resumes: a freshly
      // accepted fd may reuse the number of one closed above, and a stale
      // event or resume for the dead connection must never be applied to
      // its successor.
      if (adopt) AdoptConnections(w, &payload);
      const SocketDeadline now = SocketClock::now();
      if (now >= w->next_deadline && now >= w->next_pass) ReapExpired(w, now);
      if (draining_.load(std::memory_order_acquire)) DrainSweep(w, &payload);
    }
    // Hard stop: every connection dies with its worker. Count buffered
    // partials (clients cut off mid-send) on the way out.
    {
      std::lock_guard<std::mutex> lock(w->inbox_mutex);
      for (int fd : w->inbox) {
        ::close(fd);
        live_connections_.fetch_sub(1, std::memory_order_acq_rel);
      }
      w->inbox.clear();
    }
    for (const auto& [fd, c] : w->conns) {
      (void)fd;
      if (c->decoder.buffered() > 0) {
        aborted_partial_frames_.fetch_add(1, std::memory_order_relaxed);
      }
      live_connections_.fetch_sub(1, std::memory_order_acq_rel);
    }
    w->conns.clear();
  }

  void AdoptConnections(Worker* w, std::vector<uint8_t>* payload) {
    uint64_t wakeups = 0;
    [[maybe_unused]] const ssize_t r =
        ::read(w->event_fd.get(), &wakeups, sizeof(wakeups));
    std::vector<int> fresh;
    {
      std::lock_guard<std::mutex> lock(w->inbox_mutex);
      fresh.swap(w->inbox);
    }
    for (int raw : fresh) {
      auto conn = std::make_unique<Conn>(raw);
      Conn* c = conn.get();
      c->idle_deadline = DeadlineAfterMs(config_.idle_timeout_ms);
      NoteDeadlines(w, c);
      w->conns.emplace(raw, std::move(conn));
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
      ev.data.fd = raw;
      if (::epoll_ctl(w->epoll_fd.get(), EPOLL_CTL_ADD, raw, &ev) != 0) {
        CloseConn(w, raw);
        continue;
      }
      // Bytes may have landed before the fd joined the epoll set; that
      // edge is already gone, so pump once by hand.
      if (!PumpConn(w, c, payload)) CloseConn(w, raw);
    }
  }

  // Drives one connection's read -> decode -> dispatch -> flush cycle
  // until the socket runs dry (edge-triggered epoll requires reading to
  // EAGAIN), or until one read's frames have all been answered. A peer
  // that keeps its socket full -- one pipelining requests of any kind, or
  // a closed-loop client whose next request arrives during an APPEND's
  // apply -- would otherwise hold the worker, so after such a read the
  // connection goes on the resume list instead. Returns false when the
  // connection must close.
  bool PumpConn(Worker* w, Conn* c, std::vector<uint8_t>* payload) {
    uint8_t chunk[1 << 16];
    SocketDeadline budget = NoDeadline();
    bool stamped = false;
    bool yielded = false;
    while (!c->close_after_flush && !yielded) {
      if (c->paused_read) {
        if (!FlushOutbound(w, c)) return false;
        if (c->OutboundBytes() > 0) break;  // EPOLLOUT resumes us later
        c->paused_read = false;
      }
      const ssize_t got =
          ::recv(c->fd.get(), chunk, sizeof(chunk), MSG_DONTWAIT);
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // dry
        if (c->decoder.buffered() > 0) {
          aborted_partial_frames_.fetch_add(1, std::memory_order_relaxed);
        }
        return false;
      }
      if (got == 0) {
        // Peer closed. A half-written frame left in the decoder (a
        // client killed mid-send, a torn TCP stream) is a clean
        // disconnect, never an error path: the bytes are simply
        // discarded with the connection. Counted so tests and operators
        // can observe aborted uploads.
        if (c->decoder.buffered() > 0) {
          aborted_partial_frames_.fetch_add(1, std::memory_order_relaxed);
        }
        return false;
      }
      if (!stamped) {
        // The request budget is stamped at BATCH ARRIVAL: every frame
        // decoded from this delivery shares the stamp, so pipelined
        // frames queued behind a slow one inherit the time they spent
        // waiting.
        budget = DeadlineAfterMs(config_.request_budget_ms);
        stamped = true;
      }
      c->idle_deadline = DeadlineAfterMs(config_.idle_timeout_ms);
      c->decoder.Feed(chunk, static_cast<size_t>(got));
      while (true) {
        try {
          if (!c->decoder.Next(payload)) break;
        } catch (const std::exception& e) {
          // Corrupt length prefix: answer once, then drop the stream
          // as soon as the error frame flushes.
          Response bad;
          bad.status = Status::kBadRequest;
          bad.error = e.what();
          AppendResponseFrame(Opcode::kPing, bad, &c->out);
          c->close_after_flush = true;
          break;
        }
        DeferredAppend deferred;
        HandleFrame(*payload, budget, &c->out, &deferred);
        frames_.fetch_add(1, std::memory_order_relaxed);
        yielded = true;  // the turn ends with this read's frames
        if (deferred.append) {
          // The ack is encoded: send it, then apply the batch. A peer
          // found gone still has its logged, counted batch applied
          // before the connection closes.
          const bool sent = FlushOutbound(w, c);
          deferred.append->Apply();
          ScheduleCheckpoint(std::move(deferred.engine));
          if (!sent) return false;
        }
      }
      if (c->OutboundBytes() > kMaxOutboundBytes) {
        c->paused_read = true;  // backpressure; flushed at loop top
      }
    }
    if (!FlushOutbound(w, c)) return false;
    if (yielded) {
      w->resume.push_back(c->fd.get());
    } else if (draining_.load(std::memory_order_acquire) &&
               !c->close_after_flush && c->OutboundBytes() == 0) {
      // Drain: every complete frame this connection sent has been
      // answered and flushed; anything still buffered is a partial the
      // peer may never finish. Close now.
      if (c->decoder.buffered() > 0) {
        aborted_partial_frames_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    return true;
  }

  // Sends the output queue until it is empty or the socket is full
  // (which arms EPOLLOUT and the write-stall deadline). Returns false
  // when the connection must close: peer gone, or a desynced stream
  // whose final error frame has now fully flushed.
  bool FlushOutbound(Worker* w, Conn* c) {
    while (c->OutboundBytes() > 0) {
      const ssize_t sent = SendNonBlocking(
          c->fd.get(), c->out.data() + c->out_sent, c->OutboundBytes());
      if (sent < 0) return false;
      if (sent == 0) {
        // Socket buffer full: wait for EPOLLOUT, bounded by the
        // write-stall deadline. Drop the sent prefix once it is half the
        // buffer, so responses queued behind it cannot grow it forever.
        if (c->out_sent * 2 >= c->out.size()) {
          c->out.erase(c->out.begin(),
                       c->out.begin() + static_cast<ptrdiff_t>(c->out_sent));
          c->out_sent = 0;
        }
        if (!c->want_write) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLRDHUP | EPOLLOUT | EPOLLET;
          ev.data.fd = c->fd.get();
          if (::epoll_ctl(w->epoll_fd.get(), EPOLL_CTL_MOD, c->fd.get(),
                          &ev) != 0) {
            return false;
          }
          c->want_write = true;
        }
        if (c->write_deadline == NoDeadline()) {
          c->write_deadline = DeadlineAfterMs(config_.send_timeout_ms);
        }
        NoteDeadlines(w, c);
        return true;
      }
      c->out_sent += static_cast<size_t>(sent);
      if (c->write_deadline != NoDeadline()) {
        // Progress re-arms the stall clock: only a peer taking NOTHING
        // for send_timeout_ms is reaped.
        c->write_deadline = DeadlineAfterMs(config_.send_timeout_ms);
      }
    }
    c->out.clear();  // keeps the allocation for the next responses
    c->out_sent = 0;
    c->write_deadline = NoDeadline();
    if (c->want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
      ev.data.fd = c->fd.get();
      ::epoll_ctl(w->epoll_fd.get(), EPOLL_CTL_MOD, c->fd.get(), &ev);
      c->want_write = false;
    }
    return !c->close_after_flush;
  }

  // Lowers the worker's next deadline to the connection's. Only arming a
  // deadline moves it earlier (the idle one at adoption, the write one at
  // a stall); moving one later needs nothing, since the pass that finds it
  // unexpired re-reads it.
  static void NoteDeadlines(Worker* w, const Conn* c) {
    w->next_deadline =
        std::min({w->next_deadline, c->idle_deadline, c->write_deadline});
  }

  // The deadline pass: closes, after one walk, every connection past its
  // idle deadline (a slow loris or dead peer; a buffered partial frame is
  // the signature of a client that sent a length prefix and stalled) or
  // its write deadline (a peer that took no response bytes for
  // send_timeout_ms), and recomputes the worker's next deadline. A reap
  // is counted (with release order) once its connection is closed, so a
  // reader that sees the count also sees the close.
  void ReapExpired(Worker* w, SocketDeadline now) {
    w->next_pass = now + std::chrono::milliseconds(kTickMs);
    w->next_deadline = NoDeadline();
    std::vector<int> expired;
    for (const auto& [fd, c] : w->conns) {
      if (now >= c->idle_deadline || now >= c->write_deadline) {
        expired.push_back(fd);
      } else {
        NoteDeadlines(w, c.get());
      }
    }
    for (int fd : expired) {
      const Conn& c = *w->conns.at(fd);
      const bool idle = now >= c.idle_deadline;
      const bool partial = c.decoder.buffered() > 0;
      CloseConn(w, fd);
      if (!idle) continue;
      if (partial) {
        aborted_partial_frames_.fetch_add(1, std::memory_order_relaxed);
      }
      idle_reaped_.fetch_add(1, std::memory_order_release);
    }
  }

  // Pumps each connection that yielded its turn once more: its socket may
  // still hold input that edge-triggered epoll will not report again.
  void ResumeConnections(Worker* w, std::vector<uint8_t>* payload) {
    w->resuming.clear();
    w->resuming.swap(w->resume);
    for (int fd : w->resuming) {
      auto it = w->conns.find(fd);
      if (it == w->conns.end()) continue;  // closed since it yielded
      if (!PumpConn(w, it->second.get(), payload)) CloseConn(w, fd);
    }
  }

  // Drain phase: pump every connection (answering whatever complete
  // frames it holds) and close the ones with nothing left in flight.
  void DrainSweep(Worker* w, std::vector<uint8_t>* payload) {
    std::vector<int> victims;
    for (auto& [fd, c] : w->conns) {
      if (!PumpConn(w, c.get(), payload)) victims.push_back(fd);
    }
    for (int fd : victims) CloseConn(w, fd);
  }

  void CloseConn(Worker* w, int fd) {
    auto it = w->conns.find(fd);
    if (it == w->conns.end()) return;
    // Closing the fd (ScopedFd in the erased Conn) drops its epoll
    // registration.
    w->conns.erase(it);
    live_connections_.fetch_sub(1, std::memory_order_acq_rel);
  }

  // Ops whose response carries no state the client reconciles against:
  // safe to convert to kDeadlineExceeded after the work ran. kAppend and
  // kFlush return the accepted count and kCreate/kDrop change registry
  // state -- once applied they MUST ack, or the client's accounting and
  // retry logic desync from the server's.
  static bool IsReadOnly(Opcode op) {
    switch (op) {
      case Opcode::kPing:
      case Opcode::kRank:
      case Opcode::kQuantiles:
      case Opcode::kCdf:
      case Opcode::kSnapshot:
      case Opcode::kList:
      case Opcode::kStats:
        return true;
      default:
        return false;
    }
  }

  // Parses one request payload and appends the framed response to
  // `*out` (the connection's output buffer). All throwing paths are
  // caught here; see the class comment for the status mapping. An APPEND
  // that acks leaves its batch unapplied in `*deferred`.
  void HandleFrame(const std::vector<uint8_t>& payload, SocketDeadline budget,
                   std::vector<uint8_t>* out, DeferredAppend* deferred) {
    Opcode op = Opcode::kPing;
    Response response;
    try {
      Request request = ParseRequest(payload);
      op = request.op;
      if (SocketClock::now() >= budget) {
        // Budget spent before dispatch (a burst pipelined behind a slow
        // frame, or a server pushed past its request budget): shed the
        // frame with zero work done. Uniform for every opcode -- nothing
        // was applied, so the client may retry anything.
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        response.status = Status::kDeadlineExceeded;
        response.error = "request budget exhausted before dispatch";
        AppendResponseFrame(op, response, out);
        return;
      }
      // An operation can race an idle eviction: the engine handle goes
      // retired between Require and use. Re-dispatching re-resolves the
      // metric, which rehydrates it -- invisible to the client beyond
      // latency. Bounded so a pathological evict loop cannot spin here.
      for (int attempt = 0;; ++attempt) {
        try {
          response = Dispatch(&request, deferred);
          break;
        } catch (const MetricRetired&) {
          if (attempt >= 2) throw;
        }
      }
      if (IsReadOnly(op) && SocketClock::now() >= budget) {
        // The answer took longer than the budget; for a read the client
        // has surely timed out its side, so a typed timeout beats a
        // stale payload. Mutations skip this: applied work always acks.
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        Response late;
        late.status = Status::kDeadlineExceeded;
        late.error = "request budget exhausted during dispatch";
        AppendResponseFrame(op, late, out);
        return;
      }
    } catch (const MetricNotFound& e) {
      response.status = Status::kNotFound;
      response.error = e.what();
    } catch (const MetricExists& e) {
      response.status = Status::kExists;
      response.error = e.what();
    } catch (const QuotaExceeded& e) {
      // Before the runtime_error ladder: a quota rejection is a
      // definitive, typed answer, not a malformed request.
      response.status = Status::kQuotaExceeded;
      response.error = e.what();
    } catch (const MetricRetired& e) {
      // Retries exhausted (an evictor is racing this metric hard):
      // server-side condition, safe for the client to retry.
      response.status = Status::kError;
      response.error = e.what();
    } catch (const persist::IoError& e) {
      // Durability failures (fsync error, injected fault, disk full) are
      // server-side trouble, not a malformed request: kError, and the
      // ordering matters -- IoError derives from runtime_error, which
      // maps to kBadRequest below.
      response.status = Status::kError;
      response.error = e.what();
    } catch (const std::invalid_argument& e) {
      response.status = Status::kBadRequest;
      response.error = e.what();
    } catch (const std::logic_error& e) {
      response.status = Status::kBadRequest;
      response.error = e.what();
    } catch (const std::runtime_error& e) {
      response.status = Status::kBadRequest;
      response.error = e.what();
    } catch (const std::exception& e) {
      response.status = Status::kError;
      response.error = e.what();
    }
    AppendResponseFrame(op, response, out);
  }

  // Runs one request. An APPEND is only begun: its values move into
  // `*deferred`, whose handle the caller applies once the ack is sent.
  // Anything that throws has moved nothing out of `*request`, so the
  // eviction retry in HandleFrame can dispatch it again.
  Response Dispatch(Request* request, DeferredAppend* deferred) {
    Response response;
    switch (request->op) {
      case Opcode::kPing:
        response.protocol_version = kProtocolVersion;
        break;
      case Opcode::kCreate:
        registry_->Create(request->metric, request->spec);
        break;
      case Opcode::kAppend: {
        SketchRegistry::EnginePtr engine =
            registry_->Require(request->metric);
        try {
          deferred->append.emplace(
              engine->BeginAppend(std::move(request->values)));
        } catch (const persist::IoError&) {
          // The WAL write failed or was refused: the log takes no record
          // until a checkpoint resets it, so queue one now.
          ScheduleCheckpoint(std::move(engine), /*wal_failed=*/true);
          throw;
        }
        // The batch is logged and counted, so the APPEND acks from here
        // on, with the count at this batch's log position (AcceptedN()
        // read now could include a concurrent append to the same
        // metric). The caller applies it once the ack is sent, then
        // hands a checkpoint it made due to the checkpointer.
        response.n = deferred->append->n();
        deferred->engine = std::move(engine);
        break;
      }
      case Opcode::kFlush:
        // Every acknowledged append is counted and logged, and becomes
        // query-visible before any later query runs; FLUSH answers the
        // metric's accepted count.
        response.n = registry_->Require(request->metric)->AcceptedN();
        break;
      case Opcode::kRank:
        response.ranks = registry_->Require(request->metric)
                             ->GetRanks(request->values, request->criterion);
        break;
      case Opcode::kQuantiles:
        response.values =
            registry_->Require(request->metric)
                ->GetQuantiles(request->values, request->criterion);
        break;
      case Opcode::kCdf:
        response.values = registry_->Require(request->metric)
                              ->GetCDF(request->values, request->criterion);
        break;
      case Opcode::kSnapshot:
        response.blob = registry_->Require(request->metric)->Snapshot();
        break;
      case Opcode::kList: {
        if (request->list_paged) {
          // v2 paged form: prefix filter + offset/limit, served from the
          // lazily merged per-shard name runs.
          response.list_paged = true;
          response.names =
              registry_->ListPage(request->list_prefix, request->list_offset,
                                  request->list_limit, &response.total);
        } else {
          response.names = registry_->List();
        }
        break;
      }
      case Opcode::kDrop:
        if (!registry_->Drop(request->metric)) {
          throw MetricNotFound(request->metric);
        }
        break;
      case Opcode::kStats:
        // Counter names are part of the observable surface (req-cli
        // prints them, the chaos suite asserts on them); additions are
        // fine, renames are a protocol change.
        response.stats = {
            {"connections_accepted", connections_.load()},
            {"live_connections", live_connections_.load()},
            {"frames_served", frames_.load()},
            {"aborted_partial_frames", aborted_partial_frames_.load()},
            {"shed_connections", shed_connections_.load()},
            {"deadline_exceeded", deadline_exceeded_.load()},
            {"idle_reaped", idle_reaped_.load()},
            {"accept_failures", accept_failures_.load()},
            {"workers", static_cast<uint64_t>(workers_.size())},
            {"metrics", registry_->size()},
            {"draining",
             draining_.load(std::memory_order_acquire) ? 1u : 0u},
            {"checkpoints", checkpoints_.load()},
            {"checkpoint_failures", checkpoint_failures_.load()},
            {"evictions", registry_->Evictions()},
            {"rehydrations", registry_->Rehydrations()},
            {"accounted_bytes", registry_->AccountedMemoryBytes()},
        };
        break;
    }
    return response;
  }

  // After an APPEND (see the class comment): queues the metric for the
  // checkpointer once its WAL passes checkpoint_bytes, or whatever its
  // thresholds when the APPEND's WAL write failed or was refused, and
  // checkpoints inline only when the WAL reached twice the threshold with
  // the metric still queued, or when no checkpointer thread can be
  // started. Throws nothing: the APPEND it follows must ack, or answer its
  // own error.
  void ScheduleCheckpoint(SketchRegistry::EnginePtr engine,
                          bool wal_failed = false) {
    try {
      const int passed = wal_failed ? 1 : engine->WalThresholdsPassed();
      if (passed == 0) return;
      {
        std::lock_guard<std::mutex> lock(checkpoint_mutex_);
        const bool queued = checkpoint_claims_.count(engine.get()) != 0;
        if (!queued && StartCheckpointerLocked()) {
          checkpoint_claims_.insert(engine.get());
          checkpoint_queue_.push_back(std::move(engine));
          checkpoint_cv_.notify_one();
          return;
        }
        if (queued && passed < 2) return;
      }
      Checkpoint(engine.get(), /*claimed=*/false);
    } catch (const std::exception&) {
      checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Starts the checkpointer on first use; false if no thread can start.
  bool StartCheckpointerLocked() {
    if (checkpoint_thread_.joinable()) return true;
    try {
      checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
    } catch (const std::system_error&) {
      return false;
    }
    return true;
  }

  // The checkpointer thread: checkpoints queued metrics in the order they
  // crossed the threshold, until Stop(). A metric stays claimed until its
  // checkpoint ends, so it is never queued twice.
  void CheckpointLoop() {
    while (true) {
      SketchRegistry::EnginePtr engine;
      {
        std::unique_lock<std::mutex> lock(checkpoint_mutex_);
        checkpoint_cv_.wait(lock, [this] {
          return checkpoint_stop_ || !checkpoint_queue_.empty();
        });
        if (checkpoint_stop_) return;
        engine = std::move(checkpoint_queue_.front());
        checkpoint_queue_.pop_front();
      }
      Checkpoint(engine.get(), /*claimed=*/true);
    }
  }

  // One checkpoint, counted. A failure leaves the WAL to replay. A
  // `claimed` metric's claim is released before the count moves, so once
  // a failure shows, the next APPEND past the threshold queues a retry.
  void Checkpoint(MetricEngine* engine, bool claimed) {
    bool wrote = false;
    bool failed = false;
    try {
      wrote = engine->ForceCheckpoint();
    } catch (const std::exception&) {
      failed = true;
    }
    if (claimed) {
      std::lock_guard<std::mutex> lock(checkpoint_mutex_);
      checkpoint_claims_.erase(engine);
    }
    if (wrote) checkpoints_.fetch_add(1, std::memory_order_relaxed);
    if (failed) checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
  }

  SketchRegistry* registry_;
  ReqdServerConfig config_;
  ScopedFd listen_fd_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> live_connections_{0};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> aborted_partial_frames_{0};
  std::atomic<uint64_t> shed_connections_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> idle_reaped_{0};
  std::atomic<uint64_t> accept_failures_{0};
  // The checkpointer. checkpoint_mutex_ guards the queue, the claims (the
  // engines queued or being checkpointed) and the stop flag; the workers
  // and Stop() start and join the thread under it or after the workers.
  std::mutex checkpoint_mutex_;
  std::condition_variable checkpoint_cv_;
  std::deque<SketchRegistry::EnginePtr> checkpoint_queue_;
  std::unordered_set<const MetricEngine*> checkpoint_claims_;
  bool checkpoint_stop_ = false;
  std::thread checkpoint_thread_;
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
};

}  // namespace service
}  // namespace req

#endif  // REQSKETCH_SERVICE_REQD_SERVER_H_
