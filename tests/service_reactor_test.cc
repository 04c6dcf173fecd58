// Reactor front-end suite: the epoll event loop + worker pool behind
// ReqdServer, exercised at the connection-state-machine level. The
// scenarios the thread-per-connection design never had to face:
//
//   * a thousand simultaneously-open idle connections reaped by their
//     worker's deadline pass without collateral damage to a live client
//     (connections must cost fds and a deadline field, not threads);
//   * a response larger than the peer's receive window: the partial
//     write parks on EPOLLOUT, the worker keeps serving its other
//     connections mid-stall, and the flush resumes to a byte-exact
//     answer once the peer drains;
//   * a peer that pipelines queries and does not read: its reads pause
//     at the 8 MiB outbound cap, and once it reads it gets every answer
//     in order;
//   * a peer that stops taking bytes entirely: reaped at
//     send_timeout_ms by the same deadline pass, without a partial-frame
//     count (the inbound stream was clean -- it is the OUTBOUND side that
//     died);
//   * Drain() with an un-answered frame in flight on EVERY worker:
//     each one is answered kOk before its socket sees EOF;
//   * Stop() racing an accept storm.
//
// Plus unit coverage for the reactor's satellites: the reusable-buffer
// response encoder (AppendResponseFrame) against the allocate-and-copy
// path it replaced, ParseServerFlags, and the backlog auto-scale.
//
// Determinism note: the EPOLLOUT scenarios do not throttle with timers;
// they shrink the raw socket's SO_RCVBUF before connect, so the stall
// is a hard property of buffer sizes, not of scheduling.
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "service/req_client.h"
#include "service/reqd_server.h"
#include "service/server_flags.h"
#include "service/sketch_registry.h"
#include "service/socket_util.h"
#include "service/wire_protocol.h"
#include "util/random.h"

namespace req {
namespace service {
namespace {

using Clock = std::chrono::steady_clock;

// Sanitizer builds multiply every syscall; shrink the army, keep the
// semantics (the reap path is identical at 256 and at 1024 conns).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr size_t kIdleArmyTarget = 256;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr size_t kIdleArmyTarget = 256;
#else
constexpr size_t kIdleArmyTarget = 1000;
#endif
#else
constexpr size_t kIdleArmyTarget = 1000;
#endif

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool WaitFor(const std::function<bool()>& cond, double timeout_s = 30.0) {
  const auto start = Clock::now();
  while (!cond()) {
    if (SecondsSince(start) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

std::vector<double> Stream(uint64_t seed, size_t count) {
  util::Xoshiro256 rng(seed);
  std::vector<double> values(count);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

// Each in-process connection costs two fds (client end + accepted end);
// leave slack for epoll/eventfd/test infrastructure.
size_t FdBudgetConnections() {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 128;
  if (rl.rlim_cur == RLIM_INFINITY) return kIdleArmyTarget;
  const size_t soft = static_cast<size_t>(rl.rlim_cur);
  return soft > 256 ? (soft - 256) / 2 : 0;
}

class ServiceReactorTest : public ::testing::Test {
 protected:
  void StartServer(const ReqdServerConfig& config = {}) {
    server_ = std::make_unique<ReqdServer>(&registry_, config);
    server_->Start();
  }

  void TearDown() override {
    if (server_) {
      server_->Stop();
      EXPECT_EQ(server_->LiveConnections(), 0u);
    }
  }

  ReqClient ConnectDirect() {
    ReqClient client;
    client.Connect("127.0.0.1", server_->port());
    return client;
  }

  // A raw loopback connection; rcvbuf_bytes > 0 clamps SO_RCVBUF BEFORE
  // connect (so the advertised window is small from the handshake on) --
  // the deterministic way to make the server's response out-run the
  // peer and park on EPOLLOUT.
  ScopedFd RawConnect(int rcvbuf_bytes = 0) {
    ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    EXPECT_TRUE(fd.valid());
    if (rcvbuf_bytes > 0) {
      EXPECT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF,
                             &rcvbuf_bytes, sizeof(rcvbuf_bytes)),
                0);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = ParseIPv4("127.0.0.1");
    addr.sin_port = htons(server_->port());
    EXPECT_EQ(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  // Reads one complete frame payload off a raw (blocking) socket.
  std::vector<uint8_t> ReadFramePayload(int fd, FrameDecoder* decoder,
                                        double timeout_s = 60.0) {
    std::vector<uint8_t> payload;
    uint8_t chunk[1 << 16];
    const auto start = Clock::now();
    while (!decoder->Next(&payload)) {
      EXPECT_LT(SecondsSince(start), timeout_s) << "frame never arrived";
      if (SecondsSince(start) >= timeout_s) return payload;
      const ssize_t got = RecvSome(fd, chunk, sizeof(chunk));
      EXPECT_GT(got, 0) << "peer closed mid-frame";
      if (got <= 0) return payload;
      decoder->Feed(chunk, static_cast<size_t>(got));
    }
    return payload;
  }

  SketchRegistry registry_;
  std::unique_ptr<ReqdServer> server_;
};

// --- idle army: connections cost fds, not threads --------------------------

TEST_F(ServiceReactorTest, ThousandIdleConnectionsReapedWithoutCollateral) {
  const size_t army = std::min(kIdleArmyTarget, FdBudgetConnections());
  ASSERT_GE(army, 64u) << "RLIMIT_NOFILE too low for a meaningful army";
  ReqdServerConfig config;
  config.idle_timeout_ms = 300;
  config.workers = 2;  // the army must spread across loops
  StartServer(config);

  // A live bystander FIRST, so the army cannot starve its accept.
  ReqClient bystander = ConnectDirect();
  MetricSpec spec;
  spec.base.k_base = 64;
  bystander.Create("reactor.bystander", spec);

  // Half the army is silent; the other half is a slow loris that sends
  // a 4-byte length prefix promising a frame that never comes -- those
  // must ALSO count as aborted partial frames when reaped.
  std::vector<ScopedFd> conns;
  conns.reserve(army);
  for (size_t i = 0; i < army; ++i) {
    ScopedFd fd = RawConnect();
    ASSERT_TRUE(fd.valid());
    if (i % 2 == 1) {
      const uint32_t promised = 64;
      ASSERT_TRUE(SendAll(fd.get(),
                          reinterpret_cast<const uint8_t*>(&promised),
                          sizeof(promised)));
    }
    conns.push_back(std::move(fd));
  }
  // connect() returns on handshake (backlog); give the accept loop a
  // bounded window to register the whole army.
  EXPECT_TRUE(WaitFor(
      [&] { return server_->ConnectionsAccepted() == army + 1; }));

  // The bystander chats through the whole reap window: proves it is
  // being served AND re-arms its own idle clock every round trip.
  EXPECT_TRUE(WaitFor(
      [&] {
        EXPECT_EQ(bystander.Ping(), kProtocolVersion);
        return server_->IdleReaped() >= army;
      },
      /*timeout_s=*/120.0));
  EXPECT_EQ(server_->IdleReaped(), army);
  EXPECT_EQ(server_->AbortedPartialFrames(), army / 2);
  EXPECT_EQ(server_->LiveConnections(), 1u);  // the bystander
  EXPECT_EQ(bystander.Append("reactor.bystander", Stream(3, 100)), 100u);
}

// --- EPOLLOUT: partial writes park and resume -------------------------------

TEST_F(ServiceReactorTest, PartialWriteParksOnEpolloutAndResumesExactly) {
  StartServer();
  ReqClient direct = ConnectDirect();
  MetricSpec spec;
  spec.base.k_base = 64;
  direct.Create("reactor.eo", spec);
  direct.Append("reactor.eo", Stream(11, 50000));

  // 768k points -> a ~6 MiB response: bigger than tcp_wmem's 4 MiB
  // autotune ceiling PLUS the shrunken receive window, so the flush
  // cannot complete until the peer actually reads.
  std::vector<double> qs(3 << 18);
  for (size_t i = 0; i < qs.size(); ++i) {
    qs[i] = static_cast<double>(i) / static_cast<double>(qs.size() - 1);
  }
  ScopedFd raw = RawConnect(/*rcvbuf_bytes=*/4096);
  Request request;
  request.op = Opcode::kQuantiles;
  request.metric = "reactor.eo";
  request.values = qs;
  std::vector<uint8_t> wire;
  AppendFrame(&wire, EncodeRequest(request));
  ASSERT_TRUE(SendAll(raw.get(), wire.data(), wire.size()));

  // Stall window: the response is queued server-side, the write parked
  // on EPOLLOUT. The worker must keep serving its OTHER connections.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(direct.Ping(), kProtocolVersion);
  EXPECT_EQ(direct.Append("reactor.eo", Stream(12, 10)), 50010u);

  // Now drain the stalled response and demand byte-level correctness:
  // the resumed flush must produce exactly what a healthy connection
  // gets for the same query (issued BEFORE the second append above --
  // so compare against a snapshot-consistent reference taken first).
  FrameDecoder decoder;
  const std::vector<uint8_t> payload =
      ReadFramePayload(raw.get(), &decoder);
  const Response response = ParseResponse(Opcode::kQuantiles, payload);
  ASSERT_EQ(response.status, Status::kOk);
  ASSERT_EQ(response.values.size(), qs.size());
  // The raw query ran against the 50000-item state (the appends above
  // landed after it was answered into the queue); re-derive the
  // reference from a fresh direct query only if the sketch is
  // unchanged -- it is not, so spot-check structural invariants
  // instead: sorted, within the appended value range.
  EXPECT_LE(response.values.front(), response.values.back());
  for (size_t i = 1; i < response.values.size(); i += 4096) {
    EXPECT_LE(response.values[i - 1], response.values[i]);
  }
  EXPECT_GE(response.values.front(), 0.0);
  EXPECT_LE(response.values.back(), 1e6);
}

TEST_F(ServiceReactorTest, StalledResponseMatchesHealthyPeerByteForByte) {
  StartServer();
  ReqClient direct = ConnectDirect();
  MetricSpec spec;
  spec.base.k_base = 64;
  direct.Create("reactor.eq", spec);
  direct.Append("reactor.eq", Stream(21, 50000));

  // 768k points -> a ~6 MiB response: bigger than tcp_wmem's 4 MiB
  // autotune ceiling PLUS the shrunken receive window, so the flush
  // cannot complete until the peer actually reads.
  std::vector<double> qs(3 << 18);
  for (size_t i = 0; i < qs.size(); ++i) {
    qs[i] = static_cast<double>(i) / static_cast<double>(qs.size() - 1);
  }
  // Reference answer over a healthy connection, BEFORE any stall; the
  // metric is never appended to again, so the stalled answer must be
  // bit-identical.
  const std::vector<double> expected = direct.GetQuantiles("reactor.eq", qs);

  ScopedFd raw = RawConnect(/*rcvbuf_bytes=*/4096);
  Request request;
  request.op = Opcode::kQuantiles;
  request.metric = "reactor.eq";
  request.values = qs;
  std::vector<uint8_t> wire;
  AppendFrame(&wire, EncodeRequest(request));
  ASSERT_TRUE(SendAll(raw.get(), wire.data(), wire.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(direct.Ping(), kProtocolVersion);  // worker not blocked

  FrameDecoder decoder;
  const std::vector<uint8_t> payload =
      ReadFramePayload(raw.get(), &decoder);
  const Response response = ParseResponse(Opcode::kQuantiles, payload);
  ASSERT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.values, expected);
}

// --- backpressure: the outbound cap pauses reads ----------------------------

TEST_F(ServiceReactorTest, OutboundCapPausesReadsUntilThePeerReads) {
  ReqdServerConfig config;
  config.workers = 1;  // the paused peer shares its worker with the rest
  StartServer(config);
  ReqClient direct = ConnectDirect();
  MetricSpec spec;
  spec.base.k_base = 64;
  direct.Create("reactor.cap", spec);
  direct.Append("reactor.cap", Stream(41, 50000));

  // 64 CDF frames of 64k split points, each frame's splits scaled a little
  // differently: 32 MiB of distinct answers, far past the 8 MiB cap plus
  // what the socket buffers hold.
  constexpr size_t kFrames = 64;
  constexpr size_t kSplits = (size_t{1} << 16) - 1;
  constexpr size_t kCapFrames = (size_t{8} << 20) / ((kSplits + 1) * 8);
  std::vector<std::vector<uint8_t>> frames(kFrames);
  for (size_t f = 0; f < kFrames; ++f) {
    Request request;
    request.op = Opcode::kCdf;
    request.metric = "reactor.cap";
    request.values.resize(kSplits);
    for (size_t i = 0; i < kSplits; ++i) {
      request.values[i] = static_cast<double>(i + 1) * 15.0 *
                          (1.0 - 0.001 * static_cast<double>(f));
    }
    AppendFrame(&frames[f], EncodeRequest(request));
  }
  // Reference answers: one round trip per frame on a healthy peer.
  std::vector<std::vector<uint8_t>> expected(kFrames);
  {
    ScopedFd healthy = RawConnect();
    FrameDecoder decoder;
    for (size_t f = 0; f < kFrames; ++f) {
      ASSERT_TRUE(SendAll(healthy.get(), frames[f].data(), frames[f].size()));
      expected[f] = ReadFramePayload(healthy.get(), &decoder);
    }
  }

  // The stalled peer pipelines every frame from a thread of its own: once
  // its reads pause, the server stops draining its socket and the send
  // blocks until the peer reads.
  const uint64_t base = server_->FramesServed();
  ScopedFd raw = RawConnect();
  std::atomic<bool> sent_all{false};
  std::thread sender([&] {
    for (const std::vector<uint8_t>& frame : frames) {
      if (!SendAll(raw.get(), frame.data(), frame.size())) return;
    }
    sent_all.store(true);
  });
  // Paused: at least the cap's worth of answers is queued and the count
  // holds still across half a second, short of every frame.
  uint64_t last = 0;
  EXPECT_TRUE(WaitFor([&] {
    const uint64_t served = server_->FramesServed() - base;
    const bool held = served == last && served >= kCapFrames;
    last = served;
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    return held;
  }));
  const uint64_t stalled = server_->FramesServed() - base;
  EXPECT_LT(stalled, kFrames);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(server_->FramesServed() - base, stalled);
  EXPECT_EQ(direct.Ping(), kProtocolVersion);  // the worker still serves

  // Reading resumes the flow: every answer arrives, in order, byte for
  // byte as the healthy peer got it.
  FrameDecoder decoder;
  for (size_t f = 0; f < kFrames; ++f) {
    const std::vector<uint8_t> payload = ReadFramePayload(raw.get(), &decoder);
    EXPECT_TRUE(payload == expected[f]) << "answer " << f;
  }
  sender.join();
  EXPECT_TRUE(sent_all.load());
  EXPECT_EQ(server_->FramesServed() - base, kFrames + 1);  // + the PING
}

// --- send timeout: the outbound side of slow-loris --------------------------

TEST_F(ServiceReactorTest, WriteStalledPeerReapedAtSendTimeout) {
  ReqdServerConfig config;
  config.send_timeout_ms = 300;
  StartServer(config);
  ReqClient direct = ConnectDirect();
  MetricSpec spec;
  spec.base.k_base = 64;
  direct.Create("reactor.stall", spec);
  direct.Append("reactor.stall", Stream(31, 50000));

  // 768k points -> a ~6 MiB response: bigger than tcp_wmem's 4 MiB
  // autotune ceiling PLUS the shrunken receive window, so the flush
  // cannot complete until the peer actually reads.
  std::vector<double> qs(3 << 18);
  for (size_t i = 0; i < qs.size(); ++i) {
    qs[i] = static_cast<double>(i) / static_cast<double>(qs.size() - 1);
  }
  ScopedFd raw = RawConnect(/*rcvbuf_bytes=*/4096);
  Request request;
  request.op = Opcode::kQuantiles;
  request.metric = "reactor.stall";
  request.values = qs;
  std::vector<uint8_t> wire;
  AppendFrame(&wire, EncodeRequest(request));
  ASSERT_TRUE(SendAll(raw.get(), wire.data(), wire.size()));
  // ... and never read a byte. The write deadline must fire and free
  // the connection's buffers; the bystander is untouched.
  EXPECT_TRUE(WaitFor([&] {
    EXPECT_EQ(direct.Ping(), kProtocolVersion);
    return server_->LiveConnections() == 1;
  }));
  // The INBOUND stream was clean, so this is not an aborted upload, and
  // no idle reaping was configured -- the books must say so.
  EXPECT_EQ(server_->AbortedPartialFrames(), 0u);
  EXPECT_EQ(server_->IdleReaped(), 0u);
}

// --- drain: every worker answers its in-flight frames -----------------------

TEST_F(ServiceReactorTest, DrainAnswersInFlightFramesOnEveryWorker) {
  ReqdServerConfig config;
  config.workers = 4;
  StartServer(config);
  ASSERT_EQ(server_->WorkerCount(), 4u);
  {
    ReqClient setup = ConnectDirect();
    MetricSpec spec;
    spec.base.k_base = 64;
    setup.Create("reactor.drain", spec);
  }  // closed: the drain below must not wait on an idle library client

  // Eight raw connections -> round-robin puts two on every worker; each
  // sends one APPEND frame and does NOT read, so when Drain() begins
  // every worker holds in-flight work.
  constexpr size_t kConns = 8;
  constexpr size_t kItems = 64;
  std::vector<ScopedFd> raws;
  for (size_t i = 0; i < kConns; ++i) {
    raws.push_back(RawConnect());
    ASSERT_TRUE(raws.back().valid());
  }
  // connect() returns on handshake; every conn must be ACCEPTED (and so
  // worker-owned) before draining starts, or a late accept would be
  // shed with kOverloaded instead of carrying in-flight work.
  ASSERT_TRUE(WaitFor(
      [&] { return server_->ConnectionsAccepted() == kConns + 1; }));
  for (size_t i = 0; i < kConns; ++i) {
    Request append;
    append.op = Opcode::kAppend;
    append.metric = "reactor.drain";
    append.values = Stream(100 + i, kItems);
    std::vector<uint8_t> frame;
    AppendFrame(&frame, EncodeRequest(append));
    ASSERT_TRUE(SendAll(raws[i].get(), frame.data(), frame.size()));
  }

  server_->Drain(/*timeout_ms=*/10000);
  EXPECT_FALSE(server_->running());
  EXPECT_EQ(server_->LiveConnections(), 0u);

  // Every socket must hold exactly: one kOk APPEND ack, then EOF.
  // Acks arrive in apply order, so each acked total is a multiple of
  // the batch size within [64, 512] -- and all eight are distinct.
  std::vector<uint64_t> acked;
  for (size_t i = 0; i < kConns; ++i) {
    FrameDecoder decoder;
    const std::vector<uint8_t> payload =
        ReadFramePayload(raws[i].get(), &decoder);
    const Response response = ParseResponse(Opcode::kAppend, payload);
    EXPECT_EQ(response.status, Status::kOk) << "conn " << i;
    EXPECT_EQ(response.n % kItems, 0u);
    EXPECT_GE(response.n, kItems);
    EXPECT_LE(response.n, kConns * kItems);
    acked.push_back(response.n);
    uint8_t extra = 0;
    EXPECT_EQ(RecvSome(raws[i].get(), &extra, 1), 0)
        << "conn " << i << " got bytes after its ack";
  }
  std::sort(acked.begin(), acked.end());
  for (size_t i = 0; i < kConns; ++i) {
    EXPECT_EQ(acked[i], (i + 1) * kItems);  // all eight applied, once each
  }
  EXPECT_EQ(server_->ConnectionsAccepted(), kConns + 1);
  server_.reset();  // TearDown's Stop would be a no-op; keep it simple
}

// --- stop vs. accept storm --------------------------------------------------

TEST_F(ServiceReactorTest, StopRacesAcceptStorm) {
  StartServer();
  const uint16_t port = server_->port();
  std::atomic<bool> halt{false};
  std::atomic<size_t> dialed{0};
  std::thread storm([&] {
    while (!halt.load(std::memory_order_acquire)) {
      ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
      if (!fd.valid()) break;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr = ParseIPv4("127.0.0.1");
      addr.sin_port = htons(port);
      if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        dialed.fetch_add(1);
      }
      // fd closes here: the server sees an instant EOF -- the nastiest
      // adoption-time race on offer.
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->Stop();
  halt.store(true, std::memory_order_release);
  storm.join();
  EXPECT_GT(dialed.load(), 0u);
  EXPECT_EQ(server_->LiveConnections(), 0u);
  EXPECT_FALSE(server_->running());
  // Stop() is terminal for the accept socket: later dials are refused.
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = ParseIPv4("127.0.0.1");
  addr.sin_port = htons(port);
  EXPECT_NE(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
}

// --- satellites: encoder equivalence, flags, backlog ------------------------

TEST(AppendResponseFrameTest, MatchesEncodeThenAppendByteForByte) {
  std::vector<std::pair<Opcode, Response>> cases;
  {
    Response r;
    r.protocol_version = kProtocolVersion;
    cases.emplace_back(Opcode::kPing, r);
  }
  {
    Response r;
    r.n = 123456789;
    cases.emplace_back(Opcode::kAppend, r);
  }
  {
    Response r;
    r.status = Status::kOverloaded;
    r.error = "connection cap reached";
    cases.emplace_back(Opcode::kPing, r);
  }
  {
    Response r;
    r.values = Stream(41, 1000);
    cases.emplace_back(Opcode::kQuantiles, r);
  }
  {
    Response r;
    r.stats = {{"connections", 7}, {"frames", 99}};
    cases.emplace_back(Opcode::kStats, r);
  }
  for (const auto& [op, response] : cases) {
    std::vector<uint8_t> expected;
    AppendFrame(&expected, EncodeResponse(op, response));
    std::vector<uint8_t> got;
    AppendResponseFrame(op, response, &got);
    EXPECT_EQ(got, expected);
  }

  // Reuse contract: appending into a non-empty buffer preserves the
  // prefix and concatenates -- a worker encodes a whole delivery batch
  // into one connection-owned buffer.
  std::vector<uint8_t> batch = {0xAA, 0xBB};
  std::vector<uint8_t> expected = batch;
  for (const auto& [op, response] : cases) {
    AppendResponseFrame(op, response, &batch);
    AppendFrame(&expected, EncodeResponse(op, response));
  }
  EXPECT_EQ(batch, expected);
}

TEST(ServerFlagsTest, ParsesTheFullTable) {
  const char* argv[] = {
      "prog", "--bind", "0.0.0.0", "--port", "7072", "--workers", "3",
      "--backlog", "77", "--max-connections", "10", "--idle-timeout-ms",
      "5", "--request-budget-ms", "6", "--max-metrics", "2", "--create",
      "m1:windowed:128", "--evict-idle-ms", "9",
  };
  ServerFlags flags;
  std::string error;
  ASSERT_TRUE(ParseServerFlags(
      static_cast<int>(sizeof(argv) / sizeof(argv[0])),
      const_cast<char* const*>(argv), &flags, &error))
      << error;
  EXPECT_EQ(flags.server.bind_address, "0.0.0.0");
  EXPECT_EQ(flags.server.port, 7072);
  EXPECT_EQ(flags.server.workers, 3u);
  EXPECT_EQ(flags.server.backlog, 77);
  EXPECT_EQ(flags.server.max_connections, 10u);
  EXPECT_EQ(flags.server.idle_timeout_ms, 5u);
  EXPECT_EQ(flags.server.request_budget_ms, 6u);
  EXPECT_EQ(flags.max_metrics, 2u);
  EXPECT_EQ(flags.evict_idle_ms, 9u);
  ASSERT_EQ(flags.precreate.size(), 1u);
  EXPECT_EQ(flags.precreate[0].first, "m1");
  EXPECT_EQ(flags.precreate[0].second.kind, EngineKind::kWindowed);
  EXPECT_EQ(flags.precreate[0].second.base.k_base, 128u);
}

TEST(ServerFlagsTest, RejectsOutOfRangeAndGarbage) {
  const std::vector<std::vector<const char*>> bad = {
      {"prog", "--port", "70000"},
      {"prog", "--port", "12x"},
      {"prog", "--backlog", "65536"},
      {"prog", "--workers", "65537"},
      {"prog", "--create", "noname"},
      {"prog", "--create", "m1:sharded:128"},  // retired kind
      {"prog", "--fsync", "sometimes"},
      {"prog", "--checkpoint-bytes", "0"},
      {"prog", "--totally-unknown"},
  };
  for (const auto& argv : bad) {
    ServerFlags flags;
    std::string error;
    EXPECT_FALSE(ParseServerFlags(
        static_cast<int>(argv.size()),
        const_cast<char* const*>(argv.data()), &flags, &error))
        << argv.back() << " should have been rejected";
    EXPECT_FALSE(error.empty());
  }
}

TEST(ServerFlagsTest, RoutesUnknownFlagsToTheCaller) {
  const char* argv[] = {"prog", "--workers", "2", "--smoke",
                       "--out",  "x.json"};
  ServerFlags flags;
  std::string error;
  std::vector<std::string> rest;
  ASSERT_TRUE(ParseServerFlags(
      static_cast<int>(sizeof(argv) / sizeof(argv[0])),
      const_cast<char* const*>(argv), &flags, &error, &rest));
  EXPECT_EQ(flags.server.workers, 2u);
  EXPECT_EQ(rest, (std::vector<std::string>{"--smoke", "--out", "x.json"}));
}

TEST(ReactorConfigTest, BacklogAutoScalesWithConnectionCap) {
  ReqdServerConfig config;
  EXPECT_EQ(ReqdServer::EffectiveBacklog(config), 1024);  // floor
  config.max_connections = 5000;
  EXPECT_EQ(ReqdServer::EffectiveBacklog(config), 5000);
  config.max_connections = 200000;
  EXPECT_EQ(ReqdServer::EffectiveBacklog(config), 65535);  // ceiling
  config.backlog = 7;  // explicit wins over auto
  EXPECT_EQ(ReqdServer::EffectiveBacklog(config), 7);
  config.workers = 5;
  EXPECT_EQ(ReqdServer::EffectiveWorkers(config), 5u);
  config.workers = 0;
  EXPECT_GE(ReqdServer::EffectiveWorkers(config), 1u);
}

}  // namespace
}  // namespace service
}  // namespace req
