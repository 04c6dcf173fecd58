// Hostile-network end-to-end suite: a live ReqdServer behind a
// ChaosProxy, driven through ReqClient -- every injected fault class
// (latency, throttle, reset, torn send, blackhole, connect refusal) must
// end in a bounded-time TYPED outcome: an exception type or status the
// caller can act on, never a hang (each scenario asserts a hard
// wall-clock bound) and never a desynced stream. Also covers the
// server-side hardening the faults exist to exercise: slow-loris idle
// reaping, overload shedding at the connection cap, per-request budgets,
// the never-accepting-socket connect deadline, and -- with chaos
// overlapping durability -- the recovered_n >= acked_n invariant with a
// byte-identical recovered snapshot.
//
// Determinism: every fault is a seeded byte threshold or a fixed delay
// (see chaos_proxy.h); the only nondeterminism is scheduling, and every
// wait below is a bounded poll on an observable counter, not a sleep.
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "persist/durability.h"
#include "service/chaos_proxy.h"
#include "service/req_client.h"
#include "service/reqd_server.h"
#include "service/sketch_registry.h"
#include "service/socket_util.h"
#include "service/wire_protocol.h"
#include "util/random.h"

namespace req {
namespace service {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Bounded poll for an observable condition: the suite's replacement for
// sleeps. Sanitizer builds run everything slower, so bounds are generous
// -- they catch hangs, not regressions in speed.
bool WaitFor(const std::function<bool()>& cond, double timeout_s = 10.0) {
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

class ServiceChaosTest : public ::testing::Test {
 protected:
  void StartServer(const ReqdServerConfig& config = {}) {
    server_ = std::make_unique<ReqdServer>(&registry_, config);
    server_->Start();
  }

  void StartProxy(const ChaosConfig& config = {}) {
    proxy_ = std::make_unique<ChaosProxy>("127.0.0.1", server_->port(),
                                          config);
    proxy_->Start();
  }

  void TearDown() override {
    if (proxy_) proxy_->Stop();
    if (server_) {
      server_->Stop();
      // No-thread-leak check: Stop() joined every connection thread, so
      // the live table must be empty no matter what the test injected.
      EXPECT_EQ(server_->LiveConnections(), 0u);
    }
    if (proxy_) {
      EXPECT_EQ(proxy_->LiveConnections(), 0u);
    }
  }

  // Deadlines tight enough that every blocked operation through the
  // proxy resolves well inside the test bounds.
  static ClientOptions ProxyOptions(uint64_t request_timeout_ms = 2000) {
    ClientOptions options;
    options.deadlines.connect_timeout_ms = 2000;
    options.deadlines.request_timeout_ms = request_timeout_ms;
    return options;
  }

  // A client dialed through the proxy.
  ReqClient ConnectViaProxy(uint64_t request_timeout_ms = 2000) {
    return ConnectViaProxy(ProxyOptions(request_timeout_ms));
  }
  ReqClient ConnectViaProxy(const ClientOptions& options) {
    ReqClient client;
    client.Connect("127.0.0.1", proxy_->port(), options);
    return client;
  }

  ReqClient ConnectDirect() {
    ReqClient client;
    client.Connect("127.0.0.1", server_->port());
    return client;
  }

  void CreateMetric(ReqClient* client, const std::string& name,
                    uint32_t k_base = 64) {
    MetricSpec spec;
    spec.base.k_base = k_base;
    spec.base.seed = 0xc4a05;
    client->Create(name, spec);
  }

  SketchRegistry registry_;
  std::unique_ptr<ReqdServer> server_;
  std::unique_ptr<ChaosProxy> proxy_;
};

// --- clean passthrough ------------------------------------------------------

TEST_F(ServiceChaosTest, CleanProxyIsTransparent) {
  StartServer();
  StartProxy();
  ReqClient via = ConnectViaProxy();
  ReqClient direct = ConnectDirect();
  EXPECT_EQ(via.Ping(), kProtocolVersion);
  CreateMetric(&via, "clean.m");
  const std::vector<double> stream = Stream(1, 20000);
  EXPECT_EQ(via.Append("clean.m", stream), stream.size());
  // Served answers must be identical through the proxy and around it:
  // a faultless chaos link is byte-transparent.
  const std::vector<double> qs = {0.01, 0.5, 0.99};
  EXPECT_EQ(via.GetQuantiles("clean.m", qs),
            direct.GetQuantiles("clean.m", qs));
  EXPECT_EQ(via.Snapshot("clean.m"), direct.Snapshot("clean.m"));
  EXPECT_GT(proxy_->BytesUp(), 0u);
  EXPECT_GT(proxy_->BytesDown(), 0u);
  EXPECT_EQ(proxy_->Resets(), 0u);
  // Winding the client down releases the relay: no connection leak.
  via.Close();
  EXPECT_TRUE(WaitFor([&] { return proxy_->LiveConnections() == 0; }));
}

TEST_F(ServiceChaosTest, LatencyAndJitterDelayButNeverBreak) {
  StartServer();
  ChaosConfig chaos;
  chaos.seed = 7;
  chaos.up.latency_ms = 10;
  chaos.up.jitter_ms = 10;
  chaos.down.latency_ms = 10;
  StartProxy(chaos);
  ReqClient via = ConnectViaProxy(/*request_timeout_ms=*/5000);
  CreateMetric(&via, "slow.m");
  const auto start = Clock::now();
  const std::vector<double> stream = Stream(2, 512);
  EXPECT_EQ(via.Append("slow.m", stream), stream.size());
  EXPECT_EQ(via.GetQuantiles("slow.m", {0.5}).size(), 1u);
  // >= 2 round trips x >= 20ms injected each way; and bounded above.
  EXPECT_GE(via.LastRttUs(), 20000u);
  EXPECT_LT(SecondsSince(start), 10.0);
}

TEST_F(ServiceChaosTest, ThrottledLinkHitsClientDeadlineNotForever) {
  StartServer();
  ChaosConfig chaos;
  chaos.up.bytes_per_sec = 4096;  // a 256 KiB append would take ~64s
  StartProxy(chaos);
  ReqClient via = ConnectViaProxy(/*request_timeout_ms=*/300);
  CreateMetric(&via, "throttle.m");
  const std::vector<double> big = Stream(3, 32768);  // 256 KiB payload
  const auto start = Clock::now();
  EXPECT_THROW(via.Append("throttle.m", big), DeadlineExceededError);
  // The deadline, not the throttle, decides when the client gets out.
  EXPECT_LT(SecondsSince(start), 5.0);
  EXPECT_EQ(via.DeadlineTimeouts(), 1u);
  EXPECT_FALSE(via.connected());  // timed-out stream is desynced: closed
}

// --- resets and torn sends --------------------------------------------------

TEST_F(ServiceChaosTest, MidFrameResetIsTypedAndCounted) {
  StartServer();
  ChaosConfig chaos;
  // The relay forwards 16 KiB chunks and a reset passes NOTHING of the
  // crossing chunk, so 24 KiB guarantees exactly one full chunk of the
  // append reaches the server first: a guaranteed mid-frame cut.
  chaos.up.reset_after_bytes = 24 * 1024;
  StartProxy(chaos);
  ReqClient via = ConnectViaProxy();
  CreateMetric(&via, "reset.m");
  const std::vector<double> big = Stream(4, 32768);  // 256 KiB: crosses
  const auto start = Clock::now();
  try {
    via.Append("reset.m", big);
    FAIL() << "append through a resetting link must not succeed";
  } catch (const ServiceError&) {
    FAIL() << "reset must surface as a transport error, not a status";
  } catch (const std::runtime_error&) {
    // Typed transport loss: the caller reconciles via Flush (see the
    // durability scenario below).
  }
  EXPECT_LT(SecondsSince(start), 5.0);
  EXPECT_EQ(proxy_->Resets(), 1u);
  // The server saw a mid-frame disconnect, counted, and kept running.
  EXPECT_TRUE(
      WaitFor([&] { return server_->AbortedPartialFrames() >= 1; }));
  ReqClient direct = ConnectDirect();
  EXPECT_EQ(direct.Ping(), kProtocolVersion);
}

TEST_F(ServiceChaosTest, TornSendLeavesServerInSyncForOthers) {
  StartServer();
  ChaosConfig chaos;
  // Forward a strict prefix: the server holds a frame cut mid-payload.
  chaos.up.torn_after_bytes = 1000;
  StartProxy(chaos);
  ReqClient via = ConnectViaProxy();
  CreateMetric(&via, "torn.m");  // small frame: passes under the limit
  const std::vector<double> big = Stream(5, 4096);
  EXPECT_THROW(via.Append("torn.m", big), std::runtime_error);
  EXPECT_EQ(proxy_->TornSends(), 1u);
  EXPECT_TRUE(
      WaitFor([&] { return server_->AbortedPartialFrames() >= 1; }));
  // The torn bytes died with their connection; fresh connections see a
  // server whose framing never desynced, and none of the torn append's
  // items were applied (the frame never completed).
  ReqClient direct = ConnectDirect();
  EXPECT_EQ(direct.Flush("torn.m"), 0u);
}

// --- blackhole / stall ------------------------------------------------------

TEST_F(ServiceChaosTest, BlackholeBoundedByDeadlineThenHeals) {
  StartServer();
  ChaosConfig chaos;
  // Small enough that the ping frame (5 bytes) passes whole and the
  // create behind it crosses into the hole.
  chaos.up.blackhole_after_bytes = 8;
  StartProxy(chaos);
  ClientOptions options = ProxyOptions(/*request_timeout_ms=*/300);
  options.reconnect_enabled = true;
  ReqClient via = ConnectViaProxy(options);
  const auto start = Clock::now();
  // Ping (tiny) passes; the create request crosses the threshold and
  // vanishes into the blackhole. The sockets stay open -- only the
  // client's own deadline gets it out.
  EXPECT_EQ(via.Ping(), kProtocolVersion);
  try {
    CreateMetric(&via, "hole.m");
    FAIL() << "blackholed request must not complete";
  } catch (const DeadlineExceededError&) {
    // Create is not idempotent: one typed timeout, no silent re-send.
  }
  EXPECT_LT(SecondsSince(start), 5.0);
  EXPECT_GE(proxy_->Blackholed(), 1u);
  // Heal the link; the armed reconnect redials through the now-clean
  // proxy and the client works again -- recovery, not just failure.
  proxy_->set_config(ChaosConfig{});
  EXPECT_EQ(via.Ping(), kProtocolVersion);
}

// --- connect-time faults ----------------------------------------------------

TEST_F(ServiceChaosTest, RefusedConnectsFailFastThenRecover) {
  StartServer();
  ChaosConfig chaos;
  chaos.refuse_first = 1;  // first connection dies, the next behaves
  StartProxy(chaos);
  ReqClient via;
  ClientOptions options = ProxyOptions();
  options.reconnect_enabled = true;
  const auto start = Clock::now();
  // The TCP handshake may complete before the RST lands, so the refusal
  // surfaces either at Connect or on the first round trip -- both typed,
  // both fast.
  try {
    via.Connect("127.0.0.1", proxy_->port(), options);
    EXPECT_EQ(via.Ping(), kProtocolVersion);  // redials past the refusal
  } catch (const std::runtime_error&) {
    via.Close();
    via.Connect("127.0.0.1", proxy_->port());
    EXPECT_EQ(via.Ping(), kProtocolVersion);
  }
  EXPECT_LT(SecondsSince(start), 10.0);
  EXPECT_EQ(proxy_->Refused(), 1u);
}

// Satellite regression: Connect() against a listener that never calls
// accept() -- with its backlog already saturated, SYNs get dropped and a
// blocking connect would ride the kernel's minutes-long retry schedule.
// The client's connect deadline must fire instead.
TEST_F(ServiceChaosTest, ConnectDeadlineFiresOnNeverAcceptingSocket) {
  ScopedFd listener(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(listener.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = ParseIPv4("127.0.0.1");
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener.get(), /*backlog=*/1), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ASSERT_EQ(::getsockname(listener.get(),
                          reinterpret_cast<sockaddr*>(&bound), &len),
            0);
  addr.sin_port = bound.sin_port;
  // Saturate the accept queue with connects nobody will ever serve
  // (non-blocking: the saturating sockets themselves must not hang).
  std::vector<ScopedFd> backlog_fill;
  for (int i = 0; i < 16; ++i) {
    ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    ASSERT_TRUE(fd.valid());
    const int flags = ::fcntl(fd.get(), F_GETFL, 0);
    ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);
    ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    backlog_fill.push_back(std::move(fd));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ReqClient client;
  ClientOptions options;
  options.deadlines.connect_timeout_ms = 250;
  const auto start = Clock::now();
  try {
    client.Connect("127.0.0.1", ntohs(bound.sin_port), options);
    // A connect that squeezed into the queue is acceptable -- the point
    // is the bound, proven below either way.
  } catch (const std::runtime_error&) {
    // Deadline or refusal: typed, and fast.
  }
  EXPECT_LT(SecondsSince(start), 5.0);
}

// --- slow loris + idle reaping ----------------------------------------------

TEST_F(ServiceChaosTest, SlowLorisIsReapedWithoutCollateral) {
  ReqdServerConfig config;
  config.idle_timeout_ms = 200;
  StartServer(config);
  // The loris: a raw connection that sends a 4-byte length prefix
  // promising a frame, then stalls forever.
  ScopedFd loris(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(loris.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = ParseIPv4("127.0.0.1");
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::connect(loris.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const uint32_t promised = 100;
  ASSERT_TRUE(SendAll(loris.get(),
                      reinterpret_cast<const uint8_t*>(&promised),
                      sizeof(promised)));
  // A well-behaved client sharing the server must never notice. It
  // keeps chatting through the whole reap window, which both proves it
  // is being served and re-arms its own idle clock.
  ReqClient direct = ConnectDirect();
  CreateMetric(&direct, "loris.bystander");
  EXPECT_TRUE(WaitFor([&] {
    EXPECT_EQ(direct.Ping(), kProtocolVersion);
    return server_->IdleReaped() >= 1;
  }));
  EXPECT_GE(server_->AbortedPartialFrames(), 1u);
  EXPECT_EQ(direct.Append("loris.bystander", Stream(6, 100)), 100u);
  // Only the stalled connection was reaped.
  EXPECT_EQ(server_->IdleReaped(), 1u);
}

// --- overload shedding ------------------------------------------------------

TEST_F(ServiceChaosTest, CapSaturatedServerAnswersOverloadedFast) {
  ReqdServerConfig config;
  config.max_connections = 2;
  StartServer(config);
  StartProxy();
  ReqClient a = ConnectDirect();
  ReqClient b = ConnectDirect();
  // Round trips prove both connections are registered server-side
  // before the third dial -- no accept-ordering race.
  EXPECT_EQ(a.Ping(), kProtocolVersion);
  EXPECT_EQ(b.Ping(), kProtocolVersion);

  ReqClient shed = ConnectViaProxy(/*request_timeout_ms=*/2000);
  const auto start = Clock::now();
  try {
    shed.Ping();
    FAIL() << "a cap-saturated server must shed, not serve";
  } catch (const OverloadedError&) {
    // The acceptance bound: typed kOverloaded within the request
    // deadline, never a silent hang in the backlog.
  }
  EXPECT_LT(SecondsSince(start), 2.5);
  EXPECT_GE(server_->ShedConnections(), 1u);
  EXPECT_EQ(shed.OverloadedAnswers(), 1u);
  // In-cap clients were never disturbed.
  EXPECT_EQ(a.Ping(), kProtocolVersion);
}

TEST_F(ServiceChaosTest, OverloadedRetryBacksOffIntoFreedSlot) {
  ReqdServerConfig config;
  config.max_connections = 1;
  StartServer(config);
  StartProxy();
  ReqClient holder = ConnectDirect();
  EXPECT_EQ(holder.Ping(), kProtocolVersion);

  ClientOptions options = ProxyOptions();
  options.reconnect_enabled = true;
  options.deadlines.retry_budget_ms = 8000;
  options.deadlines.overloaded_backoff_ms = 20;
  ReqClient waiter = ConnectViaProxy(options);
  // Free the slot while the waiter is mid-backoff: its retry must land.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    holder.Close();
  });
  const auto start = Clock::now();
  EXPECT_EQ(waiter.Ping(), kProtocolVersion);
  releaser.join();
  EXPECT_LT(SecondsSince(start), 9.0);
  // It was shed at least once and never hot-retried: each redial cost a
  // backoff sleep first.
  EXPECT_GE(waiter.OverloadedAnswers(), 1u);
  EXPECT_GE(server_->ShedConnections(), 1u);
}

// --- per-request budget -----------------------------------------------------

TEST_F(ServiceChaosTest, PipelinedFramesInheritBatchArrivalBudget) {
  ReqdServerConfig config;
  config.request_budget_ms = 1;
  StartServer(config);
  ReqClient setup = ConnectDirect();
  CreateMetric(&setup, "budget.m");

  // Raw pipelining: one send carrying a frame whose dispatch outlasts
  // the 1ms budget (a 16 MiB append) with a ping queued behind it. Both
  // decode from the same arrival batch, so the ping's budget is already
  // spent when its turn comes.
  ScopedFd raw(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(raw.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = ParseIPv4("127.0.0.1");
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::connect(raw.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  Request append;
  append.op = Opcode::kAppend;
  append.metric = "budget.m";
  append.values = Stream(7, 2 * 1024 * 1024);
  Request ping;
  ping.op = Opcode::kPing;
  std::vector<uint8_t> wire;
  AppendFrame(&wire, EncodeRequest(append));
  AppendFrame(&wire, EncodeRequest(ping));
  ASSERT_TRUE(SendAll(raw.get(), wire.data(), wire.size()));

  // Read both responses off the raw socket.
  FrameDecoder decoder;
  std::vector<std::vector<uint8_t>> payloads;
  uint8_t chunk[1 << 16];
  const auto start = Clock::now();
  while (payloads.size() < 2) {
    ASSERT_LT(SecondsSince(start), 30.0) << "responses never arrived";
    std::vector<uint8_t> payload;
    if (decoder.Next(&payload)) {
      payloads.push_back(std::move(payload));
      continue;
    }
    const ssize_t got = RecvSome(raw.get(), chunk, sizeof(chunk));
    ASSERT_GT(got, 0);
    decoder.Feed(chunk, static_cast<size_t>(got));
  }
  // The giant append itself may land on either side of the 1ms budget
  // (its parse alone bills against it) -- both outcomes are legal, but
  // each must keep accounting EXACT: applied => kOk acking the full
  // count (a mutation is never answered kDeadlineExceeded after the
  // fact), shed-before-dispatch => zero items applied.
  const Response first = ParseResponse(Opcode::kAppend, payloads[0]);
  if (first.status == Status::kOk) {
    EXPECT_EQ(first.n, append.values.size());
  } else {
    EXPECT_EQ(first.status, Status::kDeadlineExceeded);
  }
  // The queued ping DETERMINISTICALLY inherited the spent budget: the
  // 16 MiB frame ahead of it burned far more than 1ms either way.
  const Response shed = ParseResponse(Opcode::kPing, payloads[1]);
  EXPECT_EQ(shed.status, Status::kDeadlineExceeded);
  EXPECT_GE(server_->DeadlineExceededCount(), 1u);
  // Exactness: what the server said happened is what happened.
  const uint64_t durable_n = setup.Flush("budget.m");
  EXPECT_EQ(durable_n,
            first.status == Status::kOk ? append.values.size() : 0u);
}

// --- kStats over the wire ---------------------------------------------------

TEST_F(ServiceChaosTest, StatsExposeDegradationCounters) {
  ReqdServerConfig config;
  config.idle_timeout_ms = 60000;  // armed but never firing here
  StartServer(config);
  ReqClient direct = ConnectDirect();
  CreateMetric(&direct, "stats.m");
  direct.Append("stats.m", Stream(8, 64));

  const std::vector<std::pair<std::string, uint64_t>> stats =
      direct.Stats();
  auto value_of = [&](const std::string& key) -> uint64_t {
    for (const auto& [k, v] : stats) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "missing stats key: " << key;
    return 0;
  };
  EXPECT_GE(value_of("connections_accepted"), 1u);
  EXPECT_GE(value_of("live_connections"), 1u);
  // The counter ticks after each frame completes, so at the moment the
  // STATS frame is being served it has counted create + append.
  EXPECT_GE(value_of("frames_served"), 2u);
  EXPECT_EQ(value_of("metrics"), 1u);
  EXPECT_EQ(value_of("shed_connections"), 0u);
  EXPECT_EQ(value_of("deadline_exceeded"), 0u);
  EXPECT_EQ(value_of("idle_reaped"), 0u);
  EXPECT_EQ(value_of("accept_failures"), 0u);
  EXPECT_EQ(value_of("draining"), 0u);
}

// --- graceful drain ---------------------------------------------------------

TEST_F(ServiceChaosTest, DrainAnswersInFlightThenClosesAndSheds) {
  StartServer();
  ReqClient before = ConnectDirect();
  CreateMetric(&before, "drain.m");
  EXPECT_EQ(before.Append("drain.m", Stream(9, 1000)), 1000u);
  const uint16_t port = server_->port();
  const auto start = Clock::now();
  server_->Drain(/*timeout_ms=*/5000);
  EXPECT_LT(SecondsSince(start), 8.0);
  EXPECT_FALSE(server_->running());
  EXPECT_EQ(server_->LiveConnections(), 0u);
  // The drained server is gone; a fresh dial must fail, not hang.
  ReqClient after;
  ClientOptions options;
  options.deadlines.connect_timeout_ms = 500;
  EXPECT_THROW(after.Connect("127.0.0.1", port, options),
               std::runtime_error);
}

// --- chaos x durability -----------------------------------------------------

// The headline invariant: every item the server ACKED before the network
// fell apart is recovered after a restart -- recovered_n >= acked_n --
// and the recovered sketch is byte-identical to a reference fed exactly
// the acked stream. Chaos here is periodic mid-frame resets; the client
// reconciles exactly the way req-cli --load does (Flush returns the
// durable accepted count; resume from there).
TEST_F(ServiceChaosTest, ResetsOverDurabilityNeverLoseAckedItems) {
  const std::string dir = ::testing::TempDir() + "req_chaos_durable_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  persist::DurabilityOptions options;
  options.fsync = persist::FsyncPolicy::kNever;

  const std::string metric = "chaos.durable";
  const std::vector<double> stream = Stream(10, 60000);
  const size_t batch = 2048;
  uint64_t acked_n = 0;

  {
    // Declaration order IS the destruction contract: the manager must
    // outlive the registry whose engines hold it as their hook, and the
    // server/proxy must go first of all (fixture members stay unused).
    persist::DurabilityManager manager(dir, options);
    SketchRegistry live;
    manager.RecoverInto(&live);
    ReqdServer server(&live, ReqdServerConfig{});
    server.Start();
    ChaosConfig chaos;
    chaos.seed = 99;
    chaos.up.reset_after_bytes = 96 * 1024;  // several resets per run
    ChaosProxy proxy("127.0.0.1", server.port(), chaos);
    proxy.Start();

    ReqClient via;
    ClientOptions options;
    options.deadlines.connect_timeout_ms = 2000;
    options.deadlines.request_timeout_ms = 5000;
    options.reconnect_enabled = true;
    via.Connect("127.0.0.1", proxy.port(), options);
    CreateMetric(&via, metric);
    size_t i = 0;
    const auto start = Clock::now();
    while (i < stream.size()) {
      ASSERT_LT(SecondsSince(start), 60.0) << "append loop hung";
      const size_t len = std::min(batch, stream.size() - i);
      try {
        acked_n = via.Append(metric, stream.data() + i, len);
        i += len;
        ASSERT_EQ(acked_n, i);
      } catch (const ServiceError&) {
        throw;  // a status answer would be a real bug here
      } catch (const std::runtime_error&) {
        // Mid-frame reset. Append is not idempotent: ask the server how
        // much it accepted and resume exactly there (Flush redials).
        acked_n = via.Flush(metric);
        i = static_cast<size_t>(acked_n);
      }
    }
    acked_n = via.Flush(metric);
    EXPECT_EQ(acked_n, stream.size());
    EXPECT_GE(proxy.Resets(), 1u) << "chaos never fired: raise bytes?";
    via.Close();
    proxy.Stop();
    server.Stop();
    EXPECT_EQ(server.LiveConnections(), 0u);
    EXPECT_EQ(proxy.LiveConnections(), 0u);
    // Simulate the crash: no final checkpoint, no graceful flush -- the
    // WAL alone must carry the acked items.
  }

  // Recover into a fresh registry and hold the invariant.
  persist::DurabilityManager manager(dir, options);
  SketchRegistry recovered;
  manager.RecoverInto(&recovered);
  SketchRegistry::EnginePtr engine = recovered.Require(metric);
  EXPECT_GE(engine->AcceptedN(), acked_n);
  EXPECT_EQ(engine->AcceptedN(), stream.size());

  // Byte-identical check: a reference engine fed the identical stream
  // in-process must serialize to the same bytes (plain engines are
  // deterministic; chaos + recovery must not perturb a single one).
  SketchRegistry reference;
  MetricSpec spec;
  spec.base.k_base = 64;
  spec.base.seed = 0xc4a05;
  reference.Create(metric, spec);
  SketchRegistry::EnginePtr ref_engine = reference.Require(metric);
  ref_engine->Append(stream.data(), stream.size());
  EXPECT_EQ(engine->Snapshot(), ref_engine->Snapshot());

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace service
}  // namespace req
