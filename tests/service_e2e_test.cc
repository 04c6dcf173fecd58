// Loopback end-to-end tests for the reqd service: a live ReqdServer on an
// ephemeral port, driven through the ReqClient library (the same code
// path req-cli uses).
//
// The headline test is the issue's acceptance scenario: 1M items appended
// across 4 metrics over TCP, with every served rank/quantile/CDF answer
// -- and the serialized snapshot bytes -- required to match an in-process
// ReqSketch fed the identical stream BIT-IDENTICALLY.
//
// The rest of the suite exercises the transport hardening: corrupt
// frames, truncated frames, oversized length prefixes (raw-socket writes,
// since the client library cannot be talked into sending garbage), the
// snapshot-blob corruption contract (reusing the serde_corruption
// pattern: round-trip or throw, never UB), and server lifecycle.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "gtest/gtest.h"
#include "service/req_client.h"
#include "service/reqd_server.h"
#include "service/sketch_registry.h"
#include "service/socket_util.h"
#include "service/wire_protocol.h"
#include "util/random.h"

namespace req {
namespace service {
namespace {

class ServiceE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ReqdServer>(&registry_);
    server_->Start();
  }
  void TearDown() override { server_->Stop(); }

  ReqClient Connect() {
    ReqClient client;
    client.Connect("127.0.0.1", server_->port());
    return client;
  }

  // A raw loopback connection for writing hostile bytes.
  ScopedFd RawConnect() {
    ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    EXPECT_TRUE(fd.valid());
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = ParseIPv4("127.0.0.1");
    addr.sin_port = htons(server_->port());
    EXPECT_EQ(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  SketchRegistry registry_;
  std::unique_ptr<ReqdServer> server_;
};

std::vector<double> Stream(uint64_t seed, size_t count) {
  util::Xoshiro256 rng(seed);
  std::vector<double> values(count);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

// --- the acceptance scenario ----------------------------------------------

TEST_F(ServiceE2ETest, MillionItemsAcrossFourMetricsBitIdentical) {
  constexpr size_t kMetrics = 4;
  constexpr size_t kItemsPerMetric = 250000;  // 1M total
  constexpr size_t kBatch = 4096;

  ReqClient client = Connect();
  EXPECT_EQ(client.Ping(), kProtocolVersion);

  std::vector<std::string> names;
  std::vector<ReqSketch<double>> references;
  for (size_t m = 0; m < kMetrics; ++m) {
    names.push_back("tenant" + std::to_string(m) + ".latency");
    MetricSpec spec;
    spec.base.k_base = 32 << m;  // 32, 64, 128, 256: distinct tenants
    spec.base.seed = 0xabc + m;
    client.Create(names[m], spec);
    references.emplace_back(spec.base);
  }

  // Interleave tenants batch by batch, as concurrent clients would.
  std::vector<std::vector<double>> streams;
  for (size_t m = 0; m < kMetrics; ++m) {
    streams.push_back(Stream(500 + m, kItemsPerMetric));
  }
  uint64_t expected_n = 0;
  for (size_t i = 0; i < kItemsPerMetric; i += kBatch) {
    const size_t len = std::min(kBatch, kItemsPerMetric - i);
    for (size_t m = 0; m < kMetrics; ++m) {
      const uint64_t n =
          client.Append(names[m], streams[m].data() + i, len);
      EXPECT_EQ(n, i + len);
      references[m].Update(streams[m].data() + i, len);
    }
    expected_n += len * kMetrics;
  }
  ASSERT_EQ(expected_n, uint64_t{1000000});

  const std::vector<double> qs = {0.0,  0.001, 0.01, 0.1,   0.5,
                                  0.9,  0.99,  0.999, 0.9999, 1.0};
  for (size_t m = 0; m < kMetrics; ++m) {
    // Quantiles: bit-identical doubles, not approximately equal.
    const std::vector<double> served = client.GetQuantiles(names[m], qs);
    const std::vector<double> expected = references[m].GetQuantiles(qs);
    ASSERT_EQ(served.size(), expected.size());
    for (size_t j = 0; j < qs.size(); ++j) {
      EXPECT_EQ(served[j], expected[j])
          << names[m] << " q=" << qs[j];
    }
    // Ranks and CDF through the same wire path.
    const std::vector<double> points = Stream(900 + m, 256);
    EXPECT_EQ(client.GetRanks(names[m], points),
              references[m].GetRanks(points));
    const std::vector<double> splits = {1e3, 1e4, 1e5, 5e5, 9.99e5};
    EXPECT_EQ(client.GetCDF(names[m], splits),
              references[m].GetCDF(splits));
    // Snapshot bytes: the served sketch IS the in-process sketch.
    const std::vector<uint8_t> blob = client.Snapshot(names[m]);
    ASSERT_EQ(SnapshotBlobKind(blob), EngineKind::kPlain);
    EXPECT_EQ(SnapshotBlobPayload(blob), SerializeSketch(references[m]));
  }

  // Directory reflects all four tenants.
  const std::vector<std::string> listed = client.List();
  ASSERT_EQ(listed.size(), kMetrics);
  for (const std::string& name : names) {
    EXPECT_NE(std::find(listed.begin(), listed.end(), name),
              listed.end());
  }
}

// --- concurrent tenants over real sockets ----------------------------------

TEST_F(ServiceE2ETest, ParallelClientsOnSeparateMetrics) {
  constexpr size_t kClients = 4;
  constexpr size_t kItems = 30000;
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &errors] {
      try {
        ReqClient client;
        client.Connect("127.0.0.1", server_->port());
        const std::string metric = "par" + std::to_string(c);
        MetricSpec spec;
        spec.kind = (c % 2 == 0) ? EngineKind::kPlain
                                 : EngineKind::kWindowed;
        client.Create(metric, spec);
        const std::vector<double> stream = Stream(c, kItems);
        for (size_t i = 0; i < kItems; i += 977) {
          client.Append(metric, stream.data() + i,
                        std::min<size_t>(977, kItems - i));
        }
        const uint64_t total =
            client.GetRanks(metric, {2e6})[0];  // above every item
        if (total != kItems) {
          errors[c] = "rank(max) = " + std::to_string(total);
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(errors[c], "") << "client " << c;
  }
}

// --- shared-metric appends over sockets ------------------------------------

TEST_F(ServiceE2ETest, ManyConnectionsOneMetric) {
  constexpr size_t kClients = 3;
  constexpr size_t kItems = 20000;
  {
    ReqClient admin = Connect();
    MetricSpec spec;
    admin.Create("shared", spec);
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c] {
      ReqClient client;
      client.Connect("127.0.0.1", server_->port());
      const std::vector<double> stream = Stream(70 + c, kItems);
      for (size_t i = 0; i < kItems; i += 1024) {
        client.Append("shared", stream.data() + i,
                      std::min<size_t>(1024, kItems - i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ReqClient client = Connect();
  EXPECT_EQ(client.Flush("shared"), kClients * kItems);
  EXPECT_EQ(client.GetRanks("shared", {2e6})[0], kClients * kItems);
}

// --- wire statuses ----------------------------------------------------------

TEST_F(ServiceE2ETest, StatusMapping) {
  ReqClient client = Connect();
  // Not found.
  try {
    client.GetQuantiles("nope", {0.5});
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status, Status::kNotFound);
  }
  // Exists.
  MetricSpec spec;
  client.Create("dup", spec);
  try {
    client.Create("dup", spec);
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status, Status::kExists);
  }
  // Bad request: quantile out of range, NaN append, empty-metric query.
  client.Append("dup", {1.0, 2.0});
  try {
    client.GetQuantiles("dup", {1.5});
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status, Status::kBadRequest);
  }
  try {
    client.Append("dup", {std::nan("")});
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status, Status::kBadRequest);
  }
  client.Create("empty", spec);
  try {
    client.GetRanks("empty", {1.0});
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status, Status::kBadRequest);
  }
  // Drop of a missing metric.
  try {
    client.Drop("never-created");
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status, Status::kNotFound);
  }
  // The connection survived every error above.
  EXPECT_EQ(client.Ping(), kProtocolVersion);
}

// --- transport hardening ----------------------------------------------------

// Reads one response frame off a raw socket; returns false on EOF.
bool ReadResponseFrame(int fd, std::vector<uint8_t>* payload) {
  FrameDecoder decoder;
  uint8_t chunk[4096];
  while (!decoder.Next(payload)) {
    const ssize_t got = RecvSome(fd, chunk, sizeof(chunk));
    if (got <= 0) return false;
    decoder.Feed(chunk, static_cast<size_t>(got));
  }
  return true;
}

TEST_F(ServiceE2ETest, MalformedPayloadGetsErrorConnectionSurvives) {
  ScopedFd fd = RawConnect();
  // A well-framed payload with an unknown opcode.
  std::vector<uint8_t> frame;
  const std::vector<uint8_t> bad_payload = {123};
  AppendFrame(&frame, bad_payload);
  ASSERT_TRUE(SendAll(fd.get(), frame.data(), frame.size()));
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadResponseFrame(fd.get(), &payload));
  ASSERT_GE(payload.size(), 1u);
  EXPECT_EQ(payload[0], static_cast<uint8_t>(Status::kBadRequest));

  // Same connection, now a valid request: still served.
  Request ping;
  ping.op = Opcode::kPing;
  frame.clear();
  AppendFrame(&frame, EncodeRequest(ping));
  ASSERT_TRUE(SendAll(fd.get(), frame.data(), frame.size()));
  ASSERT_TRUE(ReadResponseFrame(fd.get(), &payload));
  const Response pong = ParseResponse(Opcode::kPing, payload);
  EXPECT_EQ(pong.status, Status::kOk);
  EXPECT_EQ(pong.protocol_version, kProtocolVersion);
}

TEST_F(ServiceE2ETest, OversizedLengthPrefixClosesConnection) {
  ScopedFd fd = RawConnect();
  const uint32_t huge = kMaxFramePayload + 1;
  uint8_t prefix[sizeof(uint32_t)];
  std::memcpy(prefix, &huge, sizeof(huge));
  ASSERT_TRUE(SendAll(fd.get(), prefix, sizeof(prefix)));
  // One best-effort error response, then EOF.
  std::vector<uint8_t> payload;
  if (ReadResponseFrame(fd.get(), &payload)) {
    ASSERT_GE(payload.size(), 1u);
    EXPECT_EQ(payload[0], static_cast<uint8_t>(Status::kBadRequest));
  }
  uint8_t byte = 0;
  EXPECT_LE(RecvSome(fd.get(), &byte, 1), 0);  // connection is gone

  // The server is unharmed: fresh connections still work.
  ReqClient client = Connect();
  EXPECT_EQ(client.Ping(), kProtocolVersion);
}

TEST_F(ServiceE2ETest, TruncatedFrameThenDisconnectIsHarmless) {
  {
    ScopedFd fd = RawConnect();
    Request ping;
    ping.op = Opcode::kPing;
    std::vector<uint8_t> frame;
    AppendFrame(&frame, EncodeRequest(ping));
    // Send all but the last byte, then slam the connection shut.
    ASSERT_TRUE(SendAll(fd.get(), frame.data(), frame.size() - 1));
  }
  ReqClient client = Connect();
  EXPECT_EQ(client.Ping(), kProtocolVersion);
}

// --- snapshot round-trip + corruption (serde_corruption pattern) -----------

TEST_F(ServiceE2ETest, SnapshotRoundTripsThroughWireForEveryEngine) {
  ReqClient client = Connect();
  const std::vector<double> stream = Stream(11, 30000);

  MetricSpec plain;
  plain.base.k_base = 64;
  client.Create("snap.plain", plain);
  MetricSpec windowed;
  windowed.kind = EngineKind::kWindowed;
  windowed.num_buckets = 4;
  windowed.bucket_items = 5000;
  client.Create("snap.windowed", windowed);

  for (const std::string& name : client.List()) {
    client.Append(name, stream);
  }

  // Plain: ReqSerde payload, full query surface after restore.
  {
    const std::vector<uint8_t> blob = client.Snapshot("snap.plain");
    ASSERT_EQ(SnapshotBlobKind(blob), EngineKind::kPlain);
    ReqSketch<double> restored =
        DeserializeSketch<double>(SnapshotBlobPayload(blob));
    EXPECT_EQ(restored.n(), stream.size());
    EXPECT_EQ(restored.GetQuantile(0.5),
              client.GetQuantiles("snap.plain", {0.5})[0]);
  }
  // Windowed: windowed serde (window semantics preserved).
  {
    const std::vector<uint8_t> blob = client.Snapshot("snap.windowed");
    ASSERT_EQ(SnapshotBlobKind(blob), EngineKind::kWindowed);
    auto restored = window::WindowedReqSketch<double>::Deserialize(
        SnapshotBlobPayload(blob));
    EXPECT_EQ(restored.GetQuantile(0.5),
              client.GetQuantiles("snap.windowed", {0.5})[0]);
  }
}

// The sharded kind is retired: a CREATE of it is a bad request that
// creates nothing, and the connection keeps serving.
TEST_F(ServiceE2ETest, ShardedCreateIsRefusedOverTheWire) {
  ReqClient client = Connect();
  MetricSpec sharded;
  sharded.kind = EngineKind::kSharded;
  try {
    client.Create("retired", sharded);
    FAIL() << "sharded CREATE was accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status, Status::kBadRequest);
    EXPECT_NE(std::string(e.what()).find("sharded engines are retired"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(client.List().empty());
  EXPECT_EQ(registry_.size(), 0u);
  client.Create("retired", MetricSpec{});  // the plain metric it names
  EXPECT_EQ(client.List().size(), 1u);
}

TEST_F(ServiceE2ETest, CorruptSnapshotBlobsThrowNeverCrash) {
  ReqClient client = Connect();
  MetricSpec spec;
  spec.base.k_base = 32;
  client.Create("c", spec);
  client.Append("c", Stream(3, 5000));
  const std::vector<uint8_t> blob = client.Snapshot("c");

  // Empty and unknown-kind blobs.
  EXPECT_THROW(SnapshotBlobKind({}), std::runtime_error);
  EXPECT_THROW(SnapshotBlobKind({0x77}), std::runtime_error);

  // Truncations at every prefix length: round-trip or throw, never UB.
  for (size_t cut = 1; cut < blob.size();
       cut += std::max<size_t>(1, blob.size() / 97)) {
    const std::vector<uint8_t> prefix(blob.begin(), blob.begin() + cut);
    try {
      ReqSketch<double> restored =
          DeserializeSketch<double>(SnapshotBlobPayload(prefix));
      (void)restored.n();
    } catch (const std::runtime_error&) {
    }
  }
  // Deterministic bit flips across the payload (every 41st byte, all 8
  // bits): same contract.
  util::Xoshiro256 rng(99);
  for (size_t at = 1; at < blob.size(); at += 41) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = blob;
      mutated[at] ^= static_cast<uint8_t>(1u << bit);
      try {
        ReqSketch<double> restored =
            DeserializeSketch<double>(SnapshotBlobPayload(mutated));
        if (!restored.is_empty()) (void)restored.GetQuantile(0.5);
      } catch (const std::runtime_error&) {
      } catch (const std::logic_error&) {
      }
    }
  }
}

// --- lifecycle --------------------------------------------------------------

TEST_F(ServiceE2ETest, StopUnblocksIdleConnections) {
  ReqClient idle = Connect();
  EXPECT_EQ(idle.Ping(), kProtocolVersion);
  server_->Stop();  // must not hang on the parked connection
  EXPECT_FALSE(server_->running());
  EXPECT_THROW(idle.Ping(), std::runtime_error);
}

TEST_F(ServiceE2ETest, ClientReconnectsCleanly) {
  // Close/Connect must fully reset per-connection state (notably the
  // frame decoder: leftover bytes from the old stream would desync the
  // new one).
  ReqClient client = Connect();
  EXPECT_EQ(client.Ping(), kProtocolVersion);
  client.Close();
  EXPECT_FALSE(client.connected());
  client.Connect("127.0.0.1", server_->port());
  EXPECT_EQ(client.Ping(), kProtocolVersion);
  MetricSpec spec;
  client.Create("reconnect", spec);
  client.Append("reconnect", {1.0, 2.0, 3.0});
  EXPECT_EQ(client.GetRanks("reconnect", {5.0})[0], 3u);
}

TEST_F(ServiceE2ETest, CountersAdvance) {
  ReqClient client = Connect();
  client.Ping();
  client.Ping();
  EXPECT_GE(server_->ConnectionsAccepted(), 1u);
  EXPECT_GE(server_->FramesServed(), 2u);
}

TEST_F(ServiceE2ETest, HalfFrameAtEofCountsAsAbortedUpload) {
  // A client that dies mid-send leaves a half-written frame in the
  // server's decoder at EOF. That is a clean disconnect (no error
  // response, no desync, server keeps serving) and is observable via
  // AbortedPartialFrames -- raw socket, since the client library always
  // completes its frames.
  ASSERT_EQ(server_->AbortedPartialFrames(), 0u);
  {
    ScopedFd fd = RawConnect();
    Request ping;
    ping.op = Opcode::kPing;
    std::vector<uint8_t> frame;
    AppendFrame(&frame, EncodeRequest(ping));
    // One complete frame (served), then a torn one: 4-byte length prefix
    // promising more payload than ever arrives.
    ASSERT_TRUE(SendAll(fd.get(), frame.data(), frame.size()));
    const uint32_t promised = 100;
    uint8_t torn[4 + 10] = {};
    std::memcpy(torn, &promised, 4);
    ASSERT_TRUE(SendAll(fd.get(), torn, sizeof(torn)));
  }  // EOF with 14 buffered bytes undelivered
  for (int tries = 0; tries < 100 && server_->AbortedPartialFrames() == 0;
       ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->AbortedPartialFrames(), 1u);
  ReqClient client = Connect();
  EXPECT_EQ(client.Ping(), kProtocolVersion);  // server unharmed
}

TEST_F(ServiceE2ETest, SelfHealingClientSurvivesServerRestart) {
  ClientOptions options;
  options.reconnect_enabled = true;
  options.reconnect.max_attempts = 8;
  options.reconnect.initial_backoff_ms = 10;
  ReqClient client;
  client.Connect("127.0.0.1", server_->port(), options);
  MetricSpec spec;
  client.Create("heal", spec);
  client.Append("heal", {1.0, 2.0, 3.0});
  EXPECT_EQ(client.Flush("heal"), 3u);

  // Restart the server on the SAME port (the old ephemeral port is free
  // the moment the listener closes; SO_REUSEADDR covers TIME_WAIT).
  const uint16_t port = server_->port();
  server_->Stop();
  ReqdServerConfig config;
  config.port = port;
  server_ = std::make_unique<ReqdServer>(&registry_, config);
  server_->Start();

  // The next idempotent call rides the backoff loop transparently. The
  // registry survived in-process here; with reqd + --data-dir the same
  // client behavior covers a real daemon restart
  // (tests/persist_crash_recovery_test.cc).
  EXPECT_EQ(client.Flush("heal"), 3u);
  EXPECT_GE(client.Reconnects(), 1u);
  const std::vector<double> qs = client.GetQuantiles("heal", {0.5});
  EXPECT_EQ(qs[0], 2.0);

  // Non-idempotent ops are never auto-retried mid-flight, but a torn
  // connection from a PREVIOUS call redials before sending: Append on a
  // freshly restarted server works on the first try.
  client.Append("heal", {4.0});
  EXPECT_EQ(client.Flush("heal"), 4u);
}

}  // namespace
}  // namespace service
}  // namespace req
