// What an APPEND's ack promises, end to end over loopback. The reactor
// acks an APPEND once its batch is logged and counted, and applies the
// batch after the ack is sent (service/reqd_server.h). These tests pin the
// promises that must survive that order:
//   - an operation on another connection that starts after the ack sees
//     the batch (SNAPSHOT bytes and QUANTILES equal an in-process
//     structure fed the acked batches), for plain and windowed metrics;
//   - a peer that closes right after sending its APPENDs still has every
//     batch applied, and a durable server recovers them after a reboot;
//   - APPENDs pipelined in one send(2) ack in order with increasing
//     counts, and a query queued behind them answers over all of them;
//   - a peer that floods APPENDs or QUANTILES cannot hold its worker:
//     another connection on that worker is served while the flood goes
//     on;
//   - appends at full speed beside the background checkpointer, then a
//     server dropped with no shutdown checkpoint, reboot bit-identically.
// CI runs this suite under ThreadSanitizer and repeats it in Release.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "gtest/gtest.h"
#include "persist/durability.h"
#include "service/req_client.h"
#include "service/reqd_server.h"
#include "service/sketch_registry.h"
#include "service/socket_util.h"
#include "service/wire_protocol.h"
#include "util/random.h"
#include "window/windowed_req_sketch.h"

namespace req {
namespace service {
namespace {

using persist::DurabilityManager;
using persist::DurabilityOptions;

const std::vector<double> kRanks = {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0};

MetricSpec SpecOf(EngineKind kind) {
  MetricSpec spec;
  spec.kind = kind;
  spec.base.k_base = 16;
  if (kind == EngineKind::kWindowed) {
    spec.num_buckets = 4;
    spec.bucket_items = 512;
  }
  return spec;
}

std::vector<double> Batch(util::Xoshiro256* rng, size_t count) {
  std::vector<double> values(count);
  for (double& v : values) v = rng->NextDouble() * 1e6;
  return values;
}

// Mostly small batches, with a large one every 8th round: its apply takes
// long enough that a request racing it arrives while it runs.
size_t BatchSize(util::Xoshiro256* rng, int round) {
  if (round % 8 == 7) return 4096;
  return 1 + static_cast<size_t>(rng->NextDouble() * 64);
}

// The in-process structure a metric's acked batches must match: a bare
// ReqSketch or WindowedReqSketch, its blob in the engine's snapshot
// format (kind tag, then the structure's own serde bytes).
class Reference {
 public:
  explicit Reference(const MetricSpec& spec) : kind_(spec.kind) {
    if (kind_ == EngineKind::kWindowed) {
      window::WindowedReqConfig config;
      config.num_buckets = spec.num_buckets;
      config.bucket_items = spec.bucket_items;
      config.base = spec.base;
      window_.emplace(config);
    } else {
      sketch_.emplace(spec.base);
    }
  }

  void Update(const std::vector<double>& batch) {
    if (window_) {
      window_->Update(batch);
    } else {
      sketch_->Update(batch);
    }
    n_ += batch.size();
  }

  uint64_t n() const { return n_; }

  std::vector<uint8_t> Blob() const {
    std::vector<uint8_t> blob{static_cast<uint8_t>(kind_)};
    const std::vector<uint8_t> bytes =
        window_ ? SerializeUnderlying(*window_) : SerializeUnderlying(*sketch_);
    blob.insert(blob.end(), bytes.begin(), bytes.end());
    return blob;
  }

  std::vector<double> Quantiles(const std::vector<double>& qs) const {
    return window_ ? window_->GetQuantiles(qs) : sketch_->GetQuantiles(qs);
  }

 private:
  EngineKind kind_;
  std::optional<ReqSketch<double>> sketch_;
  std::optional<window::WindowedReqSketch<double>> window_;
  uint64_t n_ = 0;
};

ReqdServerConfig TwoWorkers() {
  // Connections are dealt round-robin, so a test's first two connections
  // land on different workers: the ack and the next request really do
  // cross threads.
  ReqdServerConfig config;
  config.workers = 2;
  return config;
}

DurabilityOptions Durable(uint64_t checkpoint_bytes) {
  DurabilityOptions options;
  options.fsync = persist::FsyncPolicy::kNever;  // checkpoints still fsync
  options.checkpoint_bytes = checkpoint_bytes;
  return options;
}

// A fresh data dir, removed again when the test ends.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path(::testing::TempDir() + "req_ack_" + tag + "_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  const std::string path;
};

ReqClient Connect(const ReqdServer& server) {
  ReqClient client;
  client.Connect("127.0.0.1", server.port());
  return client;
}

ScopedFd RawConnect(const ReqdServer& server) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  EXPECT_TRUE(fd.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = ParseIPv4("127.0.0.1");
  addr.sin_port = htons(server.port());
  EXPECT_EQ(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

void AppendRequestFrame(const std::string& metric,
                        const std::vector<double>& values,
                        std::vector<uint8_t>* out) {
  Request request;
  request.op = Opcode::kAppend;
  request.metric = metric;
  request.values = values;
  AppendFrame(out, EncodeRequest(request));
}

// Polls `done` every millisecond; false after 20 s.
bool WaitFor(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// --- visibility after the ack ----------------------------------------------

class AckVisibilityTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(AckVisibilityTest, EveryAckIsVisibleToTheNextRequestOnAnotherWorker) {
  SketchRegistry registry;
  ReqdServer server(&registry, TwoWorkers());
  server.Start();
  ReqClient writer = Connect(server);
  ReqClient reader = Connect(server);
  const MetricSpec spec = SpecOf(GetParam());
  writer.Create("m", spec);
  Reference reference(spec);
  util::Xoshiro256 rng(7);
  for (int round = 0; round < 1000; ++round) {
    const std::vector<double> batch = Batch(&rng, BatchSize(&rng, round));
    reference.Update(batch);
    ASSERT_EQ(writer.Append("m", batch), reference.n()) << "round " << round;
    // Straight after the ack, on the other worker: the batch may still be
    // applying there, and these requests must wait for it. The query goes
    // first: it takes only the state mutex, SNAPSHOT the append mutex too.
    ASSERT_EQ(reader.GetQuantiles("m", kRanks), reference.Quantiles(kRanks))
        << "round " << round;
    ASSERT_EQ(reader.Snapshot("m"), reference.Blob()) << "round " << round;
  }
  EXPECT_EQ(reader.Flush("m"), reference.n());
  writer.Close();
  reader.Close();
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(Kinds, AckVisibilityTest,
                         ::testing::Values(EngineKind::kPlain,
                                           EngineKind::kWindowed),
                         [](const auto& info) {
                           return info.param == EngineKind::kPlain
                                      ? std::string("Plain")
                                      : std::string("Windowed");
                         });

// --- a peer that leaves straight after its APPENDs -------------------------

// Sends `batches` as APPEND frames in one send(2) and closes the socket
// without reading an ack. With two or more frames the server usually
// finds the peer gone when it flushes the second ack.
void AppendAndHangUp(const ReqdServer& server, const std::string& metric,
                     const std::vector<std::vector<double>>& batches) {
  ScopedFd fd = RawConnect(server);
  std::vector<uint8_t> frames;
  for (const std::vector<double>& batch : batches) {
    AppendRequestFrame(metric, batch, &frames);
  }
  ASSERT_TRUE(SendAll(fd.get(), frames.data(), frames.size()));
}

// Hangs up after one APPEND on metric "one" and after two on "two", then
// checks from a fresh connection that every batch was applied.
void HangUpsStillApply(ReqdServer* server, std::vector<Reference>* refs) {
  util::Xoshiro256 rng(11);
  const std::vector<std::string> names = {"one", "two"};
  ReqClient client = Connect(*server);
  for (size_t m = 0; m < names.size(); ++m) {
    client.Create(names[m], SpecOf(EngineKind::kPlain));
    refs->emplace_back(SpecOf(EngineKind::kPlain));
    std::vector<std::vector<double>> batches;
    for (size_t b = 0; b <= m; ++b) {
      batches.push_back(Batch(&rng, 3000));
      refs->back().Update(batches.back());
    }
    AppendAndHangUp(*server, names[m], batches);
  }
  for (size_t m = 0; m < names.size(); ++m) {
    const uint64_t want = (*refs)[m].n();
    ASSERT_TRUE(WaitFor([&] { return client.Flush(names[m]) == want; }))
        << names[m] << " flushed " << client.Flush(names[m]) << " of "
        << want;
    // FLUSH reads the count taken before the ack; SNAPSHOT waits for
    // the apply.
    EXPECT_EQ(client.Snapshot(names[m]), (*refs)[m].Blob()) << names[m];
  }
  client.Close();
}

TEST(AckHangUp, PeerThatClosesAfterItsAppendsStillHasThemApplied) {
  SketchRegistry registry;
  ReqdServer server(&registry, TwoWorkers());
  server.Start();
  std::vector<Reference> refs;
  HangUpsStillApply(&server, &refs);
  server.Stop();
}

TEST(AckHangUp, DurableServerRecoversTheBatchesOfAPeerThatClosed) {
  const ScratchDir scratch("hangup");
  std::vector<Reference> refs;
  {
    DurabilityManager manager(scratch.path, Durable(uint64_t{1} << 30));
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    ReqdServer server(&registry, TwoWorkers());
    server.Start();
    HangUpsStillApply(&server, &refs);
    server.Stop();
  }
  // No checkpoint was taken: the reboot replays every batch from the WAL.
  DurabilityManager manager(scratch.path, Durable(uint64_t{1} << 30));
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  const std::vector<std::string> names = {"one", "two"};
  for (size_t m = 0; m < names.size(); ++m) {
    SketchRegistry::EnginePtr engine = registry.Require(names[m]);
    EXPECT_EQ(engine->AcceptedN(), refs[m].n()) << names[m];
    EXPECT_EQ(engine->Snapshot(), refs[m].Blob()) << names[m];
  }
}

// --- pipelined APPENDs ----------------------------------------------------

TEST(AckPipelining, AppendsInOneSendAckInOrderAndTheQueryBehindSeesAll) {
  SketchRegistry registry;
  ReqdServer server(&registry, TwoWorkers());
  server.Start();
  ReqClient client = Connect(server);
  const MetricSpec spec = SpecOf(EngineKind::kPlain);
  client.Create("m", spec);

  constexpr int kAppends = 16;
  Reference reference(spec);
  util::Xoshiro256 rng(13);
  std::vector<uint8_t> frames;
  std::vector<uint64_t> expected_counts;
  for (int i = 0; i < kAppends; ++i) {
    const std::vector<double> batch = Batch(&rng, BatchSize(&rng, i));
    reference.Update(batch);
    expected_counts.push_back(reference.n());
    AppendRequestFrame("m", batch, &frames);
  }
  Request query;
  query.op = Opcode::kQuantiles;
  query.metric = "m";
  query.values = kRanks;
  AppendFrame(&frames, EncodeRequest(query));
  ScopedFd fd = RawConnect(server);
  ASSERT_TRUE(SendAll(fd.get(), frames.data(), frames.size()));

  FrameDecoder decoder;
  std::vector<uint8_t> payload;
  uint8_t chunk[4096];
  const auto next_response = [&] {
    while (!decoder.Next(&payload)) {
      const ssize_t got = RecvSome(fd.get(), chunk, sizeof(chunk));
      if (got <= 0) return false;
      decoder.Feed(chunk, static_cast<size_t>(got));
    }
    return true;
  };
  uint64_t last = 0;
  for (int i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(next_response()) << "ack " << i;
    const Response ack = ParseResponse(Opcode::kAppend, payload);
    ASSERT_EQ(ack.status, Status::kOk) << ack.error;
    EXPECT_GT(ack.n, last) << "ack " << i;
    EXPECT_EQ(ack.n, expected_counts[i]) << "ack " << i;
    last = ack.n;
  }
  ASSERT_TRUE(next_response());
  const Response answer = ParseResponse(Opcode::kQuantiles, payload);
  ASSERT_EQ(answer.status, Status::kOk) << answer.error;
  EXPECT_EQ(answer.values, reference.Quantiles(kRanks));
  EXPECT_EQ(client.Snapshot("m"), reference.Blob());
  client.Close();
  server.Stop();
}

// --- fairness on one worker -----------------------------------------------

// The flood's frames: 64 APPENDs of 64 items, or 64 QUANTILES against the
// metric's 4,096 items.
std::vector<uint8_t> FloodBurst(Opcode op) {
  util::Xoshiro256 rng(17);
  std::vector<uint8_t> burst;
  for (int i = 0; i < 64; ++i) {
    if (op == Opcode::kAppend) {
      AppendRequestFrame("m", Batch(&rng, 64), &burst);
    } else {
      Request query;
      query.op = Opcode::kQuantiles;
      query.metric = "m";
      query.values = kRanks;
      AppendFrame(&burst, EncodeRequest(query));
    }
  }
  return burst;
}

class AckFairness : public ::testing::TestWithParam<Opcode> {};

TEST_P(AckFairness, APeerThatKeepsItsSocketFullCannotStarveAnother) {
  // One worker serves both connections. The flooder writes frames faster
  // than the worker can answer them, so its socket never runs dry, and a
  // worker that read it until EAGAIN would never serve the other
  // connection. After each read whose frames it answered the worker moves
  // on to its other ready connections, so the PINGs are answered while
  // the flood goes on, not once it stops.
  SketchRegistry registry;
  ReqdServerConfig config;
  config.workers = 1;
  ReqdServer server(&registry, config);
  server.Start();
  ReqClient pinger = Connect(server);
  pinger.Create("m", SpecOf(EngineKind::kPlain));
  util::Xoshiro256 seed_rng(5);
  pinger.Append("m", Batch(&seed_rng, 4096));
  const std::vector<uint8_t> burst = FloodBurst(GetParam());

  ScopedFd flood = RawConnect(server);
  std::atomic<bool> stop{false};
  std::atomic<bool> timed_out{false};
  std::atomic<uint64_t> bursts{0};
  std::thread writer([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!stop.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= deadline) {
        timed_out.store(true, std::memory_order_release);
        break;
      }
      if (!SendAll(flood.get(), burst.data(), burst.size())) break;
      bursts.fetch_add(1, std::memory_order_release);
    }
    ::shutdown(flood.get(), SHUT_WR);
  });
  // Drains the answers, so the flood never pauses on backpressure; the
  // server closes the connection once it has answered every frame.
  std::thread reader([&] {
    uint8_t chunk[1 << 16];
    while (RecvSome(flood.get(), chunk, sizeof(chunk)) > 0) {
    }
  });
  ASSERT_TRUE(WaitFor([&] { return bursts.load() >= 4; }));
  const auto pings_start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) pinger.Ping();
  const auto pings_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - pings_start)
                            .count();
  // The flood stopped on its 20 s deadline only if the PINGs waited for
  // it.
  const bool starved = timed_out.load(std::memory_order_acquire);
  stop.store(true, std::memory_order_release);
  writer.join();
  reader.join();
  EXPECT_FALSE(starved) << "PINGs were answered only after the flood of "
                        << bursts.load() << " bursts stopped";
  // Each PING waits for about one read's frames (64 KiB of the flood):
  // in the QUANTILES case the 20 took 0.2-0.3 s in Release and 2.8-3.5 s
  // under ThreadSanitizer. A worker that served the flooder until EAGAIN
  // answered them only once the flood stopped, 18.6-20.5 s in all.
  EXPECT_LT(pings_ms, 10000) << "20 PINGs took " << pings_ms << " ms";
  EXPECT_EQ(pinger.Flush("m") % 64, 0u);
  pinger.Close();
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(FloodOpcodes, AckFairness,
                         ::testing::Values(Opcode::kAppend,
                                           Opcode::kQuantiles),
                         [](const auto& info) {
                           return info.param == Opcode::kAppend
                                      ? std::string("Append")
                                      : std::string("Quantiles");
                         });

// --- a crash beside the checkpointer --------------------------------------

TEST(AckCrash, FullSpeedAppendsBesideTheCheckpointerRebootBitIdentical) {
  // Two connections append to their own plain and windowed metrics while
  // small checkpoint thresholds keep the checkpointer busy. The server is
  // then stopped with no shutdown checkpoint: the data dir holds whatever
  // checkpoints landed plus the WAL tails behind them.
  const ScratchDir scratch("crash");
  constexpr uint64_t kCheckpointBytes = 32 << 10;
  constexpr int kWriters = 2;
  constexpr int kRounds = 400;
  const std::vector<EngineKind> kinds = {EngineKind::kPlain,
                                         EngineKind::kWindowed};
  std::vector<std::string> names;
  std::vector<Reference> refs;
  for (int w = 0; w < kWriters; ++w) {
    for (EngineKind kind : kinds) {
      names.push_back("w" + std::to_string(w) + "/" +
                      (kind == EngineKind::kPlain ? "plain" : "windowed"));
      refs.emplace_back(SpecOf(kind));
    }
  }
  {
    DurabilityManager manager(scratch.path, Durable(kCheckpointBytes));
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    ReqdServer server(&registry, TwoWorkers());
    server.Start();
    {
      ReqClient admin = Connect(server);
      for (size_t m = 0; m < names.size(); ++m) {
        admin.Create(names[m], SpecOf(kinds[m % kinds.size()]));
      }
      admin.Close();
    }
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        ReqClient client = Connect(server);
        util::Xoshiro256 rng(100 + static_cast<uint64_t>(w));
        for (int round = 0; round < kRounds; ++round) {
          const size_t m = static_cast<size_t>(w) * kinds.size() +
                           static_cast<size_t>(round) % kinds.size();
          const std::vector<double> batch =
              Batch(&rng, 64 + static_cast<size_t>(rng.NextDouble() * 448));
          refs[m].Update(batch);
          EXPECT_EQ(client.Append(names[m], batch), refs[m].n());
        }
        client.Close();
      });
    }
    for (std::thread& t : writers) t.join();
    server.Stop();
    EXPECT_GE(server.Checkpoints(), 4u);
    EXPECT_EQ(server.CheckpointFailures(), 0u);
  }
  DurabilityManager manager(scratch.path, Durable(kCheckpointBytes));
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  for (size_t m = 0; m < names.size(); ++m) {
    SketchRegistry::EnginePtr engine = registry.Require(names[m]);
    EXPECT_EQ(engine->AcceptedN(), refs[m].n()) << names[m];
    EXPECT_EQ(engine->Snapshot(), refs[m].Blob()) << names[m];
  }
}

}  // namespace
}  // namespace service
}  // namespace req
