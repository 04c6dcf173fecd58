// Wire-protocol unit tests: frame codec (incremental decode, oversized /
// truncated / zero-length prefixes), request and response round-trips for
// every opcode, and the reject-don't-crash contract for malformed
// payloads (mirroring the serde_corruption harness's expectations at the
// protocol layer).
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "service/wire_protocol.h"

namespace req {
namespace service {
namespace {

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

// --- framing ---------------------------------------------------------------

TEST(FrameCodec, RoundTripsSingleFrame) {
  std::vector<uint8_t> stream;
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  AppendFrame(&stream, payload);
  ASSERT_EQ(stream.size(), 4 + payload.size());

  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  std::vector<uint8_t> out;
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_EQ(out, payload);
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCodec, ReassemblesByteByByte) {
  std::vector<uint8_t> stream;
  AppendFrame(&stream, Payload({10, 20}));
  AppendFrame(&stream, Payload({30}));

  FrameDecoder decoder;
  std::vector<uint8_t> out;
  std::vector<std::vector<uint8_t>> frames;
  for (uint8_t byte : stream) {
    decoder.Feed(&byte, 1);
    while (decoder.Next(&out)) frames.push_back(out);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], Payload({10, 20}));
  EXPECT_EQ(frames[1], Payload({30}));
}

TEST(FrameCodec, PartialFrameStaysBuffered) {
  std::vector<uint8_t> stream;
  AppendFrame(&stream, Payload({1, 2, 3, 4, 5, 6, 7, 8}));
  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size() - 1);  // withhold last byte
  std::vector<uint8_t> out;
  EXPECT_FALSE(decoder.Next(&out));
  decoder.Feed(stream.data() + stream.size() - 1, 1);
  EXPECT_TRUE(decoder.Next(&out));
  EXPECT_EQ(out.size(), 8u);
}

TEST(FrameCodec, OversizedLengthPrefixThrows) {
  const uint32_t huge = kMaxFramePayload + 1;
  std::vector<uint8_t> stream(sizeof(uint32_t));
  std::memcpy(stream.data(), &huge, sizeof(uint32_t));
  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  std::vector<uint8_t> out;
  EXPECT_THROW(decoder.Next(&out), std::runtime_error);
}

TEST(FrameCodec, ZeroLengthPrefixThrows) {
  const uint32_t zero = 0;
  std::vector<uint8_t> stream(sizeof(uint32_t));
  std::memcpy(stream.data(), &zero, sizeof(uint32_t));
  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  std::vector<uint8_t> out;
  EXPECT_THROW(decoder.Next(&out), std::runtime_error);
}

TEST(FrameCodec, CustomCeilingApplies) {
  std::vector<uint8_t> stream;
  AppendFrame(&stream, std::vector<uint8_t>(100, 0xab));
  FrameDecoder decoder(/*max_payload=*/64);
  decoder.Feed(stream.data(), stream.size());
  std::vector<uint8_t> out;
  EXPECT_THROW(decoder.Next(&out), std::runtime_error);
}

TEST(FrameCodec, EmptyPayloadRejectedAtEncode) {
  std::vector<uint8_t> stream;
  const std::vector<uint8_t> empty;
  EXPECT_THROW(AppendFrame(&stream, empty), std::invalid_argument);
}

TEST(FrameCodec, ReclaimsConsumedPrefix) {
  FrameDecoder decoder;
  std::vector<uint8_t> stream;
  std::vector<uint8_t> out;
  // Push enough consumed frames that the compaction path runs.
  for (int i = 0; i < 100; ++i) {
    stream.clear();
    AppendFrame(&stream, std::vector<uint8_t>(256, uint8_t(i)));
    decoder.Feed(stream.data(), stream.size());
    ASSERT_TRUE(decoder.Next(&out));
    ASSERT_EQ(out[0], uint8_t(i));
  }
  EXPECT_EQ(decoder.buffered(), 0u);
}

// --- requests --------------------------------------------------------------

TEST(RequestCodec, RoundTripsCreate) {
  Request request;
  request.op = Opcode::kCreate;
  request.metric = "api.latency_ms";
  request.spec.kind = EngineKind::kWindowed;
  request.spec.base.k_base = 128;
  request.spec.base.accuracy = RankAccuracy::kLowRanks;
  request.spec.base.n_hint = 123456;
  request.spec.base.seed = 0xfeedface;
  request.spec.num_buckets = 12;
  request.spec.bucket_items = 5000;

  std::vector<uint8_t> payload = EncodeRequest(request);
  // The 12 reserved bytes after the seed (the retired sharded engine's
  // u32 shard count and u64 staging capacity) are still written, as zero.
  const size_t reserved = 1 + 8 + request.metric.size() + 1 + 4 + 1 + 8 + 8;
  ASSERT_EQ(payload.size(), reserved + 12 + 4 + 8);
  EXPECT_EQ(std::vector<uint8_t>(payload.begin() + reserved,
                                 payload.begin() + reserved + 12),
            std::vector<uint8_t>(12, 0));
  // Older servers wrote nonzero values there (4 and 4096 by default);
  // parsing skips them, so their manifests still load.
  for (const bool older : {false, true}) {
    if (older) {
      const uint32_t num_shards = 9;
      const uint64_t buffer_capacity = 512;
      std::memcpy(payload.data() + reserved, &num_shards, 4);
      std::memcpy(payload.data() + reserved + 4, &buffer_capacity, 8);
    }
    const Request parsed = ParseRequest(payload);
    EXPECT_EQ(parsed.op, Opcode::kCreate);
    EXPECT_EQ(parsed.metric, request.metric);
    EXPECT_EQ(parsed.spec.kind, EngineKind::kWindowed);
    EXPECT_EQ(parsed.spec.base.k_base, 128u);
    EXPECT_EQ(parsed.spec.base.accuracy, RankAccuracy::kLowRanks);
    EXPECT_EQ(parsed.spec.base.n_hint, 123456u);
    EXPECT_EQ(parsed.spec.base.seed, 0xfeedfaceu);
    EXPECT_EQ(parsed.spec.num_buckets, 12u);
    EXPECT_EQ(parsed.spec.bucket_items, 5000u);
  }
}

TEST(RequestCodec, RoundTripsAppendAndQueries) {
  for (Opcode op : {Opcode::kAppend, Opcode::kRank, Opcode::kQuantiles,
                    Opcode::kCdf}) {
    Request request;
    request.op = op;
    request.metric = "m";
    request.criterion = Criterion::kExclusive;
    request.values = {1.5, -2.25, 1e300, 0.0};
    const Request parsed = ParseRequest(EncodeRequest(request));
    EXPECT_EQ(parsed.op, op);
    EXPECT_EQ(parsed.metric, "m");
    EXPECT_EQ(parsed.values, request.values);
    if (op != Opcode::kAppend) {
      EXPECT_EQ(parsed.criterion, Criterion::kExclusive);
    }
  }
}

TEST(RequestCodec, RoundTripsBareOps) {
  for (Opcode op : {Opcode::kPing, Opcode::kList}) {
    Request request;
    request.op = op;
    EXPECT_EQ(ParseRequest(EncodeRequest(request)).op, op);
  }
  for (Opcode op : {Opcode::kFlush, Opcode::kSnapshot, Opcode::kDrop}) {
    Request request;
    request.op = op;
    request.metric = "x";
    const Request parsed = ParseRequest(EncodeRequest(request));
    EXPECT_EQ(parsed.op, op);
    EXPECT_EQ(parsed.metric, "x");
  }
}

TEST(RequestCodec, RejectsUnknownOpcode) {
  EXPECT_THROW(ParseRequest(Payload({250})), std::runtime_error);
}

TEST(RequestCodec, RejectsTruncatedBody) {
  Request request;
  request.op = Opcode::kAppend;
  request.metric = "m";
  request.values = {1.0, 2.0, 3.0};
  std::vector<uint8_t> bytes = EncodeRequest(request);
  for (size_t cut = 1; cut < bytes.size(); ++cut) {
    const std::vector<uint8_t> prefix(bytes.begin(),
                                      bytes.begin() + cut);
    EXPECT_THROW(ParseRequest(prefix), std::runtime_error) << cut;
  }
}

TEST(RequestCodec, RejectsTrailingBytes) {
  Request request;
  request.op = Opcode::kPing;
  std::vector<uint8_t> bytes = EncodeRequest(request);
  bytes.push_back(0);
  EXPECT_THROW(ParseRequest(bytes), std::runtime_error);
}

TEST(RequestCodec, RejectsBadMetricNames) {
  for (const std::string& bad :
       {std::string(), std::string("has space"), std::string("tab\tx"),
        std::string(300, 'a'), std::string("nul\0byte", 8)}) {
    Request request;
    request.op = Opcode::kAppend;
    request.metric = bad;
    request.values = {1.0};
    EXPECT_THROW(ParseRequest(EncodeRequest(request)), std::runtime_error);
  }
}

TEST(RequestCodec, RejectsBadEnums) {
  Request request;
  request.op = Opcode::kRank;
  request.metric = "m";
  request.values = {1.0};
  std::vector<uint8_t> bytes = EncodeRequest(request);
  // Byte layout: opcode | u64 name len | name | criterion | ...
  const size_t criterion_at = 1 + 8 + 1;
  ASSERT_LT(criterion_at, bytes.size());
  bytes[criterion_at] = 7;
  EXPECT_THROW(ParseRequest(bytes), std::runtime_error);
}

TEST(RequestCodec, RejectsOverlongValueCount) {
  Request request;
  request.op = Opcode::kAppend;
  request.metric = "m";
  request.values = {1.0, 2.0};
  std::vector<uint8_t> bytes = EncodeRequest(request);
  // The f64 count is the u64 right after opcode|len|name: corrupt it up.
  const size_t count_at = 1 + 8 + 1;
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + count_at, sizeof(count));
  ASSERT_EQ(count, 2u);
  count = uint64_t{1} << 60;
  std::memcpy(bytes.data() + count_at, &count, sizeof(count));
  EXPECT_THROW(ParseRequest(bytes), std::runtime_error);
}

// --- responses -------------------------------------------------------------

TEST(ResponseCodec, RoundTripsEveryOkBody) {
  {
    Response r;
    r.protocol_version = kProtocolVersion;
    const Response parsed =
        ParseResponse(Opcode::kPing, EncodeResponse(Opcode::kPing, r));
    EXPECT_EQ(parsed.protocol_version, kProtocolVersion);
  }
  {
    Response r;
    r.n = 42;
    const Response parsed =
        ParseResponse(Opcode::kAppend, EncodeResponse(Opcode::kAppend, r));
    EXPECT_EQ(parsed.n, 42u);
  }
  {
    Response r;
    r.ranks = {0, 7, ~uint64_t{0}};
    const Response parsed =
        ParseResponse(Opcode::kRank, EncodeResponse(Opcode::kRank, r));
    EXPECT_EQ(parsed.ranks, r.ranks);
  }
  {
    Response r;
    r.values = {0.25, -1.0, 1e-300};
    const Response parsed = ParseResponse(
        Opcode::kQuantiles, EncodeResponse(Opcode::kQuantiles, r));
    EXPECT_EQ(parsed.values, r.values);
  }
  {
    Response r;
    r.blob = {0, 1, 2, 3, 255};
    const Response parsed = ParseResponse(
        Opcode::kSnapshot, EncodeResponse(Opcode::kSnapshot, r));
    EXPECT_EQ(parsed.blob, r.blob);
  }
  {
    Response r;
    r.names = {"a", "b.c", "z_9"};
    const Response parsed =
        ParseResponse(Opcode::kList, EncodeResponse(Opcode::kList, r));
    EXPECT_EQ(parsed.names, r.names);
  }
}

TEST(ResponseCodec, RoundTripsErrors) {
  Response r;
  r.status = Status::kNotFound;
  r.error = "metric not found: nope";
  const Response parsed =
      ParseResponse(Opcode::kRank, EncodeResponse(Opcode::kRank, r));
  EXPECT_EQ(parsed.status, Status::kNotFound);
  EXPECT_EQ(parsed.error, r.error);
  EXPECT_TRUE(parsed.ranks.empty());
}

TEST(ResponseCodec, RejectsBadStatusAndTrailingBytes) {
  EXPECT_THROW(ParseResponse(Opcode::kPing, Payload({99, 0})),
               std::runtime_error);
  Response ok;
  ok.n = 1;
  std::vector<uint8_t> bytes = EncodeResponse(Opcode::kAppend, ok);
  bytes.push_back(1);
  EXPECT_THROW(ParseResponse(Opcode::kAppend, bytes), std::runtime_error);
}

// --- paged LIST (protocol v2) ----------------------------------------------

TEST(PagedList, RequestRoundTripsAndV1StaysBare) {
  Request request;
  request.op = Opcode::kList;
  request.list_paged = true;
  request.list_prefix = "api.";
  request.list_offset = 1000;
  request.list_limit = 50;
  const Request parsed = ParseRequest(EncodeRequest(request));
  EXPECT_TRUE(parsed.list_paged);
  EXPECT_EQ(parsed.list_prefix, "api.");
  EXPECT_EQ(parsed.list_offset, 1000u);
  EXPECT_EQ(parsed.list_limit, 50u);

  // A v1 LIST (list_paged unset) must still encode the bare one-byte body
  // old servers expect, and parse back as unpaged.
  Request v1;
  v1.op = Opcode::kList;
  const std::vector<uint8_t> bytes = EncodeRequest(v1);
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_FALSE(ParseRequest(bytes).list_paged);
}

TEST(PagedList, EmptyPrefixListsEverything) {
  Request request;
  request.op = Opcode::kList;
  request.list_paged = true;
  request.list_offset = 3;
  const Request parsed = ParseRequest(EncodeRequest(request));
  EXPECT_TRUE(parsed.list_paged);
  EXPECT_TRUE(parsed.list_prefix.empty());
  EXPECT_EQ(parsed.list_offset, 3u);
}

TEST(PagedList, RejectsBadPrefix) {
  for (const std::string& bad :
       {std::string("has space"), std::string("nul\0x", 5),
        std::string(300, 'a')}) {
    Request request;
    request.op = Opcode::kList;
    request.list_paged = true;
    request.list_prefix = bad;
    EXPECT_THROW(ParseRequest(EncodeRequest(request)), std::runtime_error);
  }
}

TEST(PagedList, ResponseCarriesTotalOnlyWhenPaged) {
  Response r;
  r.list_paged = true;
  r.total = 12345;
  r.names = {"a", "b"};
  const Response parsed = ParseResponse(
      Opcode::kList, EncodeResponse(Opcode::kList, r), /*paged_list=*/true);
  EXPECT_TRUE(parsed.list_paged);
  EXPECT_EQ(parsed.total, 12345u);
  EXPECT_EQ(parsed.names, r.names);

  // The same names encoded unpaged still parse as a v1 body: no total.
  Response v1;
  v1.names = {"a", "b"};
  const std::vector<uint8_t> bare = EncodeResponse(Opcode::kList, v1);
  EXPECT_EQ(ParseResponse(Opcode::kList, bare).total, 0u);
}

TEST(PagedList, RejectsCountExceedingTotal) {
  Response r;
  r.list_paged = true;
  r.total = 1;  // lies: two names follow
  r.names = {"a", "b"};
  const std::vector<uint8_t> bytes = EncodeResponse(Opcode::kList, r);
  EXPECT_THROW(
      ParseResponse(Opcode::kList, bytes, /*paged_list=*/true),
      std::runtime_error);
}

TEST(ResponseCodec, RoundTripsQuotaExceeded) {
  Response r;
  r.status = Status::kQuotaExceeded;
  r.error = "metric quota exceeded (limit 1000000)";
  const Response parsed =
      ParseResponse(Opcode::kCreate, EncodeResponse(Opcode::kCreate, r));
  EXPECT_EQ(parsed.status, Status::kQuotaExceeded);
  EXPECT_EQ(parsed.error, r.error);
}

TEST(ResponseCodec, RejectsCorruptListCount) {
  Response r;
  r.names = {"a"};
  std::vector<uint8_t> bytes = EncodeResponse(Opcode::kList, r);
  // status | u64 count: inflate the count far past the payload.
  uint64_t count = uint64_t{1} << 40;
  std::memcpy(bytes.data() + 1, &count, sizeof(count));
  EXPECT_THROW(ParseResponse(Opcode::kList, bytes), std::runtime_error);
}

// --- STATS + hostile-network statuses (protocol v3) -------------------------

TEST(StatsCodec, RequestIsEmptyBodiedLikePing) {
  Request request;
  request.op = Opcode::kStats;
  const std::vector<uint8_t> bytes = EncodeRequest(request);
  ASSERT_EQ(bytes.size(), 1u);  // just the opcode
  EXPECT_EQ(ParseRequest(bytes).op, Opcode::kStats);
}

TEST(StatsCodec, ResponseRoundTripsNamedCounters) {
  Response r;
  r.stats = {{"connections_accepted", 12},
             {"shed_connections", 3},
             {"deadline_exceeded", 0},
             {"frames_served", ~uint64_t{0}}};
  const Response parsed =
      ParseResponse(Opcode::kStats, EncodeResponse(Opcode::kStats, r));
  EXPECT_EQ(parsed.stats, r.stats);
}

TEST(StatsCodec, RoundTripsEmptyCounterSet) {
  Response r;
  const Response parsed =
      ParseResponse(Opcode::kStats, EncodeResponse(Opcode::kStats, r));
  EXPECT_TRUE(parsed.stats.empty());
}

TEST(StatsCodec, RejectsInflatedCounterCount) {
  Response r;
  r.stats = {{"a", 1}};
  std::vector<uint8_t> bytes = EncodeResponse(Opcode::kStats, r);
  // status | u64 count: claim far more counters than the payload holds.
  uint64_t count = uint64_t{1} << 40;
  std::memcpy(bytes.data() + 1, &count, sizeof(count));
  EXPECT_THROW(ParseResponse(Opcode::kStats, bytes), std::runtime_error);
}

TEST(ResponseCodec, RoundTripsOverloadedAndDeadlineExceeded) {
  // Both v3 statuses travel as error-only bodies, so they parse no
  // matter which opcode the client had in flight -- that is what lets
  // the server shed a brand-new connection with an unsolicited frame.
  for (const Status status :
       {Status::kOverloaded, Status::kDeadlineExceeded}) {
    Response r;
    r.status = status;
    r.error = "degraded";
    for (const Opcode op :
         {Opcode::kPing, Opcode::kAppend, Opcode::kStats}) {
      const Response parsed = ParseResponse(op, EncodeResponse(op, r));
      EXPECT_EQ(parsed.status, status);
      EXPECT_EQ(parsed.error, "degraded");
    }
  }
}

}  // namespace
}  // namespace service
}  // namespace req
