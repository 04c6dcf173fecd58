// Wire protocol for the reqd quantile service: a small length-prefixed
// binary protocol multiplexing many named metrics over one TCP connection.
//
// Framing (little-endian, same byte conventions as util/serde.h):
//
//   frame    := u32 payload_length | payload
//   request  := u8 opcode | body
//   response := u8 status | body        (status != kOk: body = error string)
//
// payload_length counts the payload bytes only (not itself), must be >= 1
// (the opcode/status byte) and <= kMaxFramePayload. A length prefix beyond
// that bound means the stream is garbage or hostile; the decoder throws and
// the server drops the connection rather than buffering unbounded input.
//
// Request bodies (strings are u64-length-prefixed, arrays are
// u64-count-prefixed element runs, exactly as BinaryWriter writes them):
//
//   PING      (empty)
//   CREATE    name | u8 kind | u32 k_base | u8 accuracy | u64 n_hint |
//             u64 seed | u32 reserved | u64 reserved |
//             u32 num_buckets | u64 bucket_items
//   APPEND    name | f64[] items
//   FLUSH     name
//   RANK      name | u8 criterion | f64[] query points
//   QUANTILES name | u8 criterion | f64[] normalized ranks
//   CDF       name | u8 criterion | f64[] ascending split points
//   SNAPSHOT  name
//   LIST      (empty)                      -- v1 form: full listing
//   LIST      prefix | u64 offset | u64 limit   -- v2 paged form
//   DROP      name
//   STATS     (empty)                      -- v3: server counters
//
// Response bodies on kOk:
//
//   PING      u8 protocol version
//   CREATE    (empty)
//   APPEND    u64 n   (items accepted since CREATE, this batch included)
//   FLUSH     u64 n
//   RANK      u64[] estimated absolute ranks
//   QUANTILES f64[] quantile values
//   CDF       f64[] normalized ranks (one per split, plus the trailing 1.0)
//   SNAPSHOT  u8[]  engine snapshot blob (u8 engine kind | engine serde)
//   LIST      u64 count | count * name                    -- v1 form
//   LIST      u64 total | u64 count | count * name        -- v2 paged form
//   DROP      (empty)
//   STATS     u64 count | count * (name | u64 value)      -- named counters
//
// STATS keys are additive: servers may grow the counter set and clients
// must treat the response as an open key->value map, never a fixed
// layout (the same additive-evolution rule as the bench JSON schemas).
//
// LIST versioning: an empty LIST body is the v1 request and gets the v1
// response, so old clients keep working byte-for-byte against a v2
// server. The paged form filters by name prefix (empty = all), skips
// `offset` matches and returns at most `limit` names (0 = no limit);
// `total` is the number of matches before pagination.
//
// Parsing treats every payload as untrusted: unknown opcodes, bad enum
// values, malformed names, counts that overrun the payload, and trailing
// bytes all throw std::runtime_error (util::CheckData), mirroring the
// hardening contract of core/req_serde.h. Encode/Parse round-trip bit
// exactly; tests/service_protocol_test.cc holds the line.
#ifndef REQSKETCH_SERVICE_WIRE_PROTOCOL_H_
#define REQSKETCH_SERVICE_WIRE_PROTOCOL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/req_common.h"
#include "util/serde.h"
#include "util/validation.h"

namespace req {
namespace service {

inline constexpr uint8_t kProtocolVersion = 3;

// Hard ceiling on a frame payload. Large enough for a ~4M-item APPEND or
// any realistic snapshot, small enough that a corrupt or hostile length
// prefix cannot make the server buffer gigabytes.
inline constexpr uint32_t kMaxFramePayload = uint32_t{1} << 26;  // 64 MiB

inline constexpr size_t kMaxMetricNameLen = 255;

enum class Opcode : uint8_t {
  kPing = 0,
  kCreate = 1,
  kAppend = 2,
  kFlush = 3,
  kRank = 4,
  kQuantiles = 5,
  kCdf = 6,
  kSnapshot = 7,
  kList = 8,
  kDrop = 9,
  // v3: the server's monitoring counters (connections, frames, sheds,
  // deadline hits, accept failures, ...) as named u64 pairs, so
  // operators and the chaos suite can observe degradation over the wire.
  kStats = 10,
};

enum class Status : uint8_t {
  kOk = 0,
  kBadRequest = 1,  // malformed frame or invalid arguments
  kNotFound = 2,    // metric does not exist
  kExists = 3,      // CREATE of a metric that already exists
  kError = 4,       // unexpected server-side failure
  // CREATE rejected by a registry quota (metric count or memory). Not a
  // transport failure and not retryable as-is: the client surfaces it as
  // a typed error and must NOT blind-retry (v2).
  kQuotaExceeded = 5,
  // The server shed this connection or request because it is at its
  // connection cap (v3). Nothing was applied; a client may retry, but
  // ONLY after backing off -- hot-retrying a shedding server is load the
  // server just said it cannot take (ReqClient enforces the backoff).
  kOverloaded = 6,
  // The request missed its server-side time budget (v3). For a request
  // shed BEFORE dispatch nothing was applied. The server never answers
  // kDeadlineExceeded after a mutation has been applied -- a late
  // mutation acks normally, so response.n reconciliation stays exact.
  kDeadlineExceeded = 7,
};

// Which engine a metric runs on (chosen once, at CREATE).
enum class EngineKind : uint8_t {
  kPlain = 0,     // single ReqSketch: deterministic, byte-stable snapshots
  kSharded = 1,   // reserved: the retired sharded engine, still on disk
  kWindowed = 2,  // WindowedReqSketch: count-driven sliding window
};

// Per-metric engine configuration carried by CREATE. Fields beyond the
// engine's kind are ignored by the other kinds (e.g. num_buckets for a
// plain metric), matching how the registry validates only what it uses.
// The CREATE body keeps 12 reserved bytes after the seed, where the
// retired sharded engine's shard count and staging capacity travelled:
// encoders write zero and parsers skip them, so every manifest an older
// server wrote still parses. CREATE of kSharded is refused; an old data
// dir boots such a metric as plain (service/sketch_registry.h).
struct MetricSpec {
  EngineKind kind = EngineKind::kPlain;
  // base.k_base / base.accuracy / base.n_hint / base.seed travel on the
  // wire; coin and schedule stay at their defaults (the paper's algorithm).
  ReqConfig base;
  // kWindowed: ring size and count-driven rotation threshold.
  uint32_t num_buckets = 8;
  uint64_t bucket_items = uint64_t{1} << 16;
};

struct Request {
  Opcode op = Opcode::kPing;
  std::string metric;                 // every op except PING/LIST
  MetricSpec spec;                    // CREATE
  Criterion criterion = Criterion::kInclusive;  // RANK/QUANTILES/CDF
  std::vector<double> values;         // APPEND items / query points
  // LIST v2 pagination; list_paged=false encodes the v1 empty body.
  bool list_paged = false;
  std::string list_prefix;            // empty = every metric
  uint64_t list_offset = 0;           // matches to skip
  uint64_t list_limit = 0;            // max names returned; 0 = no limit
};

struct Response {
  Status status = Status::kOk;
  std::string error;                  // status != kOk
  uint8_t protocol_version = 0;       // PING
  uint64_t n = 0;                     // APPEND / FLUSH
  std::vector<uint64_t> ranks;        // RANK
  std::vector<double> values;         // QUANTILES / CDF
  std::vector<uint8_t> blob;          // SNAPSHOT
  std::vector<std::string> names;     // LIST (one page in the v2 form)
  bool list_paged = false;            // LIST: response carries `total`
  uint64_t total = 0;                 // LIST v2: matches before paging
  // STATS: named server counters, in server-chosen order.
  std::vector<std::pair<std::string, uint64_t>> stats;
};

// Thrown by the client when the server answers with a non-kOk status.
struct ServiceError : std::runtime_error {
  ServiceError(Status s, const std::string& message)
      : std::runtime_error(message), status(s) {}
  Status status;
};

// Metric names travel on the wire and appear in logs and CLI output:
// restrict them to non-empty runs of printable non-space ASCII.
inline void ValidateMetricName(const std::string& name) {
  util::CheckData(!name.empty(), "metric name must be non-empty");
  util::CheckData(name.size() <= kMaxMetricNameLen,
                  "metric name exceeds 255 bytes");
  for (char c : name) {
    util::CheckData(c > 0x20 && c < 0x7f,
                    "metric name must be printable non-space ASCII");
  }
}

// A LIST prefix is a (possibly empty) leading fragment of a metric name,
// so it obeys the name alphabet but not the non-empty rule.
inline void ValidateMetricPrefix(const std::string& prefix) {
  util::CheckData(prefix.size() <= kMaxMetricNameLen,
                  "metric prefix exceeds 255 bytes");
  for (char c : prefix) {
    util::CheckData(c > 0x20 && c < 0x7f,
                    "metric prefix must be printable non-space ASCII");
  }
}

// --- framing ---------------------------------------------------------------

// Appends one length-prefixed frame carrying `payload` to `*out`.
inline void AppendFrame(std::vector<uint8_t>* out, const uint8_t* payload,
                        size_t size) {
  util::CheckArg(payload != nullptr && size >= 1 &&
                     size <= kMaxFramePayload,
                 "frame payload size out of range");
  if (payload == nullptr) return;  // unreachable; aids -Wnonnull analysis
  // Re-clamp after the throwing check: semantically a no-op, but it lets
  // the compiler prove the memcpy bound (silences -Wstringop-overflow).
  const size_t bounded = std::min<size_t>(size, kMaxFramePayload);
  const uint32_t len = static_cast<uint32_t>(bounded);
  const size_t offset = out->size();
  out->resize(offset + sizeof(uint32_t) + bounded);
  std::memcpy(out->data() + offset, &len, sizeof(uint32_t));
  std::memcpy(out->data() + offset + sizeof(uint32_t), payload, bounded);
}

inline void AppendFrame(std::vector<uint8_t>* out,
                        const std::vector<uint8_t>& payload) {
  AppendFrame(out, payload.data(), payload.size());
}

// Incremental frame decoder for a byte stream: Feed() whatever the socket
// produced, then pop complete payloads with Next(). Partial frames stay
// buffered across calls; an out-of-range length prefix throws
// std::runtime_error (the stream has lost sync -- the caller should close
// the connection, there is no way to resynchronize a corrupted
// length-prefixed stream).
class FrameDecoder {
 public:
  explicit FrameDecoder(uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(const uint8_t* data, size_t size) {
    buffer_.insert(buffer_.end(), data, data + size);
  }

  // Moves the next complete payload into `*payload` and returns true, or
  // returns false when the buffered bytes do not yet hold a full frame.
  bool Next(std::vector<uint8_t>* payload) {
    if (buffer_.size() - pos_ < sizeof(uint32_t)) return false;
    uint32_t len = 0;
    std::memcpy(&len, buffer_.data() + pos_, sizeof(uint32_t));
    util::CheckData(len >= 1 && len <= max_payload_,
                    "frame length prefix out of range");
    if (buffer_.size() - pos_ - sizeof(uint32_t) < len) return false;
    const uint8_t* begin = buffer_.data() + pos_ + sizeof(uint32_t);
    payload->assign(begin, begin + len);
    pos_ += sizeof(uint32_t) + len;
    // Reclaim consumed prefix once it dominates the buffer, so a
    // long-lived connection does not grow the buffer without bound.
    if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<ptrdiff_t>(pos_));
      pos_ = 0;
    }
    return true;
  }

  // Bytes buffered but not yet consumed (diagnostics and tests).
  size_t buffered() const { return buffer_.size() - pos_; }

 private:
  // Not const: keeps the decoder movable (the client embeds one).
  uint32_t max_payload_;
  std::vector<uint8_t> buffer_;
  size_t pos_ = 0;
};

// --- requests --------------------------------------------------------------

inline std::vector<uint8_t> EncodeRequest(const Request& request) {
  util::BinaryWriter writer;
  writer.Write<uint8_t>(static_cast<uint8_t>(request.op));
  switch (request.op) {
    case Opcode::kPing:
    case Opcode::kStats:
      break;
    case Opcode::kList:
      // v1 compatibility: the unpaged request is the empty body old
      // servers expect; the paged operands only exist in the v2 form.
      if (request.list_paged) {
        writer.WriteString(request.list_prefix);
        writer.Write<uint64_t>(request.list_offset);
        writer.Write<uint64_t>(request.list_limit);
      }
      break;
    case Opcode::kCreate:
      writer.WriteString(request.metric);
      writer.Write<uint8_t>(static_cast<uint8_t>(request.spec.kind));
      writer.Write<uint32_t>(request.spec.base.k_base);
      writer.Write<uint8_t>(
          static_cast<uint8_t>(request.spec.base.accuracy));
      writer.Write<uint64_t>(request.spec.base.n_hint);
      writer.Write<uint64_t>(request.spec.base.seed);
      writer.Write<uint32_t>(0);  // reserved
      writer.Write<uint64_t>(0);  // reserved
      writer.Write<uint32_t>(request.spec.num_buckets);
      writer.Write<uint64_t>(request.spec.bucket_items);
      break;
    case Opcode::kAppend:
      writer.WriteString(request.metric);
      writer.WriteVector<double>(request.values);
      break;
    case Opcode::kFlush:
    case Opcode::kSnapshot:
    case Opcode::kDrop:
      writer.WriteString(request.metric);
      break;
    case Opcode::kRank:
    case Opcode::kQuantiles:
    case Opcode::kCdf:
      writer.WriteString(request.metric);
      writer.Write<uint8_t>(static_cast<uint8_t>(request.criterion));
      writer.WriteVector<double>(request.values);
      break;
  }
  return writer.Release();
}

inline Request ParseRequest(const std::vector<uint8_t>& payload) {
  util::BinaryReader reader(payload);
  const uint8_t op = reader.Read<uint8_t>();
  util::CheckData(op <= static_cast<uint8_t>(Opcode::kStats),
                  "unknown request opcode");
  Request request;
  request.op = static_cast<Opcode>(op);
  switch (request.op) {
    case Opcode::kPing:
    case Opcode::kStats:
      break;
    case Opcode::kList:
      // An empty body is a v1 full-listing request; any body is the v2
      // paged form (prefix | offset | limit).
      if (!reader.AtEnd()) {
        request.list_paged = true;
        request.list_prefix = reader.ReadString();
        ValidateMetricPrefix(request.list_prefix);
        request.list_offset = reader.Read<uint64_t>();
        request.list_limit = reader.Read<uint64_t>();
      }
      break;
    case Opcode::kCreate: {
      request.metric = reader.ReadString();
      ValidateMetricName(request.metric);
      const uint8_t kind = reader.Read<uint8_t>();
      util::CheckData(kind <= static_cast<uint8_t>(EngineKind::kWindowed),
                      "bad engine kind");
      request.spec.kind = static_cast<EngineKind>(kind);
      request.spec.base.k_base = reader.Read<uint32_t>();
      const uint8_t accuracy = reader.Read<uint8_t>();
      util::CheckData(accuracy <= 1, "bad rank-accuracy orientation");
      request.spec.base.accuracy = static_cast<RankAccuracy>(accuracy);
      request.spec.base.n_hint = reader.Read<uint64_t>();
      request.spec.base.seed = reader.Read<uint64_t>();
      reader.Read<uint32_t>();  // reserved
      reader.Read<uint64_t>();  // reserved
      request.spec.num_buckets = reader.Read<uint32_t>();
      request.spec.bucket_items = reader.Read<uint64_t>();
      break;
    }
    case Opcode::kAppend:
      request.metric = reader.ReadString();
      ValidateMetricName(request.metric);
      request.values = reader.ReadVector<double>();
      break;
    case Opcode::kFlush:
    case Opcode::kSnapshot:
    case Opcode::kDrop:
      request.metric = reader.ReadString();
      ValidateMetricName(request.metric);
      break;
    case Opcode::kRank:
    case Opcode::kQuantiles:
    case Opcode::kCdf: {
      request.metric = reader.ReadString();
      ValidateMetricName(request.metric);
      const uint8_t criterion = reader.Read<uint8_t>();
      util::CheckData(criterion <= 1, "bad rank criterion");
      request.criterion = static_cast<Criterion>(criterion);
      request.values = reader.ReadVector<double>();
      break;
    }
  }
  util::CheckData(reader.AtEnd(), "trailing bytes in request");
  return request;
}

// --- responses -------------------------------------------------------------

inline void EncodeResponseBody(Opcode op, const Response& response,
                               util::BinaryWriter* writer_ptr) {
  util::BinaryWriter& writer = *writer_ptr;
  writer.Write<uint8_t>(static_cast<uint8_t>(response.status));
  if (response.status != Status::kOk) {
    writer.WriteString(response.error);
    return;
  }
  switch (op) {
    case Opcode::kPing:
      writer.Write<uint8_t>(response.protocol_version);
      break;
    case Opcode::kCreate:
    case Opcode::kDrop:
      break;
    case Opcode::kAppend:
    case Opcode::kFlush:
      writer.Write<uint64_t>(response.n);
      break;
    case Opcode::kRank:
      writer.WriteVector<uint64_t>(response.ranks);
      break;
    case Opcode::kQuantiles:
    case Opcode::kCdf:
      writer.WriteVector<double>(response.values);
      break;
    case Opcode::kSnapshot:
      writer.WriteVector<uint8_t>(response.blob);
      break;
    case Opcode::kList:
      // Paged responses lead with the pre-pagination match total; the v1
      // body stays byte-identical for unpaged requests.
      if (response.list_paged) writer.Write<uint64_t>(response.total);
      writer.Write<uint64_t>(response.names.size());
      for (const std::string& name : response.names) {
        writer.WriteString(name);
      }
      break;
    case Opcode::kStats:
      writer.Write<uint64_t>(response.stats.size());
      for (const auto& [key, value] : response.stats) {
        writer.WriteString(key);
        writer.Write<uint64_t>(value);
      }
      break;
  }
}

inline std::vector<uint8_t> EncodeResponse(Opcode op,
                                           const Response& response) {
  util::BinaryWriter writer;
  EncodeResponseBody(op, response, &writer);
  return writer.Release();
}

// Appends one length-prefixed response frame directly into `*out`,
// reusing its allocation: the length slot is reserved up front, the body
// is encoded in place behind it, and the prefix is patched afterwards.
// This is the server's hot-path encoder -- a reactor worker encodes every
// response of a delivery batch into one connection-owned output buffer
// instead of materializing a fresh vector per frame and copying it.
inline void AppendResponseFrame(Opcode op, const Response& response,
                                std::vector<uint8_t>* out) {
  const size_t frame_start = out->size();
  util::BinaryWriter writer(std::move(*out));
  writer.Write<uint32_t>(0);  // length placeholder, patched below
  EncodeResponseBody(op, response, &writer);
  std::vector<uint8_t> bytes = writer.Release();
  const size_t payload = bytes.size() - frame_start - sizeof(uint32_t);
  util::CheckArg(payload >= 1 && payload <= kMaxFramePayload,
                 "frame payload size out of range");
  const uint32_t len = static_cast<uint32_t>(payload);
  std::memcpy(bytes.data() + frame_start, &len, sizeof(uint32_t));
  *out = std::move(bytes);
}

// Parses a response to a request of opcode `op` (the client knows what it
// sent; the opcode selects the body layout). `paged_list` must mirror the
// request's list_paged flag: a paged LIST answer leads with the match
// total, the v1 answer does not, and only the requester knows which form
// it asked for.
inline Response ParseResponse(Opcode op, const std::vector<uint8_t>& payload,
                              bool paged_list = false) {
  util::BinaryReader reader(payload);
  const uint8_t status = reader.Read<uint8_t>();
  util::CheckData(status <= static_cast<uint8_t>(Status::kDeadlineExceeded),
                  "unknown response status");
  Response response;
  response.status = static_cast<Status>(status);
  if (response.status != Status::kOk) {
    response.error = reader.ReadString();
    util::CheckData(reader.AtEnd(), "trailing bytes in response");
    return response;
  }
  switch (op) {
    case Opcode::kPing:
      response.protocol_version = reader.Read<uint8_t>();
      break;
    case Opcode::kCreate:
    case Opcode::kDrop:
      break;
    case Opcode::kAppend:
    case Opcode::kFlush:
      response.n = reader.Read<uint64_t>();
      break;
    case Opcode::kRank:
      response.ranks = reader.ReadVector<uint64_t>();
      break;
    case Opcode::kQuantiles:
    case Opcode::kCdf:
      response.values = reader.ReadVector<double>();
      break;
    case Opcode::kSnapshot:
      response.blob = reader.ReadVector<uint8_t>();
      break;
    case Opcode::kList: {
      if (paged_list) {
        response.list_paged = true;
        response.total = reader.Read<uint64_t>();
      }
      const uint64_t count = reader.Read<uint64_t>();
      // Each name costs at least its u64 length prefix on the wire, so a
      // count beyond remaining/8 is corrupt before any allocation.
      util::CheckData(count <= reader.remaining() / sizeof(uint64_t),
                      "metric count exceeds payload");
      util::CheckData(!response.list_paged || count <= response.total,
                      "LIST page larger than its match total");
      response.names.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) {
        response.names.push_back(reader.ReadString());
        ValidateMetricName(response.names.back());
      }
      break;
    }
    case Opcode::kStats: {
      const uint64_t count = reader.Read<uint64_t>();
      // Each counter costs at least its name's u64 length prefix plus
      // the u64 value, so bound the count before any allocation.
      util::CheckData(count <= reader.remaining() / (2 * sizeof(uint64_t)),
                      "stats count exceeds payload");
      response.stats.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) {
        std::string key = reader.ReadString();
        util::CheckData(!key.empty() && key.size() <= kMaxMetricNameLen,
                        "bad stats counter name");
        const uint64_t value = reader.Read<uint64_t>();
        response.stats.emplace_back(std::move(key), value);
      }
      break;
    }
  }
  util::CheckData(reader.AtEnd(), "trailing bytes in response");
  return response;
}

}  // namespace service
}  // namespace req

#endif  // REQSKETCH_SERVICE_WIRE_PROTOCOL_H_
