// Shared command-line parsing for everything that boots a ReqdServer:
// the reqd daemon, the service benches, and tests that spin up a daemon
// shape. One flag table, one validation pass -- a config option added
// here is immediately available to every embedder, instead of each
// binary growing its own drifting copy of the strtol ladder.
//
// The recognized flags (kept in sync with the usage block in
// tools/reqd_main.cc):
//
//   --bind ADDR            --port PORT            --workers N
//   --backlog N            --create NAME:KIND[:K_BASE]
//   --data-dir DIR         --fsync always|interval|never
//   --checkpoint-bytes N   --port-file PATH       --max-metrics N
//   --max-memory-bytes N   --evict-idle-ms N      --max-connections N
//   --idle-timeout-ms N    --request-budget-ms N
//
// Unknown arguments are an error by default; a caller that layers its
// own flags on top (bench_e17 adds --smoke/--out/...) passes
// `unconsumed` and routes the leftovers into its own parser.
#ifndef REQSKETCH_SERVICE_SERVER_FLAGS_H_
#define REQSKETCH_SERVICE_SERVER_FLAGS_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "persist/durability.h"
#include "service/reqd_server.h"
#include "service/wire_protocol.h"

namespace req {
namespace service {

// Everything the daemon shape is configured by: the server's transport
// config plus the registry/durability knobs that live outside
// ReqdServerConfig.
struct ServerFlags {
  ReqdServerConfig server;
  std::vector<std::pair<std::string, MetricSpec>> precreate;
  std::string data_dir;    // empty = memory-only
  std::string port_file;   // empty = don't write one
  uint64_t max_metrics = 0;
  uint64_t max_memory_bytes = 0;
  uint64_t evict_idle_ms = 0;
  persist::DurabilityOptions durability;
};

// Parses "NAME:KIND[:K_BASE]" (KIND: plain|windowed).
inline bool ParseCreateSpec(const std::string& arg, std::string* name,
                            MetricSpec* spec) {
  const size_t first = arg.find(':');
  if (first == std::string::npos || first == 0) return false;
  *name = arg.substr(0, first);
  const size_t second = arg.find(':', first + 1);
  const std::string kind = arg.substr(
      first + 1, second == std::string::npos ? std::string::npos
                                             : second - first - 1);
  if (kind == "plain") {
    spec->kind = EngineKind::kPlain;
  } else if (kind == "windowed") {
    spec->kind = EngineKind::kWindowed;
  } else {
    return false;
  }
  if (second != std::string::npos) {
    const long k = std::atol(arg.c_str() + second + 1);
    if (k <= 0) return false;
    spec->base.k_base = static_cast<uint32_t>(k);
  }
  return true;
}

inline bool ParseFsyncPolicy(const std::string& arg,
                             persist::FsyncPolicy* policy) {
  if (arg == "always") {
    *policy = persist::FsyncPolicy::kAlways;
  } else if (arg == "interval") {
    *policy = persist::FsyncPolicy::kInterval;
  } else if (arg == "never") {
    *policy = persist::FsyncPolicy::kNever;
  } else {
    return false;
  }
  return true;
}

namespace internal {

// Strict non-negative integer parse: rejects trailing garbage instead
// of atoll's silent truncation ("12x" is an error, not 12).
inline bool ParseNonNegative(const char* arg, uint64_t* value) {
  if (arg == nullptr || *arg == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(arg, &end, 10);
  if (errno != 0 || end == arg || *end != '\0' || v < 0) return false;
  *value = static_cast<uint64_t>(v);
  return true;
}

}  // namespace internal

// Parses argv[1..argc) into *flags. On a malformed flag value returns
// false with a one-line description in *error. When `unconsumed` is
// null an unrecognized argument is an error; otherwise it is appended
// to *unconsumed for the caller's own parser.
inline bool ParseServerFlags(int argc, char* const* argv, ServerFlags* flags,
                             std::string* error,
                             std::vector<std::string>* unconsumed = nullptr) {
  for (int i = 1; i < argc; ++i) {
    uint64_t value = 0;
    if (std::strcmp(argv[i], "--bind") == 0 && i + 1 < argc) {
      flags->server.bind_address = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      // Reject rather than truncate: --port 70000 must not silently
      // bind 4464 (port 0 stays legal: ephemeral).
      if (!internal::ParseNonNegative(argv[++i], &value) || value > 65535) {
        *error = "--port must be in [0, 65535]";
        return false;
      }
      flags->server.port = static_cast<uint16_t>(value);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      if (!internal::ParseNonNegative(argv[++i], &value) ||
          value > 1u << 16) {
        *error = "--workers must be in [0, 65536] (0 = hardware threads)";
        return false;
      }
      flags->server.workers = static_cast<uint32_t>(value);
    } else if (std::strcmp(argv[i], "--backlog") == 0 && i + 1 < argc) {
      if (!internal::ParseNonNegative(argv[++i], &value) || value > 65535) {
        *error = "--backlog must be in [0, 65535] (0 = auto)";
        return false;
      }
      flags->server.backlog = static_cast<int>(value);
    } else if (std::strcmp(argv[i], "--create") == 0 && i + 1 < argc) {
      std::string name;
      MetricSpec spec;
      if (!ParseCreateSpec(argv[++i], &name, &spec)) {
        *error = std::string("bad --create spec ") + argv[i] +
                 " (want NAME:KIND[:K_BASE])";
        return false;
      }
      flags->precreate.emplace_back(name, spec);
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      flags->data_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--fsync") == 0 && i + 1 < argc) {
      if (!ParseFsyncPolicy(argv[++i], &flags->durability.fsync)) {
        *error = "--fsync must be always|interval|never";
        return false;
      }
    } else if (std::strcmp(argv[i], "--checkpoint-bytes") == 0 &&
               i + 1 < argc) {
      if (!internal::ParseNonNegative(argv[++i], &value) || value == 0) {
        *error = "--checkpoint-bytes must be > 0";
        return false;
      }
      flags->durability.checkpoint_bytes = value;
    } else if (std::strcmp(argv[i], "--port-file") == 0 && i + 1 < argc) {
      flags->port_file = argv[++i];
    } else if (std::strcmp(argv[i], "--max-metrics") == 0 && i + 1 < argc) {
      if (!internal::ParseNonNegative(argv[++i], &flags->max_metrics)) {
        *error = "--max-metrics must be >= 0";
        return false;
      }
    } else if (std::strcmp(argv[i], "--max-memory-bytes") == 0 &&
               i + 1 < argc) {
      if (!internal::ParseNonNegative(argv[++i], &flags->max_memory_bytes)) {
        *error = "--max-memory-bytes must be >= 0";
        return false;
      }
    } else if (std::strcmp(argv[i], "--evict-idle-ms") == 0 &&
               i + 1 < argc) {
      if (!internal::ParseNonNegative(argv[++i], &flags->evict_idle_ms)) {
        *error = "--evict-idle-ms must be >= 0";
        return false;
      }
    } else if (std::strcmp(argv[i], "--max-connections") == 0 &&
               i + 1 < argc) {
      if (!internal::ParseNonNegative(argv[++i],
                                      &flags->server.max_connections)) {
        *error = "--max-connections must be >= 0";
        return false;
      }
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0 &&
               i + 1 < argc) {
      if (!internal::ParseNonNegative(argv[++i],
                                      &flags->server.idle_timeout_ms)) {
        *error = "--idle-timeout-ms must be >= 0";
        return false;
      }
    } else if (std::strcmp(argv[i], "--request-budget-ms") == 0 &&
               i + 1 < argc) {
      if (!internal::ParseNonNegative(argv[++i],
                                      &flags->server.request_budget_ms)) {
        *error = "--request-budget-ms must be >= 0";
        return false;
      }
    } else if (unconsumed != nullptr) {
      unconsumed->push_back(argv[i]);
    } else {
      *error = std::string("unknown flag: ") + argv[i];
      return false;
    }
  }
  return true;
}

}  // namespace service
}  // namespace req

#endif  // REQSKETCH_SERVICE_SERVER_FLAGS_H_
