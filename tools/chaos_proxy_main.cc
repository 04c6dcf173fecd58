// chaos-proxy: standalone TCP fault injector (service/chaos_proxy.h) for
// exercising a live reqd (or any TCP service) over a degraded link.
//
// Usage:
//   chaos-proxy --upstream HOST:PORT [--listen-port P] [--seed S]
//               [--latency-ms N] [--jitter-ms N] [--throttle-bps N]
//               [--reset-after N] [--torn-after N] [--blackhole-after N]
//               [--refuse-first N] [--refuse] [--up-only] [--down-only]
//               [--port-file PATH]
//
//   --upstream HOST:PORT  where accepted connections are forwarded
//   --listen-port P       port to listen on (default 0 = ephemeral; the
//                         bound port is printed, and --port-file saves it)
//   --seed S              deterministic jitter stream (default 1)
//   --latency-ms N        add N ms to every forwarded chunk
//   --jitter-ms N         plus seeded uniform jitter in [0, N]
//   --throttle-bps N      pace each direction to N bytes/sec
//   --reset-after N       RST the connection after N bytes on a direction
//   --torn-after N        forward exactly N bytes, then RST (torn frame)
//   --blackhole-after N   swallow bytes past N while the sockets stay up
//   --refuse-first N      RST the first N connections, then behave
//   --refuse              RST every connection
//   --up-only/--down-only apply the byte faults to one direction only
//                         (default: both; latency/throttle also obey)
//   --port-file PATH      write the bound port (tmp + rename)
//
// Example -- a lossy link in front of a local daemon (the chaos-proxy
// command is one line):
//   reqd --port 7071 &
//   chaos-proxy --upstream 127.0.0.1:7071 --listen-port 7072
//       --latency-ms 5 --jitter-ms 10 --reset-after 1048576
//   req-cli --connect 127.0.0.1:7072 --load
//
// Runs until SIGINT/SIGTERM.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/chaos_proxy.h"

namespace {

bool ParseHostPort(const std::string& arg, std::string* host,
                   uint16_t* port) {
  const size_t colon = arg.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  *host = arg.substr(0, colon);
  const int p = std::atoi(arg.c_str() + colon + 1);
  if (p <= 0 || p > 65535) return false;
  *port = static_cast<uint16_t>(p);
  return true;
}

bool WritePortFile(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

uint64_t ParseU64(const char* arg, const char* flag) {
  const long long n = std::atoll(arg);
  if (n < 0) {
    std::fprintf(stderr, "%s must be >= 0\n", flag);
    std::exit(2);
  }
  return static_cast<uint64_t>(n);
}

}  // namespace

int main(int argc, char** argv) {
  std::string upstream_host;
  uint16_t upstream_port = 0;
  uint16_t listen_port = 0;
  std::string port_file;
  req::service::ChaosConfig config;
  req::service::ChaosDirection faults;  // applied per --up-only/--down-only
  bool up_only = false, down_only = false;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--upstream") == 0 && i + 1 < argc) {
      if (!ParseHostPort(argv[++i], &upstream_host, &upstream_port)) {
        std::fprintf(stderr, "bad --upstream (want HOST:PORT)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--listen-port") == 0 && i + 1 < argc) {
      listen_port =
          static_cast<uint16_t>(ParseU64(argv[++i], "--listen-port"));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      config.seed = ParseU64(argv[++i], "--seed");
    } else if (std::strcmp(argv[i], "--latency-ms") == 0 && i + 1 < argc) {
      faults.latency_ms =
          static_cast<uint32_t>(ParseU64(argv[++i], "--latency-ms"));
    } else if (std::strcmp(argv[i], "--jitter-ms") == 0 && i + 1 < argc) {
      faults.jitter_ms =
          static_cast<uint32_t>(ParseU64(argv[++i], "--jitter-ms"));
    } else if (std::strcmp(argv[i], "--throttle-bps") == 0 && i + 1 < argc) {
      faults.bytes_per_sec = ParseU64(argv[++i], "--throttle-bps");
    } else if (std::strcmp(argv[i], "--reset-after") == 0 && i + 1 < argc) {
      faults.reset_after_bytes = ParseU64(argv[++i], "--reset-after");
    } else if (std::strcmp(argv[i], "--torn-after") == 0 && i + 1 < argc) {
      faults.torn_after_bytes = ParseU64(argv[++i], "--torn-after");
    } else if (std::strcmp(argv[i], "--blackhole-after") == 0 &&
               i + 1 < argc) {
      faults.blackhole_after_bytes =
          ParseU64(argv[++i], "--blackhole-after");
    } else if (std::strcmp(argv[i], "--refuse-first") == 0 && i + 1 < argc) {
      config.refuse_first = ParseU64(argv[++i], "--refuse-first");
    } else if (std::strcmp(argv[i], "--refuse") == 0) {
      config.refuse_connects = true;
    } else if (std::strcmp(argv[i], "--up-only") == 0) {
      up_only = true;
    } else if (std::strcmp(argv[i], "--down-only") == 0) {
      down_only = true;
    } else if (std::strcmp(argv[i], "--port-file") == 0 && i + 1 < argc) {
      port_file = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (upstream_host.empty()) {
    std::fprintf(stderr, "--upstream HOST:PORT is required\n");
    return 2;
  }
  if (up_only && down_only) {
    std::fprintf(stderr, "--up-only and --down-only are exclusive\n");
    return 2;
  }
  if (!down_only) config.up = faults;
  if (!up_only) config.down = faults;

  try {
    // Block the shutdown signals before the proxy spawns its threads.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);

    config.listen_port = listen_port;
    req::service::ChaosProxy proxy(upstream_host, upstream_port, config);
    proxy.Start();
    std::printf("chaos-proxy on 127.0.0.1:%u -> %s:%u (seed %llu)\n",
                proxy.port(), upstream_host.c_str(), upstream_port,
                static_cast<unsigned long long>(config.seed));
    std::fflush(stdout);
    if (!port_file.empty() && !WritePortFile(port_file, proxy.port())) {
      std::fprintf(stderr, "chaos-proxy: cannot write --port-file %s\n",
                   port_file.c_str());
      return 1;
    }

    int sig = 0;
    sigwait(&set, &sig);
    proxy.Stop();
    std::printf(
        "signal %d: %llu accepted, %llu refused, %llu reset(s), "
        "%llu torn, %llu blackholed, %llu/%llu bytes up/down\n",
        sig, static_cast<unsigned long long>(proxy.Accepted()),
        static_cast<unsigned long long>(proxy.Refused()),
        static_cast<unsigned long long>(proxy.Resets()),
        static_cast<unsigned long long>(proxy.TornSends()),
        static_cast<unsigned long long>(proxy.Blackholed()),
        static_cast<unsigned long long>(proxy.BytesUp()),
        static_cast<unsigned long long>(proxy.BytesDown()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos-proxy: %s\n", e.what());
    return 1;
  }
  return 0;
}
