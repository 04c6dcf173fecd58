// E17: end-to-end service-layer throughput, latency, and connection
// scalability.
//
// Claim under test: the reqd service layer serves multi-tenant quantile
// traffic at wire speed -- aggregate append throughput scales with client
// count until the transport saturates (each append applies its batch to
// the metric's sketch on the batch path), quantile queries answer from
// their metric's live sketch by selecting from its levels (no sorted view
// is built, so a query after a write pays no view rebuild, and a query
// repeated on an unchanged metric pays the selection again), and (since
// the epoll reactor) append latency survives high connection counts:
// holding 1024+ open connections costs epoll registrations and
// per-connection state, not threads, so the p99 at 1024 connections
// stays within 2x of the 8-connection p99 while the server runs a fixed
// worker pool.
//
// Setup: an in-process ReqdServer on an ephemeral loopback port.
//   Sweep 1 (throughput): for each client count C: C threads, each with
//   its own connection and its own plain metric, append items in
//   batches, then issue quantile queries one at a time, recording
//   per-request latency.
//   Sweep 2 (highconn): C connections multiplexed over a fixed driver
//   pool, every driver's connections appending to one shared plain
//   metric (many clients on one metric); every connection stays open
//   for the whole run and issues closed-loop APPEND round trips (one
//   untimed warmup round first). Reported: append RTT p50/p99 across all
//   connections.
//
// Hard gates (exit 1):
//   * reactor thread budget -- starting the server must add at most
//     workers + 2 threads (N event loops + the accept thread + slack);
//     a regression back to thread-per-connection fails immediately;
//   * flat-latency -- the highconn append p99 at the largest connection
//     count must stay within 2x of the 8-connection p99 (with a 1500us
//     absolute floor so microsecond jitter cannot fail the gate).
//
// Usage: bench_e17_service [--smoke] [--items N] [--out FILE]
//                          [--workers N] [server flags...]
//   --items: items per client in sweep 1 (default 200000; smoke 100000)
//   Any ReqdServer flag from service/server_flags.h (e.g. --workers,
//   --max-connections) configures the in-process server.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "service/req_client.h"
#include "service/reqd_server.h"
#include "service/server_flags.h"
#include "service/sketch_registry.h"
#include "util/random.h"

namespace {

using req::bench::Clock;
using req::bench::JsonWriter;
using req::bench::SecondsSince;
using req::service::MetricSpec;
using req::service::ReqClient;

struct RunResult {
  double append_wall_s = 0.0;
  std::vector<double> query_latency_us;  // all clients' requests pooled
};

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t at = static_cast<size_t>(
      p * static_cast<double>(values->size() - 1) + 0.5);
  return (*values)[at];
}

// "Threads:" from /proc/self/status -- the reactor thread-budget gate.
size_t ThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t count = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      count = std::strtoul(line + 8, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return count;
}

// Largest connection count this process can open against an in-process
// server: each connection costs TWO fds (client end + accepted end),
// plus slack for epoll/eventfd/files.
size_t UsableConnections() {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  if (rl.rlim_cur == RLIM_INFINITY) return 1u << 20;
  const size_t soft = static_cast<size_t>(rl.rlim_cur);
  return soft > 256 ? (soft - 256) / 2 : 0;
}

RunResult RunLoad(uint16_t port, size_t clients, size_t items, size_t batch,
                  size_t queries) {
  std::vector<std::thread> threads;
  std::vector<double> append_seconds(clients, 0.0);
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::string> failures(clients);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};

  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Every exit path must pass the start barrier, or a failed client
      // would leave the launcher spinning on `ready` forever; an
      // uncaught exception here would std::terminate the whole bench.
      try {
        ReqClient client;
        client.Connect("127.0.0.1", port);
        const std::string metric = "e17.plain.c" + std::to_string(c);
        MetricSpec spec;
        spec.base.k_base = 64;
        client.Create(metric, spec);
        req::util::Xoshiro256 rng(1234 + c);
        std::vector<double> chunk(batch);

        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }

        const auto append_start = Clock::now();
        for (size_t sent = 0; sent < items; sent += chunk.size()) {
          const size_t len = std::min(chunk.size(), items - sent);
          for (size_t i = 0; i < len; ++i) {
            chunk[i] = rng.NextDouble() * 1e6;
          }
          client.Append(metric, chunk.data(), len);
        }
        append_seconds[c] = SecondsSince(append_start);

        const std::vector<double> qs = {0.5, 0.9, 0.99, 0.999};
        // Untimed warmup: the first query after the append phase pays
        // the one-off snapshot/merge build. That cost is E16's metric;
        // here it would just masquerade as a tail-latency outlier (and
        // with the smoke run's small query count, as the p99 itself).
        for (int w = 0; w < 3; ++w) {
          req::bench::g_sink +=
              static_cast<uint64_t>(client.GetQuantiles(metric, qs)[0]);
        }
        latencies[c].reserve(queries);
        for (size_t q = 0; q < queries; ++q) {
          const auto start = Clock::now();
          req::bench::g_sink +=
              static_cast<uint64_t>(client.GetQuantiles(metric, qs)[0]);
          latencies[c].push_back(SecondsSince(start) * 1e6);
        }
        client.Drop(metric);
      } catch (const std::exception& e) {
        failures[c] = e.what();
        // Unblock the launcher even on pre-barrier failure (a second
        // add after a post-barrier failure is harmless: the spin tests
        // `ready < clients`).
        ready.fetch_add(1);
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < clients) {
    std::this_thread::yield();
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  for (size_t c = 0; c < clients; ++c) {
    if (!failures[c].empty()) {
      throw std::runtime_error("client " + std::to_string(c) +
                               " failed: " + failures[c]);
    }
  }

  RunResult result;
  for (size_t c = 0; c < clients; ++c) {
    result.append_wall_s =
        std::max(result.append_wall_s, append_seconds[c]);
    result.query_latency_us.insert(result.query_latency_us.end(),
                                   latencies[c].begin(),
                                   latencies[c].end());
  }
  return result;
}

struct HighConnResult {
  uint64_t appends = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// C connections held open simultaneously, multiplexed over a small
// fixed driver pool: each driver owns C/drivers blocking clients and
// round-robins one APPEND round trip per client per round. Closed-loop
// in-flight equals the driver count (bench CPU stays bounded), but the
// server carries all C connections -- epoll registrations, deadline
// fields, per-connection buffers -- for the whole run, which is
// exactly the cost the flat-latency gate measures.
HighConnResult RunHighConn(uint16_t port, size_t connections,
                           size_t rounds, size_t batch) {
  const size_t drivers = std::min<size_t>(connections, 8);
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> latencies(drivers);
  std::vector<std::string> failures(drivers);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};

  for (size_t d = 0; d < drivers; ++d) {
    // Split C across drivers, remainder on the low ranks.
    const size_t share =
        connections / drivers + (d < connections % drivers ? 1 : 0);
    threads.emplace_back([&, d, share] {
      try {
        const std::string metric = "e17.hc" + std::to_string(connections) +
                                   ".d" + std::to_string(d);
        std::vector<ReqClient> clients(share);
        for (ReqClient& client : clients) {
          client.Connect("127.0.0.1", port);
        }
        MetricSpec spec;
        spec.base.k_base = 64;
        clients.front().Create(metric, spec);
        req::util::Xoshiro256 rng(99 + d);
        std::vector<double> chunk(batch);
        for (size_t i = 0; i < batch; ++i) {
          chunk[i] = rng.NextDouble() * 1e6;
        }

        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }

        // Warmup round: first touch pays connection adoption and the
        // sketch's first level allocations -- not the steady-state RTT
        // under test.
        for (ReqClient& client : clients) {
          client.Append(metric, chunk.data(), chunk.size());
        }
        latencies[d].reserve(share * rounds);
        for (size_t round = 0; round < rounds; ++round) {
          for (ReqClient& client : clients) {
            const auto start = Clock::now();
            client.Append(metric, chunk.data(), chunk.size());
            latencies[d].push_back(SecondsSince(start) * 1e6);
          }
        }
        clients.front().Drop(metric);
      } catch (const std::exception& e) {
        failures[d] = e.what();
        ready.fetch_add(1);
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < drivers) {
    std::this_thread::yield();
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  for (size_t d = 0; d < drivers; ++d) {
    if (!failures[d].empty()) {
      throw std::runtime_error("highconn driver " + std::to_string(d) +
                               " failed: " + failures[d]);
    }
  }

  HighConnResult result;
  std::vector<double> pooled;
  for (std::vector<double>& lat : latencies) {
    pooled.insert(pooled.end(), lat.begin(), lat.end());
  }
  result.appends = pooled.size();
  result.p50_us = Percentile(&pooled, 0.50);
  result.p99_us = Percentile(&pooled, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // Server flags first (--workers, --max-connections, ...); leftovers
  // route into the bench's own parser (--smoke, --items, --out, ...).
  req::service::ServerFlags server_flags;
  std::string flag_error;
  std::vector<std::string> bench_rest;
  if (!req::service::ParseServerFlags(argc, argv, &server_flags,
                                      &flag_error, &bench_rest)) {
    std::fprintf(stderr, "%s\n", flag_error.c_str());
    return 2;
  }
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  for (std::string& s : bench_rest) bench_argv.push_back(s.data());
  req::bench::BenchArgs args = req::bench::ParseBenchArgs(
      static_cast<int>(bench_argv.size()), bench_argv.data(),
      "BENCH_e17_service.json");
  if (!args.ok) return 2;
  // Smoke keeps the sweep small (client counts {1,2}) but NOT the
  // per-client volume: the append window must stay in the tens of
  // milliseconds, or the gated Mups figure is computed over a
  // sub-millisecond slice and turns into a coin flip cross-machine.
  const size_t items = args.items > 0 ? args.items
                       : args.smoke   ? 100000
                                      : 200000;
  const size_t batch = 2000;
  const size_t queries = args.smoke ? 50 : 200;
  const std::vector<size_t> client_counts =
      args.smoke ? std::vector<size_t>{1, 2}
                 : std::vector<size_t>{1, 2, 4, 8};
  std::vector<size_t> conn_counts =
      args.smoke ? std::vector<size_t>{8, 1024}
                 : std::vector<size_t>{8, 512, 1024, 2048};
  const size_t hc_rounds = args.smoke ? 20 : 30;
  const size_t hc_batch = 64;

  // Every in-process connection costs two fds; drop sweep points the
  // fd limit cannot carry rather than dying mid-run on EMFILE.
  const size_t usable = UsableConnections();
  {
    std::vector<size_t> kept;
    for (size_t c : conn_counts) {
      if (c <= usable) {
        kept.push_back(c);
      } else {
        std::fprintf(stderr,
                     "e17: skipping %zu-connection sweep point "
                     "(RLIMIT_NOFILE allows ~%zu in-process connections; "
                     "raise ulimit -n)\n",
                     c, usable);
      }
    }
    conn_counts = std::move(kept);
  }

  req::bench::PrintBanner(
      "E17: multi-tenant service layer (reqd over loopback TCP)",
      "append throughput scales with clients; query p99 stays flat "
      "(quantiles are selected from the live sketch's levels); append p99 "
      "survives 1024+ connections (epoll reactor)");

  req::service::SketchRegistry registry;
  server_flags.server.port = 0;  // ephemeral: the bench finds its own port
  const size_t threads_before = ThreadCount();
  req::service::ReqdServer server(&registry, server_flags.server);
  server.Start();
  const size_t threads_after = ThreadCount();
  const size_t workers = server.WorkerCount();
  std::printf("reqd on 127.0.0.1:%u, %zu worker(s), %zu items/client, "
              "batch %zu\n",
              server.port(), workers, items, batch);

  // Gate 1: the reactor front end must cost a fixed thread pool --
  // workers + accept thread (+1 slack) -- independent of connections.
  if (threads_before > 0 && threads_after > 0) {
    const size_t added = threads_after - threads_before;
    if (added > workers + 2) {
      std::fprintf(stderr,
                   "E17 GATE FAILURE: server start added %zu threads "
                   "(budget: workers + 2 = %zu); thread-per-connection "
                   "regression?\n",
                   added, workers + 2);
      server.Stop();
      return 1;
    }
    std::printf("thread budget: +%zu threads for %zu workers (gate: "
                "<= %zu)\n\n",
                added, workers, workers + 2);
  }

  struct Row {
    size_t clients;
    double append_mups;
    double wall_s;
    double p50_us;
    double p99_us;
    size_t queries;
  };
  std::vector<Row> rows;

  std::printf("%9s %8s %14s %12s %12s\n", "engine", "clients",
              "append Mups", "query p50", "query p99");
  for (size_t clients : client_counts) {
    RunResult r;
    try {
      r = RunLoad(server.port(), clients, items, batch, queries);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e17 %zu-client run failed: %s\n", clients,
                   e.what());
      server.Stop();
      return 1;
    }
    Row row;
    row.clients = clients;
    row.wall_s = r.append_wall_s;
    row.append_mups = static_cast<double>(items) *
                      static_cast<double>(clients) / r.append_wall_s / 1e6;
    row.queries = r.query_latency_us.size();
    row.p50_us = Percentile(&r.query_latency_us, 0.50);
    row.p99_us = Percentile(&r.query_latency_us, 0.99);
    rows.push_back(row);
    std::printf("%9s %8zu %14.2f %9.1f us %9.1f us\n", "plain", clients,
                row.append_mups, row.p50_us, row.p99_us);
  }

  // Sweep 2: connection scalability.
  struct HighConnRow {
    size_t connections;
    HighConnResult r;
  };
  std::vector<HighConnRow> hc_rows;
  std::printf("\n%12s %10s %12s %12s\n", "connections", "appends",
              "append p50", "append p99");
  for (size_t connections : conn_counts) {
    // Small sweeps get more rounds: a p99 needs thousands of samples to
    // be a tail and not a max (8 conns x 20 rounds would be 160).
    const size_t rounds =
        std::max(hc_rounds, static_cast<size_t>(4096) / connections);
    HighConnResult r;
    try {
      r = RunHighConn(server.port(), connections, rounds, hc_batch);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e17 %zu-connection run failed: %s\n",
                   connections, e.what());
      server.Stop();
      return 1;
    }
    hc_rows.push_back({connections, r});
    std::printf("%12zu %10llu %9.1f us %9.1f us\n", connections,
                static_cast<unsigned long long>(r.appends), r.p50_us,
                r.p99_us);
  }
  server.Stop();

  // Gate 2: append p99 at the largest connection count within 2x of
  // the 8-connection p99 (1500us floor absorbs scheduler jitter on
  // small absolute latencies).
  bool gate_failed = false;
  if (hc_rows.size() >= 2 && hc_rows.front().connections == 8) {
    const double p99_low = hc_rows.front().r.p99_us;
    const HighConnRow& top = hc_rows.back();
    const double limit = std::max(2.0 * p99_low, 1500.0);
    if (top.r.p99_us > limit) {
      std::fprintf(stderr,
                   "E17 GATE FAILURE: append p99 at %zu connections is "
                   "%.1f us, limit %.1f us (2x the 8-connection p99 of "
                   "%.1f us, floor 1500 us)\n",
                   top.connections, top.r.p99_us, limit, p99_low);
      gate_failed = true;
    } else {
      std::printf("\nflat-latency gate: p99 %.1f us @ %zu conns vs "
                  "%.1f us @ 8 conns (limit %.1f us) -- ok\n",
                  top.r.p99_us, top.connections, p99_low, limit);
    }
  }

  // Summary: peak aggregate throughput and the p99 at the largest client
  // count (the "does latency survive load" number; the _us suffix keeps
  // it direction-aware for compare_bench.py).
  JsonWriter json;
  json.BeginObject()
      .Field("experiment", "e17_service")
      .HostField()
      .Field("items_per_client", static_cast<uint64_t>(items))
      .Field("batch", static_cast<uint64_t>(batch))
      .Field("workers", static_cast<uint64_t>(workers))
      .Field("smoke", args.smoke)
      .BeginArray("results");
  for (const Row& row : rows) {
    json.BeginObject()
        .Field("engine", "plain")
        .Field("clients", static_cast<uint64_t>(row.clients))
        .Field("append_mups", row.append_mups)
        .Field("append_wall_s", row.wall_s)
        .Field("queries", static_cast<uint64_t>(row.queries))
        .Field("query_p50_us", row.p50_us)
        .Field("query_p99_us", row.p99_us)
        .EndObject();
  }
  json.EndArray().BeginArray("highconn");
  for (const HighConnRow& row : hc_rows) {
    json.BeginObject()
        .Field("connections", static_cast<uint64_t>(row.connections))
        .Field("workers", static_cast<uint64_t>(workers))
        .Field("appends", row.r.appends)
        .Field("append_p50_us", row.r.p50_us)
        .Field("append_p99_us", row.r.p99_us)
        .EndObject();
  }
  json.EndArray().BeginArray("summary");
  double peak = 0.0;
  double p99_at_max = 0.0;
  size_t max_clients = 0;
  for (const Row& row : rows) {
    peak = std::max(peak, row.append_mups);
    if (row.clients >= max_clients) {
      max_clients = row.clients;
      p99_at_max = row.p99_us;
    }
  }
  json.BeginObject()
      .Field("engine", "plain")
      .Field("peak_append_mups", peak)
      .Field("max_clients_p99_us", p99_at_max)
      .EndObject();
  json.EndArray().EndObject();
  if (!json.WriteFile(args.out)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", args.out.c_str());
  return gate_failed ? 1 : 0;
}
