// Shared helpers for the experiment binaries (E1..E16): the streaming JSON
// report writer, the wall-clock timer, the optimizer sink, uniform
// command-line parsing (--smoke / --items / --reps / --out / --baseline),
// and the table-printing utilities. Each bench prints a self-describing
// table and writes a machine-readable BENCH_*.json validated by
// tools/check_bench_schema.py; EXPERIMENTS.md records the expected shapes
// and a captured run. The gated reports (E13..E20) also record the host
// they ran on (JsonWriter::HostField), which tools/compare_bench.py
// checks before it compares two reports.
#ifndef REQSKETCH_BENCH_BENCH_UTIL_H_
#define REQSKETCH_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/metrics.h"

// CMake passes the configuration the benches were built in.
#ifndef REQSKETCH_BUILD_TYPE
#define REQSKETCH_BUILD_TYPE "unknown"
#endif

namespace req {
namespace bench {

// --- timing / sinks --------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// A sink the optimizer cannot remove.
inline volatile uint64_t g_sink = 0;

// --- command line ----------------------------------------------------------

// The uniform flag set of the bench suite. Benches read back only the
// fields they care about; `items`/`reps` are 0 when not given so callers
// keep their own defaults. `ok == false` means an unknown flag or bad
// value was seen (and reported to stderr): exit non-zero.
struct BenchArgs {
  size_t items = 0;
  int reps = 0;
  bool smoke = false;
  std::string out;
  std::string baseline;
  bool ok = true;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv,
                                const std::string& default_out) {
  BenchArgs args;
  args.out = default_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--items") == 0 && i + 1 < argc) {
      args.items = static_cast<size_t>(
          std::strtoull(argv[++i], nullptr, 10));
      if (args.items == 0) {
        std::fprintf(stderr, "--items must be positive\n");
        args.ok = false;
      }
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      args.reps = std::atoi(argv[++i]);
      if (args.reps <= 0) {
        std::fprintf(stderr, "--reps must be positive\n");
        args.ok = false;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      args.out = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      args.baseline = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag or missing value: %s\n", argv[i]);
      args.ok = false;
    }
  }
  return args;
}

// Reads a whole text file (for splicing a previously captured JSON report
// into a fresh one via JsonWriter::RawField); empty on failure.
inline std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::string();
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  return text;
}

// A minimal streaming JSON writer, just enough for the machine-readable
// bench outputs (BENCH_*.json): nested objects/arrays with string, number
// and boolean fields, plus raw embedding of pre-serialized JSON (used to
// splice a captured baseline run into a fresh report). No dependencies, no
// escaping beyond what bench strings need.
class JsonWriter {
 public:
  JsonWriter() { out_.reserve(4096); }

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& BeginObject(const std::string& key) { return Open('{', &key); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& BeginArray(const std::string& key) { return Open('[', &key); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Field(const std::string& key, const std::string& value) {
    Prefix(&key);
    Quoted(value);
    return *this;
  }
  JsonWriter& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }
  JsonWriter& Field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    Prefix(&key);
    out_ += buf;
    return *this;
  }
  JsonWriter& Field(const std::string& key, uint64_t value) {
    Prefix(&key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& Field(const std::string& key, int value) {
    Prefix(&key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& Field(const std::string& key, bool value) {
    Prefix(&key);
    out_ += value ? "true" : "false";
    return *this;
  }
  // The host this report ran on, as a "host" object: cores online,
  // compiler and build type. Numbers from two hosts do not compare, and
  // tools/compare_bench.py says so when the fingerprints differ.
  JsonWriter& HostField() {
#if defined(__clang__)
    const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char* compiler = "gcc " __VERSION__;
#else
    const char* compiler = "unknown";
#endif
    return BeginObject("host")
        .Field("cores_online",
               static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
        .Field("compiler", compiler)
        .Field("build_type", REQSKETCH_BUILD_TYPE)
        .EndObject();
  }

  // Embeds `raw` verbatim as the value of `key`; the caller guarantees it
  // is valid JSON (e.g. the contents of a previously written report).
  JsonWriter& RawField(const std::string& key, const std::string& raw) {
    Prefix(&key);
    out_ += raw;
    return *this;
  }

  const std::string& str() const { return out_; }

  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const size_t written = std::fwrite(out_.data(), 1, out_.size(), f);
    const bool ok = written == out_.size() && std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
  }

 private:
  JsonWriter& Open(char bracket, const std::string* key = nullptr) {
    Prefix(key);
    out_ += bracket;
    comma_stack_.push_back(false);
    return *this;
  }
  JsonWriter& Close(char bracket) {
    out_ += bracket;
    comma_stack_.pop_back();
    return *this;
  }
  // Writes the separating comma and (inside objects) the quoted key.
  void Prefix(const std::string* key) {
    if (!comma_stack_.empty()) {
      if (comma_stack_.back()) out_ += ',';
      comma_stack_.back() = true;
    }
    if (key != nullptr) {
      Quoted(*key);
      out_ += ':';
    }
  }
  void Quoted(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> comma_stack_;
};

inline void PrintBanner(const std::string& id, const std::string& claim) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", id.c_str());
  std::printf("claim: %s\n", claim.c_str());
  std::printf("==============================================================="
              "=================\n");
}

// A named rank estimator under evaluation.
struct Contender {
  std::string name;
  std::function<uint64_t(double)> rank_of;  // estimated # items <= y
  size_t retained = 0;                      // stored items (space measure)
};

// Measures each contender on the given exact ranks and prints one row per
// rank with per-contender relative errors. `from_high_end` selects the
// denominator: n - R + 1 (HRA-style guarantee) or R.
inline void PrintErrorVsRankTable(const sim::RankOracle& oracle,
                                  const std::vector<Contender>& contenders,
                                  const std::vector<uint64_t>& ranks,
                                  bool from_high_end) {
  std::printf("%14s", from_high_end ? "rank (of n)" : "rank");
  for (const auto& c : contenders) {
    std::printf(" %14s", c.name.c_str());
  }
  std::printf("\n");
  const uint64_t n = oracle.n();
  for (uint64_t r : ranks) {
    const double item = oracle.ItemAtRank(r);
    const uint64_t exact = oracle.RankInclusive(item);
    std::printf("%14llu", static_cast<unsigned long long>(exact));
    for (const auto& c : contenders) {
      const uint64_t est = c.rank_of(item);
      const double denom =
          from_high_end ? static_cast<double>(n - exact + 1)
                        : static_cast<double>(exact);
      const double rel = std::abs(static_cast<double>(est) -
                                  static_cast<double>(exact)) /
                         std::max(1.0, denom);
      std::printf(" %14.5f", rel);
    }
    std::printf("\n");
  }
  std::printf("%14s", "retained");
  for (const auto& c : contenders) {
    std::printf(" %14zu", c.retained);
  }
  std::printf("\n");
}

// Max/mean relative error of one estimator over a rank grid.
inline sim::ErrorSummary MeasureErrors(
    const sim::RankOracle& oracle,
    const std::function<uint64_t(double)>& rank_of,
    const std::vector<uint64_t>& ranks, bool from_high_end) {
  return sim::Summarize(
      sim::EvaluateRankErrors(oracle, rank_of, ranks, from_high_end));
}

}  // namespace bench
}  // namespace req

#endif  // REQSKETCH_BENCH_BENCH_UTIL_H_
