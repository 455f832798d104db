// Shared helpers for the paper-reproduction benchmark harnesses.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation section, printing the same rows/series. Absolute numbers differ
// from the 2013 testbed; the *shape* (who wins, by what factor, where
// crossovers fall) is the reproduction target — see EXPERIMENTS.md.
#ifndef TESLA_BENCH_BENCH_UTIL_H_
#define TESLA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

// Baked in by bench/CMakeLists.txt from `git rev-parse --short HEAD`.
#ifndef TESLA_GIT_SHA
#define TESLA_GIT_SHA "unknown"
#endif

namespace tesla::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// Runs `body(iterations)` with geometrically growing iteration counts until
// at least `min_seconds` elapses; returns seconds per iteration.
inline double TimePerOp(const std::function<void(int)>& body, double min_seconds = 0.2) {
  int iterations = 1;
  while (true) {
    auto begin = Clock::now();
    body(iterations);
    double elapsed = SecondsSince(begin);
    if (elapsed >= min_seconds) {
      break;
    }
    int grow = elapsed <= 0 ? 1000 : static_cast<int>(iterations * (min_seconds / elapsed) * 1.3);
    iterations = std::max(iterations * 2, grow);
  }
  // Repeat at the chosen count and keep the fastest run (noise floors out
  // scheduler interference on shared machines).
  double best = 1e300;
  for (int repeat = 0; repeat < 3; repeat++) {
    auto begin = Clock::now();
    body(iterations);
    best = std::min(best, SecondsSince(begin));
  }
  return best / iterations;
}

struct Row {
  std::string label;
  double value = 0;
  double baseline_ratio = 0;
};

inline void PrintHeader(const std::string& title, const std::string& value_unit) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-28s %14s %10s\n", "configuration", value_unit.c_str(), "vs base");
  std::printf("%-28s %14s %10s\n", "----------------------------", "--------------",
              "----------");
}

inline void PrintRow(const std::string& label, double value, double base) {
  std::printf("%-28s %14.3f %9.2fx\n", label.c_str(), value, base > 0 ? value / base : 0.0);
}

// Machine-readable results. Every bench binary, alongside its human-readable
// table, writes BENCH_<name>.json into $TESLA_BENCH_JSON_DIR (default: the
// directory holding the binary, so a bare run from the repository root never
// overwrites the committed reference BENCH_*.json there) so CI and
// regression tooling can diff runs without scraping stdout. Schema:
// bench/README.md.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : bench_(std::move(bench_name)) {}

  void Add(const std::string& metric, double value, const std::string& unit) {
    results_.push_back({metric, value, unit});
  }

  // Writes the report; returns false (after perror) if the file can't be
  // opened. Call once at the end of main().
  bool Write() const {
    std::string dir = ExecutableDir();
    if (const char* env = std::getenv("TESLA_BENCH_JSON_DIR"); env != nullptr && *env != '\0') {
      dir = env;
    }
    std::string path = dir + "/BENCH_" + bench_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::perror(path.c_str());
      return false;
    }
    std::fprintf(out, "{\n  \"bench\": \"%s\",\n  \"git_sha\": \"%s\",\n  \"results\": [\n",
                 Escape(bench_).c_str(), Escape(TESLA_GIT_SHA).c_str());
    for (size_t i = 0; i < results_.size(); i++) {
      const Result& r = results_[i];
      std::fprintf(out, "    {\"metric\": \"%s\", \"value\": %.9g, \"unit\": \"%s\"}%s\n",
                   Escape(r.metric).c_str(), r.value, Escape(r.unit).c_str(),
                   i + 1 < results_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Result {
    std::string metric;
    double value;
    std::string unit;
  };

  // The running binary's directory (Linux /proc/self/exe); "." if it
  // cannot be resolved.
  static std::string ExecutableDir() {
    char path[4096];
    const ssize_t n = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
    if (n <= 0) {
      return ".";
    }
    const std::string exe(path, static_cast<size_t>(n));
    const size_t slash = exe.rfind('/');
    return slash == std::string::npos || slash == 0 ? "." : exe.substr(0, slash);
  }

  static std::string Escape(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';  // metrics are code-controlled; control chars never valid
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  std::string bench_;
  std::vector<Result> results_;
};

// True when the caller asked for a fast smoke run (CI): iteration counts and
// instance populations should be scaled down so the binary finishes in
// seconds while still exercising every code path.
inline bool SmokeMode() {
  const char* env = std::getenv("TESLA_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(p * (values.size() - 1));
  return values[index];
}

}  // namespace tesla::bench

#endif  // TESLA_BENCH_BENCH_UTIL_H_
