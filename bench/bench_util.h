// Shared helpers for the reproduction benches (paper-scale world
// construction, fixed-width table printing, and ASCII histograms that stand
// in for the paper's figures) and the one harness of the JSON perf benches
// (bench_kernels, bench_ingest, bench_serve, bench_generate).
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/spatiotemporal_model.h"
#include "stats/kernels.h"
#include "trace/world.h"

namespace acbm::bench {

/// The paper-scale world every reproduction bench runs against. Seed fixed
/// so all benches describe the same trace.
inline trace::World make_paper_world(std::uint64_t seed = 2012) {
  return trace::build_world(trace::paper_world_options(seed));
}

/// Spatiotemporal options tuned for bench runtime: fixed NAR architecture
/// instead of per-target grid search (see bench_ablations for the
/// grid-search comparison).
inline core::SpatiotemporalOptions bench_st_options() {
  core::SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  opts.spatial.fixed.mlp.max_epochs = 120;
  return opts;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

inline void print_header(const std::string& title) {
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

/// Renders a histogram of `values` over [lo, hi) as rows of '#' bars.
inline void print_histogram(std::span<const double> values, double lo,
                            double hi, std::size_t bins,
                            const std::string& label) {
  std::vector<std::size_t> counts(bins, 0);
  for (double v : values) {
    double clamped = v;
    if (clamped < lo) clamped = lo;
    if (clamped >= hi) clamped = hi - 1e-9;
    const auto bin = static_cast<std::size_t>((clamped - lo) / (hi - lo) *
                                              static_cast<double>(bins));
    ++counts[bin < bins ? bin : bins - 1];
  }
  std::size_t max_count = 1;
  for (std::size_t c : counts) max_count = c > max_count ? c : max_count;
  std::printf("%s (n=%zu)\n", label.c_str(), values.size());
  const double width = (hi - lo) / static_cast<double>(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    const double bin_lo = lo + width * static_cast<double>(b);
    std::printf("  [%7.2f,%7.2f) %6zu |", bin_lo, bin_lo + width, counts[b]);
    const auto bar = static_cast<std::size_t>(
        50.0 * static_cast<double>(counts[b]) / static_cast<double>(max_count));
    for (std::size_t i = 0; i < bar; ++i) std::fputc('#', stdout);
    std::fputc('\n', stdout);
  }
}

/// Per-element absolute errors |truth - pred|.
inline std::vector<double> abs_errors(std::span<const double> truth,
                                      std::span<const double> pred) {
  std::vector<double> out;
  out.reserve(truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double d = truth[i] - pred[i];
    out.push_back(d < 0 ? -d : d);
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON perf harness. Contract (scripts/bench.sh): stdout carries exactly one
// JSON document of schema acbm-bench-v1; all progress goes to stderr. Each
// benchmark runs one warmup and then `repeat` timed runs, and the report
// records per-run wall times plus the median. `--tiny` shrinks every
// workload to smoke-test size for the `perf-smoke` ctests (correctness and
// no-crash under sanitizers, not timing).

struct BenchConfig {
  std::size_t repeat = 5;
  bool tiny = false;
  std::string sha = "unknown";
  std::string cpu = "unknown";
};

struct BenchResult {
  std::string name;
  std::vector<double> runs_ms;
  double checksum = 0.0;  // Defeats dead-code elimination; every run must
                          // reproduce the warmup's value exactly.
  double ops = 0.0;       // Operations per run; 0 = not a throughput bench.
  std::optional<double> p50_us;  // Per-operation latency quantiles, where
  std::optional<double> p99_us;  // the benchmark measures them.
};

/// A non-finite checksum, or a timed run whose checksum differs from the
/// warmup's: the workload is broken or nondeterministic, so its timings
/// describe nothing.
class BadChecksum : public std::runtime_error {
 public:
  BadChecksum(const std::string& name, double warmup, double run)
      : std::runtime_error(format(name, warmup, run)) {}

 private:
  static std::string format(const std::string& name, double warmup,
                            double run) {
    char buf[160];
    std::snprintf(buf, sizeof buf, " (warmup %.17g, run %.17g)", warmup, run);
    return "bad checksum in " + name + buf;
  }
};

inline double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// The element at rank floor(q * (n - 1)) of the sorted sample; 0 if empty.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto at =
      static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1));
  return xs[std::min(xs.size() - 1, at)];
}

/// Runs `fn` (which returns a checksum) once as a warmup and then `repeat`
/// timed times, logging each run to stderr as `[bench_<suite>]`. Throws
/// BadChecksum when a checksum is non-finite or drifts between runs.
inline BenchResult run_bench(const std::string& suite, const std::string& name,
                             const BenchConfig& config,
                             const std::function<double()>& fn) {
  BenchResult result;
  result.name = name;
  std::fprintf(stderr, "[bench_%s] %s: warmup...\n", suite.c_str(),
               name.c_str());
  result.checksum = fn();
  if (!std::isfinite(result.checksum)) {
    throw BadChecksum(name, result.checksum, result.checksum);
  }
  for (std::size_t r = 0; r < config.repeat; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const double check = fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    result.runs_ms.push_back(ms);
    std::fprintf(stderr, "[bench_%s] %s: run %zu/%zu %.3f ms\n",
                 suite.c_str(), name.c_str(), r + 1, config.repeat, ms);
    if (check != result.checksum) {
      throw BadChecksum(name, result.checksum, check);
    }
  }
  return result;
}

/// A RAII scratch directory, `<tmp>/<prefix>_<pid>_<n>`, removed on scope
/// exit so repeated runs never accumulate files.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& prefix) {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           (prefix + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

/// One suite-specific numeric header field (bench_serve's
/// cold_start_speedup), written with one decimal.
struct SummaryField {
  std::string key;
  double value = 0.0;
};

/// Writes the acbm-bench-v1 report on stdout.
inline void print_report(const std::string& suite, const BenchConfig& config,
                         const std::vector<BenchResult>& results,
                         const std::optional<SummaryField>& summary) {
  std::printf("{\n");
  std::printf("  \"schema\": \"acbm-bench-v1\",\n");
  std::printf("  \"suite\": \"%s\",\n", suite.c_str());
  std::printf("  \"git_sha\": \"%s\",\n", config.sha.c_str());
  std::printf("  \"cpu\": \"%s\",\n", config.cpu.c_str());
  std::printf("  \"isa\": \"%s\",\n",
              stats::isa_name(stats::active_isa()));
  std::printf("  \"threads\": %zu,\n", core::num_threads());
  std::printf("  \"repeat\": %zu,\n", config.repeat);
  std::printf("  \"tiny\": %s,\n", config.tiny ? "true" : "false");
  std::printf("  \"unix_time\": %lld,\n",
              static_cast<long long>(std::time(nullptr)));
  if (summary) {
    std::printf("  \"%s\": %.1f,\n", summary->key.c_str(), summary->value);
  }
  std::printf("  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    const double med = median(r.runs_ms);
    std::printf("    {\"name\": \"%s\", \"median_ms\": %.3f, "
                "\"min_ms\": %.3f, \"checksum\": %.17g, ",
                r.name.c_str(), med,
                *std::min_element(r.runs_ms.begin(), r.runs_ms.end()),
                r.checksum);
    if (r.ops > 0.0 && med > 0.0) {
      std::printf("\"ops_per_run\": %.0f, \"ops_per_sec\": %.0f, ", r.ops,
                  r.ops / (med / 1000.0));
    }
    if (r.p50_us && r.p99_us) {
      std::printf("\"p50_us\": %.1f, \"p99_us\": %.1f, ", *r.p50_us,
                  *r.p99_us);
    }
    std::printf("\"runs_ms\": [");
    for (std::size_t j = 0; j < r.runs_ms.size(); ++j) {
      std::printf("%s%.3f", j == 0 ? "" : ", ", r.runs_ms[j]);
    }
    std::printf("]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

using SuiteFn = std::function<std::vector<BenchResult>(const BenchConfig&)>;
using SummaryFn = std::function<std::optional<SummaryField>(
    const std::vector<BenchResult>&)>;

/// The main of every JSON perf bench: parses `--tiny`, `--repeat N`,
/// `--sha SHA`, `--cpu NAME` and `--print-isa` (which prints the ISA the
/// report records and exits; scripts/bench.sh refuses cross-ISA
/// overwrites with it), runs the suite and writes its report. Exits 2 on
/// a usage error and 1 on a bad checksum.
inline int bench_main(int argc, char** argv, const std::string& suite,
                      const SuiteFn& run_suite,
                      const SummaryFn& summarize = nullptr) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--repeat" && i + 1 < argc) {
      config.repeat =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--sha" && i + 1 < argc) {
      config.sha = argv[++i];
    } else if (arg == "--cpu" && i + 1 < argc) {
      config.cpu = argv[++i];
    } else if (arg == "--print-isa") {
      std::printf("%s\n", stats::isa_name(stats::active_isa()));
      return 0;
    } else {
      std::fprintf(stderr,
                   "usage: bench_%s [--tiny] [--repeat N] [--sha SHA] "
                   "[--cpu NAME] [--print-isa]\n",
                   suite.c_str());
      return 2;
    }
  }
  if (config.repeat == 0) config.repeat = 1;
  try {
    const std::vector<BenchResult> results = run_suite(config);
    print_report(suite, config, results,
                 summarize ? summarize(results) : std::nullopt);
  } catch (const BadChecksum& e) {
    std::fprintf(stderr, "[bench_%s] %s\n", suite.c_str(), e.what());
    return 1;
  }
  return 0;
}

}  // namespace acbm::bench
