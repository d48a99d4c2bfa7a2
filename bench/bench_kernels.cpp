// Kernel-level perf harness: times the serial hot paths under the parallel
// fan-out (NAR/MLP training, OLS normal equations, GEMM, end-to-end
// spatiotemporal fit) and emits a machine-readable JSON report on stdout.
//
// Output contract (scripts/bench.sh): stdout carries exactly one JSON
// document; all progress goes to stderr, mirroring the `--fit-report -`
// convention. Each benchmark runs `repeat` times after one warmup and the
// report records per-run wall times plus the median, so successive PRs can
// compare BENCH_kernels.json files point-for-point.
//
// `--tiny` shrinks every workload to smoke-test size; it is wired into
// `ctest -L perf-smoke` (correctness + no-crash under sanitizers, not
// timing).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/spatiotemporal_model.h"
#include "nn/grid_search.h"
#include "nn/nar.h"
#include "stats/kernels.h"
#include "stats/matrix.h"
#include "stats/rng.h"
#include "trace/world.h"
#include "tree/model_tree.h"
#include "ts/arima.h"

namespace {

struct BenchConfig {
  std::size_t repeat = 5;
  bool tiny = false;
  std::string sha = "unknown";
  std::string cpu = "unknown";
};

struct BenchResult {
  std::string name;
  std::vector<double> runs_ms;
  double checksum = 0.0;  // Defeats dead-code elimination; sanity-checked.
  double ops = 0.0;       // Operations per run (forecasts, kernel calls);
                          // 0 = not a throughput benchmark.
};

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Runs `fn` (which returns a checksum) repeat+1 times, discarding the
/// warmup run, and reports wall times in milliseconds.
BenchResult run_bench(const std::string& name, const BenchConfig& config,
                      const std::function<double()>& fn) {
  BenchResult result;
  result.name = name;
  std::fprintf(stderr, "[bench_kernels] %s: warmup...\n", name.c_str());
  result.checksum = fn();
  for (std::size_t r = 0; r < config.repeat; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const double check = fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    result.runs_ms.push_back(ms);
    std::fprintf(stderr, "[bench_kernels] %s: run %zu/%zu %.3f ms\n",
                 name.c_str(), r + 1, config.repeat, ms);
    if (check != result.checksum) {
      std::fprintf(stderr,
                   "[bench_kernels] %s: WARNING nondeterministic checksum "
                   "(%.17g vs %.17g)\n",
                   name.c_str(), check, result.checksum);
    }
  }
  return result;
}

/// Deterministic noisy-seasonal series, the shape the NAR/ARIMA models see.
std::vector<double> synthetic_series(std::size_t n, std::uint64_t seed) {
  acbm::stats::Rng rng(seed);
  std::vector<double> xs(n);
  double level = 10.0;
  for (std::size_t t = 0; t < n; ++t) {
    level = 0.92 * level + rng.normal(0.8, 0.4);
    xs[t] = level + 3.0 * std::sin(static_cast<double>(t) * 0.35) +
            rng.normal(0.0, 0.25);
  }
  return xs;
}

BenchResult bench_nar_grid(const BenchConfig& config) {
  const std::size_t n = config.tiny ? 48 : 150;
  const std::vector<double> series = synthetic_series(n, 77);
  acbm::nn::NarGridOptions opts;
  if (config.tiny) {
    opts.delay_grid = {1, 2};
    opts.hidden_grid = {2};
    opts.mlp.max_epochs = 6;
  } else {
    opts.delay_grid = {1, 2, 3, 5};
    opts.hidden_grid = {2, 4, 8};
    opts.mlp.max_epochs = 60;
    opts.mlp.patience = 12;
  }
  return run_bench("nar_grid_fit", config, [&]() {
    const auto best = acbm::nn::nar_grid_search(series, opts);
    if (!best) return -1.0;
    return best->validation_rmse +
           static_cast<double>(best->delays * 100 + best->hidden_nodes);
  });
}

BenchResult bench_mlp_fit(const BenchConfig& config) {
  const std::size_t n = config.tiny ? 40 : 320;
  const std::size_t dim = 6;
  acbm::stats::Rng rng(123);
  std::vector<std::vector<double>> x(n, std::vector<double>(dim));
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double target = 0.3;
    for (std::size_t j = 0; j < dim; ++j) {
      x[i][j] = rng.normal(0.0, 1.0);
      target += (j % 2 == 0 ? 0.7 : -0.4) * std::tanh(x[i][j]);
    }
    y[i] = target + rng.normal(0.0, 0.05);
  }
  acbm::nn::MlpOptions opts;
  opts.hidden_units = 8;
  opts.max_epochs = config.tiny ? 6 : 120;
  opts.patience = 15;
  return run_bench("mlp_fit", config, [&]() {
    acbm::nn::Mlp net(opts);
    net.fit(x, y);
    return net.best_validation_loss();
  });
}

BenchResult bench_ols(const BenchConfig& config) {
  const std::size_t n = config.tiny ? 64 : 4096;
  const std::size_t k = config.tiny ? 4 : 24;
  const std::size_t refits = config.tiny ? 2 : 20;
  acbm::stats::Rng rng(321);
  acbm::stats::Matrix x(n, k);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double target = 1.5;
    for (std::size_t j = 0; j < k; ++j) {
      x(i, j) = rng.normal(0.0, 1.0);
      target += 0.1 * static_cast<double>(j + 1) * x(i, j);
    }
    y[i] = target + rng.normal(0.0, 0.1);
  }
  // `refits` mirrors a degradation ladder / auto-order selection loop that
  // re-solves the same design repeatedly.
  return run_bench("ols_normal_equations", config, [&]() {
    double acc = 0.0;
    for (std::size_t r = 0; r < refits; ++r) {
      const std::vector<double> beta =
          acbm::stats::solve_least_squares(x, y, 1e-8);
      acc += beta.front() + beta.back();
    }
    return acc;
  });
}

BenchResult bench_gemm(const BenchConfig& config) {
  const std::size_t n = config.tiny ? 24 : 192;
  acbm::stats::Rng rng(55);
  acbm::stats::Matrix a(n, n);
  acbm::stats::Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.normal(0.0, 1.0);
      b(i, j) = rng.normal(0.0, 1.0);
    }
  }
  return run_bench("gemm_blocked", config, [&]() {
    const acbm::stats::Matrix c = a * b;
    return c(0, 0) + c(n - 1, n - 1) + c.frobenius_norm();
  });
}

/// tanh over a block of hidden-unit-sized inputs in [-4, 4]: "std" is
/// libm's std::tanh per element, "scalar" the stats::tanh reference per
/// element, and an ISA name the block kernel dispatched at that ISA.
BenchResult bench_tanh(const BenchConfig& config, const std::string& variant) {
  const std::size_t n = config.tiny ? 1024 : std::size_t{1} << 16;
  const std::size_t passes = config.tiny ? 2 : 50;
  acbm::stats::Rng rng(17);
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-4.0, 4.0);
  std::vector<double> out(n);
  const acbm::stats::SimdIsa saved = acbm::stats::active_isa();
  acbm::stats::set_active_isa(acbm::stats::detected_isa());
  BenchResult result = run_bench("tanh_" + variant, config, [&]() {
    double acc = 0.0;
    for (std::size_t p = 0; p < passes; ++p) {
      if (variant == "std") {
        for (std::size_t i = 0; i < n; ++i) out[i] = std::tanh(x[i]);
      } else if (variant == "scalar") {
        for (std::size_t i = 0; i < n; ++i) out[i] = acbm::stats::tanh(x[i]);
      } else {
        acbm::stats::tanh(x, out);
      }
      acc += out[p % n];
    }
    return acc;
  });
  acbm::stats::set_active_isa(saved);
  result.ops = static_cast<double>(n * passes);
  return result;
}

/// The blocked gemm path pinned to one ISA (same matrices as gemm_blocked).
BenchResult bench_gemm_isa(const BenchConfig& config,
                           acbm::stats::SimdIsa isa) {
  const std::size_t n = config.tiny ? 24 : 192;
  acbm::stats::Rng rng(55);
  acbm::stats::Matrix a(n, n);
  acbm::stats::Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.normal(0.0, 1.0);
      b(i, j) = rng.normal(0.0, 1.0);
    }
  }
  const std::string name =
      std::string("gemm_") + acbm::stats::isa_name(isa);
  const acbm::stats::SimdIsa saved = acbm::stats::active_isa();
  acbm::stats::set_active_isa(isa);
  BenchResult result = run_bench(name, config, [&]() {
    const acbm::stats::Matrix c = a * b;
    return c(0, 0) + c(n - 1, n - 1) + c.frobenius_norm();
  });
  acbm::stats::set_active_isa(saved);
  return result;
}

/// Walk-forward ARIMA forecast throughput (the f32 serving path is timed
/// end to end by bench_serve's serving_predict_f32).
BenchResult bench_predict_arima(const BenchConfig& config) {
  const std::size_t n = config.tiny ? 80 : 400;
  const std::size_t start = config.tiny ? 20 : 50;
  const std::size_t reps = config.tiny ? 2 : 20;
  const std::vector<double> series = synthetic_series(n, 2024);
  acbm::ts::ArimaModel model({2, 1, 1});
  model.fit(series);
  const std::size_t forecasts = (n - start) * reps;
  BenchResult result = run_bench("predict_arima_f64", config, [&]() {
    double acc = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t t = start; t < n; ++t) {
        acc += model.forecast_one(std::span<const double>(series.data(), t));
      }
    }
    return acc;
  });
  result.ops = static_cast<double>(forecasts);
  return result;
}

/// Walk-forward NAR forecast throughput.
BenchResult bench_predict_nar(const BenchConfig& config) {
  const std::size_t n = config.tiny ? 60 : 300;
  const std::size_t start = config.tiny ? 12 : 10;
  const std::size_t reps = config.tiny ? 2 : 50;
  const std::vector<double> series = synthetic_series(n, 4096);
  acbm::nn::NarOptions opts;
  opts.delays = 3;
  opts.hidden_nodes = 8;
  opts.mlp.max_epochs = config.tiny ? 6 : 60;
  acbm::nn::NarModel model(opts);
  model.fit(series);
  const std::size_t forecasts = (n - start) * reps;
  BenchResult result = run_bench("predict_nar_f64", config, [&]() {
    double acc = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t t = start; t < n; ++t) {
        acc += model.forecast_one(std::span<const double>(series.data(), t));
      }
    }
    return acc;
  });
  result.ops = static_cast<double>(forecasts);
  return result;
}

/// Model-tree prediction throughput.
BenchResult bench_predict_tree(const BenchConfig& config) {
  const std::size_t n = config.tiny ? 200 : 2000;
  const std::size_t dim = 8;
  const std::size_t reps = config.tiny ? 2 : 50;
  acbm::stats::Rng rng(777);
  acbm::stats::Matrix x(n, dim);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double target = 0.5;
    for (std::size_t j = 0; j < dim; ++j) {
      x(i, j) = rng.normal(0.0, 1.0);
      target += (x(i, j) > 0.3 ? 0.8 : -0.2) * x(i, j);
    }
    y[i] = target + rng.normal(0.0, 0.05);
  }
  acbm::tree::ModelTreeOptions opts;
  opts.cart.max_depth = 6;
  acbm::tree::ModelTree model(opts);
  model.fit(x, y);
  const std::size_t predicts = n * reps;
  BenchResult result = run_bench("predict_tree_f64", config, [&]() {
    double acc = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < n; ++i) acc += model.predict(x.row(i));
    }
    return acc;
  });
  result.ops = static_cast<double>(predicts);
  return result;
}

BenchResult bench_st_fit(const BenchConfig& config) {
  // End-to-end spatiotemporal fit on the small world: exercises feature
  // extraction/caching, per-family ARIMA (OLS), per-target NAR (MLP), and
  // the combining tree in one number. Tiny mode shrinks the world itself
  // (fewer days/targets) so the smoke run finishes in well under a second
  // even under sanitizers.
  acbm::trace::WorldOptions world_opts =
      acbm::trace::small_world_options(2012);
  if (config.tiny) {
    world_opts.generator.days = 14;
    world_opts.generator.targets_per_family = 4;
    world_opts.generator.activity_scale = 0.5;
    world_opts.generator.emit_snapshots = false;
  }
  acbm::trace::World world = acbm::trace::build_world(world_opts);
  acbm::core::SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  opts.spatial.fixed.mlp.max_epochs = config.tiny ? 4 : 40;
  return run_bench("spatiotemporal_fit", config, [&]() {
    acbm::core::SpatiotemporalModel model(opts);
    model.fit(world.dataset, world.ip_map);
    return static_cast<double>(model.fit_report().records().size());
  });
}

void print_json(const BenchConfig& config,
                const std::vector<BenchResult>& results) {
  std::printf("{\n");
  std::printf("  \"schema\": \"acbm-bench-kernels-v2\",\n");
  std::printf("  \"git_sha\": \"%s\",\n", config.sha.c_str());
  std::printf("  \"isa\": \"%s\",\n",
              acbm::stats::isa_name(acbm::stats::detected_isa()));
  std::printf("  \"cpu\": \"%s\",\n", config.cpu.c_str());
  std::printf("  \"threads\": %zu, \n", acbm::core::num_threads());
  std::printf("  \"repeat\": %zu,\n", config.repeat);
  std::printf("  \"tiny\": %s,\n", config.tiny ? "true" : "false");
  std::printf("  \"unix_time\": %lld,\n",
              static_cast<long long>(std::time(nullptr)));
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
    std::printf("\"runs_ms\": [");
    for (std::size_t j = 0; j < r.runs_ms.size(); ++j) {
      std::printf("%s%.3f", j == 0 ? "" : ", ", r.runs_ms[j]);
    }
    std::printf("]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--repeat" && i + 1 < argc) {
      config.repeat = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--sha" && i + 1 < argc) {
      config.sha = argv[++i];
    } else if (arg == "--cpu" && i + 1 < argc) {
      config.cpu = argv[++i];
    } else if (arg == "--print-isa") {
      // scripts/bench.sh uses this to refuse cross-ISA comparisons.
      std::printf("%s\n", acbm::stats::isa_name(acbm::stats::detected_isa()));
      return 0;
    } else {
      std::fprintf(stderr,
                   "usage: bench_kernels [--tiny] [--repeat N] [--sha SHA] "
                   "[--cpu NAME] [--print-isa]\n");
      return 2;
    }
  }
  if (config.repeat == 0) config.repeat = 1;

  std::vector<BenchResult> results;
  results.push_back(bench_gemm(config));
  results.push_back(bench_gemm_isa(config, acbm::stats::SimdIsa::kScalar));
  if (acbm::stats::detected_isa() != acbm::stats::SimdIsa::kScalar) {
    results.push_back(bench_gemm_isa(config, acbm::stats::detected_isa()));
  }
  results.push_back(bench_tanh(config, "std"));
  results.push_back(bench_tanh(config, "scalar"));
  if (acbm::stats::detected_isa() != acbm::stats::SimdIsa::kScalar) {
    results.push_back(bench_tanh(
        config, acbm::stats::isa_name(acbm::stats::detected_isa())));
  }
  results.push_back(bench_ols(config));
  results.push_back(bench_mlp_fit(config));
  results.push_back(bench_nar_grid(config));
  results.push_back(bench_predict_arima(config));
  results.push_back(bench_predict_nar(config));
  results.push_back(bench_predict_tree(config));
  results.push_back(bench_st_fit(config));
  print_json(config, results);
  return 0;
}
