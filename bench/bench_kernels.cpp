// Kernel-level perf harness: times the serial hot paths under the parallel
// fan-out (NAR/MLP training, OLS normal equations, GEMM, end-to-end
// spatiotemporal fit) and emits a machine-readable JSON report on stdout
// (scripts/bench.sh captures it into results/BENCH_kernels.json;
// bench_util.h has the output contract).
#include <cmath>
#include <string>
#include <vector>

#include "bench_util.h"
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

using acbm::bench::BenchConfig;
using acbm::bench::BenchResult;
using acbm::bench::run_bench;

constexpr const char* kSuite = "kernels";

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
  return run_bench(kSuite, "nar_grid_fit", config, [&]() {
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
  return run_bench(kSuite, "mlp_fit", config, [&]() {
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
  return run_bench(kSuite, "ols_normal_equations", config, [&]() {
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
  return run_bench(kSuite, "gemm_blocked", config, [&]() {
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
  BenchResult result = run_bench(kSuite, "tanh_" + variant, config, [&]() {
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
  BenchResult result = run_bench(kSuite, name, config, [&]() {
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
  BenchResult result = run_bench(kSuite, "predict_arima_f64", config, [&]() {
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
  BenchResult result = run_bench(kSuite, "predict_nar_f64", config, [&]() {
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
  BenchResult result = run_bench(kSuite, "predict_tree_f64", config, [&]() {
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
  return run_bench(kSuite, "spatiotemporal_fit", config, [&]() {
    acbm::core::SpatiotemporalModel model(opts);
    model.fit(world.dataset, world.ip_map);
    return static_cast<double>(model.fit_report().records().size());
  });
}

std::vector<BenchResult> run_suite(const BenchConfig& config) {
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
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  return acbm::bench::bench_main(argc, argv, kSuite, run_suite);
}
