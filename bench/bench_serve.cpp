// Serving perf harness: cold-start cost of the zero-copy .armm mmap path
// vs the framed model.art load, in-process ServingModel::predict
// throughput at f64 and f32, and daemon round-trip throughput/latency
// (qps, p50/p99) at 1/4/16 concurrent connections, batched and unbatched —
// emitted as a machine-readable JSON report on stdout (scripts/bench.sh
// captures it into results/BENCH_serve.json; bench_util.h has the output
// contract). `--tiny` doubles as the `serve`-labeled sanitizer sweep. The
// query mix is the same seeded LCG scripts/loadgen.sh replays from the
// shell.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/artifact_map.h"
#include "core/durable.h"
#include "core/pipeline.h"
#include "core/server.h"
#include "core/serving.h"
#include "trace/world.h"

namespace {

namespace fs = std::filesystem;
using acbm::core::AdversaryModel;
using acbm::core::Precision;
using acbm::core::ServingModel;
using acbm::core::SpatiotemporalOptions;
using acbm::core::serve::Client;
using acbm::core::serve::Server;
using acbm::core::serve::ServerOptions;
using acbm::core::serve::Status;
using Clock = std::chrono::steady_clock;

using acbm::bench::BenchConfig;
using acbm::bench::BenchResult;
using acbm::bench::run_bench;
using acbm::bench::TempDir;

constexpr const char* kSuite = "serve";
constexpr const char* kTmpPrefix = "acbm_bench_serve";

/// The fitted model saved in both artifact formats, shared by every
/// benchmark (fitting dominates setup, not measurement).
struct Workload {
  TempDir dir{kTmpPrefix};
  fs::path armm_path;
  fs::path art_path;
  std::vector<acbm::net::Asn> targets;

  explicit Workload(const BenchConfig& config) {
    const acbm::trace::World world = acbm::trace::build_world(
        acbm::trace::small_world_options(config.tiny ? 37 : 5));
    SpatiotemporalOptions opts;
    opts.spatial.grid_search = false;
    if (config.tiny) opts.spatial.fixed.mlp.max_epochs = 40;
    AdversaryModel model(opts);
    model.fit(world.dataset, world.ip_map);
    const ServingModel serving =
        ServingModel::from_image(acbm::core::armm::pack_model(model));
    armm_path = dir.path / "model.armm";
    art_path = dir.path / "model.art";
    acbm::core::durable::atomic_write_file(armm_path, serving.image());
    std::ofstream out(art_path, std::ios::binary);
    model.save_framed(out);
    targets = serving.targets();
  }
};

/// Cold start, mmap path: map + validate + first forecast. ops = loads.
BenchResult bench_cold_mmap(const Workload& w, const BenchConfig& config) {
  const std::size_t loads = config.tiny ? 8 : 64;
  BenchResult result = run_bench(kSuite, "cold_start_mmap_armm", config, [&]() {
    double acc = 0.0;
    for (std::size_t i = 0; i < loads; ++i) {
      const ServingModel model = ServingModel::map_file(w.armm_path);
      acc += model.predict(w.targets.front())->magnitude;
    }
    return acc;
  });
  result.ops = static_cast<double>(loads);
  return result;
}

/// Cold start, framed path: map + CRC + deserialize + re-pack + first
/// forecast — what serving a model.art costs. ops = loads.
BenchResult bench_cold_framed(const Workload& w, const BenchConfig& config) {
  const std::size_t loads = config.tiny ? 1 : 3;
  BenchResult result =
      run_bench(kSuite, "cold_start_framed_art", config, [&]() {
        double acc = 0.0;
        for (std::size_t i = 0; i < loads; ++i) {
          const ServingModel model = ServingModel::load_any(w.art_path);
          acc += model.predict(w.targets.front())->magnitude;
        }
        return acc;
      });
  result.ops = static_cast<double>(loads);
  return result;
}

/// In-process forecast throughput: ServingModel::predict over every target
/// of the mapped artifact at one precision — the predictor `acbm predict`,
/// `evaluate --precision f32` and the daemon share, without the socket.
/// ops = forecasts.
BenchResult bench_serving_predict(const Workload& w, const BenchConfig& config,
                                  Precision precision) {
  const ServingModel model = ServingModel::map_file(w.armm_path);
  const std::size_t reps = config.tiny ? 2 : 50;
  BenchResult result = run_bench(
      kSuite,
      "serving_predict_" +
          std::string(acbm::core::precision_name(precision)),
      config, [&]() {
        double acc = 0.0;
        for (std::size_t r = 0; r < reps; ++r) {
          for (const acbm::net::Asn asn : w.targets) {
            acc += model.predict(asn, precision)->magnitude;
          }
        }
        return acc;
      });
  result.ops = static_cast<double>(reps * w.targets.size());
  return result;
}

/// Daemon round-trip load: `connections` client threads each replay a
/// seeded LCG mix of `per_conn` predicts (same generator as
/// scripts/loadgen.sh). Per-request latencies accumulate across repeats
/// for the percentile fields; ops = total requests per run.
BenchResult bench_daemon(const Workload& w, const BenchConfig& config,
                         std::size_t connections, bool batching) {
  TempDir dir(kTmpPrefix);
  ServerOptions opts;
  opts.socket_path = dir.path / "bench.sock";
  opts.models.emplace_back("m", w.armm_path);
  opts.threads = 4;
  opts.batching = batching;
  opts.watch_interval_ms = 0;  // No rotation in the timed loop.
  opts.preload = true;
  Server server(std::move(opts));
  server.start();

  const std::size_t per_conn = config.tiny ? 50 : 2000;
  std::vector<double> latencies_us;
  std::mutex lat_mu;
  const std::string name = "daemon_qps_c" + std::to_string(connections) +
                           (batching ? "" : "_unbatched");
  BenchResult result = run_bench(kSuite, name, config, [&]() {
    std::atomic<std::uint64_t> checksum{0};
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (std::size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c]() {
        Client client = Client::connect_unix(server.socket_path());
        std::vector<double> local;
        local.reserve(per_conn);
        std::uint64_t state = 1 + c;  // loadgen.sh's LCG, seeded per conn.
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < per_conn; ++i) {
          state = state * 6364136223846793005ull + 1442695040888963407ull;
          const acbm::net::Asn asn =
              w.targets[(state >> 33) % w.targets.size()];
          const auto t0 = Clock::now();
          const auto [status, pred] = client.predict("m", asn);
          const auto t1 = Clock::now();
          local.push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
          if (status == Status::kOk) {
            acc += static_cast<std::uint64_t>(pred->prediction.magnitude);
          }
        }
        checksum.fetch_add(acc);
        std::lock_guard lock(lat_mu);
        latencies_us.insert(latencies_us.end(), local.begin(), local.end());
      });
    }
    for (std::thread& t : threads) t.join();
    return static_cast<double>(checksum.load());
  });
  server.stop();
  result.ops = static_cast<double>(connections * per_conn);
  result.p50_us = acbm::bench::quantile(latencies_us, 0.50);
  result.p99_us = acbm::bench::quantile(latencies_us, 0.99);
  return result;
}

/// Headline ratio: per-load framed cost over per-load mmap cost.
std::optional<acbm::bench::SummaryField> cold_start_speedup(
    const std::vector<BenchResult>& results) {
  double mmap_per_load = 0.0, framed_per_load = 0.0;
  for (const BenchResult& r : results) {
    if (r.name == "cold_start_mmap_armm" && r.ops > 0.0) {
      mmap_per_load = acbm::bench::median(r.runs_ms) / r.ops;
    }
    if (r.name == "cold_start_framed_art" && r.ops > 0.0) {
      framed_per_load = acbm::bench::median(r.runs_ms) / r.ops;
    }
  }
  if (mmap_per_load <= 0.0) return std::nullopt;
  return acbm::bench::SummaryField{"cold_start_speedup",
                                   framed_per_load / mmap_per_load};
}

std::vector<BenchResult> run_suite(const BenchConfig& config) {
  std::fprintf(stderr, "[bench_serve] fitting workload model...\n");
  const Workload workload(config);
  std::vector<BenchResult> results;
  results.push_back(bench_cold_mmap(workload, config));
  results.push_back(bench_cold_framed(workload, config));
  results.push_back(bench_serving_predict(workload, config, Precision::kF64));
  results.push_back(bench_serving_predict(workload, config, Precision::kF32));
  for (const std::size_t connections : {1u, 4u, 16u}) {
    results.push_back(
        bench_daemon(workload, config, connections, /*batching=*/true));
  }
  results.push_back(bench_daemon(workload, config, 4, /*batching=*/false));
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  return acbm::bench::bench_main(argc, argv, kSuite, run_suite,
                                 cold_start_speedup);
}
