// Performance microbenchmarks (google-benchmark): fitting and prediction
// throughput of every model in the stack, plus the substrate hot paths
// (LPM lookup, the per-attack source table, valley-free distance, A^s
// feature, Gao inference, trace generation, dataset CSV writing and
// parsing).
#include <benchmark/benchmark.h>

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/features.h"
#include "core/parallel.h"
#include "core/temporal_model.h"
#include "net/gao.h"
#include "net/ipv4_dispatch.h"
#include "net/routing.h"
#include "nn/grid_search.h"
#include "nn/nar.h"
#include "stats/matrix.h"
#include "stats/rng.h"
#include "tree/model_tree.h"
#include "trace/world.h"
#include "ts/arima.h"

namespace {

using namespace acbm;

const trace::World& shared_world() {
  static const trace::World world =
      trace::build_world(trace::small_world_options(99));
  return world;
}

std::vector<double> ar_series(std::size_t n) {
  stats::Rng rng(7);
  std::vector<double> xs;
  double prev = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    prev = 0.7 * prev + rng.normal();
    xs.push_back(prev);
  }
  return xs;
}

void BM_ArimaFit(benchmark::State& state) {
  const auto xs = ar_series(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ts::ArimaModel model({2, 0, 1});
    model.fit(xs);
    benchmark::DoNotOptimize(model.aic());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ArimaFit)->Arg(500)->Arg(5000)->Arg(30000);

void BM_ArimaOneStepPredictions(benchmark::State& state) {
  const auto xs = ar_series(static_cast<std::size_t>(state.range(0)));
  ts::ArimaModel model({2, 0, 1});
  model.fit(xs);
  const std::size_t start = xs.size() * 8 / 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.one_step_predictions(xs, start));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(xs.size() - start));
}
BENCHMARK(BM_ArimaOneStepPredictions)->Arg(5000)->Arg(30000);

void BM_NarFit(benchmark::State& state) {
  const auto xs = ar_series(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    nn::NarOptions opts;
    opts.delays = 3;
    opts.hidden_nodes = 8;
    opts.mlp.max_epochs = 100;
    nn::NarModel model(opts);
    model.fit(xs);
    benchmark::DoNotOptimize(model.forecast_one(xs));
  }
}
BENCHMARK(BM_NarFit)->Arg(200)->Arg(1000);

void BM_ModelTreeFit(benchmark::State& state) {
  stats::Rng rng(11);
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Matrix x(n, 5);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 5; ++j) x(i, j) = rng.uniform();
    y[i] = (x(i, 0) < 0.5 ? 2.0 * x(i, 1) : -x(i, 2)) + rng.normal(0.0, 0.1);
  }
  for (auto _ : state) {
    tree::ModelTree tree;
    tree.fit(x, y);
    benchmark::DoNotOptimize(tree.leaf_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ModelTreeFit)->Arg(1000)->Arg(10000);

// Arg 0: the world's own map (disjoint /20 blocks). Arg 1: the same blocks
// nested under one covering 10.0.0.0/8, the shape that used to make a
// lookup scan the whole table.
void BM_LpmLookup(benchmark::State& state) {
  const trace::World& world = shared_world();
  net::IpToAsnMap nested;
  if (state.range(0) == 1) {
    std::vector<std::pair<net::Prefix, net::Asn>> entries{
        {net::parse_prefix("10.0.0.0/8"), 1}};
    for (const net::Asn asn : world.topology.graph.ases()) {
      for (const net::Prefix& prefix : world.ip_map.prefixes_of(asn)) {
        entries.emplace_back(prefix, asn);
      }
    }
    nested = net::IpToAsnMap(std::move(entries));
  }
  const net::IpToAsnMap& map = state.range(0) == 1 ? nested : world.ip_map;
  std::vector<net::Ipv4> probes;
  for (const auto& attack : world.dataset.attacks()) {
    for (const net::Ipv4& bot : attack.bots) {
      probes.push_back(bot);
      if (probes.size() >= 4096) break;
    }
    if (probes.size() >= 4096) break;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.lookup(probes[i++ % probes.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LpmLookup)->Arg(0)->Arg(1);

// The dataset CSV reader on the shared world's trace (about 16 MB, above
// trace::kCsvParallelFloor, so it parses in chunks), in bytes per second:
// what every CSV input of the CLI (`acbm fit --dataset`, `ingest --init`
// and `--snapshot`) parses with. The arg pins the thread count; Arg(1) is
// the one-chunk baseline.
void BM_DatasetLoadCsv(benchmark::State& state) {
  core::set_num_threads(static_cast<std::size_t>(state.range(0)));
  std::string csv;
  for (const std::string& part : shared_world().dataset.csv_parts()) {
    csv += part;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::Dataset::load_csv(csv));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(csv.size()));
  core::set_num_threads(0);
}
BENCHMARK(BM_DatasetLoadCsv)
    ->Arg(1)->Arg(4)
    ->UseRealTime()  // The pool's CPU is not the calling thread's.
    ->Unit(benchmark::kMillisecond);

// The bot-address parser on the shared world's bot lists written as the CSV
// writes them ("a.b.c.d;a.b.c.d;..."), each address parsed from the rest
// of its list the way the CSV reader does, in addresses per second. Arg 0:
// the scalar loop; Arg 1: what parse_ipv4_prefix dispatches to (the SSSE3
// path where the build and CPU have it and ACBM_SIMD is not off).
void BM_ParseIpv4(benchmark::State& state) {
  std::string text;
  std::size_t addresses = 0;
  char buf[net::kMaxIpv4Chars];
  for (const auto& attack : shared_world().dataset.attacks()) {
    for (const net::Ipv4& bot : attack.bots) {
      text.append(buf, net::format_ipv4(buf, bot));
      text += ';';
      ++addresses;
    }
    if (addresses >= 200000) break;
  }
  const net::detail::ParseIpv4Fn parse =
      state.range(0) == 0 ? &net::detail::parse_ipv4_prefix_scalar
                          : net::detail::active_ipv4_parser();
  for (auto _ : state) {
    std::string_view rest = text;
    std::uint32_t sum = 0;
    while (!rest.empty()) {
      net::Ipv4 addr;
      const std::size_t used = parse(rest, addr);
      sum += addr.value;
      rest.remove_prefix(used + 1);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(addresses));
}
BENCHMARK(BM_ParseIpv4)->Arg(0)->Arg(1);

// The dataset CSV writer on the same trace, in bytes per second: the parts
// `acbm generate` and every model save write the embedded trace from.
void BM_DatasetSaveCsv(benchmark::State& state) {
  core::set_num_threads(static_cast<std::size_t>(state.range(0)));
  const trace::Dataset& dataset = shared_world().dataset;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::vector<std::string> parts = dataset.csv_parts();
    bytes = 0;
    for (const std::string& part : parts) bytes += part.size();
    benchmark::DoNotOptimize(parts.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  core::set_num_threads(0);
}
BENCHMARK(BM_DatasetSaveCsv)
    ->Arg(1)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The binary codec of the stored dataset block on the same trace, in bytes
// per second of the block: what every model save and ingest append writes
// (Dataset::binary_parts) and every model load and ingest cumulative()
// reads (load_binary) in place of the CSV above. Serial, so no
// thread-count arg.
void BM_DatasetEncodeBinary(benchmark::State& state) {
  const trace::Dataset& dataset = shared_world().dataset;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::vector<std::string> parts = dataset.binary_parts();
    bytes = 0;
    for (const std::string& part : parts) bytes += part.size();
    benchmark::DoNotOptimize(parts.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DatasetEncodeBinary)->Unit(benchmark::kMillisecond);

void BM_DatasetDecodeBinary(benchmark::State& state) {
  std::string block;
  for (const std::string& part : shared_world().dataset.binary_parts()) {
    block += part;
  }
  const std::string_view view = block;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::Dataset::load_binary(std::span(&view, 1)));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_DatasetDecodeBinary)->Unit(benchmark::kMillisecond);

void BM_ValleyFreeDistanceCold(benchmark::State& state) {
  const trace::World& world = shared_world();
  const auto& ases = world.topology.graph.ases();
  std::size_t i = 0;
  for (auto _ : state) {
    net::ValleyFreeDistance dist(world.topology.graph);  // Cold cache.
    benchmark::DoNotOptimize(
        dist.distance(ases[i % ases.size()], ases[(i * 7 + 1) % ases.size()]));
    ++i;
  }
}
BENCHMARK(BM_ValleyFreeDistanceCold);

void BM_ValleyFreeDistanceWarm(benchmark::State& state) {
  const trace::World& world = shared_world();
  net::ValleyFreeDistance dist(world.topology.graph);
  const auto& ases = world.topology.graph.ases();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dist.distance(ases[i % ases.size()], ases[0]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ValleyFreeDistanceWarm);

void BM_SourceCoefficient(benchmark::State& state) {
  const trace::World& world = shared_world();
  net::ValleyFreeDistance dist(world.topology.graph);
  const auto& attacks = world.dataset.attacks();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::source_distribution_coefficient(
        attacks[i++ % attacks.size()], world.ip_map, &dist));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SourceCoefficient);

// Every bot of the shared world resolved to its AS once (the SourceTable
// the fit and pack build), in bots per second. The arg pins the thread
// count; Arg(1) is the serial baseline.
void BM_SourceTable(benchmark::State& state) {
  core::set_num_threads(static_cast<std::size_t>(state.range(0)));
  const trace::World& world = shared_world();
  std::int64_t bots = 0;
  for (const trace::Attack& attack : world.dataset.attacks()) {
    bots += static_cast<std::int64_t>(attack.bots.size());
  }
  for (auto _ : state) {
    const core::SourceTable table(world.dataset, world.ip_map);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * bots);
  core::set_num_threads(0);
}
BENCHMARK(BM_SourceTable)
    ->Arg(1)->Arg(4)
    ->UseRealTime()  // The pool's CPU is not the calling thread's.
    ->Unit(benchmark::kMillisecond);

void BM_GaoInference(benchmark::State& state) {
  const trace::World& world = shared_world();
  std::vector<net::Asn> vantages = world.topology.stubs;
  vantages.resize(std::min<std::size_t>(vantages.size(), 16));
  const auto paths = net::dump_paths(world.topology.graph, vantages);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::infer_relationships(paths));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(paths.size()));
}
BENCHMARK(BM_GaoInference);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    trace::WorldOptions opts = trace::small_world_options(17);
    opts.generator.days = static_cast<std::size_t>(state.range(0));
    benchmark::DoNotOptimize(trace::build_world(opts).dataset.size());
  }
}
BENCHMARK(BM_TraceGeneration)->Arg(30)->Arg(70)->Unit(benchmark::kMillisecond);

void BM_FamilySeriesExtraction(benchmark::State& state) {
  const trace::World& world = shared_world();
  const std::uint32_t dj = world.dataset.family_index("DirtJumper");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::extract_family_series(world.dataset, dj, world.ip_map, nullptr));
  }
}
BENCHMARK(BM_FamilySeriesExtraction)->Unit(benchmark::kMillisecond);

void BM_TemporalModelFit(benchmark::State& state) {
  const trace::World& world = shared_world();
  const std::uint32_t dj = world.dataset.family_index("DirtJumper");
  const core::FamilySeries series =
      core::extract_family_series(world.dataset, dj, world.ip_map, nullptr);
  for (auto _ : state) {
    core::TemporalModel model;
    model.fit(series);
    benchmark::DoNotOptimize(model.fitted());
  }
  state.SetLabel(std::to_string(series.magnitude.size()) + " attacks");
}
BENCHMARK(BM_TemporalModelFit)->Unit(benchmark::kMillisecond);

// --- Thread sweeps --------------------------------------------------------
//
// Each sweep pins the parallel runtime to state.range(0) threads; Arg(1) is
// the serial baseline, so the per-arg ratio is the parallel speedup. The
// output is bit-identical across the sweep (the determinism contract), so
// every arg does the same work.

void BM_NarGridSearchThreads(benchmark::State& state) {
  core::set_num_threads(static_cast<std::size_t>(state.range(0)));
  const auto xs = ar_series(300);
  nn::NarGridOptions opts;
  opts.mlp.max_epochs = 80;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::nar_grid_search(xs, opts));
  }
  core::set_num_threads(0);
}
BENCHMARK(BM_NarGridSearchThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_TraceGenerationThreads(benchmark::State& state) {
  core::set_num_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    trace::WorldOptions opts = trace::small_world_options(17);
    opts.generator.days = 70;
    benchmark::DoNotOptimize(trace::build_world(opts).dataset.size());
  }
  core::set_num_threads(0);
}
BENCHMARK(BM_TraceGenerationThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MatrixMultiplyThreads(benchmark::State& state) {
  core::set_num_threads(static_cast<std::size_t>(state.range(0)));
  stats::Rng rng(29);
  const std::size_t n = 192;
  stats::Matrix a(n, n);
  stats::Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0);
      b(i, j) = rng.uniform(-1.0, 1.0);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize((a * b).frobenius_norm());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n * n));
  core::set_num_threads(0);
}
BENCHMARK(BM_MatrixMultiplyThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
