// The fit-side layers of every workload's traced run, on that workload's
// own data: the trace load, the fit's stages one after another at one
// thread, the whole fit at N threads (with the program's counters on), the
// framed save and load, and pack_model.
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "checks.h"
#include "core/artifact_map.h"
#include "core/durable.h"
#include "core/feature_cache.h"
#include "core/observe.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/spatiotemporal_model.h"
#include "tree/model_tree.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = acbm::core;
namespace durable = acbm::core::durable;
namespace observe = acbm::core::observe;

}  // namespace

StagePass stage_pass(const trace::Dataset& dataset,
                     const net::IpToAsnMap& ip_map) {
  StagePass pass;
  const core::SpatiotemporalOptions opts = core::default_cli_options();
  core::FeatureCache cache(dataset, ip_map, nullptr);
  const auto families = static_cast<std::uint32_t>(dataset.family_names().size());
  const std::vector<net::Asn> targets = dataset.target_asns();
  auto t = Clock::now();
  for (std::uint32_t f = 0; f < families; ++f) (void)cache.family(f);
  for (const net::Asn asn : targets) (void)cache.target(asn);
  pass.extract_ms = ms_since(t);

  std::unordered_map<std::uint32_t, core::TemporalModel> temporal;
  for (std::uint32_t f = 0; f < families; ++f) {
    t = Clock::now();
    std::optional<core::TemporalModel> fit =
        core::fit_family_temporal(dataset, cache, f, opts);
    pass.temporal_ms.push_back(ms_since(t));
    if (fit) temporal.emplace(f, std::move(*fit));
  }
  std::unordered_map<net::Asn, core::SpatialModel> spatial;
  for (const net::Asn asn : targets) {
    t = Clock::now();
    std::optional<core::SpatialModel> fit =
        core::fit_target_spatial(dataset, ip_map, cache, asn, opts);
    pass.spatial_ms.push_back(ms_since(t));
    if (fit) spatial.emplace(asn, std::move(*fit));
  }
  t = Clock::now();
  const std::vector<core::StRow> rows =
      core::assemble_rows(dataset, ip_map, temporal, spatial, opts, &cache);
  pass.assemble_ms = ms_since(t);

  if (rows.size() >= 20) {
    acbm::stats::Matrix hour_x(rows.size(), rows.front().features.hour_row().size());
    acbm::stats::Matrix day_x(rows.size(), rows.front().features.day_row().size());
    std::vector<double> hour_y(rows.size());
    std::vector<double> day_y(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::vector<double> hr = rows[i].features.hour_row();
      const std::vector<double> dr = rows[i].features.day_row();
      for (std::size_t j = 0; j < hr.size(); ++j) hour_x(i, j) = hr[j];
      for (std::size_t j = 0; j < dr.size(); ++j) day_x(i, j) = dr[j];
      hour_y[i] = rows[i].truth_hour;
      day_y[i] = rows[i].truth_day;
    }
    t = Clock::now();
    acbm::tree::ModelTree(opts.tree).fit(hour_x, hour_y);
    acbm::tree::ModelTree(opts.tree).fit(day_x, day_y);
    pass.tree_ms = ms_since(t);
  }
  return pass;
}

int trace_fit(const Args& args) {
  const fs::path dataset_path = args.str("dataset");
  const fs::path work = dataset_path.parent_path();
  Checks checks;
  Report report;
  const std::size_t threads = core::num_threads();

  auto t = Clock::now();
  const trace::Dataset dataset = load_dataset(dataset_path);
  const double load_csv_ms = ms_since(t);
  const net::IpToAsnMap ip_map = load_ipmap(args.str("ipmap"));

  // The N-thread fit, timed for the parallel efficiency, with the program's
  // counters on for the kernel flops and the feature cache's hits.
  auto& metrics = observe::Metrics::instance();
  metrics.reset();
  observe::set_enabled(true);
  core::AdversaryModel model(core::default_cli_options());
  t = Clock::now();
  model.fit(dataset, ip_map);
  const double fit_ms = ms_since(t);
  observe::set_enabled(false);
  const double flops = static_cast<double>(metrics.counter_value("gemm.flops") +
                                           metrics.counter_value("gemv.flops"));
  const double hits = static_cast<double>(metrics.counter_value("feature_cache.hit"));
  const double misses = static_cast<double>(metrics.counter_value("feature_cache.miss"));

  t = Clock::now();
  const std::string image = core::armm::pack_model(model);
  const double pack_ms = ms_since(t);
  if (args.has("armm-hash")) {
    checks.expect(image_hash(image) == args.str("armm-hash"),
                  "pack_model of an in-process fit differs from `acbm pack`");
  }

  const fs::path framed_path = work / "layers.model.art";
  t = Clock::now();
  {
    std::ostringstream framed;
    model.save_framed(framed);
    durable::atomic_write_file(framed_path, framed.str());
  }
  const double save_ms = ms_since(t);
  t = Clock::now();
  {
    std::ifstream in(framed_path, std::ios::binary);
    (void)core::AdversaryModel::load_framed(in);
  }
  const double load_ms = ms_since(t);
  fs::remove(framed_path);

  // One thread: the stages one after another and, with --identity, the
  // whole fit, whose packed image must be bit-identical to the N-thread one.
  core::set_num_threads(1);
  const StagePass pass = stage_pass(dataset, ip_map);
  if (args.has("identity")) {
    core::AdversaryModel serial(core::default_cli_options());
    serial.fit(dataset, ip_map);
    checks.op(image_hash(core::armm::pack_model(serial)) == image_hash(image),
              "the 1-thread packed image differs from the " +
                  std::to_string(threads) + "-thread one");
  }
  core::set_num_threads(threads);

  const double sequential_ms = pass.extract_ms + sum(pass.temporal_ms) +
                               sum(pass.spatial_ms) + pass.assemble_ms +
                               pass.tree_ms;
  report.metric("trace.load_csv_ms", load_csv_ms);
  report.metric("core.features.extract_ms", pass.extract_ms);
  report.metric("core.features.hit_share", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report.metric("ts.temporal_fit_ms.sum", sum(pass.temporal_ms));
  report.metric("ts.temporal_fit_ms.max", quantile(pass.temporal_ms, 1.0));
  report.metric("nn.spatial_fit_ms.sum", sum(pass.spatial_ms));
  report.metric("nn.spatial_fit_ms.max", quantile(pass.spatial_ms, 1.0));
  report.metric("core.assemble_rows_ms", pass.assemble_ms);
  report.metric("tree.fit_ms", pass.tree_ms);
  report.metric("core.parallel.efficiency",
                sequential_ms / (static_cast<double>(threads) * fit_ms));
  report.metric("stats.flops", flops);
  report.metric("core.durable.save_framed_ms", save_ms);
  report.metric("core.durable.load_framed_ms", load_ms);
  report.metric("core.artifact_map.pack_ms", pack_ms);
  report.context("layers.fit_attacks", static_cast<double>(dataset.size()));
  report.print(checks);
  return 0;
}

}  // namespace perfbench
