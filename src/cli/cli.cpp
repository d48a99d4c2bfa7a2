#include "cli/cli.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/artifact_map.h"
#include "core/checkpoint.h"
#include "core/durable.h"
#include "core/evaluation.h"
#include "core/heap.h"
#include "core/ingest.h"
#include "core/observe.h"
#include "core/pipeline.h"
#include "core/robust.h"
#include "core/server.h"
#include "core/serving.h"
#include "core/shard.h"
#include "trace/generator.h"
#include "trace/scenario.h"
#include "trace/world.h"

namespace acbm::cli {

namespace {

namespace durable = acbm::core::durable;
namespace observe = acbm::core::observe;

/// One command's arguments; `[0]` is the command name.
using Args = std::span<const std::string>;

/// Minimal --key value parser over one command's Args. `options` take a
/// value, `flags` are boolean switches; any other --name is an unknown
/// option wherever it stands.
class ArgMap {
 public:
  ArgMap(Args args, std::initializer_list<std::string_view> options,
         std::initializer_list<std::string_view> flags = {}) {
    const auto listed = [](std::initializer_list<std::string_view> list,
                           std::string_view key) {
      return std::find(list.begin(), list.end(), key) != list.end();
    };
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i].rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --option, got '" + args[i] + "'");
      }
      const std::string key = args[i].substr(2);
      if (listed(flags, key)) {
        values_.insert_or_assign(key, std::string("1"));
        continue;
      }
      if (!listed(options, key)) {
        throw std::invalid_argument("unknown option --" + key);
      }
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("option --" + key + " needs a value");
      }
      values_[key] = args[++i];
      ordered_.emplace_back(key, args[i]);
    }
  }

  /// Every value given for a repeatable option, in CLI order
  /// (serve --model a=x --model b=y; query --target 1 --target 2).
  [[nodiscard]] std::vector<std::string> get_all(const std::string& key) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : ordered_) {
      if (k == key) out.push_back(v);
    }
    return out;
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::nullopt
                               : std::optional<std::string>(it->second);
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }

  [[nodiscard]] std::string require(const std::string& key) const {
    const auto value = get(key);
    if (!value) throw std::invalid_argument("missing required --" + key);
    return *value;
  }

  template <typename T>
  [[nodiscard]] T get_or(const std::string& key, T fallback) const {
    const auto value = get(key);
    if (!value) return fallback;
    if constexpr (std::is_same_v<T, double>) {
      return std::stod(*value);
    } else {
      return static_cast<T>(std::stoull(*value));
    }
  }

 private:
  std::unordered_map<std::string, std::string> values_;
  std::vector<std::pair<std::string, std::string>> ordered_;
};

void print_usage(std::ostream& out) {
  out << "acbm — adversary-centric DDoS behavior modeling (ICDCS'17 repro)\n"
         "\n"
         "usage: acbm <command> [options]\n"
         "\n"
         "commands:\n"
         "  generate   build a simulated world and write the trace\n"
         "             --seed N (1) --days N (70) --scale X (1.0)\n"
         "             --dataset FILE --ipmap FILE\n"
         "             [--scenario NAME (paper-table1)]\n"
         "             [--scenario-param k=v]... (repeatable)\n"
         "             --list-scenarios  print the scenario catalog\n"
         "             (SCENARIOS.md documents each scenario's model)\n"
         "  stats      per-family activity report (Table I format)\n"
         "             --dataset FILE\n"
         "  fit        fit the full model and save it for later prediction\n"
         "             --dataset FILE --ipmap FILE --model FILE\n"
         "             [--fit-report FILE|-] [--checkpoint-dir DIR] [--resume]\n"
         "             [--degraded-floor N]\n"
         "             [--workers N] sharded multi-process fit (requires\n"
         "             --checkpoint-dir; byte-identical to --workers 0)\n"
         "             [--worker-timeout MS] [--lease-ttl-ms MS]\n"
         "  worker     fit shards of a sharded run (spawned by fit --workers;\n"
         "             runnable by hand against a shared --checkpoint-dir)\n"
         "             --dataset FILE --ipmap FILE --checkpoint-dir DIR\n"
         "             [--worker-id N] [--lease-ttl-ms MS] [--ship-metrics]\n"
         "  predict    predict the next attack per target (fits on the fly\n"
         "             from --dataset/--ipmap, or loads --model FILE)\n"
         "             [--dataset FILE --ipmap FILE | --model FILE]\n"
         "             [--target ASN] [--top K] [--fit-report FILE|-]\n"
         "             [--precision f64|f32]\n"
         "  ingest     streaming ingestion: hourly snapshots into a crash-\n"
         "             safe log, drift detection, incremental refit\n"
         "             --dir DIR --init --dataset FILE --ipmap FILE\n"
         "             --dir DIR --snapshot FILE --hour H [--no-refit]\n"
         "             --dir DIR --refit | --status | --export-dataset FILE\n"
         "             [--refit-retries N (3)] [--refit-backoff-ms MS (5)]\n"
         "  pack       convert a framed model.art into a zero-copy mmap\n"
         "             .armm serving artifact (O(µs) startup; DESIGN.md §8)\n"
         "             --model FILE --out FILE\n"
         "  serve      batched concurrent forecast daemon over .armm/.art\n"
         "             models; hot-swaps generations on artifact rotation\n"
         "             --model NAME=FILE (repeatable) [--socket PATH]\n"
         "             [--port N|-1] [--threads N (4)] [--max-resident N (8)]\n"
         "             [--no-batching] [--max-batch N (64)]\n"
         "             [--watch-interval MS (200)] [--io-timeout MS (5000)]\n"
         "             [--idle-timeout MS (0)] [--preload]\n"
         "  query      ask a running daemon for next-attack forecasts\n"
         "             --model NAME --target ASN (repeatable)\n"
         "             (--socket PATH | --port N) [--precision f64|f32]\n"
         "             [--count N --seed S] seeded deterministic query mix\n"
         "  evaluate   timestamp-prediction RMSE report (Fig. 4 format)\n"
         "             --dataset FILE --ipmap FILE [--train-fraction F]\n"
         "             [--horizons F1,F2,...] [--out FILE]\n"
         "             [--checkpoint-dir DIR] [--resume]\n"
         "             [--precision f64|f32]\n"
         "             --scenario NAME: self-contained per-scenario\n"
         "             predictability table (three models vs naive\n"
         "             baselines; generates the preset world in memory,\n"
         "             no --dataset/--ipmap) [--scenario-param k=v]...\n"
         "             [--seed N] [--train-fraction F] [--out FILE]\n"
         "  help       this message\n"
         "\n"
         "performance (any command; see DESIGN.md §6):\n"
         "  --precision f32  serve predictions from a float32 inference view\n"
         "                   (predict/evaluate; f64 models stay the default)\n"
         "\n"
         "observability (any command; see OBSERVABILITY.md):\n"
         "  --trace FILE     write a Chrome trace_event JSON of the run\n"
         "                   (chrome://tracing / Perfetto; env ACBM_TRACE)\n"
         "  --metrics FILE|- write a Prometheus-style metrics dump\n"
         "                   (- = stdout; env ACBM_METRICS)\n"
         "  --profile        print the merged span tree to stderr\n"
         "                   (env ACBM_PROFILE=1)\n"
         "\n"
         "exit codes: 0 ok, 1 internal error, 2 bad arguments,\n"
         "            3 load/corruption/write failure, 4 fit degraded beyond\n"
         "            --degraded-floor, 5 worker coordination timed out\n"
         "            (--worker-timeout elapsed; workers were killed),\n"
         "            6 ingest refit retries exhausted (the previous model\n"
         "            generation is still live and serving)\n";
}

/// Whole-file read with a command-oriented error message (exit code 3).
std::string read_input(const std::string& path, const char* what) {
  try {
    return durable::read_file(path);
  } catch (const durable::LoadFailure&) {
    throw durable::LoadFailure(
        durable::LoadError::kIo,
        std::string("cannot open ") + what + " file " + path);
  }
}

/// An input file's bytes, mapped when the path names a regular file (no
/// copy is made), read otherwise (a pipe or a device cannot be mapped).
class InputBytes {
 public:
  InputBytes() = default;
  InputBytes(const std::string& path, const char* what) {
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec)) {
      read_ = read_input(path, what);
      return;
    }
    try {
      mapped_ = durable::MappedFile(path);
    } catch (const durable::LoadFailure&) {
      throw durable::LoadFailure(
          durable::LoadError::kIo,
          std::string("cannot open ") + what + " file " + path);
    }
  }
  [[nodiscard]] std::string_view view() const noexcept {
    return mapped_.mapped() ? mapped_.view() : std::string_view(read_);
  }

 private:
  durable::MappedFile mapped_;
  std::string read_;
};

/// Framed ("dataset" v1) or legacy bare-CSV dataset bytes -> Dataset.
trace::Dataset parse_dataset(std::string_view bytes, const std::string& path,
                             std::ostream& info) {
  const std::string_view csv =
      durable::looks_framed(bytes)
          ? durable::unwrap_view(bytes, "dataset", 1, 1).payload
          : std::string_view(bytes);
  trace::Dataset dataset = durable::parse_payload(
      "dataset " + path, [csv] { return trace::Dataset::load_csv(csv); });
  if (!dataset.validation().clean()) {
    info << "dataset " << path << " needed repair:\n";
    dataset.validation().write(info);
  }
  return dataset;
}

/// Framed ("ipmap" v1) or legacy bare ipmap bytes -> IpToAsnMap.
net::IpToAsnMap parse_ipmap(std::string_view bytes, const std::string& path) {
  durable::SpanBuf buf(durable::looks_framed(bytes)
                           ? durable::unwrap_view(bytes, "ipmap", 1, 1).payload
                           : bytes);
  std::istream in(&buf);
  try {
    return net::IpToAsnMap::load(in);
  } catch (const std::exception& e) {
    throw durable::LoadFailure(durable::LoadError::kParse,
                               "ipmap " + path + ": " + e.what());
  }
}

/// --fit-report destination: "-" writes to the command's output stream,
/// anything else is a durably written framed artifact.
void write_fit_report(const core::AdversaryModel& model,
                      const std::string& dest, std::ostream& out) {
  if (dest == "-") {
    model.fit_report().write(out);
    return;
  }
  std::ostringstream text;
  model.fit_report().write(text);
  durable::save_artifact(dest, "fit_report", 1, text.str());
}

/// Content hash keying a checkpointed run: the exact input bytes plus the
/// configuration that shapes the fit.
std::uint64_t run_config_hash(std::initializer_list<std::string_view> parts) {
  std::uint64_t hash = durable::fnv1a64("acbm-run");
  for (std::string_view part : parts) hash = durable::fnv1a64(part, hash);
  return hash;
}

/// Opens --checkpoint-dir/--resume when given; nullopt otherwise.
/// `config_hash` runs only then: it hashes every input byte.
std::optional<core::CheckpointDir> open_checkpoint(
    const ArgMap& args, const std::function<std::uint64_t()>& config_hash) {
  const auto dir = args.get("checkpoint-dir");
  if (!dir) {
    if (args.has("resume")) {
      throw std::invalid_argument("--resume requires --checkpoint-dir");
    }
    return std::nullopt;
  }
  return std::make_optional<core::CheckpointDir>(
      *dir, core::CheckpointDir::Options{.config_hash = config_hash(),
                                         .resume = args.has("resume")});
}

int cmd_generate(Args argv, std::ostream& out, std::ostream&) {
  const ArgMap args(argv,
                    {"seed", "days", "scale", "dataset", "ipmap", "scenario",
                     "scenario-param"},
                    {"list-scenarios"});
  if (args.has("list-scenarios")) {
    out << trace::list_scenarios_text();
    return 0;
  }
  trace::WorldOptions opts = trace::small_world_options(
      args.get_or<std::uint64_t>("seed", 1));
  const trace::Scenario& scenario = trace::apply_scenario(
      opts, args.get("scenario").value_or("paper-table1"));
  for (const std::string& spec : args.get_all("scenario-param")) {
    trace::apply_scenario_param(opts.generator, scenario, spec);
  }
  opts.generator.days = args.get_or<std::size_t>("days", 70);
  opts.generator.activity_scale = args.get_or<double>("scale", 1.0);
  const std::string dataset_path = args.require("dataset");
  const std::string ipmap_path = args.require("ipmap");

  const trace::World world = trace::build_world(opts);
  durable::save_artifact(dataset_path, "dataset", 1,
                         world.dataset.csv_parts());
  std::ostringstream ipmap_text;
  world.ip_map.save(ipmap_text);
  durable::save_artifact(ipmap_path, "ipmap", 1, ipmap_text.str());

  out << "generated " << world.dataset.size() << " attacks over "
      << opts.generator.days << " days (" << world.topology.graph.as_count()
      << " ASes)\n";
  if (std::string_view(scenario.name) != "paper-table1") {
    out << "scenario: " << scenario.name << " (" << scenario.summary << ")\n";
  }
  out << "dataset: " << dataset_path << "\nipmap:   " << ipmap_path << "\n";
  return 0;
}

int cmd_stats(Args argv, std::ostream& out, std::ostream&) {
  const ArgMap args(argv, {"dataset"});
  const std::string dataset_path = args.require("dataset");
  const trace::Dataset dataset =
      parse_dataset(read_input(dataset_path, "dataset"), dataset_path, out);
  out << dataset.size() << " attacks, " << dataset.family_names().size()
      << " families, " << dataset.target_asns().size() << " target ASes\n\n";
  std::ostringstream header;
  header << "family        avg/day  active-days     CV\n";
  out << header.str();
  for (std::uint32_t f = 0;
       f < static_cast<std::uint32_t>(dataset.family_names().size()); ++f) {
    const trace::FamilyActivityStats stats = trace::activity_stats(dataset, f);
    char line[128];
    std::snprintf(line, sizeof line, "%-12s %8.2f %12zu %6.2f\n",
                  dataset.family_names()[f].c_str(), stats.avg_per_day,
                  stats.active_days, stats.cv);
    out << line;
  }
  return 0;
}

/// The executable to exec as `acbm worker`: ACBM_WORKER_BIN when set (test
/// harnesses point it at the built binary), else this very binary.
std::string worker_executable() {
  if (const char* env = std::getenv("ACBM_WORKER_BIN");
      env != nullptr && *env != '\0') {
    return env;
  }
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) {
    throw std::runtime_error(
        "cannot resolve the worker executable (/proc/self/exe unreadable; "
        "set ACBM_WORKER_BIN)");
  }
  return self.string();
}

int cmd_fit(Args argv, std::ostream& out, std::ostream& err) {
  const ArgMap args(argv,
                    {"dataset", "ipmap", "model", "fit-report",
                     "checkpoint-dir", "degraded-floor", "workers",
                     "worker-timeout", "lease-ttl-ms"},
                    {"resume"});
  const std::string report_dest = args.get("fit-report").value_or("");
  // `--fit-report -` owns stdout: progress/info lines move to stderr so the
  // report is machine-readable without interleaving.
  std::ostream& info = report_dest == "-" ? err : out;

  const std::string dataset_path = args.require("dataset");
  const std::string ipmap_path = args.require("ipmap");
  const std::string model_path = args.require("model");
  InputBytes dataset_bytes;
  InputBytes ipmap_bytes;
  trace::Dataset dataset;
  net::IpToAsnMap ip_map;
  {
    ACBM_SPAN("fit.inputs");
    dataset_bytes = InputBytes(dataset_path, "dataset");
    ipmap_bytes = InputBytes(ipmap_path, "ipmap");
    dataset = parse_dataset(dataset_bytes.view(), dataset_path, info);
    ip_map = parse_ipmap(ipmap_bytes.view(), ipmap_path);
  }

  core::SpatiotemporalOptions opts = core::default_cli_options();
  const auto config_hash = [&dataset_bytes, &ipmap_bytes] {
    return run_config_hash({"fit", dataset_bytes.view(), ipmap_bytes.view(),
                            core::fit_config_tag()});
  };
  const int workers =
      static_cast<int>(args.get_or<std::size_t>("workers", 0));
  std::optional<core::CheckpointDir> checkpoint;
  if (workers > 0) {
    // Sharded multi-process fit: workers publish stages into the shared
    // checkpoint dir; the merge below runs the ordinary fit with every
    // stage cached, so the result is byte-identical to --workers 0 — even
    // when workers crashed and the merge refits what they never finished.
    const auto dir = args.get("checkpoint-dir");
    if (!dir) {
      throw std::invalid_argument("--workers requires --checkpoint-dir");
    }
    const int lease_ttl_ms =
        static_cast<int>(args.get_or<std::size_t>("lease-ttl-ms", 2000));
    core::ShardCoordinatorOptions copts;
    copts.checkpoint_dir = *dir;
    copts.config_hash = config_hash();
    copts.workers = workers;
    copts.worker_timeout_ms =
        static_cast<int>(args.get_or<std::size_t>("worker-timeout", 0));
    copts.lease_ttl_ms = lease_ttl_ms;
    copts.fresh = !args.has("resume");
    copts.aggregate_metrics = observe::enabled();
    copts.child_unset_env = {"ACBM_TRACE", "ACBM_METRICS", "ACBM_PROFILE"};
    const std::string exe = worker_executable();
    const std::string dir_str = *dir;
    const bool ship = observe::enabled();
    copts.worker_argv = [exe, dataset_path, ipmap_path, dir_str, lease_ttl_ms,
                         ship](int worker_id) {
      std::vector<std::string> argv = {
          exe,           "worker",
          "--dataset",   dataset_path,
          "--ipmap",     ipmap_path,
          "--checkpoint-dir", dir_str,
          "--worker-id", std::to_string(worker_id),
          "--lease-ttl-ms", std::to_string(lease_ttl_ms)};
      if (ship) argv.push_back("--ship-metrics");
      return argv;
    };
    core::ShardCoordinator coordinator(copts);
    const core::CoordinationOutcome outcome =
        coordinator.run(core::shard_stages(dataset));
    if (outcome == core::CoordinationOutcome::kTimeout) {
      err << "error: worker coordination timed out after "
          << copts.worker_timeout_ms << " ms; workers killed, no model "
          << "written (rerun with --resume to reuse completed stages)\n";
      return 5;
    }
    info << "workers: " << core::to_string(outcome) << "\n";
    // Resume, whatever the flag: a fresh open would remove the markers the
    // workers just published.
    checkpoint.emplace(*dir, core::CheckpointDir::Options{
                                 .config_hash = copts.config_hash,
                                 .resume = true});
  } else {
    checkpoint = open_checkpoint(args, config_hash);
  }
  if (checkpoint) opts.checkpoint = &*checkpoint;
  // The trace bytes served only the checkpoint key and the parsed dataset
  // owns its data, so the 60 MB mapping goes before the fit, and the
  // dataset moves into the model, which keeps the only copy.
  dataset_bytes = InputBytes();

  core::AdversaryModel model(opts);
  model.fit(std::move(dataset), ip_map);
  // The fit's freed scratch goes back before the body is formatted.
  core::release_free_heap();
  {
    ACBM_SPAN("fit.save");
    durable::save_artifact(model_path, "adversary_model",
                           core::AdversaryModel::kFormatVersion,
                           model.body_parts());
  }
  info << "fitted on " << model.dataset().size() << " attacks; model saved to "
       << model_path << "\n";
  if (checkpoint && !checkpoint->report().clean()) {
    err << "checkpoint recovery:\n";
    checkpoint->report().write(err);
  }
  if (!report_dest.empty()) write_fit_report(model, report_dest, out);
  if (const auto floor = args.get("degraded-floor")) {
    const std::size_t degraded = model.fit_report().degraded_count();
    const auto limit = static_cast<std::size_t>(std::stoull(*floor));
    if (degraded > limit) {
      err << "fit degraded on " << degraded << " components (floor " << limit
          << ")\n";
      return 4;
    }
  }
  return 0;
}

int cmd_worker(Args argv, std::ostream&, std::ostream& err) {
  const ArgMap args(argv,
                    {"dataset", "ipmap", "checkpoint-dir", "worker-id",
                     "lease-ttl-ms"},
                    {"ship-metrics"});
  const std::string dataset_path = args.require("dataset");
  const std::string ipmap_path = args.require("ipmap");
  const std::string checkpoint_dir = args.require("checkpoint-dir");
  const std::string dataset_bytes = read_input(dataset_path, "dataset");
  const std::string ipmap_bytes = read_input(ipmap_path, "ipmap");
  const trace::Dataset dataset =
      parse_dataset(dataset_bytes, dataset_path, err);
  const net::IpToAsnMap ip_map = parse_ipmap(ipmap_bytes, ipmap_path);

  // --ship-metrics turns collection on so the end-of-run snapshot has
  // something to ship; the coordinator only passes it when its own
  // observability session is active.
  const bool ship = args.has("ship-metrics");
  if (ship && !observe::enabled()) {
    observe::Tracer::instance().reset();
    observe::Metrics::instance().reset();
    observe::set_enabled(true);
  }

  const core::SpatiotemporalOptions model_opts = core::default_cli_options();

  core::ShardWorkerOptions wopts;
  wopts.checkpoint_dir = checkpoint_dir;
  // Recomputed from the same bytes cmd_fit hashes, so a worker pointed at
  // the wrong dataset/ipmap refuses the shard plan instead of publishing
  // stages under a mismatched key.
  wopts.config_hash = run_config_hash(
      {"fit", dataset_bytes, ipmap_bytes, core::fit_config_tag()});
  wopts.worker_id = static_cast<int>(args.get_or<std::size_t>("worker-id", 0));
  wopts.lease_ttl_ms =
      static_cast<int>(args.get_or<std::size_t>("lease-ttl-ms", 2000));
  wopts.ship_metrics = ship;
  core::ShardWorker worker(wopts);
  const int fitted = worker.run(dataset, ip_map, model_opts);
  // Stderr, not stdout: workers inherit the coordinator's streams and must
  // not interleave with its machine-readable output.
  err << "worker " << wopts.worker_id << ": fit " << fitted << " shards\n";
  if (ship) observe::set_enabled(false);
  return 0;
}

namespace ingest = acbm::core::ingest;

/// Renders one check-and-refit outcome; returns the command's exit code
/// (6 when retries were exhausted and the previous generation is serving).
int report_refit(const ingest::RefitResult& result, std::ostream& out,
                 std::ostream& err) {
  if (!result.attempted) {
    out << "drift: no family tripped; model unchanged\n";
    return 0;
  }
  for (const ingest::DriftTrip& trip : result.trips) {
    out << "drift trip: family " << trip.family << " channel " << trip.channel
        << " z=" << trip.z << " at hour " << trip.hour << "\n";
  }
  out << "refit: " << result.stages_invalidated << " stage(s) invalidated, "
      << result.retries << " retr" << (result.retries == 1 ? "y" : "ies")
      << "\n";
  if (result.fallback) {
    err << "error: refit retries exhausted (" << result.error
        << "); previous model generation is still live\n";
    return 6;
  }
  out << "refit: new model generation published\n";
  return 0;
}

int cmd_ingest(Args argv, std::ostream& out, std::ostream& err) {
  const ArgMap args(argv,
                    {"dir", "dataset", "ipmap", "snapshot", "hour",
                     "export-dataset", "refit-retries", "refit-backoff-ms"},
                    {"init", "no-refit", "refit", "status"});
  ingest::IngestorOptions opts;
  opts.dir = args.require("dir");
  opts.refit_max_retries =
      static_cast<int>(args.get_or<std::size_t>("refit-retries", 3));
  opts.refit_backoff_ms =
      static_cast<int>(args.get_or<std::size_t>("refit-backoff-ms", 5));
  opts.model = core::default_cli_options();

  ingest::Ingestor ingestor(opts);
  const ingest::LogRecovery& recovery = ingestor.log().recovery();
  if (recovery.torn_tail_bytes > 0) {
    err << "log recovery: truncated a torn tail of "
        << recovery.torn_tail_bytes << " byte(s)\n";
  }
  if (recovery.quarantined_ranges > 0) {
    err << "log recovery: quarantined " << recovery.quarantined_ranges
        << " corrupt range(s) to " << recovery.quarantine_path << "\n";
  }

  if (args.has("init")) {
    const std::string dataset_path = args.require("dataset");
    const std::string ipmap_path = args.require("ipmap");
    const trace::Dataset base =
        parse_dataset(read_input(dataset_path, "dataset"), dataset_path, out);
    const net::IpToAsnMap ip_map =
        parse_ipmap(read_input(ipmap_path, "ipmap"), ipmap_path);
    ingestor.init(base, ip_map);
    out << "initialized " << opts.dir.string() << ": " << base.size()
        << " attacks through hour " << ingestor.log().last_hour()
        << "; model published\n";
    return 0;
  }

  if (const auto snapshot_path = args.get("snapshot")) {
    const auto hour = args.get_or<std::size_t>(
        "hour", 0);
    if (!args.has("hour")) {
      throw std::invalid_argument("--snapshot requires --hour");
    }
    const std::string bytes = read_input(*snapshot_path, "snapshot");
    const std::string_view csv =
        durable::looks_framed(bytes)
            ? durable::unwrap_view(bytes, "dataset", 1, 1).payload
            : std::string_view(bytes);
    const ingest::AppendOutcome outcome = ingestor.append(hour, csv);
    out << "snapshot hour " << hour << ": " << ingest::to_string(outcome.status)
        << "\n";
    if (!outcome.validation.clean()) outcome.validation.write(out);
    if (outcome.status == ingest::AppendStatus::kRejected) {
      err << "error: snapshot rejected (" << outcome.detail
          << "); raw bytes quarantined to " << outcome.quarantined_to << "\n";
      return 3;
    }
    if (outcome.status == ingest::AppendStatus::kDuplicate) {
      out << "note: " << outcome.detail << "; nothing appended\n";
      return 0;
    }
    if (args.has("no-refit")) return 0;
    return report_refit(ingestor.check_and_refit(/*force=*/false), out, err);
  }

  if (args.has("refit")) {
    return report_refit(ingestor.check_and_refit(/*force=*/true), out, err);
  }

  if (const auto export_path = args.get("export-dataset")) {
    durable::save_artifact(*export_path, "dataset", 1,
                           ingestor.log().cumulative().csv_parts());
    out << "exported cumulative dataset ("
        << ingestor.log().segments().size() << " snapshot(s)) to "
        << *export_path << "\n";
    return 0;
  }

  if (args.has("status")) {
    out << "dir:            " << opts.dir.string() << "\n"
        << "initialized:    " << (ingestor.initialized() ? "yes" : "no") << "\n"
        << "snapshots:      " << ingestor.log().segments().size() << "\n"
        << "last hour:      " << ingestor.log().last_hour() << "\n"
        << "last refit:     hour " << ingestor.last_refit_hour() << "\n";
    return 0;
  }

  throw std::invalid_argument(
      "ingest needs one of --init / --snapshot / --refit / --status / "
      "--export-dataset");
}

constexpr const char* kPredictionHeader =
    "target      family        bots   duration      day  hour  top sources\n";

/// One prediction table row, shared by `predict` (in-process model) and
/// `query` (daemon round-trip) so their f64 output is byte-identical.
void print_prediction_row(std::ostream& table, net::Asn asn,
                          const core::AttackPrediction& pred,
                          std::string_view family_name) {
  std::vector<std::pair<net::Asn, double>> sources(
      pred.source_distribution.begin(), pred.source_distribution.end());
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  char line[256];
  std::snprintf(line, sizeof line, "AS%-8u  %-12s %5.0f %9.0fs %7.1f %5.1f  ",
                asn, std::string(family_name).c_str(), pred.magnitude,
                pred.duration_s, pred.day, pred.hour);
  table << line;
  for (std::size_t i = 0; i < sources.size() && i < 3; ++i) {
    if (sources[i].first == 0) continue;
    char src[48];
    std::snprintf(src, sizeof src, "AS%u(%.0f%%) ", sources[i].first,
                  100.0 * sources[i].second);
    table << src;
  }
  table << "\n";
}

int cmd_predict(Args argv, std::ostream& out, std::ostream& err) {
  const ArgMap args(argv,
                    {"dataset", "ipmap", "model", "target", "top", "fit-report",
                     "precision"});
  const core::Precision precision =
      core::parse_precision(args.get("precision").value_or("f64"));
  const std::string report_dest = args.get("fit-report").value_or("");
  std::ostream& info = report_dest == "-" ? err : out;
  core::AdversaryModel model;
  if (const auto model_path = args.get("model")) {
    std::ifstream model_in(*model_path);
    if (!model_in) {
      throw durable::LoadFailure(durable::LoadError::kIo,
                                 "cannot open model file " + *model_path);
    }
    model = core::AdversaryModel::load_framed(model_in);
  } else {
    const std::string dataset_path = args.require("dataset");
    const trace::Dataset fit_dataset = parse_dataset(
        read_input(dataset_path, "dataset"), dataset_path, info);
    const std::string ipmap_path = args.require("ipmap");
    const net::IpToAsnMap ip_map =
        parse_ipmap(read_input(ipmap_path, "ipmap"), ipmap_path);
    model = core::AdversaryModel(core::default_cli_options());
    model.fit(fit_dataset, ip_map);
  }
  if (!report_dest.empty()) write_fit_report(model, report_dest, out);
  const trace::Dataset& dataset = model.dataset();

  std::vector<net::Asn> targets;
  for (const std::string& target : args.get_all("target")) {
    targets.push_back(static_cast<net::Asn>(std::stoul(target)));
  }
  if (targets.empty()) {
    targets = dataset.target_asns();
    targets.resize(std::min<std::size_t>(targets.size(),
                                         args.get_or<std::size_t>("top", 5)));
  }

  // Both precisions answer from one in-memory .armm image, the same
  // predictor `serve`/`query` run (at f64 bit-identical to
  // predict_next_attack).
  const core::ServingModel served =
      core::ServingModel::from_image(core::armm::pack_model(model));

  std::ostream& table = report_dest == "-" ? err : out;
  table << kPredictionHeader;
  for (net::Asn asn : targets) {
    const auto pred = served.predict(asn, precision);
    if (!pred) {
      table << "AS" << asn << "  (no history)\n";
      continue;
    }
    print_prediction_row(table, asn, *pred,
                         dataset.family_names()[pred->assumed_family]);
  }
  return 0;
}

// --- serving: pack / serve / query ------------------------------------------

int cmd_pack(Args argv, std::ostream& out, std::ostream&) {
  const ArgMap args(argv, {"model", "out"});
  const std::string model_path = args.require("model");
  const std::string out_path = args.require("out");
  // load_any maps + validates the framed artifact in place (no payload
  // copy) before deserializing and re-packing; an .armm input round-trips.
  const core::ServingModel packed = core::ServingModel::load_any(model_path);
  durable::atomic_write_file(out_path, packed.image());
  out << "packed " << model_path << " -> " << out_path << " ("
      << packed.image().size() << " bytes, " << packed.targets().size()
      << " targets)\n";
  return 0;
}

std::atomic<bool> g_serve_stop{false};
void serve_signal_handler(int) { g_serve_stop.store(true); }

int cmd_serve(Args argv, std::ostream& out, std::ostream&) {
  const ArgMap args(argv,
                    {"socket", "port", "model", "threads", "max-resident",
                     "max-batch", "watch-interval", "io-timeout",
                     "idle-timeout"},
                    {"no-batching", "preload"});
  core::serve::ServerOptions opts;
  if (const auto socket = args.get("socket")) opts.socket_path = *socket;
  opts.tcp_port = static_cast<int>(args.get_or<long>("port", 0));
  for (const std::string& spec : args.get_all("model")) {
    // "name=path", or a bare path whose stem names the model.
    const std::size_t eq = spec.find('=');
    if (eq != std::string::npos) {
      opts.models.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else {
      opts.models.emplace_back(std::filesystem::path(spec).stem().string(),
                               spec);
    }
  }
  if (opts.models.empty()) {
    throw std::invalid_argument("serve needs at least one --model name=path");
  }
  opts.threads = args.get_or<std::size_t>("threads", 4);
  opts.max_resident = args.get_or<std::size_t>("max-resident", 8);
  opts.batching = !args.has("no-batching");
  opts.max_batch = args.get_or<std::size_t>("max-batch", 64);
  opts.watch_interval_ms = args.get_or<std::size_t>("watch-interval", 200);
  opts.io_timeout_ms = args.get_or<std::size_t>("io-timeout", 5000);
  opts.idle_timeout_ms = args.get_or<std::size_t>("idle-timeout", 0);
  opts.preload = args.has("preload");

  core::serve::Server server(std::move(opts));
  server.start();
  out << "LISTENING";
  if (!server.socket_path().empty()) {
    out << " unix=" << server.socket_path().string();
  }
  if (server.tcp_port() != 0) out << " tcp=" << server.tcp_port();
  out << "\n" << std::flush;

  g_serve_stop.store(false);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  const core::serve::ServerStats stats = server.stats();
  out << "served " << stats.requests << " requests ("
      << stats.coalesced << " coalesced, " << stats.errors << " errors, "
      << stats.swaps << " hot swaps)\n";
  return 0;
}

int cmd_query(Args argv, std::ostream& out, std::ostream&) {
  const ArgMap args(argv,
                    {"socket", "port", "model", "target", "count", "seed",
                     "precision"});
  const core::Precision precision =
      core::parse_precision(args.get("precision").value_or("f64"));
  const std::string model = args.require("model");
  std::vector<net::Asn> targets;
  for (const std::string& t : args.get_all("target")) {
    targets.push_back(static_cast<net::Asn>(std::stoul(t)));
  }
  if (targets.empty()) {
    throw std::invalid_argument("query needs at least one --target ASN");
  }

  core::serve::Client client = [&] {
    if (const auto socket = args.get("socket")) {
      return core::serve::Client::connect_unix(*socket);
    }
    const auto port = args.get("port");
    if (!port) throw std::invalid_argument("query needs --socket or --port");
    return core::serve::Client::connect_tcp(
        static_cast<int>(std::stoul(*port)));
  }();

  // --count N replays a seeded deterministic query mix over the targets
  // (scripts/loadgen.sh); without it, each target is queried once.
  std::vector<net::Asn> mix;
  if (const auto count = args.get("count")) {
    std::uint64_t state = args.get_or<std::uint64_t>("seed", 1);
    const std::size_t n = std::stoull(*count);
    mix.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      mix.push_back(targets[(state >> 33) % targets.size()]);
    }
  } else {
    mix = targets;
  }

  out << kPredictionHeader;
  for (net::Asn asn : mix) {
    const auto [status, result] = client.predict(model, asn, precision);
    switch (status) {
      case core::serve::Status::kOk:
        print_prediction_row(out, asn, result->prediction,
                             result->family_name);
        break;
      case core::serve::Status::kNoPrediction:
        out << "AS" << asn << "  (no history)\n";
        break;
      case core::serve::Status::kUnknownModel:
        throw durable::LoadFailure(durable::LoadError::kIo,
                                   "server has no model '" + model + "'");
      case core::serve::Status::kBadRequest:
      case core::serve::Status::kTooLarge:
        throw std::invalid_argument(
            "server rejected the request: " +
            std::string(core::serve::status_name(status)));
      case core::serve::Status::kInternal:
        throw std::runtime_error("server error answering AS" +
                                 std::to_string(asn));
    }
  }
  return 0;
}

/// One horizon's evaluation rendered as stable text: printed, checkpointed,
/// and concatenated into --out verbatim, so a resumed run's output is
/// byte-identical to an uninterrupted one.
std::string render_evaluation(const std::string& label,
                              const core::TimestampEvaluation& eval) {
  if (eval.truth_hour.empty()) {
    return "h=" + label + ": not enough data to evaluate\n";
  }
  char buffer[320];
  std::snprintf(buffer, sizeof buffer,
                "h=%s: %zu test attacks\n"
                "hour RMSE: spatial %.2f  temporal %.2f  spatiotemporal %.2f\n"
                "date RMSE: spatial %.2f  temporal %.2f  spatiotemporal %.2f\n",
                label.c_str(), eval.truth_hour.size(), eval.rmse_hour_spa,
                eval.rmse_hour_tmp, eval.rmse_hour_st, eval.rmse_day_spa,
                eval.rmse_day_tmp, eval.rmse_day_st);
  return buffer;
}

/// Ranks the three models by RMSE, e.g. "spatiotemporal < temporal <
/// spatial", and appends whether the paper's ordering (spatiotemporal best,
/// then temporal, then spatial; §VI-B) held on this scenario.
std::string render_ordering(const char* label, double spa, double tmp,
                            double st) {
  std::array<std::pair<double, const char*>, 3> ranked{
      {{st, "spatiotemporal"}, {tmp, "temporal"}, {spa, "spatial"}}};
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  const bool holds = st <= tmp && tmp <= spa;
  std::string line = std::string("ordering (") + label + "): ";
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    line += ranked[i].second;
    if (i + 1 < ranked.size()) line += " < ";
  }
  line += holds ? "  [paper ordering holds]\n"
                : "  [paper ordering breaks]\n";
  return line;
}

/// The per-scenario predictability table: the Fig. 4 RMSE block plus the
/// §VII-A naive baselines and the ordering verdict. Byte-stable, so
/// scripts/scenario_table.sh output diffs cleanly across runs.
std::string render_scenario_evaluation(const trace::Scenario& scenario,
                                       std::size_t n_attacks,
                                       std::size_t days, std::uint64_t seed,
                                       const std::string& fraction_token,
                                       const core::TimestampEvaluation& eval) {
  std::string text = std::string("scenario: ") + scenario.name + " — " +
                     scenario.summary + "\n";
  char world_line[160];
  std::snprintf(world_line, sizeof world_line,
                "world: %zu attacks over %zu days (seed %llu)\n", n_attacks,
                days, static_cast<unsigned long long>(seed));
  text += world_line;
  text += render_evaluation(fraction_token, eval);
  if (eval.truth_hour.empty()) return text;
  char baselines[192];
  std::snprintf(baselines, sizeof baselines,
                "hour RMSE (naive): always-same %.2f  always-mean %.2f\n"
                "date RMSE (naive): always-same %.2f  always-mean %.2f\n",
                eval.rmse_hour_same, eval.rmse_hour_mean, eval.rmse_day_same,
                eval.rmse_day_mean);
  text += baselines;
  text += render_ordering("hour", eval.rmse_hour_spa, eval.rmse_hour_tmp,
                          eval.rmse_hour_st);
  text += render_ordering("date", eval.rmse_day_spa, eval.rmse_day_tmp,
                          eval.rmse_day_st);
  return text;
}

/// `evaluate --scenario NAME`: generates the scenario's evaluation-preset
/// world in memory (no --dataset/--ipmap) and scores the three models
/// against the naive baselines on its test tail.
int cmd_evaluate_scenario(const ArgMap& args, const std::string& name,
                          core::Precision precision, std::ostream& out) {
  if (args.has("dataset") || args.has("ipmap")) {
    throw std::invalid_argument(
        "--scenario evaluates a self-contained preset world; drop "
        "--dataset/--ipmap (or drop --scenario to evaluate a saved trace)");
  }
  if (args.has("checkpoint-dir") || args.has("horizons")) {
    throw std::invalid_argument(
        "--scenario does not support --checkpoint-dir/--horizons");
  }
  trace::WorldOptions wopts = trace::small_world_options(1);
  const trace::Scenario& scenario = trace::apply_scenario(wopts, name);
  wopts.seed = args.get_or<std::uint64_t>("seed", scenario.eval.seed);
  wopts.generator.days = scenario.eval.days;
  wopts.generator.activity_scale = scenario.eval.activity_scale;
  for (const std::string& spec : args.get_all("scenario-param")) {
    trace::apply_scenario_param(wopts.generator, scenario, spec);
  }
  char default_fraction[32];
  std::snprintf(default_fraction, sizeof default_fraction, "%g",
                scenario.eval.train_fraction);
  const std::string token =
      args.get("train-fraction").value_or(default_fraction);
  const double fraction = std::stod(token);
  if (!(fraction > 0.0 && fraction < 1.0)) {
    throw std::invalid_argument("train fraction must be in (0, 1), got " +
                                token);
  }

  const trace::World world = trace::build_world(wopts);
  const core::TimestampEvaluation eval = core::evaluate_timestamps(
      world.dataset, world.ip_map, core::default_cli_options(), fraction,
      precision);
  const std::string text = render_scenario_evaluation(
      scenario, world.dataset.size(), wopts.generator.days, wopts.seed, token,
      eval);
  out << text;
  if (const auto out_path = args.get("out")) {
    durable::save_artifact(*out_path, "evaluation", 1, text);
  }
  return 0;
}

int cmd_evaluate(Args argv, std::ostream& out, std::ostream& err) {
  const ArgMap args(argv,
                    {"dataset", "ipmap", "train-fraction", "horizons", "out",
                     "checkpoint-dir", "precision", "scenario",
                     "scenario-param", "seed"},
                    {"resume"});
  const core::Precision precision =
      core::parse_precision(args.get("precision").value_or("f64"));
  if (const auto scenario_name = args.get("scenario")) {
    return cmd_evaluate_scenario(args, *scenario_name, precision, out);
  }
  const std::string dataset_path = args.require("dataset");
  const std::string ipmap_path = args.require("ipmap");
  const std::string dataset_bytes = read_input(dataset_path, "dataset");
  const std::string ipmap_bytes = read_input(ipmap_path, "ipmap");
  const trace::Dataset dataset =
      parse_dataset(dataset_bytes, dataset_path, out);
  const net::IpToAsnMap ip_map = parse_ipmap(ipmap_bytes, ipmap_path);

  // Horizons keep their CLI spelling: the token names the checkpoint stage
  // and labels the output, so "0.80" and "0.8" are distinct stages.
  std::vector<std::string> horizons;
  if (const auto list = args.get("horizons")) {
    std::istringstream tokens(*list);
    std::string token;
    while (std::getline(tokens, token, ',')) {
      if (!token.empty()) horizons.push_back(token);
    }
    if (horizons.empty()) {
      throw std::invalid_argument("--horizons needs at least one fraction");
    }
  } else {
    horizons.push_back(args.get("train-fraction").value_or("0.8"));
  }

  const core::SpatiotemporalOptions opts = core::default_cli_options();
  std::optional<core::CheckpointDir> checkpoint =
      open_checkpoint(args, [&dataset_bytes, &ipmap_bytes] {
        return run_config_hash({"evaluate", dataset_bytes, ipmap_bytes,
                                core::fit_config_tag()});
      });

  std::string results;
  for (const std::string& token : horizons) {
    const double fraction = std::stod(token);
    if (!(fraction > 0.0 && fraction < 1.0)) {
      throw std::invalid_argument("train fraction must be in (0, 1), got " +
                                  token);
    }
    // f32 results checkpoint under a distinct stage name so a directory
    // shared across precisions never serves the wrong cached text (f64
    // stage names are unchanged, so old checkpoints still resume).
    const std::string stage =
        "eval/h=" + token +
        (precision == core::Precision::kF32 ? "/f32" : "");
    std::optional<std::string> text;
    if (checkpoint) text = checkpoint->load(stage);
    if (!text) {
      text = render_evaluation(
          token, core::evaluate_timestamps(dataset, ip_map, opts, fraction,
                                           precision));
      if (checkpoint) checkpoint->store(stage, *text);
    }
    out << *text;
    results += *text;
  }
  if (checkpoint && !checkpoint->report().clean()) {
    err << "checkpoint recovery:\n";
    checkpoint->report().write(err);
  }
  if (const auto out_path = args.get("out")) {
    durable::save_artifact(*out_path, "evaluation", 1, results);
  }
  return 0;
}

/// Observability switches, shared by every command. They are stripped from
/// the argument list before the per-command ArgMap parses it, so no
/// command lists them.
struct ObserveOptions {
  std::string trace_path;    ///< --trace FILE / ACBM_TRACE; empty = off.
  std::string metrics_dest;  ///< --metrics FILE|- / ACBM_METRICS; empty = off.
  bool profile = false;      ///< --profile / ACBM_PROFILE=1.

  [[nodiscard]] bool any() const noexcept {
    return profile || !trace_path.empty() || !metrics_dest.empty();
  }
};

ObserveOptions extract_observe_options(std::vector<std::string>& args) {
  ObserveOptions opts;
  std::vector<std::string> kept;
  kept.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--profile") {
      opts.profile = true;
      continue;
    }
    if (arg == "--trace" || arg == "--metrics") {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("option " + arg + " needs a value");
      }
      (arg == "--trace" ? opts.trace_path : opts.metrics_dest) = args[++i];
      continue;
    }
    kept.push_back(arg);
  }
  args = std::move(kept);
  const auto env = [](const char* name) -> std::string {
    const char* value = std::getenv(name);
    return value != nullptr ? std::string(value) : std::string();
  };
  if (opts.trace_path.empty()) opts.trace_path = env("ACBM_TRACE");
  if (opts.metrics_dest.empty()) opts.metrics_dest = env("ACBM_METRICS");
  if (!opts.profile) {
    const std::string flag = env("ACBM_PROFILE");
    opts.profile = !flag.empty() && flag != "0";
  }
  return opts;
}

/// Turns collection on for the lifetime of one command and writes the
/// requested sinks in finish(). The destructor disables collection even on
/// exception paths (the sinks are only written for completed commands).
class ObserveSession {
 public:
  explicit ObserveSession(ObserveOptions opts) : opts_(std::move(opts)) {
    if (opts_.any()) {
      // Fresh window per command so in-process callers (tests) get
      // per-run output; quiescent here — nothing is instrumented yet.
      observe::Tracer::instance().reset();
      observe::Metrics::instance().reset();
      observe::set_enabled(true);
    }
  }
  ~ObserveSession() {
    if (opts_.any()) observe::set_enabled(false);
  }
  ObserveSession(const ObserveSession&) = delete;
  ObserveSession& operator=(const ObserveSession&) = delete;

  /// Drains the tracer and writes --trace/--metrics/--profile. Call after
  /// the command's root span has closed.
  void finish(std::ostream& out, std::ostream& err) {
    if (!opts_.any()) return;
    observe::set_enabled(false);
    const std::vector<observe::SpanEvent> events =
        observe::Tracer::instance().collect();
    const std::uint64_t dropped = observe::Tracer::instance().dropped();
    if (!opts_.trace_path.empty()) {
      std::ofstream trace_out(opts_.trace_path);
      if (trace_out) {
        observe::write_chrome_trace(trace_out, events);
      } else {
        err << "warning: cannot write trace file " << opts_.trace_path << "\n";
      }
    }
    if (!opts_.metrics_dest.empty()) {
      if (opts_.metrics_dest == "-") {
        observe::Metrics::instance().write_prometheus(out);
      } else {
        std::ofstream metrics_out(opts_.metrics_dest);
        if (metrics_out) {
          observe::Metrics::instance().write_prometheus(metrics_out);
        } else {
          err << "warning: cannot write metrics file " << opts_.metrics_dest
              << "\n";
        }
      }
    }
    if (opts_.profile) observe::write_profile(err, events, dropped);
  }

 private:
  ObserveOptions opts_;
};

struct Command {
  const char* name;
  const char* span;  ///< The command's root span.
  int (*run)(Args, std::ostream&, std::ostream&);
};

constexpr std::array<Command, 10> kCommands{{
    {"generate", "cli.generate", cmd_generate},
    {"fit", "cli.fit", cmd_fit},
    {"worker", "cli.worker", cmd_worker},
    {"stats", "cli.stats", cmd_stats},
    {"predict", "cli.predict", cmd_predict},
    {"evaluate", "cli.evaluate", cmd_evaluate},
    {"ingest", "cli.ingest", cmd_ingest},
    {"pack", "cli.pack", cmd_pack},
    {"serve", "cli.serve", cmd_serve},
    {"query", "cli.query", cmd_query},
}};

}  // namespace

int run(std::span<const std::string> args_in, std::ostream& out,
        std::ostream& err) {
  if (args_in.empty() || args_in[0] == "help" || args_in[0] == "--help") {
    print_usage(out);
    return args_in.empty() ? 2 : 0;
  }
  try {
    std::vector<std::string> args(args_in.begin(), args_in.end());
    // A malformed ACBM_FAULTS spec parsed lazily inside the injector's
    // constructor cannot throw there; surface it as a usage error before
    // running anything under a half-configured fault set.
    if (const std::string& fault_error =
            acbm::core::FaultInjector::instance().config_error();
        !fault_error.empty()) {
      throw std::invalid_argument(fault_error);
    }
    ObserveSession session(extract_observe_options(args));
    const auto command =
        std::find_if(kCommands.begin(), kCommands.end(),
                     [&](const Command& c) { return args[0] == c.name; });
    if (command == kCommands.end()) {
      err << "unknown command '" << args[0] << "'\n";
      print_usage(err);
      return 2;
    }
    int code = 0;
    {
      // The root span closes before session.finish() drains the tracer.
      ACBM_SPAN(command->span);
      code = command->run(args, out, err);
    }
    session.finish(out, err);
    return code;
  } catch (const durable::LoadFailure& e) {
    err << "error (" << durable::to_string(e.code()) << "): " << e.what()
        << "\n";
    return 3;
  } catch (const durable::WriteFailure& e) {
    err << "error (write): " << e.what() << "\n";
    return 3;
  } catch (const std::invalid_argument& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "internal error: " << e.what() << "\n";
    return 1;
  }
}

int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return run(args, out, err);
}

}  // namespace acbm::cli
