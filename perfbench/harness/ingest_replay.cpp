// ingest-replay: writes beside reads. Set-up cuts a small world into the
// base dataset an ingest directory is initialised on and one snapshot CSV
// per remaining hour; perfbench/run.py times the shipped `acbm ingest` on
// them. The phases here check the model the replay published and, in every
// workload's traced run, time the per-hour operation's parts: open the
// Ingestor (log recovery), append, check_and_refit(false).
#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "checks.h"
#include "core/durable.h"
#include "core/ingest.h"
#include "core/observe.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "stats/kernels.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = acbm::core;
namespace ingest = acbm::core::ingest;

/// The base log holds the first whole hours of the world that carry this
/// many bot records (about 56 days of the 70-day world). The per-hour cost
/// grows with the bytes in the log, so a fixed bot count, not a fixed
/// number of days, keeps the input size the same from seed to seed.
constexpr std::size_t kBaseBots = 1'000'000;

/// The hours trace-ingest replays on a directory it initialised itself.
constexpr std::size_t kLayerHours = 3;

/// The options `acbm ingest` runs with by default.
ingest::IngestorOptions ingest_options(const fs::path& dir) {
  ingest::IngestorOptions opts;
  opts.dir = dir;
  opts.model = core::default_cli_options();
  return opts;
}

trace::Dataset slice(const trace::Dataset& world, trace::EpochSeconds from,
                     trace::EpochSeconds to) {
  std::vector<trace::Attack> attacks;
  for (const trace::Attack& a : world.attacks()) {
    if (a.start >= from && a.start < to) attacks.push_back(a);
  }
  std::vector<trace::FamilySnapshot> snapshots;
  for (const trace::FamilySnapshot& s : world.snapshots()) {
    if (s.ts >= from && s.ts < to) snapshots.push_back(s);
  }
  return trace::Dataset(world.family_names(), std::move(attacks),
                        std::move(snapshots), world.window_start());
}

/// Cuts `world` at hour `base_hours`: the hours before it are the base an
/// ingest directory is initialised on, and each of the next `count` hours
/// (all up to the last attack by default) becomes one snapshot CSV,
/// `snapshots`/<hour>.csv. Returns the base and the hours cut.
std::pair<trace::Dataset, std::vector<std::size_t>> cut(
    const trace::Dataset& world, std::size_t base_hours, const fs::path& snapshots,
    std::size_t count = std::numeric_limits<std::size_t>::max()) {
  const trace::EpochSeconds ws = world.window_start();
  const auto last_hour =
      static_cast<std::size_t>((world.attacks().back().start - ws) / 3600);
  fs::remove_all(snapshots);
  fs::create_directories(snapshots);
  std::vector<std::size_t> hours;
  for (std::size_t h = base_hours; h <= last_hour && hours.size() < count; ++h) {
    const auto from = ws + 3600 * static_cast<trace::EpochSeconds>(h);
    std::ostringstream csv;
    slice(world, from, from + 3600).save_csv(csv);
    core::durable::atomic_write_file(snapshots / (std::to_string(h) + ".csv"), csv.str());
    hours.push_back(h);
  }
  return {slice(world, ws, ws + 3600 * static_cast<trace::EpochSeconds>(base_hours)),
          std::move(hours)};
}

}  // namespace

int setup_ingest(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const fs::path dir = args.str("dir");
  const bool tiny = args.has("tiny");
  Checks checks;
  Report report;
  const auto t0 = Clock::now();
  const trace::World world = trace::build_world(small_world(seed, tiny));
  const double generate_s = seconds_since(t0);
  const trace::EpochSeconds ws = world.dataset.window_start();
  std::size_t total_bots = 0;
  for (const trace::Attack& a : world.dataset.attacks()) total_bots += a.bots.size();
  const std::size_t target_bots = tiny ? total_bots * 3 / 5 : kBaseBots;
  std::size_t base_bots = 0;
  std::size_t base_hours = 0;
  for (const trace::Attack& a : world.dataset.attacks()) {
    if (base_bots >= target_bots) break;
    base_bots += a.bots.size();
    base_hours = static_cast<std::size_t>((a.start - ws) / 3600) + 1;
  }
  const auto [base, hours] = cut(world.dataset, base_hours, dir / "snapshots");
  save_dataset(dir / "base.art", base);
  save_ipmap(dir / "ipmap.art", world.ip_map);
  write_world_facts(dir / "facts.txt", world.dataset);
  report.metric("setup_s", seconds_since(t0));
  report.metric("generate_s", generate_s);
  report.metric("attacks", static_cast<double>(world.dataset.size()));
  report.context("base_hours", static_cast<double>(base_hours));
  checks.op(hours.size() >= 24, "less than a day of the world is left to replay");
  report.print(checks);
  return 0;
}

int check_ingest(const Args& args) {
  const fs::path dir = args.str("dir");
  const WorldFacts facts = read_world_facts(args.str("facts"));
  const Window window{facts.start, facts.end};
  Checks checks;
  Report report;
  std::ifstream in(dir / "model.art", std::ios::binary);
  const core::AdversaryModel model = core::AdversaryModel::load_framed(in);
  std::size_t forecasts = 0;
  bool plausible = true;
  for (const net::Asn asn : model.dataset().target_asns()) {
    std::optional<core::AttackPrediction> pred = model.predict_next_attack(asn);
    if (!pred) continue;
    if (inject(args, "corrupt-forecast") && forecasts == 0) pred->start = -1;
    ++forecasts;
    const std::string why = implausible_forecast(*pred, window);
    checks.expect(why.empty(), "published model, AS" + std::to_string(asn) + ": " + why);
    plausible = plausible && why.empty();
  }
  checks.op(plausible && forecasts > 0, "the published model is implausible");
  report.context("forecast_targets", static_cast<double>(forecasts));
  report.context("isa", acbm::stats::isa_name(acbm::stats::active_isa()));
  report.print(checks);
  return 0;
}

int trace_ingest(const Args& args) {
  const fs::path dir = args.str("dir");
  Checks checks;
  Report report;
  const ingest::IngestorOptions opts = ingest_options(dir);

  // Without a replayed directory, a directory is initialised on the first
  // --base-days days of the workload's world, and the next kLayerHours
  // hours are replayed.
  fs::path snapshots;
  std::vector<std::string> hours;
  if (args.has("dataset")) {
    const trace::Dataset world = load_dataset(args.str("dataset"));
    snapshots = dir.parent_path() / (dir.filename().string() + ".snapshots");
    const auto [base, cut_hours] =
        cut(world, 24 * static_cast<std::size_t>(args.num("base-days")), snapshots,
            kLayerHours);
    const auto t = Clock::now();
    ingest::Ingestor(opts).init(base, load_ipmap(args.str("ipmap")));
    report.context("layers.ingest_init_s", seconds_since(t));
    for (const std::size_t h : cut_hours) hours.push_back(std::to_string(h));
  } else {
    snapshots = args.str("snapshots");
    std::istringstream list(args.str("hours"));
    std::string hour;
    while (std::getline(list, hour, ',')) hours.push_back(hour);
  }

  // The per-hour operation's parts, over the hours. A check that tripped
  // also refit; it counts only when every hour tripped (see run.py Replay).
  std::vector<double> recover_ms, append_ms, check_ms, tripped_check_ms;
  std::size_t drift_trips = 0;
  for (const std::string& hour : hours) {
    auto t = Clock::now();
    ingest::Ingestor ingestor(opts);
    recover_ms.push_back(ms_since(t));
    const std::string csv = core::durable::read_file(snapshots / (hour + ".csv"));
    t = Clock::now();
    const ingest::AppendOutcome appended = ingestor.append(std::stoul(hour), csv);
    append_ms.push_back(ms_since(t));
    checks.op(appended.status == ingest::AppendStatus::kAccepted ||
                  appended.status == ingest::AppendStatus::kRepaired,
              "hour " + hour + ": snapshot " + ingest::to_string(appended.status));
    t = Clock::now();
    const ingest::RefitResult result = ingestor.check_and_refit(false);
    (result.attempted ? tripped_check_ms : check_ms).push_back(ms_since(t));
    drift_trips += result.trips.size();
    checks.op(!result.fallback, "hour " + hour + ": refit fell back");
  }

  std::vector<double> cumulative_ms, drift_ms;
  for (int i = 0; i < 3; ++i) {
    ingest::Ingestor ingestor(opts);
    std::ifstream in(ingestor.model_path(), std::ios::binary);
    const core::AdversaryModel model = core::AdversaryModel::load_framed(in);
    auto t = Clock::now();
    const trace::Dataset cumulative = ingestor.log().cumulative();
    cumulative_ms.push_back(ms_since(t));
    t = Clock::now();
    (void)ingest::detect_drift(cumulative, model.drift_baselines(), ingestor.last_refit_hour(),
                               ingestor.log().last_hour(), opts.drift);
    drift_ms.push_back(ms_since(t));
  }

  // A forced refit over the hours, with the checkpoint counters on.
  auto& metrics = acbm::core::observe::Metrics::instance();
  metrics.reset();
  acbm::core::observe::set_enabled(true);
  const ingest::RefitResult refit = ingest::Ingestor(opts).check_and_refit(true);
  acbm::core::observe::set_enabled(false);
  checks.op(refit.published && !refit.fallback, "the forced refit published no model");
  const double hits = static_cast<double>(metrics.counter_value("checkpoint.load.hit"));
  const double misses = static_cast<double>(metrics.counter_value("checkpoint.load.miss"));

  report.metric("core.ingest.recover_ms", median(recover_ms));
  report.metric("core.ingest.append_ms.p50", quantile(append_ms, 0.5));
  report.metric("core.ingest.append_ms.p99", quantile(append_ms, 0.99));
  report.metric("core.ingest.check_ms", median(check_ms.empty() ? tripped_check_ms : check_ms));
  report.metric("core.ingest.cumulative_ms", median(cumulative_ms));
  report.metric("core.ingest.detect_drift_ms", median(drift_ms));
  report.metric("core.ingest.stages_invalidated", static_cast<double>(refit.stages_invalidated));
  report.metric("core.checkpoint.load_hit_share", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report.context("layers.drift_trips", static_cast<double>(drift_trips));
  report.context("layers.ingest_hours", static_cast<double>(hours.size()));
  report.print(checks);
  return 0;
}

}  // namespace perfbench
