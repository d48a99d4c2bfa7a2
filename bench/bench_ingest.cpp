// Streaming-ingestion perf harness: times the hourly snapshot hot paths —
// durable append+validate throughput (snapshots/sec, fsync included), log
// reopen/recovery scans, and the per-family drift-check replay — and emits
// a machine-readable JSON report on stdout (scripts/bench.sh captures it
// into results/BENCH_ingest.json; bench_util.h has the output contract).
// `--tiny` doubles as the `ingest`-labeled sanitizer sweep.
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/ingest.h"
#include "net/ipv4.h"
#include "trace/dataset.h"

namespace {

namespace fs = std::filesystem;
namespace ingest = acbm::core::ingest;

using acbm::bench::BenchConfig;
using acbm::bench::BenchResult;
using acbm::bench::run_bench;
using acbm::bench::TempDir;

constexpr const char* kSuite = "ingest";
constexpr const char* kTmpPrefix = "acbm_bench_ingest";

constexpr acbm::trace::EpochSeconds kWs = 1'000'000'000;

/// One synthetic hourly snapshot: `per_family` attacks for each of
/// `families` families, evenly spaced inside the hour.
std::string snapshot_csv(std::size_t families, std::size_t hour,
                         std::size_t per_family, std::uint64_t id_base) {
  std::ostringstream csv;
  csv << "#window_start=" << kWs << "\n#families=";
  for (std::size_t f = 0; f < families; ++f) {
    csv << "fam" << f << (f + 1 < families ? ";" : "");
  }
  csv << "\nid,family,target_ip,target_asn,start,duration_s,bots\n";
  const acbm::trace::EpochSeconds hour_start =
      kWs + static_cast<acbm::trace::EpochSeconds>(hour) * 3600;
  const acbm::trace::EpochSeconds step =
      3600 / static_cast<acbm::trace::EpochSeconds>(per_family);
  // Time-major emission keeps rows sorted by start, the canonical order.
  std::uint64_t id = id_base;
  for (std::size_t a = 0; a < per_family; ++a) {
    for (std::size_t f = 0; f < families; ++f) {
      csv << id++ << ',' << f << ",10.0.0.1,3,"
          << hour_start + static_cast<acbm::trace::EpochSeconds>(a) * step +
                 static_cast<acbm::trace::EpochSeconds>(f) + 7
          << ",600,10.1.0.1;10.1.0.2;10.1.0.3\n";
    }
  }
  return csv.str();
}

/// Durable append+validate throughput: every append parses + validates the
/// snapshot, frames it with a CRC, and fsyncs the log. ops = snapshots.
BenchResult bench_append(const BenchConfig& config) {
  const std::size_t families = config.tiny ? 2 : 8;
  const std::size_t hours = config.tiny ? 6 : 96;
  const std::size_t per_family = config.tiny ? 2 : 4;
  std::vector<std::string> snapshots;
  snapshots.reserve(hours);
  for (std::size_t h = 0; h < hours; ++h) {
    snapshots.push_back(
        snapshot_csv(families, h, per_family, 1'000 * (h + 1)));
  }
  BenchResult result =
      run_bench(kSuite, "snapshot_append_validate", config, [&]() {
        TempDir tmp(kTmpPrefix);
        ingest::SnapshotLog log(tmp.path / "stream");
        double acc = 0.0;
        for (std::size_t h = 0; h < hours; ++h) {
          const ingest::AppendOutcome outcome = log.append(h, snapshots[h]);
          acc += outcome.status == ingest::AppendStatus::kAccepted ? 1.0 : -1e6;
        }
        return acc + static_cast<double>(log.cumulative().size());
      });
  result.ops = static_cast<double>(hours);
  return result;
}

/// Cold reopen of a populated log: the full recovery scan (frame + CRC
/// verification of every segment) plus cumulative reassembly. ops = segments.
BenchResult bench_reopen(const BenchConfig& config) {
  const std::size_t families = config.tiny ? 2 : 8;
  const std::size_t hours = config.tiny ? 6 : 96;
  TempDir tmp(kTmpPrefix);
  const fs::path dir = tmp.path / "stream";
  {
    ingest::SnapshotLog log(dir);
    for (std::size_t h = 0; h < hours; ++h) {
      log.append(h, snapshot_csv(families, h, config.tiny ? 2 : 4,
                                 1'000 * (h + 1)));
    }
  }
  BenchResult result = run_bench(kSuite, "log_reopen_recover", config, [&]() {
    ingest::SnapshotLog log(dir);
    return static_cast<double>(log.segments().size() +
                               log.cumulative().size());
  });
  result.ops = static_cast<double>(hours);
  return result;
}

/// The drift-monitor replay: per-family corrected-EMA channels z-scored
/// against fit-time baselines across the whole window. ops = family-checks
/// (families x hours), so ops_per_sec / hours = families checked per
/// second and median_ms / families = drift-check cost per family.
BenchResult bench_drift_check(const BenchConfig& config) {
  const std::size_t families = config.tiny ? 2 : 10;
  const std::size_t hours = config.tiny ? 12 : 720;
  const std::size_t per_family = 2;
  const acbm::trace::Dataset cumulative = [&]() {
    TempDir tmp(kTmpPrefix);
    ingest::SnapshotLog log(tmp.path / "stream");
    for (std::size_t h = 0; h < hours; ++h) {
      log.append(h, snapshot_csv(families, h, per_family, 1'000 * (h + 1)));
    }
    return log.cumulative();
  }();
  std::vector<acbm::core::FamilyDriftBaseline> baselines(families);
  for (std::size_t f = 0; f < families; ++f) {
    baselines[f].family = static_cast<std::uint32_t>(f);
    baselines[f].hours = static_cast<double>(hours);
    baselines[f].rate_mean = static_cast<double>(per_family);
    baselines[f].rate_std = 0.5;
    baselines[f].magnitude_mean = 3.0;
    baselines[f].magnitude_std = 1.0;
    baselines[f].interval_mean = 3600.0 / static_cast<double>(per_family);
    baselines[f].interval_residual_std = 600.0;
  }
  const ingest::DriftPolicy policy;
  BenchResult result = run_bench(kSuite, "drift_check_replay", config, [&]() {
    const std::vector<ingest::DriftTrip> trips = ingest::detect_drift(
        cumulative, baselines, /*served_hour=*/0, hours - 1, policy);
    return static_cast<double>(trips.size());
  });
  result.ops = static_cast<double>(families * hours);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  return acbm::bench::bench_main(argc, argv, kSuite,
                                 [](const BenchConfig& config) {
                                   return std::vector<BenchResult>{
                                       bench_append(config),
                                       bench_reopen(config),
                                       bench_drift_check(config)};
                                 });
}
