// CLI-level streaming-ingestion acceptance: the `acbm ingest` verb's full
// lifecycle (init → snapshot appends → drift-triggered refit → export),
// its exit-code contract (0 ok/duplicate, 2 usage, 3 rejected snapshot,
// 6 refit retries exhausted), and the headline crash-safety property — the
// model a faulted-and-retried ingest loop publishes is byte-identical to a
// clean `acbm fit` on the exported cumulative dataset.
#include "cli/cli.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <iterator>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/durable.h"
#include "core/robust.h"

#include "../same_bytes.h"

namespace acbm::cli {
namespace {

namespace fs = std::filesystem;
namespace durable = acbm::core::durable;
using acbm::test::same_bytes;

struct FaultGuard {
  FaultGuard() { core::FaultInjector::instance().clear(); }
  ~FaultGuard() { core::FaultInjector::instance().clear(); }
};

struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("acbm_ingest_cli_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

int run_cli(std::vector<std::string> argv, std::string* out_text = nullptr,
            std::string* err_text = nullptr) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(argv, out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return code;
}

/// One small generated world shared by every test in this binary.
struct World {
  TempDir tmp;
  std::string dataset;
  std::string ipmap;
  World() {
    dataset = tmp.file("trace.art");
    ipmap = tmp.file("ipmap.art");
    std::string err;
    const int code = run_cli({"generate", "--seed", "9", "--days", "8",
                              "--dataset", dataset, "--ipmap", ipmap},
                             nullptr, &err);
    if (code != 0) throw std::runtime_error("generate failed: " + err);
  }
};

const World& world() {
  static const World w;
  return w;
}

/// Header fields of the generated dataset, for building snapshots.
struct DatasetHeader {
  std::string window_start;
  std::string families;
};

DatasetHeader dataset_header() {
  const std::string payload =
      durable::unwrap(durable::read_file(world().dataset), "dataset", 1, 1);
  DatasetHeader header;
  std::istringstream is(payload);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("#window_start=", 0) == 0) {
      header.window_start = line.substr(14);
    } else if (line.rfind("#families=", 0) == 0) {
      header.families = line.substr(10);
    } else if (!line.empty() && line[0] != '#') {
      break;
    }
  }
  return header;
}

/// A one-attack snapshot CSV stamped inside `hour` of the base window.
std::string snapshot_for_hour(std::size_t hour, std::uint64_t id) {
  const DatasetHeader header = dataset_header();
  const long long start =
      std::stoll(header.window_start) + static_cast<long long>(hour) * 3600 +
      120;
  std::ostringstream csv;
  csv << "#window_start=" << header.window_start << "\n"
      << "#families=" << header.families << "\n"
      << "id,family,target_ip,target_asn,start,duration_s,bots\n"
      << id << ",0,10.0.0.1,3," << start
      << ",600,10.9.0.1;10.9.0.2;10.9.0.3\n";
  return csv.str();
}

std::string write_snapshot(const TempDir& tmp, std::size_t hour,
                           std::uint64_t id) {
  const std::string path =
      tmp.file("snap" + std::to_string(hour) + ".csv");
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << snapshot_for_hour(hour, id);
  return path;
}

TEST(IngestCli, LifecycleAppendsRefitsAndMatchesAColdFitByteForByte) {
  FaultGuard guard;
  TempDir tmp;
  const std::string dir = tmp.file("stream");
  std::string out;
  std::string err;

  ASSERT_EQ(run_cli({"ingest", "--dir", dir, "--init", "--dataset",
                     world().dataset, "--ipmap", world().ipmap},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("model published"), std::string::npos);

  ASSERT_EQ(run_cli({"ingest", "--dir", dir, "--status"}, &out, &err), 0);
  EXPECT_NE(out.find("initialized:    yes"), std::string::npos);

  // Two appended snapshots; --no-refit defers, the forced refit then
  // publishes a new generation covering both.
  const std::size_t base_hours = 8 * 24;
  ASSERT_EQ(run_cli({"ingest", "--dir", dir, "--snapshot",
                     write_snapshot(tmp, base_hours + 1, 990001), "--hour",
                     std::to_string(base_hours + 1), "--no-refit"},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("accepted"), std::string::npos);
  ASSERT_EQ(run_cli({"ingest", "--dir", dir, "--snapshot",
                     write_snapshot(tmp, base_hours + 2, 990002), "--hour",
                     std::to_string(base_hours + 2), "--no-refit"},
                    &out, &err),
            0)
      << err;
  ASSERT_EQ(run_cli({"ingest", "--dir", dir, "--refit"}, &out, &err), 0)
      << err;
  EXPECT_NE(out.find("new model generation published"), std::string::npos);

  // The headline contract: export the cumulative dataset, cold-fit it, and
  // the bytes must match the incrementally refit model exactly.
  const std::string exported = tmp.file("cumulative.art");
  ASSERT_EQ(run_cli({"ingest", "--dir", dir, "--export-dataset", exported},
                    &out, &err),
            0)
      << err;
  const std::string cold_model = tmp.file("cold.art");
  ASSERT_EQ(run_cli({"fit", "--dataset", exported, "--ipmap", world().ipmap,
                     "--model", cold_model},
                    nullptr, &err),
            0)
      << err;
  EXPECT_TRUE(
      same_bytes(durable::read_file((fs::path(dir) / "model.art").string()),
                 durable::read_file(cold_model)));
}

TEST(IngestCli, DuplicateHourExitsZeroWithoutAppending) {
  TempDir tmp;
  const std::string dir = tmp.file("stream");
  std::string out;
  std::string err;
  ASSERT_EQ(run_cli({"ingest", "--dir", dir, "--init", "--dataset",
                     world().dataset, "--ipmap", world().ipmap},
                    nullptr, &err),
            0)
      << err;
  const std::string snap = write_snapshot(tmp, 1, 990003);
  EXPECT_EQ(run_cli({"ingest", "--dir", dir, "--snapshot", snap, "--hour",
                     "1", "--no-refit"},
                    &out, &err),
            0);
  EXPECT_NE(out.find("duplicate"), std::string::npos);
  EXPECT_NE(out.find("nothing appended"), std::string::npos);
}

TEST(IngestCli, RejectedSnapshotExitsThreeAndQuarantines) {
  TempDir tmp;
  const std::string dir = tmp.file("stream");
  std::string out;
  std::string err;
  ASSERT_EQ(run_cli({"ingest", "--dir", dir, "--init", "--dataset",
                     world().dataset, "--ipmap", world().ipmap},
                    nullptr, &err),
            0)
      << err;
  const std::string bad = tmp.file("bad.csv");
  std::ofstream(bad, std::ios::binary) << "not,a,snapshot\n";
  EXPECT_EQ(run_cli({"ingest", "--dir", dir, "--snapshot", bad, "--hour",
                     "500"},
                    &out, &err),
            3);
  EXPECT_NE(err.find("quarantined"), std::string::npos);
  EXPECT_FALSE(fs::is_empty(fs::path(dir) / "quarantine"));
}

TEST(IngestCli, ExhaustedRefitExitsSixAndKeepsServing) {
  FaultGuard guard;
  TempDir tmp;
  const std::string dir = tmp.file("stream");
  std::string out;
  std::string err;
  ASSERT_EQ(run_cli({"ingest", "--dir", dir, "--init", "--dataset",
                     world().dataset, "--ipmap", world().ipmap},
                    nullptr, &err),
            0)
      << err;
  const std::string before =
      durable::read_file((fs::path(dir) / "model.art").string());

  core::FaultInjector::instance().configure("refit.fail");
  EXPECT_EQ(run_cli({"ingest", "--dir", dir, "--refit", "--refit-retries",
                     "1", "--refit-backoff-ms", "0"},
                    &out, &err),
            6);
  EXPECT_NE(err.find("previous model generation is still live"),
            std::string::npos);
  EXPECT_TRUE(
      same_bytes(durable::read_file((fs::path(dir) / "model.art").string()),
                 before));

  core::FaultInjector::instance().clear();
  EXPECT_EQ(run_cli({"ingest", "--dir", dir, "--refit"}, &out, &err), 0)
      << err;
}

TEST(IngestCli, UsageErrors) {
  TempDir tmp;
  std::string err;
  // No mode flag at all.
  EXPECT_EQ(run_cli({"ingest", "--dir", tmp.file("s")}, nullptr, &err), 2);
  EXPECT_NE(err.find("--init"), std::string::npos);
  // --snapshot without --hour.
  EXPECT_EQ(run_cli({"ingest", "--dir", tmp.file("s"), "--snapshot",
                     "x.csv"},
                    nullptr, &err),
            2);
  EXPECT_NE(err.find("--hour"), std::string::npos);
  // Unknown option; the drift policy has no knobs.
  EXPECT_EQ(run_cli({"ingest", "--dir", tmp.file("s"), "--bogus", "1"},
                    nullptr, &err),
            2);
  EXPECT_EQ(run_cli({"ingest", "--dir", tmp.file("s"), "--status",
                     "--drift-z", "2"},
                    nullptr, &err),
            2);
}

TEST(IngestCli, PreviousSegmentFormatExitsThreeWithTheRemedy) {
  // A directory whose log holds a CSV segment (ingest_segment v1) is
  // refused before anything is read or repaired.
  TempDir tmp;
  const fs::path dir = tmp.path / "stream";
  fs::create_directories(dir);
  const std::string log = durable::frame_payload(
      "ingest_segment", 1,
      "hour=0\n#window_start=0\n#families=A\n"
      "id,family,target_ip,target_asn,start,duration_s,bots\n");
  durable::atomic_write_file(dir / "snapshots.log", log);
  std::string err;
  EXPECT_EQ(run_cli({"ingest", "--dir", dir.string(), "--status"}, nullptr,
                    &err),
            3);
  EXPECT_NE(err.find("error (version_unsupported)"), std::string::npos)
      << err;
  EXPECT_NE(err.find("--export-dataset"), std::string::npos) << err;
  EXPECT_TRUE(same_bytes(durable::read_file(dir / "snapshots.log"), log));
  EXPECT_EQ(
      std::distance(fs::directory_iterator(dir), fs::directory_iterator{}), 1);
}

}  // namespace
}  // namespace acbm::cli
