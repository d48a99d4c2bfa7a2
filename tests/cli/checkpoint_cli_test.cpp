// CLI-level durability acceptance: a fit crashed by an injected io.write
// fault exits with the corruption code, a --resume run completes from the
// checkpoint, and the resumed artifacts are byte-identical to an
// uninterrupted run's — at 1, 3, and 8 threads. Plus the CLI exit-code
// contract (2 usage / 3 corruption / 4 degradation-beyond-floor).
#include "cli/cli.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/durable.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/robust.h"

#include "../same_bytes.h"

namespace acbm::cli {
namespace {

namespace fs = std::filesystem;
namespace durable = acbm::core::durable;
using acbm::test::same_bytes;

struct FaultGuard {
  FaultGuard() { core::FaultInjector::instance().clear(); }
  ~FaultGuard() {
    core::FaultInjector::instance().clear();
    core::set_num_threads(0);
  }
};

/// A fresh directory per instance: the pid keeps concurrent ctest processes
/// apart, the counter keeps a test's directory apart from the shared
/// World's when the whole binary runs as one process.
struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("acbm_ckpt_cli_test_" + std::to_string(::getpid()) + "_" +
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

/// Generates one small shared world for the whole binary.
struct World {
  TempDir tmp;
  std::string dataset;
  std::string ipmap;
  World() {
    dataset = tmp.file("trace.csv");
    ipmap = tmp.file("ipmap.txt");
    std::string err;
    const int code = run_cli({"generate", "--seed", "5", "--days", "20",
                              "--dataset", dataset, "--ipmap", ipmap},
                             nullptr, &err);
    if (code != 0) throw std::runtime_error("generate failed: " + err);
  }
};

const World& world() {
  static const World w;
  return w;
}

TEST(CheckpointCli, CrashResumeIsByteIdenticalAcrossThreadCounts) {
  FaultGuard guard;
  TempDir tmp;
  std::string err;

  const std::string clean_model = tmp.file("clean.model");
  ASSERT_EQ(run_cli({"fit", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--model", clean_model},
                    nullptr, &err),
            0)
      << err;
  const std::string clean_bytes = durable::read_file(clean_model);

  for (const std::size_t threads : {1UL, 3UL, 8UL}) {
    core::set_num_threads(threads);
    const std::string tag = std::to_string(threads);
    const std::string model = tmp.file("m" + tag + ".model");
    const std::string ckpt = tmp.file("ckpt" + tag);

    // The injected fault crashes the spatial-stage checkpoint write.
    core::FaultInjector::instance().configure("io.write:spatial");
    EXPECT_EQ(run_cli({"fit", "--dataset", world().dataset, "--ipmap",
                       world().ipmap, "--model", model, "--checkpoint-dir",
                       ckpt},
                      nullptr, &err),
              3)
        << "threads=" << threads;
    EXPECT_NE(err.find("io.write"), std::string::npos);
    EXPECT_FALSE(fs::exists(model));

    core::FaultInjector::instance().clear();
    ASSERT_EQ(run_cli({"fit", "--dataset", world().dataset, "--ipmap",
                       world().ipmap, "--model", model, "--checkpoint-dir",
                       ckpt, "--resume"},
                      nullptr, &err),
              0)
        << "threads=" << threads << ": " << err;
    EXPECT_TRUE(same_bytes(durable::read_file(model), clean_bytes))
        << "threads=" << threads;
  }
}

TEST(CheckpointCli, OtherDatasetsCrashedFitIsNotResumedIntoTheFirst) {
  // Fit dataset A into a checkpoint dir; a --resume fit of dataset B into
  // the same dir crashes between its spatial artifact and marker. A's
  // --resume must still reproduce a clean fit of A byte for byte.
  FaultGuard guard;
  TempDir tmp;
  // The shared world lives in the same scratch directory and clears it when
  // first generated, so it comes before this test's own files.
  (void)world();
  std::string err;
  const std::string dataset_b = tmp.file("b.csv");
  const std::string ipmap_b = tmp.file("b_ipmap.txt");
  ASSERT_EQ(run_cli({"generate", "--seed", "6", "--days", "20", "--dataset",
                     dataset_b, "--ipmap", ipmap_b},
                    nullptr, &err),
            0)
      << err;
  const std::string clean_model = tmp.file("clean.model");
  ASSERT_EQ(run_cli({"fit", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--model", clean_model},
                    nullptr, &err),
            0)
      << err;

  const std::string ckpt = tmp.file("ckpt");
  const std::string model = tmp.file("a.model");
  ASSERT_EQ(run_cli({"fit", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--model", model, "--checkpoint-dir",
                     ckpt},
                    nullptr, &err),
            0)
      << err;
  core::FaultInjector::instance().configure("checkpoint.stage:spatial");
  EXPECT_EQ(run_cli({"fit", "--dataset", dataset_b, "--ipmap", ipmap_b,
                     "--model", tmp.file("b.model"), "--checkpoint-dir", ckpt,
                     "--resume"},
                    nullptr, &err),
            3);
  core::FaultInjector::instance().clear();

  ASSERT_EQ(run_cli({"fit", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--model", model, "--checkpoint-dir", ckpt,
                     "--resume"},
                    nullptr, &err),
            0)
      << err;
  EXPECT_TRUE(same_bytes(durable::read_file(model),
                         durable::read_file(clean_model)));
}

TEST(CheckpointCli, EvaluateCrashResumeReproducesTheCleanArtifact) {
  FaultGuard guard;
  TempDir tmp;
  std::string err;

  const std::string clean_out = tmp.file("clean_eval.txt");
  ASSERT_EQ(run_cli({"evaluate", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--horizons", "0.7,0.8", "--out",
                     clean_out},
                    nullptr, &err),
            0)
      << err;

  const std::string ckpt = tmp.file("eval_ckpt");
  const std::string crashed_out = tmp.file("crashed_eval.txt");
  core::FaultInjector::instance().configure("checkpoint.stage:eval/h=0.8");
  EXPECT_EQ(run_cli({"evaluate", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--horizons", "0.7,0.8",
                     "--checkpoint-dir", ckpt, "--out", crashed_out},
                    nullptr, &err),
            3);

  core::FaultInjector::instance().clear();
  std::string resumed_stdout;
  ASSERT_EQ(run_cli({"evaluate", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--horizons", "0.7,0.8",
                     "--checkpoint-dir", ckpt, "--resume", "--out",
                     crashed_out},
                    &resumed_stdout, &err),
            0)
      << err;
  EXPECT_TRUE(same_bytes(durable::read_file(crashed_out),
                         durable::read_file(clean_out)));
  EXPECT_NE(resumed_stdout.find("h=0.7"), std::string::npos);
  EXPECT_NE(resumed_stdout.find("h=0.8"), std::string::npos);
}

TEST(CheckpointCli, EvaluatePrecisionsStoreDistinctStages) {
  // An f64 and an f32 evaluate sharing one checkpoint dir must each store
  // their own stage: the f32 --resume run may not serve the cached f64
  // text.
  FaultGuard guard;
  TempDir tmp;
  std::string err;
  const std::string ckpt = tmp.file("shared_ckpt");
  std::string f32_text, f32_fresh;
  ASSERT_EQ(run_cli({"evaluate", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--horizons", "0.8", "--checkpoint-dir",
                     ckpt},
                    nullptr, &err),
            0)
      << err;
  ASSERT_EQ(run_cli({"evaluate", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--horizons", "0.8", "--precision", "f32",
                     "--checkpoint-dir", ckpt, "--resume"},
                    &f32_text, &err),
            0)
      << err;
  ASSERT_EQ(run_cli({"evaluate", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--horizons", "0.8", "--precision",
                     "f32"},
                    &f32_fresh, &err),
            0)
      << err;
  EXPECT_EQ(f32_text, f32_fresh);

  // Each stage has its own completion marker, naming the stage.
  EXPECT_NE(durable::read_file(ckpt + "/eval-h=0.8.done")
                .find("stage=eval/h=0.8\n"),
            std::string::npos);
  EXPECT_NE(durable::read_file(ckpt + "/eval-h=0.8-f32.done")
                .find("stage=eval/h=0.8/f32\n"),
            std::string::npos);
  EXPECT_TRUE(fs::exists(ckpt + "/eval-h=0.8.art"));
  EXPECT_TRUE(fs::exists(ckpt + "/eval-h=0.8-f32.art"));
}

TEST(CheckpointCli, ResumeWithoutCheckpointDirIsAUsageError) {
  std::string err;
  EXPECT_EQ(run_cli({"fit", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--model", "/tmp/unused.model",
                     "--resume"},
                    nullptr, &err),
            2);
  EXPECT_NE(err.find("--checkpoint-dir"), std::string::npos);
}

TEST(CheckpointCli, CorruptModelFileExitsWithLoadCode) {
  TempDir tmp;
  const std::string model = tmp.file("model.acbm");
  std::string err;
  ASSERT_EQ(run_cli({"fit", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--model", model},
                    nullptr, &err),
            0)
      << err;

  std::string bytes = durable::read_file(model);
  bytes[bytes.size() / 2] ^= 0x08;
  std::ofstream(model, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_EQ(run_cli({"predict", "--model", model}, nullptr, &err), 3);
  EXPECT_NE(err.find("bad_checksum"), std::string::npos);
}

TEST(CheckpointCli, DegradedFloorTurnsDegradationIntoExitFour) {
  FaultGuard guard;
  TempDir tmp;
  std::string err;
  // Force the combining trees down their ladder; floor 0 tolerates nothing.
  core::FaultInjector::instance().configure("tree.fail:hour;tree.fail:day");
  EXPECT_EQ(run_cli({"fit", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--model", tmp.file("m.model"),
                     "--degraded-floor", "0"},
                    nullptr, &err),
            4);
  EXPECT_NE(err.find("degraded"), std::string::npos);

  core::FaultInjector::instance().clear();
  // A generous floor lets the same (now clean) fit pass.
  EXPECT_EQ(run_cli({"fit", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--model", tmp.file("m2.model"),
                     "--degraded-floor", "1000"},
                    nullptr, &err),
            0)
      << err;
}

TEST(CheckpointCli, FitReportToStdoutKeepsProgressOnStderr) {
  TempDir tmp;
  std::string out;
  std::string err;
  ASSERT_EQ(run_cli({"fit", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--model", tmp.file("m.model"),
                     "--fit-report", "-"},
                    &out, &err),
            0)
      << err;
  // stdout carries only the report; progress lines went to stderr.
  EXPECT_EQ(out.find("model saved to"), std::string::npos);
  EXPECT_NE(err.find("model saved to"), std::string::npos);
  EXPECT_FALSE(out.empty());
}

TEST(CheckpointCli, ModelArtifactIsFramedWithChecksum) {
  TempDir tmp;
  const std::string model = tmp.file("model.acbm");
  std::string err;
  ASSERT_EQ(run_cli({"fit", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--model", model},
                    nullptr, &err),
            0)
      << err;
  const std::string bytes = durable::read_file(model);
  ASSERT_TRUE(durable::looks_framed(bytes));
  const durable::Frame frame = durable::parse_frame(bytes);
  EXPECT_EQ(frame.kind, "adversary_model");
  EXPECT_EQ(frame.version, core::AdversaryModel::kFormatVersion);
}

}  // namespace
}  // namespace acbm::cli
