// CLI-level sharded-fit acceptance: `acbm fit --workers N` spawns real
// worker processes (fork/exec) and must produce a model byte-identical to
// the single-process fit — including when workers crash, fail to spawn, or
// the coordinator times out. This binary supplies its own main(): invoked
// with "worker" as the first argument it IS the worker executable
// (`fit --workers` resolves /proc/self/exe), otherwise it runs gtest.
#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
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

/// Sets ACBM_FAULTS for spawned workers (children parse it at startup;
/// this process's already-constructed injector is unaffected).
struct ChildFaultsGuard {
  explicit ChildFaultsGuard(const char* spec) {
    ::setenv("ACBM_FAULTS", spec, 1);
  }
  ~ChildFaultsGuard() { ::unsetenv("ACBM_FAULTS"); }
};

struct TempDir {
  fs::path path;
  TempDir() {
    // Unique per instance, not just per process: the shared World's files
    // must survive the per-test directories' wipes.
    static int next = 0;
    path = fs::temp_directory_path() /
           ("acbm_worker_cli_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(next++));
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

/// One generated world plus the single-process reference fit, shared by
/// every test in the binary.
struct World {
  TempDir tmp;
  std::string dataset;
  std::string ipmap;
  std::string plain_bytes;
  World() {
    dataset = tmp.file("trace.csv");
    ipmap = tmp.file("ipmap.txt");
    std::string err;
    if (run_cli({"generate", "--seed", "5", "--days", "20", "--dataset",
                 dataset, "--ipmap", ipmap},
                nullptr, &err) != 0) {
      throw std::runtime_error("generate failed: " + err);
    }
    const std::string model = tmp.file("plain.model");
    if (run_cli({"fit", "--dataset", dataset, "--ipmap", ipmap, "--model",
                 model},
                nullptr, &err) != 0) {
      throw std::runtime_error("reference fit failed: " + err);
    }
    plain_bytes = durable::read_file(model);
  }
};

const World& world() {
  static const World w;
  return w;
}

std::vector<std::string> fit_args(const std::string& model,
                                  const std::string& ckpt,
                                  std::vector<std::string> extra) {
  std::vector<std::string> args = {"fit",     "--dataset",        world().dataset,
                                   "--ipmap", world().ipmap,      "--model",
                                   model,     "--checkpoint-dir", ckpt};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

TEST(WorkerCli, MultiProcessFitIsByteIdenticalToSingleProcess) {
  TempDir tmp;
  std::string out;
  std::string err;
  for (const char* workers : {"2", "4"}) {
    const std::string model = tmp.file(std::string("w") + workers + ".model");
    const std::string ckpt = tmp.file(std::string("ck") + workers);
    ASSERT_EQ(run_cli(fit_args(model, ckpt, {"--workers", workers}), &out,
                      &err),
              0)
        << err;
    EXPECT_NE(out.find("workers: complete"), std::string::npos);
    EXPECT_TRUE(same_bytes(durable::read_file(model), world().plain_bytes))
        << "--workers " << workers;
  }
}

TEST(WorkerCli, StandaloneWorkerFitsEveryShardForALaterMerge) {
  TempDir tmp;
  const std::string ckpt = tmp.file("ck");
  std::string err;
  // A coordinator-less worker pointed at an empty shared dir fits all
  // shards itself (no plan file is fine).
  ASSERT_EQ(run_cli({"worker", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--checkpoint-dir", ckpt, "--worker-id",
                     "0"},
                    nullptr, &err),
            0)
      << err;
  EXPECT_NE(err.find("worker 0: fit"), std::string::npos);
  // A resumed coordinated fit finds the plan complete and only merges.
  const std::string model = tmp.file("m.model");
  ASSERT_EQ(run_cli(fit_args(model, ckpt, {"--workers", "2", "--resume"}),
                    nullptr, &err),
            0)
      << err;
  EXPECT_TRUE(same_bytes(durable::read_file(model), world().plain_bytes));
}

TEST(WorkerCli, SigkilledWorkerIsReplacedAndTheModelIsUnchanged) {
  // worker.exit makes worker 0 SIGKILL itself on its first leased shard;
  // the respawned replacement (a fresh id) completes the plan.
  ChildFaultsGuard faults("worker.exit:worker=0");
  TempDir tmp;
  const std::string model = tmp.file("m.model");
  std::string out;
  std::string err;
  ASSERT_EQ(run_cli(fit_args(model, tmp.file("ck"),
                             {"--workers", "2", "--lease-ttl-ms", "300"}),
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("workers:"), std::string::npos);
  EXPECT_TRUE(same_bytes(durable::read_file(model), world().plain_bytes));
}

TEST(WorkerCli, CrashLoopExhaustsTheBudgetAndTheMergeStillCompletes) {
  // Unfiltered on the spatial shard: every incarnation that leases it
  // dies, the respawn budget drains, and the coordinator's merge fit
  // refits whatever the workers never published.
  ChildFaultsGuard faults("worker.exit:shard=spatial");
  TempDir tmp;
  const std::string model = tmp.file("m.model");
  std::string out;
  std::string err;
  ASSERT_EQ(run_cli(fit_args(model, tmp.file("ck"),
                             {"--workers", "2", "--lease-ttl-ms", "200"}),
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("workers: workers_exhausted"), std::string::npos);
  EXPECT_TRUE(same_bytes(durable::read_file(model), world().plain_bytes));
}

TEST(WorkerCli, SpawnFaultEatsRespawnBudgetNotCorrectness) {
  FaultGuard guard;
  // worker.spawn fires in the coordinator process itself.
  core::FaultInjector::instance().configure("worker.spawn:worker=1");
  TempDir tmp;
  const std::string model = tmp.file("m.model");
  std::string err;
  ASSERT_EQ(run_cli(fit_args(model, tmp.file("ck"), {"--workers", "2"}),
                    nullptr, &err),
            0)
      << err;
  EXPECT_TRUE(same_bytes(durable::read_file(model), world().plain_bytes));
}

TEST(WorkerCli, CoordinatorTimeoutKillsWorkersAndExitsFive) {
  TempDir tmp;
  const std::string model = tmp.file("m.model");
  std::string err;
  EXPECT_EQ(run_cli(fit_args(model, tmp.file("ck"),
                             {"--workers", "2", "--worker-timeout", "1"}),
                    nullptr, &err),
            5);
  EXPECT_NE(err.find("timed out"), std::string::npos);
  EXPECT_FALSE(fs::exists(model));
}

TEST(WorkerCli, WorkersWithoutCheckpointDirIsAUsageError) {
  std::string err;
  EXPECT_EQ(run_cli({"fit", "--dataset", world().dataset, "--ipmap",
                     world().ipmap, "--model", "/tmp/unused.model",
                     "--workers", "2"},
                    nullptr, &err),
            2);
  EXPECT_NE(err.find("--checkpoint-dir"), std::string::npos);
}

TEST(WorkerCli, WorkerCommandRequiresItsInputs) {
  std::string err;
  EXPECT_EQ(run_cli({"worker", "--dataset", world().dataset}, nullptr, &err),
            2);
  EXPECT_NE(err.find("--"), std::string::npos);
}

}  // namespace
}  // namespace acbm::cli

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "worker") {
    const std::vector<std::string> args(argv + 1, argv + argc);
    return acbm::cli::run(args, std::cout, std::cerr);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
