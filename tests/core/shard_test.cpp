// Sharded-fit coordination (core/shard.h) exercised with thread-based
// workers: real ShardWorker instances over one shared checkpoint
// directory, with ShardWorkerOptions::crash overridden so the worker.exit
// fault throws instead of SIGKILLing the test binary. Process-level
// coverage (fork/exec, real kill -9) lives in worker_cli_test.cpp and
// scripts/crash_matrix.sh.
#include "core/shard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/observe.h"
#include "core/parallel.h"
#include "core/robust.h"
#include "trace/world.h"

namespace acbm::core {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kHash = 0x5eed;

struct FaultGuard {
  FaultGuard() { FaultInjector::instance().clear(); }
  ~FaultGuard() {
    FaultInjector::instance().clear();
    set_num_threads(0);
  }
};

/// Turns the metric registry on (reset) for one test, off afterwards, so
/// counter assertions see only this test's increments.
struct MetricsGuard {
  MetricsGuard() {
    observe::Metrics::instance().reset();
    observe::set_enabled(true);
  }
  ~MetricsGuard() {
    observe::set_enabled(false);
    observe::Metrics::instance().reset();
  }
};

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("acbm_shard_test_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

SpatiotemporalOptions fast_options() {
  SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  opts.spatial.fixed.mlp.max_epochs = 60;
  return opts;
}

/// One small world plus the single-process reference fit, shared across
/// every test in the binary.
struct Fixture {
  trace::World world = trace::build_world(trace::small_world_options(29));
  std::string plain_bytes;
  Fixture() {
    SpatiotemporalModel model(fast_options());
    model.fit(world.dataset, world.ip_map);
    std::ostringstream os;
    model.save(os);
    plain_bytes = os.str();
  }
};

const Fixture& fx() {
  static const Fixture f;
  return f;
}

ShardWorkerOptions worker_options(const fs::path& dir, int worker_id,
                                  int ttl_ms = 60000) {
  ShardWorkerOptions opts;
  opts.checkpoint_dir = dir;
  opts.config_hash = kHash;
  opts.worker_id = worker_id;
  opts.lease_ttl_ms = ttl_ms;
  opts.poll_interval_ms = 5;
  opts.max_backoff_ms = 20;
  return opts;
}

int run_worker(ShardWorkerOptions opts) {
  ShardWorker worker(std::move(opts));
  return worker.run(fx().world.dataset, fx().world.ip_map, fast_options());
}

/// The coordinator-side merge: an ordinary fit with the shared store wired
/// in, consuming whatever stages the workers published.
std::string merge_bytes(const fs::path& dir) {
  CheckpointDir ckpt(dir, {.config_hash = kHash, .resume = true});
  SpatiotemporalOptions opts = fast_options();
  opts.checkpoint = &ckpt;
  SpatiotemporalModel model(opts);
  model.fit(fx().world.dataset, fx().world.ip_map);
  std::ostringstream os;
  model.save(os);
  return os.str();
}

TEST(ShardStages, FamiliesThenSpatialThenTree) {
  const std::vector<std::string> stages = shard_stages(fx().world.dataset);
  const auto& families = fx().world.dataset.family_names();
  ASSERT_EQ(stages.size(), families.size() + 2);
  for (std::size_t f = 0; f < families.size(); ++f) {
    EXPECT_EQ(stages[f], "temporal/" + families[f]);
  }
  EXPECT_EQ(stages[stages.size() - 2], "spatial");
  EXPECT_EQ(stages.back(), "tree");
}

TEST(ShardPlan, RoundTripsAndRejectsForeignConfig) {
  TempDir tmp;
  // No plan at all: workers may run coordinator-less.
  EXPECT_NO_THROW(check_shard_plan(tmp.path, kHash));
  write_shard_plan(tmp.path, kHash, {"temporal/A", "spatial", "tree"});
  EXPECT_NO_THROW(check_shard_plan(tmp.path, kHash));
  // A plan written under another config hash is a usage error, not a
  // silent divergence.
  EXPECT_THROW(check_shard_plan(tmp.path, kHash + 1), std::invalid_argument);
}

TEST(LeaseTableTest, ExclusiveAcquireAndRelease) {
  TempDir tmp;
  LeaseTable leases(tmp.path, 60000);
  EXPECT_TRUE(leases.try_acquire("spatial", 0));
  EXPECT_FALSE(leases.try_acquire("spatial", 1));
  // Releasing a lease you do not own is a no-op.
  leases.release("spatial", 1);
  EXPECT_FALSE(leases.try_acquire("spatial", 1));
  leases.release("spatial", 0);
  EXPECT_TRUE(leases.try_acquire("spatial", 1));
}

TEST(LeaseTableTest, StaleLeaseIsStolenAndCounted) {
  MetricsGuard metrics;
  TempDir tmp;
  LeaseTable leases(tmp.path, 40);
  ASSERT_TRUE(leases.try_acquire("spatial", 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_TRUE(leases.try_acquire("spatial", 1));
  observe::Metrics& reg = observe::Metrics::instance();
  EXPECT_EQ(reg.counter("lease.acquired").value(), 2U);
  EXPECT_EQ(reg.counter("lease.expired").value(), 1U);
  EXPECT_EQ(reg.counter("lease.stolen").value(), 1U);
}

TEST(LeaseTableTest, LeaseExpireFaultForcesAStealWithoutWaiting) {
  FaultGuard guard;
  TempDir tmp;
  LeaseTable leases(tmp.path, 60000);
  ASSERT_TRUE(leases.try_acquire("spatial", 0));
  ASSERT_TRUE(leases.try_acquire("tree", 0));
  FaultInjector::instance().configure("lease.expire:shard=spatial");
  EXPECT_TRUE(leases.try_acquire("spatial", 1));   // Forced stale: stolen.
  EXPECT_FALSE(leases.try_acquire("tree", 1));     // Unfaulted: still held.
}

TEST(LeaseTableTest, DropWorkerFreesOnlyItsLeases) {
  TempDir tmp;
  LeaseTable leases(tmp.path, 60000);
  ASSERT_TRUE(leases.try_acquire("spatial", 0));
  ASSERT_TRUE(leases.try_acquire("tree", 0));
  ASSERT_TRUE(leases.try_acquire("temporal/A", 1));
  leases.drop_worker(0);
  EXPECT_TRUE(leases.try_acquire("spatial", 2));
  EXPECT_TRUE(leases.try_acquire("tree", 2));
  EXPECT_FALSE(leases.try_acquire("temporal/A", 2));
}

TEST(ShardWorkerTest, SingleWorkerFitsEveryShardByteIdentically) {
  FaultGuard guard;
  set_num_threads(1);
  TempDir tmp;
  const fs::path dir = tmp.path / "ck";
  const std::vector<std::string> stages = shard_stages(fx().world.dataset);
  write_shard_plan(dir, kHash, stages);

  EXPECT_EQ(run_worker(worker_options(dir, 0)),
            static_cast<int>(stages.size()));
  // A second worker finds nothing left to do.
  EXPECT_EQ(run_worker(worker_options(dir, 1)), 0);
  EXPECT_EQ(merge_bytes(dir), fx().plain_bytes);
}

TEST(ShardWorkerTest, ForeignShardPlanIsRejected) {
  TempDir tmp;
  const fs::path dir = tmp.path / "ck";
  write_shard_plan(dir, kHash + 7, shard_stages(fx().world.dataset));
  EXPECT_THROW(run_worker(worker_options(dir, 0)), std::invalid_argument);
}

TEST(ShardWorkerTest, ConcurrentWorkersPartitionTheShardsExactlyOnce) {
  FaultGuard guard;
  set_num_threads(1);  // Workers are the threads; keep fits inline.
  TempDir tmp;
  const fs::path dir = tmp.path / "ck";
  const std::vector<std::string> stages = shard_stages(fx().world.dataset);
  write_shard_plan(dir, kHash, stages);

  std::vector<int> fitted(3, 0);
  std::vector<std::thread> workers;
  workers.reserve(fitted.size());
  for (std::size_t i = 0; i < fitted.size(); ++i) {
    workers.emplace_back([&, i] {
      fitted[i] = run_worker(worker_options(dir, static_cast<int>(i)));
    });
  }
  for (std::thread& t : workers) t.join();

  // Fresh leases with a generous ttl: every shard was fit exactly once.
  EXPECT_EQ(fitted[0] + fitted[1] + fitted[2],
            static_cast<int>(stages.size()));
  EXPECT_EQ(merge_bytes(dir), fx().plain_bytes);
}

TEST(ShardWorkerTest, CrashedWorkerShardsAreFinishedByAnother) {
  struct Crash : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  FaultGuard guard;
  set_num_threads(1);
  TempDir tmp;
  const fs::path dir = tmp.path / "ck";
  const std::vector<std::string> stages = shard_stages(fx().world.dataset);
  write_shard_plan(dir, kHash, stages);

  // Worker 0 dies on its first leased shard, leaving the lease behind —
  // exactly what a kill -9 leaves on disk.
  FaultInjector::instance().configure("worker.exit:worker=0#1");
  ShardWorkerOptions crashing = worker_options(dir, 0, /*ttl_ms=*/100);
  crashing.crash = [](const std::string& key) { throw Crash(key); };
  EXPECT_THROW(run_worker(std::move(crashing)), Crash);

  // The replacement steals the stale lease and completes the plan.
  FaultInjector::instance().clear();
  EXPECT_EQ(run_worker(worker_options(dir, 1, /*ttl_ms=*/100)),
            static_cast<int>(stages.size()));
  EXPECT_EQ(merge_bytes(dir), fx().plain_bytes);
}

TEST(ShardWorkerTest, BlockedWorkerBacksOffThenFinishes) {
  FaultGuard guard;
  MetricsGuard metrics;
  set_num_threads(1);
  TempDir tmp;
  const fs::path dir = tmp.path / "ck";
  const std::vector<std::string> stages = shard_stages(fx().world.dataset);
  write_shard_plan(dir, kHash, stages);

  // Worker 99 (the main thread) sits on the tree lease without ever
  // fitting it; the real worker must fit everything else, then back off
  // until the lease is released.
  LeaseTable blocker(dir / "coord", 60000);
  ASSERT_TRUE(blocker.try_acquire("tree", 99));

  std::thread worker([&] { run_worker(worker_options(dir, 0)); });

  CheckpointDir watch(dir, {.config_hash = kHash, .resume = true});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  bool others_done = false;
  while (!others_done && std::chrono::steady_clock::now() < deadline) {
    watch.refresh();
    others_done = true;
    for (const std::string& stage : stages) {
      if (stage != "tree" && !watch.is_complete(stage)) others_done = false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(others_done) << "non-tree shards never completed";
  // Give the worker a few blocked polls, then unblock it.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  blocker.release("tree", 99);
  worker.join();

  EXPECT_GE(observe::Metrics::instance().counter("shard.retry").value(), 1U);
  watch.refresh();
  EXPECT_TRUE(watch.is_complete("tree"));
}

}  // namespace
}  // namespace acbm::core
