// Sharded multi-process fit with crash-tolerant coordination (see
// DESIGN.md "Sharded fit"): `acbm fit --workers N` spawns N worker
// processes that each fit checkpoint stages ("temporal/<family>",
// "spatial", "tree") into a shared --checkpoint-dir, then merges the
// result by running the ordinary single-process fit with every stage
// cached. Because workers fit stages through the exact code the
// single-process fit uses (fit_family_temporal / fit_target_spatial /
// SpatiotemporalModel::fit) and publish deterministic bytes through
// CheckpointDir's per-stage markers, an N-process fit is byte-identical
// to a 1-process fit — including after any worker is SIGKILLed mid-stage.
//
// Coordination is filesystem-only (no sockets, no shared memory):
//   <ckpt>/coord/shards.plan      framed shard plan (config hash + stages)
//   <ckpt>/coord/leases/<s>.lease framed lease: which worker owns a shard
//   <ckpt>/coord/inbox/*.metrics  framed per-worker counter snapshots
//
// Lease lifecycle: a worker acquires a shard's lease with an exclusive
// create, heartbeats it (mtime rewrite) every ttl/3 while fitting, and
// releases it after publishing the stage. A lease whose mtime is older
// than the ttl is stale — its worker is presumed dead — and any worker
// may steal it (atomic rewrite, confirmation delay, ownership re-read).
// A mis-steal from the surviving-but-slow owner is benign: both workers
// publish identical bytes. Liveness never depends on lease cleanliness;
// the coordinator's final merge refits any stage the workers never
// finished.
//
// Fault points wired here (see robust.h FaultInjector): worker.spawn,
// worker.exit, lease.expire, heartbeat.drop. Counters:
// worker.{spawned,crashed,reassigned}, lease.{acquired,expired,stolen},
// shard.retry.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/spatiotemporal_model.h"

namespace acbm::core {

/// The deterministic shard list for a training set: one "temporal/<name>"
/// stage per family (family-index order), then "spatial", then "tree".
/// Identical to the stage order SpatiotemporalModel::fit checkpoints in.
[[nodiscard]] std::vector<std::string> shard_stages(const trace::Dataset& train);

/// Writes/validates the shard plan (`coord/shards.plan`): the run's config
/// hash plus the ordered stage list, framed+CRC'd like every artifact.
void write_shard_plan(const std::filesystem::path& checkpoint_dir,
                      std::uint64_t config_hash,
                      const std::vector<std::string>& stages);

/// Throws std::invalid_argument when a plan exists and was written under a
/// different config hash (the checkpoint dir belongs to another run).
/// A missing or unreadable plan is not an error — workers can run without
/// a coordinator (e.g. launched by hand against a shared directory).
void check_shard_plan(const std::filesystem::path& checkpoint_dir,
                      std::uint64_t config_hash);

/// Advisory shard ownership over lease files in `<coord>/leases/`. Every
/// operation is crash-safe: state lives in one file per shard, written
/// atomically; a worker that dies simply stops heartbeating and its leases
/// go stale. Instances are cheap views over the directory — one per
/// worker thread/process.
class LeaseTable {
 public:
  LeaseTable(std::filesystem::path coord_dir, int ttl_ms);

  /// Tries to take the shard's lease for `worker_id`. Fresh shards are
  /// acquired with an exclusive create; stale leases (mtime older than the
  /// ttl, or the "lease.expire" fault firing for "shard=<stage>") are
  /// stolen with an atomic rewrite + confirmation re-read. Returns false
  /// when another worker holds the lease and it is still fresh.
  [[nodiscard]] bool try_acquire(const std::string& stage, int worker_id);

  /// Refreshes the lease's mtime (the liveness signal). Skipped when the
  /// "heartbeat.drop" fault fires for "worker=<id>" — the lease then goes
  /// stale under the owner and other workers will steal the shard.
  void heartbeat(const std::string& stage, int worker_id);

  /// Removes the lease after the stage is published (or abandoned).
  void release(const std::string& stage, int worker_id);

  /// Coordinator-side: removes every lease owned by a dead worker so its
  /// shards are immediately re-assignable (no ttl wait).
  void drop_worker(int worker_id);

  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }

 private:
  [[nodiscard]] std::filesystem::path lease_path(const std::string& stage) const;
  [[nodiscard]] bool is_stale(const std::filesystem::path& path,
                              const std::string& stage) const;

  std::filesystem::path dir_;  ///< `<coord>/leases`.
  int ttl_ms_;
};

/// One worker's view of the sharded fit.
struct ShardWorkerOptions {
  std::filesystem::path checkpoint_dir;
  std::uint64_t config_hash = 0;
  int worker_id = 0;
  int lease_ttl_ms = 2000;
  /// Base delay of the capped exponential backoff a worker sleeps when it
  /// made no progress (every pending shard leased elsewhere).
  int poll_interval_ms = 20;
  int max_backoff_ms = 500;
  /// Write this worker's counter snapshot to `coord/inbox/` on completion
  /// (the coordinator aggregates the inbox into its own registry).
  bool ship_metrics = false;
  /// What the "worker.exit" fault does. Default (null): SIGKILL the
  /// process — true kill-9 semantics, nothing is flushed or released.
  /// Thread-based test workers install a handler that throws instead.
  std::function<void(const std::string& key)> crash;
};

/// Fits shards until every stage of the plan is complete (by this worker
/// or any other), then returns. Runs in a worker process (`acbm worker`)
/// or a test thread; each instance owns its CheckpointDir and LeaseTable.
class ShardWorker {
 public:
  explicit ShardWorker(ShardWorkerOptions opts);

  /// Returns the number of stages this worker fit itself. `model_opts`
  /// must match the coordinator's fit options (its checkpoint pointer is
  /// ignored; the worker wires its own store).
  int run(const trace::Dataset& train, const net::IpToAsnMap& ip_map,
          const SpatiotemporalOptions& model_opts);

 private:
  void fit_stage(const std::string& stage, const trace::Dataset& train,
                 const net::IpToAsnMap& ip_map, FeatureCache& features,
                 const SpatiotemporalOptions& model_opts, CheckpointDir& ckpt);
  void maybe_crash(const std::string& stage);
  void ship_metrics();

  ShardWorkerOptions opts_;
};

/// How a coordination run ended.
enum class CoordinationOutcome {
  kComplete,          ///< Every stage published; all workers exited cleanly.
  kWorkersExhausted,  ///< Workers died faster than the respawn budget; the
                      ///< caller's merge fit completes the remaining stages.
  kTimeout,           ///< --worker-timeout elapsed; workers were SIGKILLed.
};

[[nodiscard]] const char* to_string(CoordinationOutcome outcome) noexcept;

struct ShardCoordinatorOptions {
  std::filesystem::path checkpoint_dir;
  std::uint64_t config_hash = 0;
  int workers = 2;
  /// 0 = no deadline. On expiry every worker is SIGKILLed and run()
  /// returns kTimeout (the CLI maps it to exit code 5).
  int worker_timeout_ms = 0;
  int lease_ttl_ms = 2000;
  /// Crashed-worker respawns before giving up (kWorkersExhausted).
  int max_respawns = 8;
  /// Wipe stage markers + coord state first (fit without --resume).
  bool fresh = true;
  /// Read `coord/inbox` into this process's metric registry at the end.
  bool aggregate_metrics = false;
  /// Builds the argv (argv[0] = executable path) for worker `worker_id`.
  /// Respawned workers get fresh ids (original count upward), so a fault
  /// filter like "worker=0" hits only the first incarnation.
  std::function<std::vector<std::string>(int worker_id)> worker_argv;
  /// Environment variables removed from each worker's environment (e.g.
  /// ACBM_METRICS, so workers don't clobber the coordinator's sink —
  /// worker metrics travel through the inbox instead). ACBM_FAULTS is
  /// inherited untouched: fault specs apply to workers too.
  std::vector<std::string> child_unset_env;
};

/// Spawns, monitors, and replaces worker processes until the shard plan is
/// complete (or the budget/deadline runs out). Crash-tolerant by
/// construction: a SIGKILLed worker's leases are dropped immediately and
/// its shards reassigned to a respawned worker with a fresh id.
class ShardCoordinator {
 public:
  explicit ShardCoordinator(ShardCoordinatorOptions opts);

  CoordinationOutcome run(const std::vector<std::string>& stages);

 private:
  struct Child {
    int worker_id = -1;
    long pid = -1;  ///< -1: spawn failed (treated as an instant crash).
    bool alive = false;
  };

  [[nodiscard]] Child spawn(int worker_id);
  void aggregate_inbox();

  ShardCoordinatorOptions opts_;
};

}  // namespace acbm::core
