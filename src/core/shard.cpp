#include "core/shard.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/durable.h"
#include "core/observe.h"
#include "core/parallel.h"
#include "core/robust.h"

namespace acbm::core {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kPlanKind = "shard_plan";
constexpr std::string_view kLeaseKind = "lease";
constexpr std::string_view kMetricsKind = "worker_metrics";

fs::path coord_dir(const fs::path& checkpoint_dir) {
  return checkpoint_dir / "coord";
}

fs::path plan_path(const fs::path& checkpoint_dir) {
  return coord_dir(checkpoint_dir) / "shards.plan";
}

std::string lease_payload(int worker_id, const std::string& stage) {
  return "worker=" + std::to_string(worker_id) + "\nstage=" + stage + "\n";
}

/// Owner id recorded in a lease file, or nullopt when the file is missing
/// or unreadable (racing a writer; the caller falls back to mtime age).
std::optional<int> lease_owner(const fs::path& path) {
  try {
    const std::string payload = durable::unwrap(
        durable::read_file(path), kLeaseKind, 1, 1);
    const std::string needle = "worker=";
    if (payload.rfind(needle, 0) != 0) return std::nullopt;
    const std::size_t end = payload.find('\n');
    return std::stoi(payload.substr(needle.size(),
                                    end == std::string::npos
                                        ? std::string::npos
                                        : end - needle.size()));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void sleep_ms(int ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Heartbeats a held lease every ttl/3 from a helper thread until stop()
/// (or destruction). The worker thread does the fitting; this thread only
/// refreshes the lease's mtime.
class HeartbeatGuard {
 public:
  HeartbeatGuard(LeaseTable& leases, std::string stage, int worker_id,
                 int ttl_ms)
      : leases_(leases), stage_(std::move(stage)), worker_id_(worker_id) {
    const int beat_ms = std::max(1, ttl_ms / 3);
    thread_ = std::thread([this, beat_ms] {
      FaultInjector& injector = FaultInjector::instance();
      const std::string key = "worker=" + std::to_string(worker_id_);
      std::unique_lock<std::mutex> lock(mutex_);
      while (!done_) {
        cv_.wait_for(lock, std::chrono::milliseconds(beat_ms));
        if (done_) break;
        if (injector.enabled() && injector.fires("heartbeat.drop", key)) {
          continue;  // Dropped beat: the lease ages toward staleness.
        }
        leases_.heartbeat(stage_, worker_id_);
      }
    });
  }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  ~HeartbeatGuard() { stop(); }

 private:
  LeaseTable& leases_;
  std::string stage_;
  int worker_id_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

std::vector<std::string> shard_stages(const trace::Dataset& train) {
  std::vector<std::string> stages;
  stages.reserve(train.family_names().size() + 2);
  for (const std::string& name : train.family_names()) {
    stages.push_back("temporal/" + name);
  }
  stages.push_back("spatial");
  stages.push_back("tree");
  return stages;
}

void write_shard_plan(const fs::path& checkpoint_dir,
                      std::uint64_t config_hash,
                      const std::vector<std::string>& stages) {
  std::string payload = "config=" + durable::to_hex(config_hash) + "\n";
  for (const std::string& stage : stages) payload += "stage=" + stage + "\n";
  std::error_code ec;
  fs::create_directories(coord_dir(checkpoint_dir), ec);
  durable::save_artifact(plan_path(checkpoint_dir), kPlanKind, 1, payload);
}

void check_shard_plan(const fs::path& checkpoint_dir,
                      std::uint64_t config_hash) {
  std::string payload;
  try {
    payload = durable::load_artifact(plan_path(checkpoint_dir), kPlanKind, 1,
                                     1, nullptr,
                                     /*quarantine_on_error=*/false);
  } catch (const durable::LoadFailure&) {
    return;  // No (readable) plan: workers may run coordinator-less.
  }
  const std::string needle = "config=";
  if (payload.rfind(needle, 0) != 0) return;
  const std::size_t end = payload.find('\n');
  const std::string hex = payload.substr(
      needle.size(),
      end == std::string::npos ? std::string::npos : end - needle.size());
  if (hex != durable::to_hex(config_hash)) {
    throw std::invalid_argument(
        "worker: shard plan in " + checkpoint_dir.string() +
        " was written for config " + hex + ", this run hashes to " +
        durable::to_hex(config_hash) +
        " (different dataset/ip-map/options)");
  }
}

// --- LeaseTable -------------------------------------------------------------

LeaseTable::LeaseTable(fs::path coord, int ttl_ms)
    : dir_(std::move(coord) / "leases"), ttl_ms_(ttl_ms > 0 ? ttl_ms : 1) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

fs::path LeaseTable::lease_path(const std::string& stage) const {
  return dir_ / (CheckpointDir::slug(stage) + ".lease");
}

bool LeaseTable::is_stale(const fs::path& path, const std::string& stage) const {
  FaultInjector& injector = FaultInjector::instance();
  if (injector.enabled() && injector.fires("lease.expire", "shard=" + stage)) {
    return true;
  }
  std::error_code ec;
  const auto mtime = fs::last_write_time(path, ec);
  if (ec) return false;  // Gone already: the owner released it; not a steal.
  const auto age = fs::file_time_type::clock::now() - mtime;
  return age > std::chrono::milliseconds(ttl_ms_);
}

bool LeaseTable::try_acquire(const std::string& stage, int worker_id) {
  const fs::path path = lease_path(stage);
  const std::string framed = durable::frame_payload(
      kLeaseKind, 1, lease_payload(worker_id, stage));

  // Fast path: exclusive create. Only one worker can win this.
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd >= 0) {
    const char* data = framed.data();
    std::size_t left = framed.size();
    while (left > 0) {
      const ssize_t n = ::write(fd, data, left);
      if (n <= 0) break;  // Advisory file: a short write just looks stale.
      data += n;
      left -= static_cast<std::size_t>(n);
    }
    ::close(fd);
    ACBM_COUNT("lease.acquired", 1);
    return true;
  }

  // Held by someone. Steal only when stale (dead/stuck owner). The steal is
  // an atomic rewrite, a confirmation delay (long enough for a racing
  // stealer's rename to land), then an ownership re-read — of two racing
  // stealers exactly one sees itself as owner. A slow-but-alive owner that
  // loses its lease this way is benign: both publish identical bytes.
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    return false;  // Released between our check and now; retry next round.
  }
  if (!is_stale(path, stage)) return false;
  ACBM_COUNT("lease.expired", 1);
  try {
    durable::atomic_write_file(path, framed);
  } catch (const durable::WriteFailure&) {
    return false;
  }
  sleep_ms(std::min(20, std::max(1, ttl_ms_ / 10)));
  if (lease_owner(path) != std::optional<int>(worker_id)) return false;
  ACBM_COUNT("lease.stolen", 1);
  ACBM_COUNT("lease.acquired", 1);
  return true;
}

void LeaseTable::heartbeat(const std::string& stage, int worker_id) {
  try {
    durable::atomic_write_file(
        lease_path(stage),
        durable::frame_payload(kLeaseKind, 1,
                               lease_payload(worker_id, stage)));
  } catch (const durable::WriteFailure&) {
    // A missed beat is survivable; the lease just ages faster.
  }
}

void LeaseTable::release(const std::string& stage, int worker_id) {
  // Only remove a lease we still own — it may have been stolen while we
  // were fitting (dropped heartbeats), in which case it is the thief's.
  const fs::path path = lease_path(stage);
  if (lease_owner(path) != std::optional<int>(worker_id)) return;
  std::error_code ec;
  fs::remove(path, ec);
}

void LeaseTable::drop_worker(int worker_id) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const fs::path& path = entry.path();
    if (path.extension() != ".lease") continue;
    if (lease_owner(path) == std::optional<int>(worker_id)) {
      std::error_code rm;
      fs::remove(path, rm);
      ACBM_COUNT("lease.expired", 1);
    }
  }
}

// --- ShardWorker ------------------------------------------------------------

ShardWorker::ShardWorker(ShardWorkerOptions opts) : opts_(std::move(opts)) {}

void ShardWorker::maybe_crash(const std::string& stage) {
  FaultInjector& injector = FaultInjector::instance();
  if (!injector.enabled()) return;
  const std::string key =
      "worker=" + std::to_string(opts_.worker_id) + "/shard=" + stage;
  if (!injector.fires("worker.exit", key)) return;
  if (opts_.crash) {
    opts_.crash(key);
    return;
  }
  // True kill-9 semantics: no unwinding, no flushing, the lease is left
  // behind to go stale. This is the crash the whole protocol exists for.
  ::kill(::getpid(), SIGKILL);
}

void ShardWorker::fit_stage(const std::string& stage,
                            const trace::Dataset& train,
                            const net::IpToAsnMap& ip_map,
                            FeatureCache& features,
                            const SpatiotemporalOptions& model_opts,
                            CheckpointDir& ckpt) {
  ACBM_SPAN_KV("worker.shard", "stage=" + stage);
  if (stage.rfind("temporal/", 0) == 0) {
    const std::string name = stage.substr(std::string("temporal/").size());
    const auto& names = train.family_names();
    const auto it = std::find(names.begin(), names.end(), name);
    if (it == names.end()) {
      throw std::invalid_argument("worker: dataset has no family '" + name +
                                  "' (stale shard plan?)");
    }
    const auto family = static_cast<std::uint32_t>(it - names.begin());
    ckpt.store(stage, encode_temporal_stage(fit_family_temporal(
                          train, features, family, model_opts)));
    return;
  }
  if (stage == "spatial") {
    const std::vector<net::Asn> targets = train.target_asns();
    (void)features.sources();  // On the whole pool, before the fan-out.
    std::vector<std::optional<SpatialModel>> fits = parallel_map(
        targets.size(), [&](std::size_t t) -> std::optional<SpatialModel> {
          return fit_target_spatial(train, ip_map, features, targets[t],
                                    model_opts);
        });
    std::unordered_map<net::Asn, SpatialModel> spatial;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      if (fits[t]) spatial.emplace(targets[t], std::move(*fits[t]));
    }
    ckpt.store(stage, encode_spatial_stage(spatial));
    return;
  }
  if (stage == "tree") {
    // The combining tree needs every sub-model: run the ordinary fit with
    // this worker's store wired in. All other stages are cached, so this
    // fits (and publishes) exactly the tree stage.
    SpatiotemporalOptions opts = model_opts;
    opts.checkpoint = &ckpt;
    SpatiotemporalModel model(opts);
    model.fit(train, ip_map);
    return;
  }
  throw std::invalid_argument("worker: unknown stage '" + stage + "'");
}

int ShardWorker::run(const trace::Dataset& train,
                     const net::IpToAsnMap& ip_map,
                     const SpatiotemporalOptions& model_opts) {
  ACBM_SPAN_KV("worker.run", "worker=" + std::to_string(opts_.worker_id));
  check_shard_plan(opts_.checkpoint_dir, opts_.config_hash);
  CheckpointDir ckpt(opts_.checkpoint_dir,
                     {.config_hash = opts_.config_hash, .resume = true});
  LeaseTable leases(coord_dir(opts_.checkpoint_dir), opts_.lease_ttl_ms);
  FeatureCache features(train, ip_map, nullptr);
  const std::vector<std::string> stages = shard_stages(train);

  int fitted = 0;
  int backoff_ms = opts_.poll_interval_ms;
  while (true) {
    ckpt.refresh();
    bool all_complete = true;
    bool progressed = false;
    for (const std::string& stage : stages) {
      if (ckpt.is_complete(stage)) continue;
      all_complete = false;
      if (stage == "tree") {
        // Gated on every other stage: the tree fit consumes them all.
        const bool ready = std::all_of(
            stages.begin(), stages.end(), [&](const std::string& s) {
              return s == "tree" || ckpt.is_complete(s);
            });
        if (!ready) continue;
      }
      if (!leases.try_acquire(stage, opts_.worker_id)) continue;
      // The publisher may have finished between our refresh and the
      // acquire; re-check before burning a fit on a done stage.
      if (ckpt.is_complete(stage)) {
        leases.release(stage, opts_.worker_id);
        progressed = true;
        continue;
      }
      maybe_crash(stage);
      {
        HeartbeatGuard heartbeat(leases, stage, opts_.worker_id,
                                 opts_.lease_ttl_ms);
        fit_stage(stage, train, ip_map, features, model_opts, ckpt);
      }
      leases.release(stage, opts_.worker_id);
      ++fitted;
      progressed = true;
    }
    if (all_complete) break;
    if (progressed) {
      backoff_ms = opts_.poll_interval_ms;
      continue;
    }
    // Every pending shard is leased elsewhere: capped exponential backoff.
    ACBM_COUNT("shard.retry", 1);
    sleep_ms(backoff_ms);
    backoff_ms = std::min(backoff_ms * 2, std::max(opts_.max_backoff_ms,
                                                   opts_.poll_interval_ms));
  }
  if (opts_.ship_metrics) ship_metrics();
  return fitted;
}

void ShardWorker::ship_metrics() {
  std::string payload;
  for (const auto& [name, value] :
       observe::Metrics::instance().counters_snapshot()) {
    payload += "c " + name + " " + std::to_string(value) + "\n";
  }
  const fs::path inbox = coord_dir(opts_.checkpoint_dir) / "inbox";
  std::error_code ec;
  fs::create_directories(inbox, ec);
  durable::save_artifact(
      inbox / ("worker-" + std::to_string(opts_.worker_id) + ".metrics"),
      kMetricsKind, 1, payload);
}

// --- ShardCoordinator -------------------------------------------------------

const char* to_string(CoordinationOutcome outcome) noexcept {
  switch (outcome) {
    case CoordinationOutcome::kComplete: return "complete";
    case CoordinationOutcome::kWorkersExhausted: return "workers_exhausted";
    case CoordinationOutcome::kTimeout: return "timeout";
  }
  return "unknown";
}

ShardCoordinator::ShardCoordinator(ShardCoordinatorOptions opts)
    : opts_(std::move(opts)) {}

ShardCoordinator::Child ShardCoordinator::spawn(int worker_id) {
  Child child;
  child.worker_id = worker_id;
  FaultInjector& injector = FaultInjector::instance();
  if (injector.enabled() &&
      injector.fires("worker.spawn", "worker=" + std::to_string(worker_id))) {
    return child;  // pid stays -1: an instant crash, eats respawn budget.
  }
  const std::vector<std::string> argv = opts_.worker_argv(worker_id);
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    for (const std::string& name : opts_.child_unset_env) {
      ::unsetenv(name.c_str());
    }
    ::execv(cargv[0], cargv.data());
    ::_exit(127);  // exec failed; the parent sees a crashed worker.
  }
  if (pid < 0) return child;
  child.pid = pid;
  child.alive = true;
  ACBM_COUNT("worker.spawned", 1);
  return child;
}

CoordinationOutcome ShardCoordinator::run(
    const std::vector<std::string>& stages) {
  ACBM_SPAN("coordinate");
  const fs::path coord = coord_dir(opts_.checkpoint_dir);
  std::error_code ec;
  if (opts_.fresh) {
    // A fresh run starts from a clean slate: no leases, no stale inbox, and
    // no stage markers (a fresh CheckpointDir open removes them). Stage
    // artifacts stay (they rotate to generations on the refit, like a
    // non-resume single-process fit).
    fs::remove_all(coord, ec);
    CheckpointDir(opts_.checkpoint_dir,
                  {.config_hash = opts_.config_hash, .resume = false});
  }
  fs::create_directories(coord / "leases", ec);
  fs::create_directories(coord / "inbox", ec);
  write_shard_plan(opts_.checkpoint_dir, opts_.config_hash, stages);

  LeaseTable leases(coord, opts_.lease_ttl_ms);
  std::vector<Child> children;
  int next_id = 0;
  int respawns_left = opts_.max_respawns;
  for (int i = 0; i < opts_.workers; ++i) children.push_back(spawn(next_id++));

  const auto started = std::chrono::steady_clock::now();
  const auto deadline =
      started + std::chrono::milliseconds(opts_.worker_timeout_ms);
  CoordinationOutcome outcome = CoordinationOutcome::kComplete;
  while (true) {
    bool any_alive = false;
    for (Child& child : children) {
      if (child.alive) {
        int status = 0;
        const pid_t done = ::waitpid(static_cast<pid_t>(child.pid), &status,
                                     WNOHANG);
        if (done == 0) {
          any_alive = true;
          continue;
        }
        child.alive = false;
        const bool clean = done > 0 && WIFEXITED(status) &&
                           WEXITSTATUS(status) == 0;
        if (clean) continue;
        child.pid = -2;  // Mark crashed (vs -1 spawn-failed, handled below).
      } else if (child.pid != -1) {
        continue;  // Already reaped (cleanly or crashed-and-replaced).
      }
      // Crashed or never spawned: free its shards and replace it.
      ACBM_COUNT("worker.crashed", 1);
      leases.drop_worker(child.worker_id);
      child.pid = -3;
      if (respawns_left > 0) {
        --respawns_left;
        ACBM_COUNT("worker.reassigned", 1);
        children.push_back(spawn(next_id++));
        // The new child enters the vector we are iterating; restart the
        // scan next loop iteration rather than invalidating this one.
        any_alive = true;
        break;
      }
    }
    if (!any_alive) break;
    if (opts_.worker_timeout_ms > 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      for (Child& child : children) {
        if (!child.alive) continue;
        ::kill(static_cast<pid_t>(child.pid), SIGKILL);
        int status = 0;
        ::waitpid(static_cast<pid_t>(child.pid), &status, 0);
        child.alive = false;
      }
      outcome = CoordinationOutcome::kTimeout;
      break;
    }
    sleep_ms(10);
  }

  if (outcome != CoordinationOutcome::kTimeout) {
    // Did the workers finish the plan? Check the markers, not exit codes:
    // a clean-exit worker guarantees completion, but exhausted budgets
    // leave the plan partial and the caller's merge fit picks it up.
    CheckpointDir ckpt(opts_.checkpoint_dir,
                       {.config_hash = opts_.config_hash, .resume = true});
    const bool complete =
        std::all_of(stages.begin(), stages.end(),
                    [&](const std::string& s) { return ckpt.is_complete(s); });
    outcome = complete ? CoordinationOutcome::kComplete
                       : CoordinationOutcome::kWorkersExhausted;
  }
  if (opts_.aggregate_metrics) aggregate_inbox();
  return outcome;
}

void ShardCoordinator::aggregate_inbox() {
  const fs::path inbox = coord_dir(opts_.checkpoint_dir) / "inbox";
  std::error_code ec;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(inbox, ec)) {
    if (entry.path().extension() == ".metrics") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  observe::Metrics& metrics = observe::Metrics::instance();
  for (const fs::path& file : files) {
    std::string payload;
    try {
      payload = durable::load_artifact(file, kMetricsKind, 1, 1, nullptr,
                                       /*quarantine_on_error=*/false);
    } catch (const durable::LoadFailure&) {
      continue;  // A torn snapshot costs observability, never correctness.
    }
    std::istringstream in(payload);
    std::string kind, name;
    std::uint64_t value = 0;
    while (in >> kind >> name >> value) {
      if (kind == "c") metrics.counter(name).add(value);
    }
  }
}

}  // namespace acbm::core
