// Streaming ingestion with drift detection and self-healing incremental
// refit (`acbm ingest`; DESIGN.md "Online adaptation"):
//
//  * SnapshotLog — an append-only, crash-safe log of hourly dataset
//    snapshots (`<dir>/snapshots.log`). Every segment is one durable.h
//    frame (`ACBMF1 ingest_segment v1 len=… crc32c=…`) appended and
//    fsynced in place. The log is memory-mapped on open and its segments
//    are views into the mapping. Recovery CRC-checks the mapped bytes,
//    truncates a torn tail (a crash mid-append) and quarantines interior
//    corruption (bit rot between intact segments) into
//    `snapshots.log.corrupt-<n>`, then compacts the log to its surviving
//    segments; after either repair it maps the log again.
//
//  * Snapshot validation policy (per-append, via trace::Dataset's
//    ValidationReport machinery):
//      accepted  — the snapshot parsed clean; stored canonically.
//      repaired  — parseable but Dataset construction repaired it
//                  (non-finite/negative durations zeroed, out-of-order
//                  starts sorted, duplicate ids reassigned); the repaired
//                  canonical form is stored.
//      rejected  — unparseable CSV, a window_start differing from the
//                  log's, or a family list that contradicts the log's
//                  (indices would silently remap). Nothing is appended;
//                  the raw bytes are quarantined under `<dir>/quarantine/`.
//      duplicate — hour at or before the log's last hour; the append is
//                  dropped (idempotent crash-retry), nothing changes.
//
//  * DriftMonitor — per-family corrected-EMA statistics (CEMA: a
//    bias-corrected exponential moving average, `value = biased/correction`
//    so early samples are not dragged toward the zero init) over three
//    channels: launch rate (attacks/hour), volume (attack magnitude), and
//    inter-arrival residual vs the fit-time interval mean. Each channel is
//    z-scored against the FamilyDriftBaseline recorded in the model
//    artifact at fit time; a family trips when any channel exceeds the
//    z-threshold for K consecutive hours. The monitor is a pure replay of
//    the log (no separate mutable state file): trips at or before the last
//    refit hour are already served and do not re-fire.
//
//  * Ingestor — the orchestration: on a trip (or --refit) it computes a
//    content hash of every checkpoint stage's actual inputs
//    (temporal/<family> ← that family's attack rows; spatial and tree ←
//    the whole cumulative dataset), invalidates exactly the stages whose
//    inputs changed via CheckpointDir::invalidate, and reruns the ordinary
//    fit with everything else cached — so the refit output is byte-
//    identical to a cold full fit on the same cumulative data while its
//    cost is proportional to what changed. Bounded retry with exponential
//    backoff; when retries are exhausted the previous model generation
//    keeps serving (never serve nothing) and the caller reports exit
//    code 6. Publication order (stages → prev-generation copy → model
//    rename → inputs.state) makes every crash window converge on retry.
//
// Fault points wired here (see robust.h FaultInjector):
//   ingest.append      key "hour=<h>"       crash before the append writes
//   ingest.torn_tail   key "hour=<h>"       write half the segment, throw
//   drift.false_trip   key "family=<name>"  force that family to trip
//   refit.fail         key "hour=<h>/attempt=<k>"  fail one refit attempt
//
// Counters: ingest.snapshots.{accepted,repaired,rejected,duplicate},
// ingest.recovered.{torn_tail,quarantined}, drift.trips,
// refit.{stages,retries,fallbacks}. Spans: ingest.recover, ingest.append,
// drift.check, ingest.refit (see OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/durable.h"
#include "core/pipeline.h"
#include "core/spatiotemporal_model.h"
#include "net/ip_space.h"
#include "trace/dataset.h"

namespace acbm::core::ingest {

// --- Corrected EMA ----------------------------------------------------------

/// Bias-corrected exponential moving average: the raw EMA initialized at
/// zero underestimates until ~1/alpha samples have arrived, so the same
/// smoothing is applied to a constant-1 signal and the ratio removes the
/// init bias exactly. Deterministic: value() is a pure function of the
/// update sequence.
class CorrectedEma {
 public:
  explicit CorrectedEma(double alpha) : alpha_(alpha) {}

  void update(double x) noexcept {
    biased_ += alpha_ * (x - biased_);
    correction_ += alpha_ * (1.0 - correction_);
  }

  /// Bias-corrected mean; 0 before the first update.
  [[nodiscard]] double value() const noexcept {
    return correction_ > 0.0 ? biased_ / correction_ : 0.0;
  }

  [[nodiscard]] bool warm() const noexcept { return correction_ > 0.0; }

 private:
  double alpha_;
  double biased_ = 0.0;
  double correction_ = 0.0;
};

// --- Snapshot log -----------------------------------------------------------

/// One surviving log segment: the hour it covers (strictly increasing along
/// the log) and its canonical snapshot CSV payload.
struct Segment {
  std::size_t hour = 0;
  /// Canonical Dataset::save_csv text of the snapshot: a view into the
  /// log's mapping, or into storage the log owns for a segment appended
  /// since it was opened. Valid as long as the SnapshotLog that holds it
  /// (a log moved into another object keeps its views valid there).
  std::string_view csv;
};

enum class AppendStatus { kAccepted, kRepaired, kRejected, kDuplicate };

[[nodiscard]] const char* to_string(AppendStatus status) noexcept;

struct AppendOutcome {
  AppendStatus status = AppendStatus::kRejected;
  trace::ValidationReport validation;  ///< What Dataset repair did (if any).
  std::string detail;                  ///< Why a snapshot was rejected.
  std::string quarantined_to;          ///< Reject: where the raw bytes went.
};

/// What recovery did when the log was opened.
struct LogRecovery {
  std::size_t torn_tail_bytes = 0;       ///< Truncated from the tail.
  std::size_t quarantined_ranges = 0;    ///< Interior corrupt byte ranges.
  std::string quarantine_path;           ///< Where corrupt bytes went.
};

/// Append-only crash-safe snapshot log. Single-writer (the ingest CLI);
/// every append is framed, CRC'd, and fsynced before it is acknowledged.
/// Opening maps the log read-only and keeps segments as views into the
/// mapping, so the log is read once and never copied; nothing else may
/// truncate or rewrite the file while a SnapshotLog holds it. Move-only.
class SnapshotLog {
 public:
  /// Opens (creating the directory if needed) and recovers the log.
  explicit SnapshotLog(std::filesystem::path dir);

  /// Validates and appends one snapshot per the policy in the file header.
  /// `hour` stamps the segment and must exceed the last segment's hour
  /// (else kDuplicate). The snapshot must carry the log's window_start and
  /// a family list consistent with the log's (equal on the common prefix;
  /// appending new families extends the list).
  AppendOutcome append(std::size_t hour, std::string_view snapshot_csv);

  /// Surviving segments in log order (base snapshot first).
  [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
    return segments_;
  }

  [[nodiscard]] bool empty() const noexcept { return segments_.empty(); }

  /// Hour of the last segment (0 when the log is empty).
  [[nodiscard]] std::size_t last_hour() const noexcept {
    return segments_.empty() ? 0 : segments_.back().hour;
  }

  /// The union dataset of every segment: cumulative family list, all
  /// attacks, the log's window_start. One pass parses every segment's rows
  /// from its view into one Dataset (Dataset::load_csv_union), each segment
  /// with its own checks and messages; the construction re-sorts and
  /// re-validates, so the result is the canonical cumulative dataset a
  /// cold full fit would consume. Throws std::logic_error on an empty log.
  [[nodiscard]] trace::Dataset cumulative() const;

  /// What open-time recovery did.
  [[nodiscard]] const LogRecovery& recovery() const noexcept {
    return recovery_;
  }

  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }

 private:
  void recover();
  /// Rewrites the log as exactly its surviving segments.
  void compact();
  /// The union family list across segments (append keeps lists
  /// prefix-consistent, so this is the longest list seen).
  [[nodiscard]] std::vector<std::string> cumulative_families() const;

  std::filesystem::path dir_;
  std::filesystem::path log_path_;
  durable::MappedFile mapped_;         ///< The log as opened (or repaired).
  std::deque<std::string> appended_;   ///< Segments appended since; stable.
  std::vector<Segment> segments_;
  LogRecovery recovery_;
};

// --- Drift detection --------------------------------------------------------

struct DriftPolicy {
  double z_threshold = 3.0;   ///< Channel z-score that counts as divergent.
  int consecutive_hours = 3;  ///< K: divergent hours in a row to trip.
  double alpha = 0.2;         ///< CEMA smoothing for every channel.
};

/// One family's drift trip: the first hour at which the K-consecutive
/// condition held, the offending channel, and its z-score there.
struct DriftTrip {
  std::uint32_t family = 0;
  std::size_t hour = 0;
  double z = 0.0;
  std::string channel;  ///< "rate" | "volume" | "interval" | "injected".
};

/// Replays the cumulative dataset hour by hour through per-family CEMAs and
/// returns the families whose live statistics diverged from their fit-time
/// baseline after `served_hour` (trips at or before it were already
/// refit-served). Pure function of its inputs — recovery after a crash
/// recomputes the identical trips. The drift.false_trip fault point
/// ("family=<name>") forces a trip for that family.
[[nodiscard]] std::vector<DriftTrip> detect_drift(
    const trace::Dataset& cumulative,
    const std::vector<FamilyDriftBaseline>& baselines,
    std::size_t served_hour, std::size_t last_hour, const DriftPolicy& policy);

// --- Orchestration ----------------------------------------------------------

struct IngestorOptions {
  std::filesystem::path dir;  ///< The ingest directory.
  DriftPolicy drift;
  int refit_max_retries = 3;  ///< Extra attempts after the first failure.
  int refit_backoff_ms = 5;   ///< Base backoff; doubles per retry.
  /// Fit configuration — must match the plain `acbm fit` configuration for
  /// the published model to be byte-identical to a cold full fit.
  SpatiotemporalOptions model;
};

struct RefitResult {
  bool attempted = false;   ///< A refit was triggered (trip or force).
  bool published = false;   ///< A new model generation was published.
  std::size_t stages_invalidated = 0;  ///< Stages whose inputs changed.
  int retries = 0;          ///< Failed attempts before success/fallback.
  bool fallback = false;    ///< Retries exhausted; previous model serves.
  std::string error;        ///< Last failure detail when fallback.
  std::vector<DriftTrip> trips;  ///< What tripped (empty on --refit force).
};

/// The ingest→detect→refit orchestrator. Layout under `dir`:
///   snapshots.log          the append-only snapshot log
///   quarantine/            rejected snapshot bytes
///   ipmap.art              the IP->ASN map, fixed at init
///   checkpoint/            stage checkpoints (CheckpointDir): one framed
///                          artifact and one `.done` marker per stage
///   model.art              the live model ("adversary_model" framed
///                          AdversaryModel::kFormatVersion — byte-identical
///                          to `acbm fit` on the cumulative dataset)
///   model.art.g1/.g2       previous generations (hard-linked, not renamed,
///                          so model.art is loadable at every instant)
///   inputs.state           per-stage input hashes + last refit hour
class Ingestor {
 public:
  explicit Ingestor(IngestorOptions opts);

  /// True once init() published a first model.
  [[nodiscard]] bool initialized() const;

  /// Bootstraps the directory: stores the base dataset as segment 0,
  /// persists the IP map, runs the initial full fit, and publishes the
  /// first model generation. Throws std::logic_error when already
  /// initialized.
  void init(const trace::Dataset& base, const net::IpToAsnMap& ip_map);

  /// Validates + appends one hourly snapshot (see SnapshotLog::append).
  AppendOutcome append(std::size_t hour, std::string_view snapshot_csv);

  /// Drift check; refits when a family tripped (or `force`). Returns what
  /// happened. When RefitResult::fallback the previous generation is still
  /// live and the caller should surface exit code 6.
  RefitResult check_and_refit(bool force);

  [[nodiscard]] const SnapshotLog& log() const noexcept { return log_; }
  [[nodiscard]] SnapshotLog& log() noexcept { return log_; }

  /// Hour the published model covers (from inputs.state; 0 before init).
  [[nodiscard]] std::size_t last_refit_hour() const;

  [[nodiscard]] std::filesystem::path model_path() const {
    return opts_.dir / "model.art";
  }

 private:
  /// Stage-name -> input-content-hash for the cumulative dataset.
  [[nodiscard]] std::map<std::string, std::uint64_t> stage_input_hashes(
      const trace::Dataset& cumulative) const;
  [[nodiscard]] net::IpToAsnMap load_ipmap() const;
  [[nodiscard]] std::uint64_t checkpoint_config_hash() const;
  /// Invalidate-changed-stages + retried fit + ordered publication.
  RefitResult refit(const trace::Dataset& cumulative,
                    std::vector<DriftTrip> trips);
  void publish(const AdversaryModel& model,
               const std::map<std::string, std::uint64_t>& hashes,
               std::size_t refit_hour);
  /// Reads inputs.state; empty map + hour 0 when absent/corrupt (every
  /// stage then counts as changed — converges, never serves stale).
  struct InputsState {
    std::size_t refit_hour = 0;
    std::map<std::string, std::uint64_t> hashes;
  };
  [[nodiscard]] InputsState read_inputs_state() const;

  IngestorOptions opts_;
  SnapshotLog log_;
};

}  // namespace acbm::core::ingest
