// Stage checkpointing for long pipeline runs: per-stage framed artifacts,
// one durable `<slug>.done` completion marker per stage, and an
// append-only journal. Each marker carries the stage name, the content
// hash of the run's inputs and configuration, and the CRC32C of the
// artifact payload it completed. `acbm fit` and `acbm evaluate` point a
// CheckpointDir at --checkpoint-dir and, with --resume, skip per-family
// fits and per-horizon evaluations whose stage already completed —
// reaching the bit-identical final result an uninterrupted run produces.
//
// The marker is the only completion record, so concurrent processes
// (sharded workers, core/shard.h) share one directory: each stage has its
// own marker, stage artifacts are only ever written by the worker holding
// that shard's lease, and every writer publishes deterministic, identical
// bytes, so even a stolen-lease double publish is benign.
//
// Recovery policy on load: an artifact whose payload CRC differs from its
// marker's is an intact file of another run (its writer crashed between
// the artifact and its own marker); it is skipped, never retried or
// quarantined. A transiently unreadable artifact (a reader racing a
// concurrent publisher) is retried a bounded number of times first; a
// persistently corrupt copy is then quarantined (`*.corrupt-<n>`). Either
// way the newest matching generation (`.g1`, `.g2`) is used instead, and
// when no generation matches the stage simply reruns.
//
// Fault points wired here (see robust.h FaultInjector):
//   checkpoint.stage   key "<stage>"  crash between the stage artifact
//                                     write and its marker
//   checkpoint.read    key "<stage>"  fail one artifact read attempt
//                                     (exercises the bounded retry)
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/durable.h"

namespace acbm::core {

/// Filesystem-backed stage store: one framed artifact and one `.done`
/// marker per stage, and a `journal.log` recording every
/// store/load/recovery event. Use an instance from one thread at a time
/// (the pipeline checkpoints at stage boundaries, outside its parallel
/// sections); other processes may share the directory.
class CheckpointDir {
 public:
  struct Options {
    /// Content hash of the run's inputs + config. A marker stamped with a
    /// different hash is stale: its stage is not complete for this run.
    std::uint64_t config_hash = 0;
    /// Reuse completed stages of earlier runs and other processes. When
    /// false every `.done` marker is removed at open, so every stage
    /// reruns (prior artifacts rotate to generations on the next store).
    bool resume = false;
  };

  CheckpointDir(std::filesystem::path dir, Options opts);

  /// Payload of a completed stage, or nullopt when the stage has not
  /// completed (or no copy of its artifact matches its marker).
  [[nodiscard]] std::optional<std::string> load(std::string_view stage);

  /// Durably records a completed stage and its artifact payload.
  void store(std::string_view stage, std::string_view payload);

  /// True when the stage's marker records it complete under this run's
  /// config hash (the artifact may still turn out unusable on load()). A
  /// stage unknown to this instance is re-checked against its on-disk
  /// marker, so completions published by other processes are seen.
  [[nodiscard]] bool is_complete(std::string_view stage);

  /// Rescans every `.done` marker in the directory, picking up stages
  /// other processes completed and forgetting stages they dropped.
  void refresh();

  /// Marks a completed stage stale so it reruns: forgets it in memory and
  /// removes its marker, for every process. The stage artifact itself is
  /// left in place — it simply rotates to a generation on the next
  /// store(). Used by the ingest drift loop to invalidate stages whose
  /// inputs changed. No-op when the stage was not complete.
  void invalidate(std::string_view stage);

  /// Names of the stages currently known complete (sorted). Callers
  /// wanting cross-process freshness should refresh() first.
  [[nodiscard]] std::vector<std::string> completed_stages() const;

  /// Recovery events accumulated across load() calls.
  [[nodiscard]] const durable::LoadReport& report() const noexcept {
    return report_;
  }

  /// Filesystem-safe stage name ('/' and other separators become '-').
  [[nodiscard]] static std::string slug(std::string_view stage);

 private:
  void journal(std::string_view line);
  [[nodiscard]] std::filesystem::path artifact_path(
      std::string_view stage) const;
  [[nodiscard]] std::filesystem::path marker_path(std::string_view stage) const;
  /// Durably records `stage` as complete via its marker file.
  void write_marker(std::string_view stage, std::uint32_t crc);
  /// Reads one stage's marker (config-hash checked) into stages_. Returns
  /// true when the stage is now known complete.
  bool read_marker(std::string_view stage);
  /// Forgets a stage everywhere (memory + marker file) so every process
  /// reruns it.
  void drop_stage(const std::string& stage);

  std::filesystem::path dir_;
  Options opts_;
  /// stage name -> payload CRC32C recorded by its marker.
  std::map<std::string, std::uint32_t> stages_;
  durable::LoadReport report_;
};

}  // namespace acbm::core
