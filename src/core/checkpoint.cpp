#include "core/checkpoint.h"

#include <chrono>
#include <fstream>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/observe.h"
#include "core/robust.h"

namespace acbm::core {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kMarkerKind = "stage_done";
constexpr std::string_view kMarkerSuffix = ".done";
/// Prior artifact copies kept per stage for fallback.
constexpr int kKeepGenerations = 2;
/// Extra read attempts before a corrupt-looking artifact is condemned and
/// quarantined: covers a reader racing a concurrent publisher.
constexpr int kReadRetries = 2;
/// Base backoff between read retries, doubled per attempt.
constexpr int kRetryBackoffMs = 2;

/// Extracts `key=<value>` from a marker payload of newline-separated pairs.
std::optional<std::string> payload_field(std::string_view payload,
                                         std::string_view key) {
  std::size_t begin = 0;
  while (begin <= payload.size()) {
    std::size_t end = payload.find('\n', begin);
    if (end == std::string_view::npos) end = payload.size();
    const std::string_view line = payload.substr(begin, end - begin);
    begin = end + 1;
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == '=') {
      return std::string(line.substr(key.size() + 1));
    }
  }
  return std::nullopt;
}

/// Reads one stage-completion marker. Returns the recorded stage name and
/// payload CRC, or nullopt when the marker is missing, unreadable (possibly
/// a reader racing its publisher — the stage just looks incomplete until
/// the next check), or stamped with a different config hash.
std::optional<std::pair<std::string, std::uint32_t>> parse_marker(
    const fs::path& path, const std::string& config_hex) {
  // A zero-length marker is what a writer crashed before its first write()
  // leaves behind (or a filesystem that lost the data blocks on power loss).
  // It is not corruption to diagnose — the stage simply is not done.
  std::error_code size_ec;
  const auto size = fs::file_size(path, size_ec);
  if (size_ec || size == 0) return std::nullopt;
  std::string payload;
  try {
    payload = durable::load_artifact(path, kMarkerKind, 1, 1, nullptr,
                                     /*quarantine_on_error=*/false);
  } catch (const durable::LoadFailure&) {
    return std::nullopt;
  }
  const auto stage = payload_field(payload, "stage");
  const auto config = payload_field(payload, "config");
  const auto crc = payload_field(payload, "crc32c");
  if (!stage || !config || !crc || *config != config_hex) return std::nullopt;
  try {
    return std::make_pair(
        *stage, static_cast<std::uint32_t>(std::stoul(*crc, nullptr, 16)));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

CheckpointDir::CheckpointDir(fs::path dir, Options opts)
    : dir_(std::move(dir)), opts_(opts) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw durable::WriteFailure("checkpoint: cannot create directory " +
                                dir_.string() + ": " + ec.message());
  }
  if (opts_.resume) {
    refresh();
  } else {
    // A fresh run: no stage is complete, whoever recorded it.
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      if (entry.path().extension() != kMarkerSuffix) continue;
      std::error_code rm;
      fs::remove(entry.path(), rm);
    }
  }
  journal("open config_hash=" + durable::to_hex(opts_.config_hash) +
          (opts_.resume ? " resume" : " fresh") + " stages=" +
          std::to_string(stages_.size()));
}

std::string CheckpointDir::slug(std::string_view stage) {
  std::string out;
  out.reserve(stage.size());
  for (char c : stage) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-' || c == '=';
    out += safe ? c : '-';
  }
  return out.empty() ? std::string("stage") : out;
}

fs::path CheckpointDir::artifact_path(std::string_view stage) const {
  return dir_ / (slug(stage) + ".art");
}

fs::path CheckpointDir::marker_path(std::string_view stage) const {
  return dir_ / (slug(stage) + std::string(kMarkerSuffix));
}

bool CheckpointDir::is_complete(std::string_view stage) {
  return stages_.find(std::string(stage)) != stages_.end() ||
         read_marker(stage);
}

void CheckpointDir::refresh() {
  // Rebuild from the markers so the scan is authoritative both ways: it
  // picks up stages other processes completed AND forgets stages another
  // process condemned (dropped marker after an unrecoverable artifact).
  stages_.clear();
  const std::string config_hex = durable::to_hex(opts_.config_hash);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const fs::path& path = entry.path();
    if (path.extension() != kMarkerSuffix) continue;
    if (const auto marker = parse_marker(path, config_hex)) {
      stages_[marker->first] = marker->second;
    }
  }
}

bool CheckpointDir::read_marker(std::string_view stage) {
  const auto marker =
      parse_marker(marker_path(stage), durable::to_hex(opts_.config_hash));
  if (!marker) return false;
  stages_[marker->first] = marker->second;
  return stages_.find(std::string(stage)) != stages_.end();
}

void CheckpointDir::write_marker(std::string_view stage, std::uint32_t crc) {
  std::string payload = "stage=" + std::string(stage) + "\nconfig=" +
                        durable::to_hex(opts_.config_hash) + "\ncrc32c=" +
                        durable::to_hex(crc) + "\n";
  durable::save_artifact(marker_path(stage), kMarkerKind, 1, payload);
}

void CheckpointDir::invalidate(std::string_view stage) {
  if (!is_complete(stage)) return;
  const std::string name(stage);
  journal("invalidate " + name);
  drop_stage(name);
  ACBM_COUNT("checkpoint.invalidate", 1);
}

std::vector<std::string> CheckpointDir::completed_stages() const {
  std::vector<std::string> out;
  out.reserve(stages_.size());
  for (const auto& [stage, crc] : stages_) out.push_back(stage);
  return out;
}

void CheckpointDir::drop_stage(const std::string& stage) {
  stages_.erase(stage);
  // Remove the marker so every process (not just this one) reruns it.
  std::error_code ec;
  fs::remove(marker_path(stage), ec);
}

std::optional<std::string> CheckpointDir::load(std::string_view stage) {
  if (!is_complete(stage)) {
    ACBM_COUNT("checkpoint.load.miss", 1);
    return std::nullopt;
  }
  const std::uint32_t expected_crc = stages_.at(std::string(stage));
  FaultInjector& injector = FaultInjector::instance();
  const std::string kind = slug(stage);
  const fs::path primary = artifact_path(stage);
  constexpr int kAttempts = 1 + kReadRetries;
  for (int gen = 0; gen <= kKeepGenerations; ++gen) {
    const fs::path candidate =
        gen == 0 ? primary
                 : fs::path(primary.string() + ".g" + std::to_string(gen));
    std::error_code ec;
    if (gen > 0 && !fs::exists(candidate, ec)) continue;
    // A zero-length artifact is a crashed writer's leftover, not bit rot:
    // skip it without burning read retries or quarantining (the noise would
    // read as corruption when nothing was ever durably written).
    std::error_code size_ec;
    const auto size = fs::file_size(candidate, size_ec);
    if (!size_ec && size == 0) {
      journal("load " + std::string(stage) + " empty file=" +
              candidate.string() + "; skipping");
      continue;
    }
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      const bool last = attempt + 1 == kAttempts;
      try {
        if (injector.enabled() && injector.fires("checkpoint.read", stage)) {
          throw durable::LoadFailure(durable::LoadError::kBadChecksum,
                                     "injected fault: checkpoint.read " +
                                         std::string(stage));
        }
        // Non-final attempts read without quarantining: a bad read may just
        // be a racing publisher mid-rename. Only the final attempt condemns
        // the file (quarantine + report event).
        std::string payload = durable::load_artifact(
            candidate, kind, 1, 1, last ? &report_ : nullptr,
            /*quarantine_on_error=*/last);
        if (durable::crc32c(payload) != expected_crc) {
          // An intact artifact of another run, whose writer crashed before
          // its own marker: not this stage's bytes, and no retry changes
          // that.
          ACBM_COUNT("checkpoint.load.foreign", 1);
          journal("load " + std::string(stage) + " foreign file=" +
                  candidate.string() + "; skipping");
          break;
        }
        if (gen > 0) {
          report_.generation = gen;
          journal("load " + std::string(stage) + " fallback-generation=" +
                  std::to_string(gen));
        } else {
          journal("load " + std::string(stage) + " ok");
        }
        ACBM_COUNT("checkpoint.load.hit", 1);
        return payload;
      } catch (const durable::LoadFailure& e) {
        if (!last) {
          ACBM_COUNT("checkpoint.load.retry", 1);
          journal("load " + std::string(stage) + " retry attempt=" +
                  std::to_string(attempt + 1) + " file=" + candidate.string() +
                  " error=" + to_string(e.code()));
          std::this_thread::sleep_for(
              std::chrono::milliseconds(kRetryBackoffMs << attempt));
          continue;
        }
        journal("load " + std::string(stage) + " corrupt file=" +
                candidate.string() + " error=" + to_string(e.code()));
        // load_artifact quarantined the bad copy (when the error class
        // warrants it) and recorded the event; count the quarantine and
        // fall through to the next generation.
        if (!report_.events.empty() &&
            report_.events.back().path == candidate.string() &&
            !report_.events.back().quarantined_to.empty()) {
          ACBM_COUNT("checkpoint.quarantine", 1);
        }
      }
    }
  }
  journal("load " + std::string(stage) + " unrecoverable; stage will rerun");
  drop_stage(std::string(stage));
  ACBM_COUNT("checkpoint.load.miss", 1);
  return std::nullopt;
}

void CheckpointDir::store(std::string_view stage, std::string_view payload) {
  const fs::path primary = artifact_path(stage);
  // Rotate prior copies: art -> .g1 -> .g2 -> dropped.
  std::error_code ec;
  const fs::path oldest =
      primary.string() + ".g" + std::to_string(kKeepGenerations);
  fs::remove(oldest, ec);
  for (int gen = kKeepGenerations - 1; gen >= 0; --gen) {
    const fs::path from =
        gen == 0 ? primary
                 : fs::path(primary.string() + ".g" + std::to_string(gen));
    if (!fs::exists(from, ec)) continue;
    fs::rename(from,
               fs::path(primary.string() + ".g" + std::to_string(gen + 1)), ec);
  }

  durable::save_artifact(primary, slug(stage), 1, payload);

  // Crash window between artifact and marker: the artifact exists but its
  // completion is not recorded, so resume reruns the stage.
  FaultInjector& injector = FaultInjector::instance();
  if (injector.enabled() && injector.fires("checkpoint.stage", stage)) {
    throw durable::WriteFailure("injected fault: checkpoint.stage " +
                                std::string(stage));
  }

  const std::uint32_t crc = durable::crc32c(payload);
  write_marker(stage, crc);
  stages_[std::string(stage)] = crc;
  ACBM_COUNT("checkpoint.store", 1);
  journal("store " + std::string(stage) + " crc32c=" + durable::to_hex(crc));
}

void CheckpointDir::journal(std::string_view line) {
  std::ofstream out(dir_ / "journal.log", std::ios::app);
  if (!out) return;  // The journal is an audit aid, never load-bearing.
  out << line << '\n';
}

}  // namespace acbm::core
