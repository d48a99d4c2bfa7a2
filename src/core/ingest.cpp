#include "core/ingest.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/checkpoint.h"
#include "core/heap.h"
#include "core/observe.h"
#include "core/parallel.h"
#include "core/robust.h"

#if defined(__unix__) || defined(__APPLE__)
#define ACBM_INGEST_POSIX_IO 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace acbm::core::ingest {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kSegmentKind = "ingest_segment";
constexpr int kSegmentVersion = 1;

/// The header of a stored segment's CSV; nullopt when it does not parse.
std::optional<trace::CsvHeader> segment_header(std::string_view csv) {
  try {
    return trace::Dataset::load_csv_header(csv);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// `families_a` is a prefix of (or equal to) `families_b` or vice versa.
/// Family indices in stored attack rows point into the list, so the lists
/// of successive snapshots must agree wherever they overlap — otherwise
/// rows would silently remap to different families.
bool families_consistent(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  return std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(common),
                    b.begin());
}

/// The "hour=<h>\n" stamp in front of a segment's snapshot.
std::string hour_stamp(std::size_t hour) {
  return "hour=" + std::to_string(hour) + "\n";
}

/// One framed log record: envelope + the "hour=<h>\n" stamp + the snapshot.
std::string encode_segment(std::size_t hour, std::string_view csv) {
  std::string payload = hour_stamp(hour);
  payload.append(csv);
  return durable::frame_payload(kSegmentKind, kSegmentVersion, payload);
}

/// Appends `record` to `path` and makes it durable before returning. The
/// ingest.torn_tail fault writes only the first half and throws, modeling a
/// crash mid-append (recovery truncates the torn half).
void durable_append(const fs::path& path, std::string_view record,
                    bool torn_tail) {
  const std::size_t n = torn_tail ? record.size() / 2 : record.size();
#ifdef ACBM_INGEST_POSIX_IO
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd < 0) {
    throw durable::WriteFailure("ingest: cannot open " + path.string() +
                                " for append: " + std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < n) {
    const ::ssize_t w = ::write(fd, record.data() + written, n - written);
    if (w < 0) {
      const int saved = errno;
      ::close(fd);
      throw durable::WriteFailure("ingest: append to " + path.string() +
                                  " failed: " + std::strerror(saved));
    }
    written += static_cast<std::size_t>(w);
  }
  if (torn_tail) {
    ::close(fd);
    throw durable::WriteFailure("injected fault: ingest.torn_tail " +
                                path.string());
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    throw durable::WriteFailure("ingest: fsync of " + path.string() +
                                " failed: " + std::strerror(saved));
  }
  ::close(fd);
#else
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write(record.data(), static_cast<std::streamsize>(n));
    os.flush();
    if (!os) {
      throw durable::WriteFailure("ingest: append to " + path.string() +
                                  " failed");
    }
  }
  if (torn_tail) {
    throw durable::WriteFailure("injected fault: ingest.torn_tail " +
                                path.string());
  }
#endif
}

/// First free `<base>.corrupt-<n>` path (mirrors durable::quarantine naming,
/// but recovery writes extracted byte ranges rather than moving a file).
fs::path quarantine_slot(const fs::path& base) {
  for (int n = 1;; ++n) {
    fs::path candidate = base;
    candidate += ".corrupt-" + std::to_string(n);
    if (!fs::exists(candidate)) return candidate;
  }
}

/// Parses all of `field` as a number in `base`; false on anything else.
template <typename T>
bool parse_whole(std::string_view field, T& value, int base = 10) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value, base);
  return ec == std::errc{} && ptr == end && !field.empty();
}

struct ParsedSegment {
  std::size_t hour = 0;
  std::string_view csv;  ///< Aliases the scanned bytes.
  std::size_t end = 0;   ///< Offset one past the segment's last byte.
};

/// Parses the log record starting at `pos`; nullopt when the bytes there
/// are not one intact, CRC-verified segment. The header must read exactly
/// as durable::frame_header writes it.
std::optional<ParsedSegment> parse_segment(std::string_view bytes,
                                           std::size_t pos) {
  static const std::string lead =
      std::string(durable::kFrameMagic) + " " + std::string(kSegmentKind) +
      " v" + std::to_string(kSegmentVersion) + " len=";
  constexpr std::string_view kCrcTag = " crc32c=";
  constexpr std::string_view kHourTag = "hour=";
  const auto header_end = bytes.find('\n', pos);
  if (header_end == std::string_view::npos) return std::nullopt;
  const std::string_view header = bytes.substr(pos, header_end - pos);
  std::size_t len = 0;
  std::uint32_t crc = 0;
  if (!header.starts_with(lead)) return std::nullopt;
  const std::size_t crc_at = header.find(kCrcTag);
  if (crc_at == std::string_view::npos ||
      !parse_whole(header.substr(lead.size(), crc_at - lead.size()), len) ||
      !parse_whole(header.substr(crc_at + kCrcTag.size()), crc, 16)) {
    return std::nullopt;
  }
  const std::size_t payload_begin = header_end + 1;
  if (len > bytes.size() - payload_begin) return std::nullopt;
  const std::string_view payload = bytes.substr(payload_begin, len);
  if (durable::crc32c(payload) != crc) return std::nullopt;
  const auto stamp_end = payload.find('\n');
  ParsedSegment out;
  if (stamp_end == std::string_view::npos || !payload.starts_with(kHourTag) ||
      !parse_whole(payload.substr(kHourTag.size(),
                                  stamp_end - kHourTag.size()),
                   out.hour)) {
    return std::nullopt;
  }
  out.csv = payload.substr(stamp_end + 1);
  out.end = payload_begin + len;
  return out;
}

/// What one pass over the log's bytes found.
struct LogScan {
  std::vector<std::string_view> corrupt;  ///< Interior corrupt ranges.
  std::size_t torn_tail = 0;  ///< Bad bytes running to EOF.
  std::size_t good_tail = 0;  ///< End of the last intact segment.
};

/// Collects the intact, in-order segments of `bytes` into `segments`, as
/// views into `bytes`, and the byte ranges that are not.
LogScan scan_log(std::string_view bytes, std::vector<Segment>& segments) {
  LogScan scan;
  segments.clear();
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    auto segment = parse_segment(bytes, pos);
    // An intact segment whose hour does not advance violates the append
    // invariant (hours strictly increase) and is treated like corruption so
    // the invariant holds for every reader.
    if (segment && !segments.empty() &&
        segment->hour <= segments.back().hour) {
      segment.reset();
    }
    if (segment) {
      segments.push_back({segment->hour, segment->csv});
      pos = segment->end;
      scan.good_tail = pos;
      continue;
    }
    // Resync at the next segment boundary; no boundary means the bad bytes
    // run to EOF — a torn tail from a crash mid-append.
    const auto next = bytes.find("\nACBMF1 ", pos);
    if (next == std::string_view::npos) {
      scan.torn_tail = bytes.size() - pos;
      break;
    }
    scan.corrupt.push_back(bytes.substr(pos, next + 1 - pos));
    pos = next + 1;
  }
  return scan;
}

}  // namespace

const char* to_string(AppendStatus status) noexcept {
  switch (status) {
    case AppendStatus::kAccepted:
      return "accepted";
    case AppendStatus::kRepaired:
      return "repaired";
    case AppendStatus::kRejected:
      return "rejected";
    case AppendStatus::kDuplicate:
      return "duplicate";
  }
  return "unknown";
}

// --- SnapshotLog ------------------------------------------------------------

SnapshotLog::SnapshotLog(fs::path dir)
    : dir_(std::move(dir)), log_path_(dir_ / "snapshots.log") {
  fs::create_directories(dir_);
  recover();
}

void SnapshotLog::recover() {
  ACBM_SPAN("ingest.recover");
  segments_.clear();
  recovery_ = LogRecovery{};
  if (!fs::exists(log_path_)) return;
  mapped_ = durable::MappedFile(log_path_);
  const LogScan scan = scan_log(mapped_.view(), segments_);
  recovery_.torn_tail_bytes = scan.torn_tail;
  recovery_.quarantined_ranges = scan.corrupt.size();
  if (scan.torn_tail > 0) ACBM_COUNT("ingest.recovered.torn_tail", 1);

  if (!scan.corrupt.empty()) {
    const fs::path slot = quarantine_slot(log_path_);
    durable::atomic_write_file(slot, scan.corrupt);
    recovery_.quarantine_path = slot.string();
    ACBM_COUNT("ingest.recovered.quarantined", recovery_.quarantined_ranges);
    // Compact the log to its surviving segments so every later reader (and
    // append offset) sees a clean, contiguous record stream.
    compact();
  } else if (scan.torn_tail > 0) {
    // The prefix up to good_tail is intact; truncating in place removes the
    // half-written record without rewriting the whole log.
    std::error_code ec;
    fs::resize_file(log_path_, scan.good_tail, ec);
    if (ec) {
      throw durable::WriteFailure("ingest: truncating torn tail of " +
                                  log_path_.string() +
                                  " failed: " + ec.message());
    }
  } else {
    return;
  }
  // The repaired file replaced or shortened the mapped one: map it again,
  // so no view outlives the bytes it was taken from or points past EOF.
  // The repaired log holds exactly the segments just found.
  mapped_ = durable::MappedFile(log_path_);
  (void)scan_log(mapped_.view(), segments_);
}

void SnapshotLog::compact() {
  // Each segment goes out as its frame header, its hour stamp and its CSV
  // view, in one gathered write; the record bytes are never joined.
  std::vector<std::string> heads;  // Header and stamp per segment.
  heads.reserve(2 * segments_.size());
  for (const Segment& s : segments_) {
    std::string stamp = hour_stamp(s.hour);
    const std::array<std::string_view, 2> payload = {stamp, s.csv};
    heads.push_back(
        durable::frame_header(kSegmentKind, kSegmentVersion, payload));
    heads.push_back(std::move(stamp));
  }
  std::vector<std::string_view> parts;
  parts.reserve(3 * segments_.size());
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    parts.push_back(heads[2 * i]);
    parts.push_back(heads[2 * i + 1]);
    parts.push_back(segments_[i].csv);
  }
  durable::atomic_write_file(log_path_, parts);
}

AppendOutcome SnapshotLog::append(std::size_t hour,
                                  std::string_view snapshot_csv) {
  ACBM_SPAN_KV("ingest.append", "hour=" + std::to_string(hour));
  AppendOutcome outcome;

  if (!segments_.empty() && hour <= last_hour()) {
    // Idempotent crash-retry: the previous append durably landed before the
    // caller learned of it; replaying the same hour changes nothing.
    outcome.status = AppendStatus::kDuplicate;
    outcome.detail = "hour " + std::to_string(hour) +
                     " at or before the log's last hour " +
                     std::to_string(last_hour());
    ACBM_COUNT("ingest.snapshots.duplicate", 1);
    return outcome;
  }

  const auto reject = [&](std::string detail) {
    outcome.status = AppendStatus::kRejected;
    outcome.detail = std::move(detail);
    const fs::path qdir = dir_ / "quarantine";
    fs::create_directories(qdir);
    const fs::path slot =
        quarantine_slot(qdir / ("hour-" + std::to_string(hour) + ".csv"));
    durable::atomic_write_file(slot, snapshot_csv);
    outcome.quarantined_to = slot.string();
    ACBM_COUNT("ingest.snapshots.rejected", 1);
    return outcome;
  };

  // Validation: parse through Dataset so its ValidationReport machinery
  // classifies the snapshot (see the policy in ingest.h).
  trace::Dataset snapshot;
  try {
    snapshot = trace::Dataset::load_csv(snapshot_csv);
  } catch (const std::exception& e) {
    return reject(std::string("unparseable snapshot: ") + e.what());
  }
  if (!segments_.empty()) {
    const auto base = segment_header(segments_.front().csv);
    if (base && snapshot.window_start() != base->window_start) {
      return reject("window_start " +
                    std::to_string(snapshot.window_start()) +
                    " differs from the log's " +
                    std::to_string(base->window_start));
    }
    if (!families_consistent(cumulative_families(), snapshot.family_names())) {
      return reject("family list contradicts the log's (indices would remap)");
    }
  }
  outcome.validation = snapshot.validation();
  outcome.status = outcome.validation.clean() ? AppendStatus::kAccepted
                                              : AppendStatus::kRepaired;

  // Store the canonical (repaired, sorted) form, not the raw bytes, so
  // cumulative() replay and a cold fit on the exported dataset agree.
  std::string canonical;
  snapshot.append_csv(canonical);
  const std::string record = encode_segment(hour, canonical);

  FaultInjector& injector = FaultInjector::instance();
  const std::string key = "hour=" + std::to_string(hour);
  if (injector.enabled() && injector.fires("ingest.append", key)) {
    // Crash before any byte lands: retrying the append converges.
    throw durable::WriteFailure("injected fault: ingest.append " + key);
  }
  const bool torn = injector.enabled() && injector.fires("ingest.torn_tail", key);
  durable_append(log_path_, record, torn);

  appended_.push_back(std::move(canonical));
  segments_.push_back({hour, appended_.back()});
  ACBM_COUNT(outcome.status == AppendStatus::kAccepted
                 ? "ingest.snapshots.accepted"
                 : "ingest.snapshots.repaired",
             1);
  return outcome;
}

std::vector<std::string> SnapshotLog::cumulative_families() const {
  // append accepts a family list that is a prefix of the log's as well as
  // one that extends it, so the last segment's list need not be the
  // cumulative one: take the longest. Only the header lines are read.
  std::vector<std::string> families;
  for (const Segment& s : segments_) {
    auto header = segment_header(s.csv);
    if (header && header->families.size() > families.size()) {
      families = std::move(header->families);
    }
  }
  return families;
}

trace::Dataset SnapshotLog::cumulative() const {
  ACBM_SPAN("ingest.cumulative");
  if (segments_.empty()) {
    throw std::logic_error("ingest: cumulative() on an empty snapshot log");
  }
  // Every segment's rows are parsed straight from its view into the one
  // dataset; its construction re-sorts, re-validates, and reindexes, so the
  // result is exactly what a cold full fit on the exported dataset
  // consumes.
  std::vector<std::string_view> texts;
  texts.reserve(segments_.size());
  for (const Segment& s : segments_) texts.push_back(s.csv);
  return trace::Dataset::load_csv_union(texts);
}

// --- Drift detection --------------------------------------------------------

std::vector<DriftTrip> detect_drift(
    const trace::Dataset& cumulative,
    const std::vector<FamilyDriftBaseline>& baselines,
    std::size_t served_hour, std::size_t last_hour,
    const DriftPolicy& policy) {
  ACBM_SPAN("drift.check");
  std::vector<DriftTrip> trips;

  // Per-family replay state.
  struct FamilyState {
    const FamilyDriftBaseline* baseline = nullptr;
    CorrectedEma rate{0.0}, volume{0.0}, interval{0.0};
    std::optional<trace::EpochSeconds> prev_start;
    std::size_t count_this_hour = 0;
    int consecutive = 0;
    bool tripped = false;
  };
  const auto& families = cumulative.family_names();
  std::vector<FamilyState> state(families.size());
  for (auto& s : state) {
    s.rate = CorrectedEma(policy.alpha);
    s.volume = CorrectedEma(policy.alpha);
    s.interval = CorrectedEma(policy.alpha);
  }
  for (const FamilyDriftBaseline& b : baselines) {
    if (b.family < state.size()) state[b.family].baseline = &b;
  }

  const auto z_of = [](double live, double mean, double spread) {
    return std::abs(live - mean) / std::max(spread, 1e-9);
  };

  // Hour-by-hour replay of the cumulative dataset (attacks are sorted by
  // start time). Per-attack channels (volume, interval) update as attacks
  // arrive; the rate channel and the trip condition evaluate at each hour
  // boundary, matching the hourly ingest cadence.
  const trace::EpochSeconds ws = cumulative.window_start();
  std::size_t attack_i = 0;
  const auto& attacks = cumulative.attacks();
  for (std::size_t hour = 0; hour <= last_hour; ++hour) {
    const trace::EpochSeconds hour_end =
        ws + static_cast<trace::EpochSeconds>((hour + 1) * 3600);
    for (; attack_i < attacks.size() && attacks[attack_i].start < hour_end;
         ++attack_i) {
      const trace::Attack& a = attacks[attack_i];
      if (a.family >= state.size()) continue;
      FamilyState& s = state[a.family];
      ++s.count_this_hour;
      if (s.baseline == nullptr) continue;
      s.volume.update(static_cast<double>(a.magnitude()));
      if (s.prev_start) {
        const double interval_s = static_cast<double>(a.start - *s.prev_start);
        // Deviation of the live inter-arrival from the fit-time mean,
        // z-scored against the residual spread the fitted temporal model
        // could not explain (see FamilyDriftBaseline).
        s.interval.update(interval_s - s.baseline->interval_mean);
      }
      s.prev_start = a.start;
    }
    for (std::size_t f = 0; f < state.size(); ++f) {
      FamilyState& s = state[f];
      const std::size_t n = s.count_this_hour;
      s.count_this_hour = 0;
      if (s.baseline == nullptr || s.tripped) continue;
      s.rate.update(static_cast<double>(n));
      double z_max = z_of(s.rate.value(), s.baseline->rate_mean,
                          s.baseline->rate_std);
      std::string channel = "rate";
      if (s.volume.warm()) {
        const double z = z_of(s.volume.value(), s.baseline->magnitude_mean,
                              s.baseline->magnitude_std);
        if (z > z_max) {
          z_max = z;
          channel = "volume";
        }
      }
      if (s.interval.warm()) {
        const double z =
            z_of(s.interval.value(), 0.0, s.baseline->interval_residual_std);
        if (z > z_max) {
          z_max = z;
          channel = "interval";
        }
      }
      if (z_max > policy.z_threshold) {
        ++s.consecutive;
      } else {
        s.consecutive = 0;
      }
      // Trips at or before the last refit hour were served by that refit
      // and must not re-fire on replay after a crash.
      if (s.consecutive >= policy.consecutive_hours && hour > served_hour) {
        s.tripped = true;
        trips.push_back({static_cast<std::uint32_t>(f), hour, z_max, channel});
      }
    }
  }

  FaultInjector& injector = FaultInjector::instance();
  if (injector.enabled()) {
    for (std::size_t f = 0; f < families.size(); ++f) {
      if (f < state.size() && state[f].tripped) continue;
      if (injector.fires("drift.false_trip", "family=" + families[f])) {
        trips.push_back({static_cast<std::uint32_t>(f), last_hour,
                         policy.z_threshold, "injected"});
      }
    }
  }
  ACBM_COUNT("drift.trips", trips.size());
  return trips;
}

// --- Ingestor ---------------------------------------------------------------

Ingestor::Ingestor(IngestorOptions opts)
    : opts_(std::move(opts)), log_(opts_.dir) {}

bool Ingestor::initialized() const { return fs::exists(model_path()); }

void Ingestor::init(const trace::Dataset& base, const net::IpToAsnMap& ip_map) {
  if (initialized()) {
    throw std::logic_error("ingest: directory already initialized (" +
                           model_path().string() + " exists)");
  }
  if (log_.empty()) {
    std::string csv;
    base.append_csv(csv);
    const std::size_t base_hour =
        base.attacks().empty()
            ? 0
            : static_cast<std::size_t>(
                  std::max<trace::EpochSeconds>(
                      0, base.attacks().back().start - base.window_start()) /
                  3600);
    const AppendOutcome out = log_.append(base_hour, csv);
    if (out.status == AppendStatus::kRejected) {
      throw std::invalid_argument("ingest: base dataset rejected: " +
                                  out.detail);
    }
  }
  std::ostringstream map_os;
  ip_map.save(map_os);
  durable::save_artifact(opts_.dir / "ipmap.art", "ipmap", 1, map_os.str());

  const RefitResult result = refit(log_.cumulative(), {});
  if (!result.published) {
    throw std::runtime_error("ingest: initial fit failed: " + result.error);
  }
}

AppendOutcome Ingestor::append(std::size_t hour,
                               std::string_view snapshot_csv) {
  return log_.append(hour, snapshot_csv);
}

RefitResult Ingestor::check_and_refit(bool force) {
  if (!initialized()) {
    throw std::logic_error("ingest: directory not initialized (run --init)");
  }
  std::vector<FamilyDriftBaseline> baselines;
  {
    ACBM_SPAN("ingest.baselines");
    baselines = AdversaryModel::load_drift_baselines(model_path());
  }
  const trace::Dataset cumulative = log_.cumulative();
  std::vector<DriftTrip> trips =
      detect_drift(cumulative, baselines, last_refit_hour(), log_.last_hour(),
                   opts_.drift);
  if (trips.empty() && !force) {
    return RefitResult{};
  }
  return refit(cumulative, std::move(trips));
}

std::size_t Ingestor::last_refit_hour() const {
  return read_inputs_state().refit_hour;
}

std::map<std::string, std::uint64_t> Ingestor::stage_input_hashes(
    const trace::Dataset& cumulative) const {
  ACBM_SPAN("ingest.stage_hashes");
  std::map<std::string, std::uint64_t> hashes;
  const auto& families = cumulative.family_names();

  // temporal/<family>: a family's temporal series is a function of only its
  // own attacks and the window start, so its stage survives appends that
  // touch other families. Each family hashes the text
  // "temporal <name> ws=<window start>\n" then "id,start,duration,bots\n"
  // per attack, the duration as %.17g.
  const std::vector<std::uint64_t> family_hashes =
      parallel_map(families.size(), [&](std::size_t f) {
        const std::vector<std::size_t> attacks =
            cumulative.attacks_of_family(static_cast<std::uint32_t>(f));
        // FNV-1a runs byte by byte, so hashing line after line equals
        // hashing the whole text.
        std::uint64_t hash = durable::fnv1a64(
            "temporal " + families[f] + " ws=" +
            std::to_string(cumulative.window_start()) + "\n");
        // Each field gets room for its widest rendering: 20 characters for
        // an integer, 24 for a %.17g double.
        constexpr std::ptrdiff_t kInt = 20;
        constexpr std::ptrdiff_t kDouble = 24;
        char line[3 * kInt + kDouble + 4];
        for (const std::size_t i : attacks) {
          const trace::Attack& a = cumulative.attacks()[i];
          char* p = std::to_chars(line, line + kInt, a.id).ptr;
          *p++ = ',';
          p = std::to_chars(p, p + kInt, a.start).ptr;
          *p++ = ',';
          p = std::to_chars(p, p + kDouble, a.duration_s,
                            std::chars_format::general, 17)
                  .ptr;
          *p++ = ',';
          p = std::to_chars(p, p + kInt, a.magnitude()).ptr;
          *p++ = '\n';
          hash = durable::fnv1a64(
              std::string_view(line, static_cast<std::size_t>(p - line)), hash);
        }
        return hash;
      });
  for (std::uint32_t f = 0; f < families.size(); ++f) {
    hashes["temporal/" + families[f]] = family_hashes[f];
  }

  // spatial and tree both consume the whole dataset (spatial fits every
  // target from all attacks; the trees combine everything), so any change
  // to it invalidates both. Its binary block holds every field of it.
  std::uint64_t full_hash = durable::fnv1a64("");  // The offset basis.
  for (const std::string& part : cumulative.binary_parts()) {
    full_hash = durable::fnv1a64(part, full_hash);
  }
  hashes["spatial"] = full_hash;
  hashes["tree"] = full_hash;
  return hashes;
}

net::IpToAsnMap Ingestor::load_ipmap() const {
  const std::string payload =
      durable::load_artifact(opts_.dir / "ipmap.art", "ipmap", 1, 1);
  std::istringstream is(payload);
  return net::IpToAsnMap::load(is);
}

std::uint64_t Ingestor::checkpoint_config_hash() const {
  // Deliberately excludes the dataset bytes: the log grows every hour, and
  // a data-dependent hash would orphan every completed stage on each
  // append. Stage freshness is enforced by the per-stage input hashes in
  // inputs.state instead (refit() invalidates exactly what changed).
  std::uint64_t h = durable::fnv1a64("acbm-ingest-fit");
  h = durable::fnv1a64(durable::read_file(opts_.dir / "ipmap.art"), h);
  h = durable::fnv1a64(fit_config_tag(), h);
  return h;
}

Ingestor::InputsState Ingestor::read_inputs_state() const {
  InputsState state;
  const fs::path path = opts_.dir / "inputs.state";
  std::string payload;
  try {
    payload = durable::load_artifact(path, "ingest_inputs", 1, 1);
  } catch (const durable::LoadFailure&) {
    // Missing or corrupt (the corrupt copy is quarantined by the loader):
    // with no recorded hashes every stage counts as changed, so the next
    // refit is a full one — wasteful but convergent, never stale.
    return state;
  }
  std::istringstream is(payload);
  std::string tag;
  if (!(is >> tag >> state.refit_hour) || tag != "refit_hour") {
    return InputsState{};
  }
  std::size_t n = 0;
  if (!(is >> tag >> n) || tag != "stages") return InputsState{};
  for (std::size_t i = 0; i < n; ++i) {
    std::string stage, hex;
    if (!(is >> tag >> stage >> hex) || tag != "stage") return InputsState{};
    try {
      state.hashes[stage] = std::stoull(hex, nullptr, 16);
    } catch (const std::exception&) {
      return InputsState{};
    }
  }
  return state;
}

RefitResult Ingestor::refit(const trace::Dataset& cumulative,
                            std::vector<DriftTrip> trips) {
  ACBM_SPAN("ingest.refit");
  RefitResult result;
  result.attempted = true;
  result.trips = std::move(trips);

  const auto hashes = stage_input_hashes(cumulative);
  const InputsState prev = read_inputs_state();
  std::vector<std::string> changed;
  for (const auto& [stage, hash] : hashes) {
    const auto it = prev.hashes.find(stage);
    if (it != prev.hashes.end() && it->second == hash) continue;
    changed.push_back(stage);
    ++result.stages_invalidated;
  }
  ACBM_COUNT("refit.stages", result.stages_invalidated);

  const net::IpToAsnMap ip_map = load_ipmap();
  const std::size_t refit_hour = log_.last_hour();
  FaultInjector& injector = FaultInjector::instance();
  const int attempts = 1 + std::max(0, opts_.refit_max_retries);
  // Opening the checkpoint dir and invalidating stale stages write durably,
  // so they sit inside the retried attempt like the fit itself. The stale
  // set is invalidated exactly once: after it succeeds, later attempts keep
  // whatever stages the failed fit managed to complete and resume from them
  // (a crash mid-invalidation just re-runs it — invalidate is idempotent).
  bool invalidated = false;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    try {
      const std::string key = "hour=" + std::to_string(refit_hour) +
                              "/attempt=" + std::to_string(attempt);
      if (injector.enabled() && injector.fires("refit.fail", key)) {
        throw durable::WriteFailure("injected fault: refit.fail " + key);
      }
      std::optional<CheckpointDir> ckpt;
      {
        ACBM_SPAN("ingest.checkpoint_open");
        ckpt.emplace(opts_.dir / "checkpoint",
                     CheckpointDir::Options{
                         .config_hash = checkpoint_config_hash(),
                         .resume = true});
        if (!invalidated) {
          for (const std::string& stage : changed) {
            if (ckpt->is_complete(stage)) ckpt->invalidate(stage);
          }
          invalidated = true;
        }
      }
      AdversaryModel model(opts_.model);
      model.set_checkpoint(&*ckpt);
      model.fit(cumulative, ip_map);
      // The fit's freed scratch goes back before the body is formatted.
      release_free_heap();
      publish(model, hashes, refit_hour);
      result.published = true;
      return result;
    } catch (const std::exception& e) {
      result.error = e.what();
      if (attempt + 1 < attempts) {
        ++result.retries;
        ACBM_COUNT("refit.retries", 1);
        const auto backoff = std::chrono::milliseconds(
            static_cast<std::int64_t>(std::max(0, opts_.refit_backoff_ms))
            << attempt);
        std::this_thread::sleep_for(backoff);
      }
    }
  }
  // Terminal fallback: retries exhausted. The previously published model
  // generation is untouched and keeps serving ("never serve nothing");
  // stages that did complete are checkpointed, so the next attempt resumes
  // from them.
  result.fallback = true;
  ACBM_COUNT("refit.fallbacks", 1);
  return result;
}

void Ingestor::publish(const AdversaryModel& model,
                       const std::map<std::string, std::uint64_t>& hashes,
                       std::size_t refit_hour) {
  ACBM_SPAN("ingest.publish");
  const std::vector<std::string> body = model.body_parts();

  // Generation rotation with a hard link (not a rename) of the live model,
  // so model.art stays loadable at every instant of publication:
  //   g1 -> g2 (rename)        model.art still the old generation
  //   model.art -> g1 (link)   model.art still the old generation
  //   save_artifact(model.art) atomic swap old -> new
  // save_artifact replaces model.art by rename, never in place, so the link
  // keeps the old bytes at g1. A filesystem without hard links gets a copy.
  const fs::path live = model_path();
  if (fs::exists(live)) {
    const fs::path g1 = live.string() + ".g1";
    const fs::path g2 = live.string() + ".g2";
    std::error_code ec;
    if (fs::exists(g1)) {
      fs::rename(g1, g2, ec);  // Overwrites g2; failure only loses a spare.
    }
    fs::create_hard_link(live, g1, ec);
    if (ec) fs::copy_file(live, g1, fs::copy_options::overwrite_existing, ec);
  }
  durable::save_artifact(live, "adversary_model",
                         AdversaryModel::kFormatVersion, body);

  // inputs.state last: a crash between the model publish and this write
  // leaves stale hashes, which at worst re-invalidate already-fresh stages
  // on the next refit — deterministic extra work, never a wrong model.
  std::ostringstream state;
  state << "refit_hour " << refit_hour << "\n";
  state << "stages " << hashes.size() << "\n";
  for (const auto& [stage, hash] : hashes) {
    state << "stage " << stage << " " << durable::to_hex(hash) << "\n";
  }
  durable::save_artifact(opts_.dir / "inputs.state", "ingest_inputs", 1,
                         state.str());
}

}  // namespace acbm::core::ingest
