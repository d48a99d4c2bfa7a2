#include "core/ingest.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/checkpoint.h"
#include "core/observe.h"
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

/// One framed log record: envelope + the "hour=<h>\n" stamp + the snapshot.
std::string encode_segment(std::size_t hour, std::string_view csv) {
  std::string payload = "hour=" + std::to_string(hour) + "\n";
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

struct ParsedSegment {
  std::size_t hour = 0;
  std::string csv;
  std::size_t end = 0;  ///< Offset one past the segment's last byte.
};

/// Parses the log record starting at `pos`; nullopt when the bytes there
/// are not one intact, CRC-verified segment.
std::optional<ParsedSegment> parse_segment(std::string_view bytes,
                                           std::size_t pos) {
  const auto header_end = bytes.find('\n', pos);
  if (header_end == std::string_view::npos) return std::nullopt;
  std::istringstream header(
      std::string(bytes.substr(pos, header_end - pos)));
  std::string magic, kind, version, len_field, crc_field;
  header >> magic >> kind >> version >> len_field >> crc_field;
  if (magic != durable::kFrameMagic || kind != kSegmentKind ||
      version != "v" + std::to_string(kSegmentVersion) ||
      len_field.rfind("len=", 0) != 0 || crc_field.rfind("crc32c=", 0) != 0) {
    return std::nullopt;
  }
  std::size_t len = 0;
  std::uint32_t crc = 0;
  try {
    len = std::stoull(len_field.substr(4));
    crc = static_cast<std::uint32_t>(
        std::stoul(crc_field.substr(7), nullptr, 16));
  } catch (const std::exception&) {
    return std::nullopt;
  }
  const std::size_t payload_begin = header_end + 1;
  if (payload_begin + len > bytes.size()) return std::nullopt;
  const std::string_view payload = bytes.substr(payload_begin, len);
  if (durable::crc32c(payload) != crc) return std::nullopt;
  const auto stamp_end = payload.find('\n');
  if (stamp_end == std::string_view::npos ||
      payload.substr(0, 5) != "hour=") {
    return std::nullopt;
  }
  ParsedSegment out;
  try {
    out.hour = std::stoull(std::string(payload.substr(5, stamp_end - 5)));
  } catch (const std::exception&) {
    return std::nullopt;
  }
  out.csv = std::string(payload.substr(stamp_end + 1));
  out.end = payload_begin + len;
  return out;
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
  const std::string bytes = durable::read_file(log_path_);

  std::string corrupt_bytes;
  std::size_t pos = 0;
  std::size_t good_tail = 0;  // End of the last intact, in-order segment.
  bool interior_corruption = false;
  while (pos < bytes.size()) {
    auto segment = parse_segment(bytes, pos);
    // An intact segment whose hour does not advance violates the append
    // invariant (hours strictly increase) and is treated like corruption so
    // the invariant holds for every reader.
    if (segment && !segments_.empty() &&
        segment->hour <= segments_.back().hour) {
      segment.reset();
    }
    if (segment) {
      segments_.push_back({segment->hour, std::move(segment->csv)});
      pos = segment->end;
      good_tail = pos;
      continue;
    }
    // Resync at the next segment boundary; no boundary means the bad bytes
    // run to EOF — a torn tail from a crash mid-append.
    const auto next = bytes.find("\nACBMF1 ", pos);
    if (next == std::string::npos) {
      recovery_.torn_tail_bytes = bytes.size() - pos;
      ACBM_COUNT("ingest.recovered.torn_tail", 1);
      break;
    }
    corrupt_bytes.append(bytes, pos, next + 1 - pos);
    ++recovery_.quarantined_ranges;
    interior_corruption = true;
    pos = next + 1;
  }

  if (!corrupt_bytes.empty()) {
    const fs::path slot = quarantine_slot(log_path_);
    durable::atomic_write_file(slot, corrupt_bytes);
    recovery_.quarantine_path = slot.string();
    ACBM_COUNT("ingest.recovered.quarantined", recovery_.quarantined_ranges);
  }
  if (interior_corruption) {
    // Compact the log to its surviving segments so every later reader (and
    // append offset) sees a clean, contiguous record stream.
    std::string clean;
    for (const Segment& s : segments_) clean += encode_segment(s.hour, s.csv);
    rewrite(clean);
  } else if (recovery_.torn_tail_bytes > 0) {
    // The prefix up to good_tail is intact; truncating in place removes the
    // half-written record without rewriting the whole log.
    std::error_code ec;
    fs::resize_file(log_path_, good_tail, ec);
    if (ec) {
      throw durable::WriteFailure("ingest: truncating torn tail of " +
                                  log_path_.string() +
                                  " failed: " + ec.message());
    }
  }
}

void SnapshotLog::rewrite(const std::string& bytes) {
  durable::atomic_write_file(log_path_, bytes);
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

  segments_.push_back({hour, std::move(canonical)});
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
  std::vector<std::string> families;
  std::vector<trace::Attack> attacks;
  trace::EpochSeconds window_start = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    trace::Dataset d = trace::Dataset::load_csv(segments_[i].csv);
    if (i == 0) window_start = d.window_start();
    if (d.family_names().size() > families.size()) {
      families = d.family_names();
    }
    std::vector<trace::Attack> segment = std::move(d).take_attacks();
    if (attacks.empty()) {
      attacks = std::move(segment);  // The base segment, most of the log.
    } else {
      std::move(segment.begin(), segment.end(), std::back_inserter(attacks));
    }
  }
  // Dataset construction re-sorts, re-validates, and reindexes — the result
  // is exactly what a cold full fit on the exported dataset consumes.
  return trace::Dataset(std::move(families), std::move(attacks), {},
                        window_start);
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
  std::map<std::string, std::uint64_t> hashes;
  const auto& families = cumulative.family_names();

  // temporal/<family>: a family's temporal series is a function of only its
  // own attacks and the window start, so its stage survives appends that
  // touch other families.
  for (std::uint32_t f = 0; f < families.size(); ++f) {
    std::ostringstream rows;
    rows << "temporal " << families[f] << " ws="
         << cumulative.window_start() << "\n";
    rows.precision(17);
    for (const std::size_t i : cumulative.attacks_of_family(f)) {
      const trace::Attack& a = cumulative.attacks()[i];
      rows << a.id << ',' << a.start << ',' << a.duration_s << ','
           << a.magnitude() << '\n';
    }
    hashes["temporal/" + families[f]] = durable::fnv1a64(rows.str());
  }

  // spatial and tree both consume the whole dataset (spatial fits every
  // target from all attacks; the trees combine everything), so any change
  // to the cumulative CSV invalidates both.
  std::uint64_t full_hash = durable::fnv1a64("");  // The offset basis.
  for (const std::string& part : cumulative.csv_parts()) {
    full_hash = durable::fnv1a64(part, full_hash);
  }
  hashes["spatial"] = full_hash;
  hashes["tree"] = full_hash;
  return hashes;
}

net::IpToAsnMap Ingestor::load_ipmap() const {
  const std::string payload =
      durable::load_artifact(opts_.dir / "ipmap.art", "ipmap", 1, 1,
                             /*legacy_ok=*/false);
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
  h = durable::fnv1a64("grid_search=0", h);
  return h;
}

Ingestor::InputsState Ingestor::read_inputs_state() const {
  InputsState state;
  const fs::path path = opts_.dir / "inputs.state";
  std::string payload;
  try {
    payload = durable::load_artifact(path, "ingest_inputs", 1, 1,
                                     /*legacy_ok=*/false);
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
      CheckpointDir::Options ckpt_opts;
      ckpt_opts.config_hash = checkpoint_config_hash();
      ckpt_opts.resume = true;
      CheckpointDir ckpt(opts_.dir / "checkpoint", ckpt_opts);
      if (!invalidated) {
        for (const std::string& stage : changed) {
          if (ckpt.is_complete(stage)) ckpt.invalidate(stage);
        }
        invalidated = true;
      }
      AdversaryModel model(opts_.model);
      model.set_checkpoint(&ckpt);
      model.fit(cumulative, ip_map);
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
  const std::vector<std::string> body = model.body_parts();

  // Generation rotation with a COPY (not a rename) of the live model, so
  // model.art stays loadable at every instant of publication:
  //   g1 -> g2 (rename)        model.art still the old generation
  //   model.art -> g1 (copy)   model.art still the old generation
  //   save_artifact(model.art) atomic swap old -> new
  const fs::path live = model_path();
  if (fs::exists(live)) {
    const fs::path g1 = live.string() + ".g1";
    const fs::path g2 = live.string() + ".g2";
    std::error_code ec;
    if (fs::exists(g1)) {
      fs::rename(g1, g2, ec);  // Overwrites g2; failure only loses a spare.
    }
    fs::copy_file(live, g1, fs::copy_options::overwrite_existing, ec);
  }
  durable::save_artifact(live, "adversary_model", 4, body);

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
