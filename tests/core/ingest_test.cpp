// Streaming-ingestion acceptance: the corrected EMA's bias correction, the
// snapshot log's validation policy and crash recovery (torn tail, interior
// corruption), pure-replay drift detection, and the incremental-refit
// contract — the published model is byte-identical to a cold full fit on
// the same cumulative data at 1, 3, and 8 threads, retries are bounded,
// and an exhausted refit leaves the previous generation serving.
#include "core/ingest.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/durable.h"
#include "core/observe.h"
#include "core/parallel.h"
#include "core/robust.h"
#include "trace/world.h"

#include "../same_bytes.h"

namespace acbm::core::ingest {
namespace {

namespace fs = std::filesystem;
using acbm::test::same_bytes;

struct FaultGuard {
  FaultGuard() { FaultInjector::instance().clear(); }
  ~FaultGuard() {
    FaultInjector::instance().clear();
    set_num_threads(0);
  }
};

struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("acbm_ingest_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

constexpr trace::EpochSeconds kWs = 1'000'000'000;

trace::Attack make_attack(std::uint64_t id, std::uint32_t family,
                          trace::EpochSeconds start, double duration = 600.0,
                          std::size_t bots = 3) {
  trace::Attack a;
  a.id = id;
  a.family = family;
  a.target_ip = net::Ipv4(10, 0, 0, 1);
  a.target_asn = 3;
  a.start = start;
  a.duration_s = duration;
  for (std::size_t b = 0; b < bots; ++b) {
    a.bots.push_back(net::Ipv4(10, 1, static_cast<std::uint8_t>(b / 250),
                               static_cast<std::uint8_t>(1 + b % 250)));
  }
  return a;
}

std::string csv_of(const trace::Dataset& d) {
  std::ostringstream os;
  d.save_csv(os);
  return os.str();
}

/// A snapshot with `per_hour` attacks of `family` in each hour of
/// [first_hour, last_hour], evenly spaced.
std::string snapshot_csv(const std::vector<std::string>& families,
                         std::uint32_t family, std::size_t first_hour,
                         std::size_t last_hour, std::size_t per_hour,
                         std::uint64_t id_base) {
  std::vector<trace::Attack> attacks;
  for (std::size_t h = first_hour; h <= last_hour; ++h) {
    for (std::size_t k = 0; k < per_hour; ++k) {
      attacks.push_back(make_attack(
          id_base + h * 100 + k, family,
          kWs + static_cast<trace::EpochSeconds>(h * 3600 +
                                                 k * (3600 / per_hour))));
    }
  }
  return csv_of(trace::Dataset(families, std::move(attacks), {}, kWs));
}

// --- CorrectedEma -----------------------------------------------------------

TEST(CorrectedEma, FirstSampleIsReportedExactly) {
  CorrectedEma ema(0.2);
  EXPECT_FALSE(ema.warm());
  EXPECT_DOUBLE_EQ(ema.value(), 0.0);
  ema.update(5.0);
  // The raw EMA would report alpha * 5 = 1.0; the bias correction divides
  // by the same decay applied to a constant-1 signal and recovers 5.0.
  EXPECT_TRUE(ema.warm());
  EXPECT_DOUBLE_EQ(ema.value(), 5.0);
}

TEST(CorrectedEma, ConstantSignalStaysExactAtEveryStep) {
  CorrectedEma ema(0.1);
  for (int i = 0; i < 50; ++i) {
    ema.update(-3.25);
    EXPECT_DOUBLE_EQ(ema.value(), -3.25) << "step " << i;
  }
}

TEST(CorrectedEma, TracksALevelShift) {
  CorrectedEma ema(0.3);
  for (int i = 0; i < 20; ++i) ema.update(1.0);
  for (int i = 0; i < 20; ++i) ema.update(10.0);
  EXPECT_GT(ema.value(), 9.0);
  EXPECT_LT(ema.value(), 10.0);
}

// --- SnapshotLog ------------------------------------------------------------

TEST(SnapshotLog, AppendsValidatesAndAccumulates) {
  TempDir tmp;
  SnapshotLog log(tmp.path);
  EXPECT_TRUE(log.empty());

  const std::vector<std::string> families = {"BotA", "BotB"};
  const AppendOutcome base =
      log.append(1, snapshot_csv(families, 0, 0, 1, 2, 1000));
  EXPECT_EQ(base.status, AppendStatus::kAccepted);
  const AppendOutcome next =
      log.append(2, snapshot_csv(families, 1, 2, 2, 3, 2000));
  EXPECT_EQ(next.status, AppendStatus::kAccepted);

  ASSERT_EQ(log.segments().size(), 2u);
  EXPECT_EQ(log.last_hour(), 2u);
  const trace::Dataset cumulative = log.cumulative();
  EXPECT_EQ(cumulative.size(), 4u + 3u);
  EXPECT_EQ(cumulative.window_start(), kWs);
  EXPECT_EQ(cumulative.family_names(), families);
}

TEST(SnapshotLog, RepairableSnapshotIsStoredCanonically) {
  TempDir tmp;
  SnapshotLog log(tmp.path);
  const std::vector<std::string> families = {"BotA"};
  ASSERT_EQ(log.append(1, snapshot_csv(families, 0, 0, 1, 1, 10)).status,
            AppendStatus::kAccepted);

  // A negative duration: Dataset construction repairs it (zeroed), so the
  // append reports kRepaired and stores the repaired canonical form.
  std::vector<trace::Attack> attacks = {
      make_attack(500, 0, kWs + 2 * 3600 + 60, -100.0)};
  const std::string dirty =
      csv_of(trace::Dataset(families, std::move(attacks), {}, kWs));
  // save_csv canonicalizes, so inject the bad value into the raw text.
  std::string raw = dirty;
  const auto pos = raw.rfind(",0,");  // ...,duration 0 (already repaired)
  ASSERT_NE(pos, std::string::npos);
  raw.replace(pos, 3, ",-100,");
  const AppendOutcome out = log.append(2, raw);
  EXPECT_EQ(out.status, AppendStatus::kRepaired);
  EXPECT_EQ(out.validation.negative_durations, 1u);
  // The stored segment parses clean: replaying the log re-validates nothing.
  const trace::Dataset cumulative = log.cumulative();
  EXPECT_TRUE(cumulative.validation().clean());
  EXPECT_DOUBLE_EQ(cumulative.attacks().back().duration_s, 0.0);
}

TEST(SnapshotLog, RejectsWindowStartMismatchWithQuarantine) {
  TempDir tmp;
  SnapshotLog log(tmp.path);
  const std::vector<std::string> families = {"BotA"};
  ASSERT_EQ(log.append(1, snapshot_csv(families, 0, 0, 1, 1, 10)).status,
            AppendStatus::kAccepted);

  std::vector<trace::Attack> attacks = {make_attack(600, 0, kWs + 9999)};
  const std::string other_ws =
      csv_of(trace::Dataset(families, std::move(attacks), {}, kWs + 7));
  const AppendOutcome out = log.append(2, other_ws);
  EXPECT_EQ(out.status, AppendStatus::kRejected);
  EXPECT_NE(out.detail.find("window_start"), std::string::npos);
  EXPECT_FALSE(out.quarantined_to.empty());
  EXPECT_TRUE(fs::exists(out.quarantined_to));
  EXPECT_TRUE(same_bytes(durable::read_file(out.quarantined_to), other_ws));
  EXPECT_EQ(log.segments().size(), 1u);
}

TEST(SnapshotLog, RejectsContradictingFamilyListButAllowsExtension) {
  TempDir tmp;
  SnapshotLog log(tmp.path);
  ASSERT_EQ(log.append(1, snapshot_csv({"BotA", "BotB"}, 0, 0, 1, 1, 10))
                .status,
            AppendStatus::kAccepted);

  // Index 0 would silently remap from BotA to BotX: rejected.
  EXPECT_EQ(log.append(2, snapshot_csv({"BotX", "BotB"}, 0, 2, 2, 1, 20))
                .status,
            AppendStatus::kRejected);
  // Extending the list keeps existing indices stable: accepted.
  EXPECT_EQ(log.append(2, snapshot_csv({"BotA", "BotB", "BotC"}, 2, 2, 2, 1,
                                       30))
                .status,
            AppendStatus::kAccepted);
  EXPECT_EQ(log.cumulative().family_names().size(), 3u);
}

TEST(SnapshotLog, UnparseableSnapshotIsRejected) {
  TempDir tmp;
  SnapshotLog log(tmp.path);
  const AppendOutcome out = log.append(1, "this is not a dataset\n");
  EXPECT_EQ(out.status, AppendStatus::kRejected);
  EXPECT_NE(out.detail.find("unparseable"), std::string::npos);
  EXPECT_TRUE(log.empty());
}

TEST(SnapshotLog, SnapshotTruncatedMidRowIsRejectedAndQuarantined) {
  TempDir tmp;
  SnapshotLog log(tmp.path);
  const std::vector<std::string> families = {"BotA"};
  ASSERT_EQ(log.append(1, snapshot_csv(families, 0, 0, 1, 1, 10)).status,
            AppendStatus::kAccepted);

  // Cuts in the last row: one byte into its duration field ("600" -> "6"),
  // right after a ';' in the bots, and inside the last bot's last octet
  // ("10.1.0.12" -> "10.1.0.1"). Each leaves a prefix of valid fields.
  std::vector<trace::Attack> attacks = {
      make_attack(20, 0, kWs + 2 * 3600),
      make_attack(21, 0, kWs + 3 * 3600, 600.0, /*bots=*/12)};
  const std::string full =
      csv_of(trace::Dataset(families, std::move(attacks), {}, kWs));
  const std::size_t last_row = full.rfind('\n', full.size() - 2) + 1;
  std::size_t duration = last_row;
  for (int comma = 0; comma < 5; ++comma) duration = full.find(',', duration) + 1;
  ASSERT_EQ(full.substr(full.size() - 11), ";10.1.0.12\n");
  const std::vector<std::size_t> cuts = {duration + 1, full.size() - 10,
                                         full.size() - 2};

  std::size_t hour = 2;
  for (const std::size_t cut : cuts) {
    const std::string truncated = full.substr(0, cut);
    const AppendOutcome out = log.append(hour++, truncated);
    EXPECT_EQ(out.status, AppendStatus::kRejected) << "cut at " << cut;
    EXPECT_NE(out.detail.find("unparseable"), std::string::npos);
    EXPECT_FALSE(out.quarantined_to.empty());
    if (!out.quarantined_to.empty()) {
      EXPECT_TRUE(
          same_bytes(durable::read_file(out.quarantined_to), truncated));
    }
  }
  EXPECT_EQ(log.segments().size(), 1u);
}

TEST(SnapshotLog, DuplicateHourIsIdempotent) {
  TempDir tmp;
  SnapshotLog log(tmp.path);
  const std::vector<std::string> families = {"BotA"};
  const std::string snap = snapshot_csv(families, 0, 0, 1, 1, 10);
  ASSERT_EQ(log.append(3, snap).status, AppendStatus::kAccepted);
  const std::string before = durable::read_file(tmp.path / "snapshots.log");

  EXPECT_EQ(log.append(3, snap).status, AppendStatus::kDuplicate);
  EXPECT_EQ(log.append(2, snap).status, AppendStatus::kDuplicate);
  EXPECT_EQ(log.segments().size(), 1u);
  EXPECT_TRUE(
      same_bytes(durable::read_file(tmp.path / "snapshots.log"), before));
}

TEST(SnapshotLog, TornTailIsTruncatedOnRecovery) {
  TempDir tmp;
  const std::vector<std::string> families = {"BotA"};
  std::string intact;
  {
    SnapshotLog log(tmp.path);
    ASSERT_EQ(log.append(1, snapshot_csv(families, 0, 0, 1, 1, 10)).status,
              AppendStatus::kAccepted);
    ASSERT_EQ(log.append(2, snapshot_csv(families, 0, 2, 2, 1, 20)).status,
              AppendStatus::kAccepted);
    intact = durable::read_file(tmp.path / "snapshots.log");
  }
  // A crash mid-append leaves a half-written record at the tail.
  {
    std::ofstream os(tmp.path / "snapshots.log",
                     std::ios::binary | std::ios::app);
    os << "ACBMF1 ingest_segment v1 len=500 crc32c=deadbeef\nhour=3\ntrunc";
  }
  SnapshotLog recovered(tmp.path);
  EXPECT_GT(recovered.recovery().torn_tail_bytes, 0u);
  EXPECT_EQ(recovered.recovery().quarantined_ranges, 0u);
  ASSERT_EQ(recovered.segments().size(), 2u);
  EXPECT_TRUE(
      same_bytes(durable::read_file(tmp.path / "snapshots.log"), intact));
  // The log accepts the hour's retry after recovery.
  EXPECT_EQ(recovered.append(3, snapshot_csv(families, 0, 3, 3, 1, 30)).status,
            AppendStatus::kAccepted);
}

TEST(SnapshotLog, InteriorCorruptionIsQuarantinedAndTheLogCompacts) {
  TempDir tmp;
  const std::vector<std::string> families = {"BotA"};
  {
    SnapshotLog log(tmp.path);
    for (std::size_t h = 1; h <= 3; ++h) {
      ASSERT_EQ(log.append(h, snapshot_csv(families, 0, h, h, 1, h * 100))
                    .status,
                AppendStatus::kAccepted);
    }
  }
  // Bit rot inside the second segment's payload (past its header line).
  const fs::path log_path = tmp.path / "snapshots.log";
  std::string bytes = durable::read_file(log_path);
  const auto second = bytes.find("ACBMF1", 1);
  ASSERT_NE(second, std::string::npos);
  bytes[second + 64] ^= 0x40;
  std::ofstream(log_path, std::ios::binary | std::ios::trunc) << bytes;

  SnapshotLog recovered(tmp.path);
  EXPECT_GE(recovered.recovery().quarantined_ranges, 1u);
  ASSERT_FALSE(recovered.recovery().quarantine_path.empty());
  EXPECT_TRUE(fs::exists(recovered.recovery().quarantine_path));
  ASSERT_EQ(recovered.segments().size(), 2u);
  EXPECT_EQ(recovered.segments()[0].hour, 1u);
  EXPECT_EQ(recovered.segments()[1].hour, 3u);

  // The compacted log is clean: a further reopen recovers nothing.
  SnapshotLog reopened(tmp.path);
  EXPECT_EQ(reopened.recovery().torn_tail_bytes, 0u);
  EXPECT_EQ(reopened.recovery().quarantined_ranges, 0u);
  EXPECT_EQ(reopened.segments().size(), 2u);
}

TEST(SnapshotLog, AppendFaultLandsNoBytesAndRetryConverges) {
  FaultGuard guard;
  TempDir tmp;
  SnapshotLog log(tmp.path);
  const std::vector<std::string> families = {"BotA"};
  ASSERT_EQ(log.append(1, snapshot_csv(families, 0, 0, 1, 1, 10)).status,
            AppendStatus::kAccepted);
  const std::string before = durable::read_file(tmp.path / "snapshots.log");

  FaultInjector::instance().configure("ingest.append:hour=2");
  const std::string snap = snapshot_csv(families, 0, 2, 2, 1, 20);
  EXPECT_THROW((void)log.append(2, snap), durable::WriteFailure);
  EXPECT_TRUE(
      same_bytes(durable::read_file(tmp.path / "snapshots.log"), before));

  FaultInjector::instance().clear();
  EXPECT_EQ(log.append(2, snap).status, AppendStatus::kAccepted);
  EXPECT_EQ(log.last_hour(), 2u);
}

TEST(SnapshotLog, TornTailFaultThenReopenConverges) {
  FaultGuard guard;
  TempDir tmp;
  const std::vector<std::string> families = {"BotA"};
  const std::string snap = snapshot_csv(families, 0, 2, 2, 1, 20);
  {
    SnapshotLog log(tmp.path);
    ASSERT_EQ(log.append(1, snapshot_csv(families, 0, 0, 1, 1, 10)).status,
              AppendStatus::kAccepted);
    FaultInjector::instance().configure("ingest.torn_tail:hour=2");
    EXPECT_THROW((void)log.append(2, snap), durable::WriteFailure);
  }
  FaultInjector::instance().clear();
  SnapshotLog recovered(tmp.path);
  EXPECT_GT(recovered.recovery().torn_tail_bytes, 0u);
  EXPECT_EQ(recovered.segments().size(), 1u);
  EXPECT_EQ(recovered.append(2, snap).status, AppendStatus::kAccepted);
  EXPECT_EQ(recovered.cumulative().size(), 3u);
}

// --- The mapped log -------------------------------------------------------

/// Every segment's hour and block, one "hour=<h> bytes=<n>" line and the
/// block's bytes each, for comparing a log's segments with what was
/// appended after the views were re-taken.
std::string segment_bytes(const SnapshotLog& log) {
  std::string out;
  for (const Segment& s : log.segments()) {
    out += "hour=" + std::to_string(s.hour) +
           " bytes=" + std::to_string(s.block.size()) + "\n";
    out += s.block;
  }
  return out;
}

/// The binary block of `dataset`, as one string.
std::string block_of(const trace::Dataset& dataset) {
  std::string out;
  for (const std::string& part : dataset.binary_parts()) out += part;
  return out;
}

/// What segment_bytes shows for `snapshot` appended at `hour`: the block of
/// its canonical dataset.
std::string canonical(std::size_t hour, std::string_view snapshot) {
  const std::string block = block_of(trace::Dataset::load_csv(snapshot));
  return "hour=" + std::to_string(hour) +
         " bytes=" + std::to_string(block.size()) + "\n" + block;
}

/// The cumulative dataset as a per-segment merge: each segment decoded on
/// its own, its attacks gathered into one list, the longest family list,
/// one construction of the union.
trace::Dataset per_segment_merge(const SnapshotLog& log) {
  std::vector<std::string> families;
  std::vector<trace::Attack> attacks;
  trace::EpochSeconds window_start = 0;
  for (std::size_t i = 0; i < log.segments().size(); ++i) {
    const std::string_view block = log.segments()[i].block;
    trace::Dataset d = trace::Dataset::load_binary(std::span(&block, 1));
    if (i == 0) window_start = d.window_start();
    if (d.family_names().size() > families.size()) families = d.family_names();
    attacks.insert(attacks.end(), d.attacks().begin(), d.attacks().end());
  }
  return trace::Dataset(std::move(families), std::move(attacks), {},
                        window_start);
}

void expect_same_dataset(const trace::Dataset& got,
                         const trace::Dataset& want) {
  EXPECT_TRUE(same_bytes(csv_of(got), csv_of(want)));
  EXPECT_EQ(got.family_names(), want.family_names());
  EXPECT_EQ(got.window_start(), want.window_start());
  EXPECT_EQ(got.validation().nonfinite_durations,
            want.validation().nonfinite_durations);
  EXPECT_EQ(got.validation().negative_durations,
            want.validation().negative_durations);
  EXPECT_EQ(got.validation().out_of_order, want.validation().out_of_order);
  EXPECT_EQ(got.validation().duplicate_ids, want.validation().duplicate_ids);
  for (std::uint32_t f = 0; f < want.family_names().size(); ++f) {
    EXPECT_EQ(got.attacks_of_family(f), want.attacks_of_family(f));
  }
}

TEST(SnapshotLog, MappedSegmentsSurviveTornTailTruncation) {
  TempDir tmp;
  const std::vector<std::string> families = {"BotA", "BotB"};
  std::string appended;
  {
    SnapshotLog log(tmp.path);
    for (std::size_t h = 1; h <= 3; ++h) {
      const std::string snap =
          snapshot_csv(families, static_cast<std::uint32_t>(h % 2), h, h, 2,
                       h * 100);
      ASSERT_EQ(log.append(h, snap).status, AppendStatus::kAccepted);
      appended += canonical(h, snap);
    }
    EXPECT_TRUE(same_bytes(segment_bytes(log), appended));
  }
  {
    std::ofstream os(tmp.path / "snapshots.log",
                     std::ios::binary | std::ios::app);
    os << "ACBMF1 ingest_segment v1 len=900 crc32c=0badf00d\nhour=4\n#win";
  }
  SnapshotLog recovered(tmp.path);
  EXPECT_EQ(recovered.recovery().torn_tail_bytes,
            std::string_view("ACBMF1 ingest_segment v1 len=900 "
                             "crc32c=0badf00d\nhour=4\n#win")
                .size());
  EXPECT_EQ(recovered.recovery().quarantined_ranges, 0u);
  EXPECT_TRUE(recovered.recovery().quarantine_path.empty());
  EXPECT_TRUE(same_bytes(segment_bytes(recovered), appended));
  expect_same_dataset(recovered.cumulative(), per_segment_merge(recovered));

  // An append after the repair, then a reopen, sees every segment.
  const std::string snap = snapshot_csv(families, 0, 4, 4, 1, 400);
  ASSERT_EQ(recovered.append(4, snap).status, AppendStatus::kAccepted);
  appended += canonical(4, snap);
  EXPECT_TRUE(same_bytes(segment_bytes(recovered), appended));
  const SnapshotLog reopened(tmp.path);
  EXPECT_EQ(reopened.recovery().torn_tail_bytes, 0u);
  EXPECT_TRUE(same_bytes(segment_bytes(reopened), appended));
  EXPECT_EQ(reopened.cumulative().size(), 2u + 2u + 2u + 1u);
}

TEST(SnapshotLog, MappedSegmentsSurviveCompaction) {
  TempDir tmp;
  TempDir clean;  // The same surviving hours appended to a fresh log.
  const std::vector<std::string> families = {"BotA"};
  std::string survivors;
  {
    SnapshotLog log(tmp.path);
    SnapshotLog reference(clean.path);
    for (std::size_t h = 1; h <= 4; ++h) {
      const std::string snap = snapshot_csv(families, 0, h, h, 2, h * 100);
      ASSERT_EQ(log.append(h, snap).status, AppendStatus::kAccepted);
      if (h == 2) continue;
      ASSERT_EQ(reference.append(h, snap).status, AppendStatus::kAccepted);
      survivors += canonical(h, snap);
    }
  }
  // Bit rot inside the second segment's payload.
  const fs::path log_path = tmp.path / "snapshots.log";
  std::string bytes = durable::read_file(log_path);
  const std::size_t second = bytes.find("ACBMF1", 1);
  const std::size_t third = bytes.find("ACBMF1", second + 1);
  ASSERT_NE(third, std::string::npos);
  bytes[second + 80] ^= 0x04;
  std::ofstream(log_path, std::ios::binary | std::ios::trunc) << bytes;

  SnapshotLog recovered(tmp.path);
  EXPECT_EQ(recovered.recovery().quarantined_ranges, 1u);
  EXPECT_EQ(recovered.recovery().torn_tail_bytes, 0u);
  ASSERT_FALSE(recovered.recovery().quarantine_path.empty());
  EXPECT_TRUE(same_bytes(
      durable::read_file(recovered.recovery().quarantine_path),
      bytes.substr(second, third - second)));
  EXPECT_TRUE(same_bytes(segment_bytes(recovered), survivors));
  // The compacted log is byte-equal to one that only ever held the
  // survivors.
  EXPECT_TRUE(same_bytes(durable::read_file(log_path),
                         durable::read_file(clean.path / "snapshots.log")));
  expect_same_dataset(recovered.cumulative(), per_segment_merge(recovered));

  const std::string snap = snapshot_csv(families, 0, 5, 5, 1, 500);
  ASSERT_EQ(recovered.append(5, snap).status, AppendStatus::kAccepted);
  survivors += canonical(5, snap);
  const SnapshotLog reopened(tmp.path);
  EXPECT_EQ(reopened.recovery().quarantined_ranges, 0u);
  EXPECT_TRUE(same_bytes(segment_bytes(reopened), survivors));
}

TEST(SnapshotLog, MovedLogKeepsWorkingViews) {
  TempDir tmp;
  const std::vector<std::string> families = {"BotA"};
  {
    SnapshotLog log(tmp.path);
    ASSERT_EQ(log.append(1, snapshot_csv(families, 0, 0, 1, 2, 10)).status,
              AppendStatus::kAccepted);
  }
  // Segment 1 is a view into the mapping, segment 2 into owned storage.
  SnapshotLog log(tmp.path);
  ASSERT_EQ(log.append(2, snapshot_csv(families, 0, 2, 2, 1, 20)).status,
            AppendStatus::kAccepted);
  const auto expected = segment_bytes(log);
  const std::string cumulative = csv_of(log.cumulative());

  SnapshotLog moved(std::move(log));
  EXPECT_TRUE(same_bytes(segment_bytes(moved), expected));
  EXPECT_TRUE(same_bytes(csv_of(moved.cumulative()), cumulative));

  TempDir other;
  SnapshotLog assigned(other.path);
  assigned = std::move(moved);
  EXPECT_TRUE(same_bytes(segment_bytes(assigned), expected));
  EXPECT_TRUE(same_bytes(csv_of(assigned.cumulative()), cumulative));
  EXPECT_EQ(assigned.dir(), tmp.path);
  ASSERT_EQ(assigned.append(3, snapshot_csv(families, 0, 3, 3, 1, 30)).status,
            AppendStatus::kAccepted);
  EXPECT_EQ(SnapshotLog(tmp.path).segments().size(), 3u);
}

TEST(SnapshotLog, CumulativeEqualsThePerSegmentMerge) {
  TempDir tmp;
  SnapshotLog log(tmp.path);
  ASSERT_EQ(log.append(1, snapshot_csv({"BotA", "BotB"}, 0, 0, 1, 3, 1000))
                .status,
            AppendStatus::kAccepted);
  // A repaired snapshot: a NaN duration and rows out of order.
  std::string repaired = snapshot_csv({"BotA", "BotB"}, 1, 2, 3, 2, 2000);
  {
    std::vector<std::string> lines;
    std::istringstream is(repaired);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
    ASSERT_GE(lines.size(), 5u);
    std::swap(lines[3], lines.back());
    std::string& row = lines[4];
    std::size_t at = 0;
    for (int comma = 0; comma < 5; ++comma) at = row.find(',', at) + 1;
    row.replace(at, row.find(',', at) - at, "nan");
    repaired.clear();
    for (const std::string& line : lines) repaired += line + "\n";
  }
  const AppendOutcome fixed = log.append(3, repaired);
  ASSERT_EQ(fixed.status, AppendStatus::kRepaired);
  EXPECT_EQ(fixed.validation.nonfinite_durations, 1u);
  EXPECT_GT(fixed.validation.out_of_order, 0u);
  // A family-list extension, and an id the base segment already used.
  std::vector<trace::Attack> attacks = {
      make_attack(1000, 2, kWs + 4 * 3600 + 5),
      make_attack(3001, 0, kWs + 4 * 3600 + 9)};
  ASSERT_EQ(log.append(4, csv_of(trace::Dataset({"BotA", "BotB", "BotC"},
                                                std::move(attacks), {}, kWs)))
                .status,
            AppendStatus::kAccepted);

  const trace::Dataset reference = per_segment_merge(log);
  EXPECT_EQ(reference.validation().duplicate_ids, 1u);
  EXPECT_EQ(reference.family_names().size(), 3u);
  expect_same_dataset(log.cumulative(), reference);
  // The same from the mapped log of a fresh reader.
  const SnapshotLog reopened(tmp.path);
  expect_same_dataset(reopened.cumulative(), reference);
}

TEST(SnapshotLog, HandFramedMalformedBlockThrowsTheLoadBinaryMessage) {
  const std::vector<std::string> families = {"BotA", "BotB"};
  const std::string good = block_of(
      trace::Dataset::load_csv(snapshot_csv(families, 1, 2, 2, 2, 200)));
  // Offsets in the block of two four-byte names: the probe, the family
  // count and names, window_start, the attack and bot counts, then the
  // first attack record (its family at +8, its bot count at +36).
  constexpr std::size_t kRecordsAt = 4 + 8 + (8 + 4) * 2 + 8 + 8 + 8;
  const auto with = [&](std::size_t at, auto value) {
    std::string bytes = good;
    std::memcpy(bytes.data() + at, &value, sizeof(value));
    return bytes;
  };
  const std::vector<std::string> bad_blocks = {
      with(kRecordsAt + 8, std::uint32_t{2}),   // Family 2 of a 2-name list.
      with(kRecordsAt + 36, std::uint64_t{2}),  // Bot counts short of total.
      good.substr(0, good.size() - 1),          // Cut one byte short.
      good + '\0',                              // One byte left over.
  };
  for (const std::string& bad : bad_blocks) {
    std::string want;
    try {
      const std::string_view view = bad;
      (void)trace::Dataset::load_binary(std::span(&view, 1));
      ADD_FAILURE() << "load_binary accepted the bad block";
    } catch (const std::invalid_argument& e) {
      want = e.what();
    }
    TempDir tmp;
    {
      SnapshotLog log(tmp.path);
      ASSERT_EQ(log.append(1, snapshot_csv(families, 0, 0, 1, 1, 10)).status,
                AppendStatus::kAccepted);
    }
    {
      std::ofstream os(tmp.path / "snapshots.log",
                       std::ios::binary | std::ios::app);
      os << durable::frame_payload("ingest_segment", 2, "hour=2\n" + bad);
    }
    const SnapshotLog log(tmp.path);
    ASSERT_EQ(log.segments().size(), 2u);  // The frame itself is intact.
    EXPECT_EQ(log.recovery().torn_tail_bytes, 0u);
    try {
      (void)log.cumulative();
      ADD_FAILURE() << "cumulative() accepted the bad segment";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  }
}

TEST(SnapshotLog, IntactSegmentOfThePreviousFormatIsRefusedUntouched) {
  // A log the CSV-segment build wrote: intact v1 frames. The open refuses
  // it as version_unsupported, naming the remedy, and repairs nothing:
  // neither a later torn tail nor a corrupt range before a v1 frame.
  const std::vector<std::string> families = {"BotA"};
  const std::string v1 =
      durable::frame_payload("ingest_segment", 1,
                             "hour=1\n" + snapshot_csv(families, 0, 0, 1, 1,
                                                       10));
  std::string v2_log;
  {
    TempDir tmp;
    SnapshotLog log(tmp.path);
    ASSERT_EQ(log.append(1, snapshot_csv(families, 0, 0, 1, 1, 10)).status,
              AppendStatus::kAccepted);
    v2_log = durable::read_file(tmp.path / "snapshots.log");
  }
  const std::vector<std::string> logs = {
      v1,                                                  // A v1 log.
      v1 + "ACBMF1 ingest_segment v1 len=500 crc32c=0\nhour=2\n",  // Torn.
      v2_log + "bit rot\n" + v1,  // Resync lands on a v1 frame.
  };
  for (const std::string& bytes : logs) {
    TempDir tmp;
    const fs::path log_path = tmp.path / "snapshots.log";
    durable::atomic_write_file(log_path, bytes);
    try {
      const SnapshotLog log(tmp.path);
      ADD_FAILURE() << "a log holding a v1 segment opened";
    } catch (const durable::LoadFailure& e) {
      EXPECT_EQ(e.code(), durable::LoadError::kVersionUnsupported);
      EXPECT_NE(std::string(e.what()).find("ingest_segment v1"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("--export-dataset"),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(same_bytes(durable::read_file(log_path), bytes));
    for (const auto& entry : fs::directory_iterator(tmp.path)) {
      EXPECT_EQ(entry.path().filename(), "snapshots.log")
          << "the refused open left " << entry.path();
    }
  }
}

// --- Drift detection --------------------------------------------------------

/// Baseline for a family launching `rate` attacks/hour of magnitude 3.
FamilyDriftBaseline baseline_of(std::uint32_t family, double rate) {
  FamilyDriftBaseline b;
  b.family = family;
  b.hours = 100.0;
  b.rate_mean = rate;
  b.rate_std = 0.1;
  b.magnitude_mean = 3.0;
  b.magnitude_std = 1.0;
  b.interval_mean = 3600.0 / rate;
  b.interval_residual_std = 1e9;  // Interval channel neutralized.
  return b;
}

trace::Dataset steady_then_spike(std::size_t steady_hours,
                                 std::size_t spike_hours,
                                 std::size_t spike_rate) {
  std::vector<trace::Attack> attacks;
  std::uint64_t id = 1;
  for (std::size_t h = 0; h < steady_hours; ++h) {
    attacks.push_back(make_attack(id++, 0, kWs + h * 3600 + 100));
  }
  for (std::size_t h = steady_hours; h < steady_hours + spike_hours; ++h) {
    for (std::size_t k = 0; k < spike_rate; ++k) {
      attacks.push_back(
          make_attack(id++, 0, kWs + h * 3600 + k * (3600 / spike_rate)));
    }
  }
  return trace::Dataset({"BotA"}, std::move(attacks), {}, kWs);
}

TEST(DetectDrift, SteadyTrafficMatchingTheBaselineNeverTrips) {
  const trace::Dataset data = steady_then_spike(48, 0, 0);
  DriftPolicy policy;
  const auto trips =
      detect_drift(data, {baseline_of(0, 1.0)}, 0, 47, policy);
  EXPECT_TRUE(trips.empty());
}

TEST(DetectDrift, RateSpikeTripsAfterKConsecutiveHours) {
  const trace::Dataset data = steady_then_spike(24, 12, 6);
  DriftPolicy policy;
  policy.alpha = 0.5;
  policy.consecutive_hours = 3;
  const auto trips =
      detect_drift(data, {baseline_of(0, 1.0)}, 0, 35, policy);
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0].family, 0u);
  EXPECT_EQ(trips[0].channel, "rate");
  // Spike starts at hour 24; the third consecutive divergent hour is 26.
  EXPECT_EQ(trips[0].hour, 26u);
  EXPECT_GT(trips[0].z, policy.z_threshold);
}

TEST(DetectDrift, ReplayAfterAServingRefitDoesNotRefire) {
  const trace::Dataset data = steady_then_spike(24, 12, 6);
  DriftPolicy policy;
  policy.alpha = 0.5;
  // served_hour at the log tail: every trip in the replay was served.
  EXPECT_TRUE(
      detect_drift(data, {baseline_of(0, 1.0)}, 35, 35, policy).empty());
  // served mid-spike: the monitor re-trips on the still-divergent tail.
  const auto trips =
      detect_drift(data, {baseline_of(0, 1.0)}, 30, 35, policy);
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_GT(trips[0].hour, 30u);
}

TEST(DetectDrift, FamilyWithoutABaselineNeverTrips) {
  const trace::Dataset data = steady_then_spike(24, 12, 6);
  EXPECT_TRUE(detect_drift(data, {}, 0, 35, DriftPolicy{}).empty());
}

TEST(DetectDrift, FalseTripFaultForcesATrip) {
  FaultGuard guard;
  const trace::Dataset data = steady_then_spike(24, 0, 0);
  FaultInjector::instance().configure("drift.false_trip:family=BotA");
  const auto trips =
      detect_drift(data, {baseline_of(0, 1.0)}, 0, 23, DriftPolicy{});
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0].channel, "injected");
  EXPECT_EQ(trips[0].family, 0u);
}

// --- Ingestor ---------------------------------------------------------------

/// One small world shared by every Ingestor test in this binary.
struct IngestWorld {
  trace::World world;
  IngestWorld() {
    trace::WorldOptions opts = trace::small_world_options(11);
    opts.generator.days = 8;
    world = trace::build_world(opts);
  }
};

const IngestWorld& ingest_world() {
  static const IngestWorld w;
  return w;
}

IngestorOptions options_for(const fs::path& dir) {
  IngestorOptions opts;
  opts.dir = dir;
  opts.model.spatial.grid_search = false;  // Matches the CLI fit config.
  opts.refit_backoff_ms = 0;
  return opts;
}

/// The framed bytes a cold full fit publishes for `dataset`.
std::string cold_fit_bytes(const trace::Dataset& dataset,
                           const net::IpToAsnMap& ip_map) {
  SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  AdversaryModel model(opts);
  model.fit(dataset, ip_map);
  std::ostringstream os;
  model.save_framed(os);
  return os.str();
}

/// A drift-spike snapshot for the world's family 0 in [first, last] hours.
std::string world_spike_csv(std::size_t first_hour, std::size_t last_hour,
                            std::size_t per_hour, std::uint64_t id_base) {
  const trace::Dataset& base = ingest_world().world.dataset;
  std::vector<trace::Attack> attacks;
  for (std::size_t h = first_hour; h <= last_hour; ++h) {
    for (std::size_t k = 0; k < per_hour; ++k) {
      attacks.push_back(make_attack(
          id_base + h * 100 + k, 0,
          base.window_start() +
              static_cast<trace::EpochSeconds>(h * 3600 +
                                               k * (3600 / per_hour))));
    }
  }
  return csv_of(trace::Dataset(base.family_names(), std::move(attacks), {},
                               base.window_start()));
}

TEST(Ingestor, InitPublishesAModelByteIdenticalToAColdFit) {
  TempDir tmp;
  Ingestor ingestor(options_for(tmp.path));
  EXPECT_FALSE(ingestor.initialized());
  EXPECT_THROW((void)ingestor.check_and_refit(false), std::logic_error);

  ingestor.init(ingest_world().world.dataset, ingest_world().world.ip_map);
  EXPECT_TRUE(ingestor.initialized());
  EXPECT_THROW(ingestor.init(ingest_world().world.dataset,
                             ingest_world().world.ip_map),
               std::logic_error);

  EXPECT_TRUE(same_bytes(durable::read_file(ingestor.model_path()),
                         cold_fit_bytes(ingestor.log().cumulative(),
                                        ingest_world().world.ip_map)));
}

TEST(Ingestor, IncrementalRefitIsByteIdenticalToColdFitAcrossThreadCounts) {
  FaultGuard guard;
  const std::size_t base_hours = 8 * 24;
  std::string reference;  // t=1 published bytes; all counts must match it.
  for (const std::size_t threads : {1UL, 3UL, 8UL}) {
    set_num_threads(threads);
    TempDir tmp;
    Ingestor ingestor(options_for(tmp.path));
    ingestor.init(ingest_world().world.dataset, ingest_world().world.ip_map);

    const std::size_t hour = base_hours + 1;
    ASSERT_EQ(ingestor.append(hour, world_spike_csv(base_hours, hour, 4,
                                                    900000))
                  .status,
              AppendStatus::kAccepted)
        << "threads=" << threads;
    const RefitResult result = ingestor.check_and_refit(/*force=*/true);
    ASSERT_TRUE(result.published) << "threads=" << threads << ": "
                                  << result.error;
    // Only family 0's temporal stage plus the downstream spatial and tree
    // stages changed — not every family's.
    EXPECT_EQ(result.stages_invalidated, 3u) << "threads=" << threads;
    EXPECT_EQ(ingestor.last_refit_hour(), hour);

    const std::string published = durable::read_file(ingestor.model_path());
    EXPECT_TRUE(same_bytes(published,
                           cold_fit_bytes(ingestor.log().cumulative(),
                                          ingest_world().world.ip_map)))
        << "threads=" << threads;
    if (reference.empty()) {
      reference = published;
    } else {
      EXPECT_TRUE(same_bytes(published, reference)) << "threads=" << threads;
    }
  }
}

TEST(Ingestor, RefitRetriesPastAnInjectedFailure) {
  FaultGuard guard;
  TempDir tmp;
  Ingestor ingestor(options_for(tmp.path));
  ingestor.init(ingest_world().world.dataset, ingest_world().world.ip_map);

  FaultInjector::instance().configure("refit.fail:attempt=0");
  const RefitResult result = ingestor.check_and_refit(/*force=*/true);
  EXPECT_TRUE(result.published);
  EXPECT_EQ(result.retries, 1);
  EXPECT_FALSE(result.fallback);
}

TEST(Ingestor, ExhaustedRetriesKeepThePreviousGenerationLive) {
  FaultGuard guard;
  TempDir tmp;
  IngestorOptions opts = options_for(tmp.path);
  opts.refit_max_retries = 1;
  Ingestor ingestor(opts);
  ingestor.init(ingest_world().world.dataset, ingest_world().world.ip_map);
  const std::string before = durable::read_file(ingestor.model_path());

  FaultInjector::instance().configure("refit.fail");
  const RefitResult result = ingestor.check_and_refit(/*force=*/true);
  EXPECT_TRUE(result.attempted);
  EXPECT_FALSE(result.published);
  EXPECT_TRUE(result.fallback);
  EXPECT_EQ(result.retries, 1);
  EXPECT_NE(result.error.find("refit.fail"), std::string::npos);
  // "Never serve nothing": the previous generation is untouched.
  EXPECT_TRUE(same_bytes(durable::read_file(ingestor.model_path()), before));

  FaultInjector::instance().clear();
  EXPECT_TRUE(ingestor.check_and_refit(/*force=*/true).published);
}

TEST(Ingestor, PublicationKeepsAPreviousGenerationOnDisk) {
  TempDir tmp;
  Ingestor ingestor(options_for(tmp.path));
  ingestor.init(ingest_world().world.dataset, ingest_world().world.ip_map);
  const std::string gen1 = durable::read_file(ingestor.model_path());

  ASSERT_EQ(ingestor.append(8 * 24 + 1,
                            world_spike_csv(8 * 24, 8 * 24 + 1, 2, 910000))
                .status,
            AppendStatus::kAccepted);
  ASSERT_TRUE(ingestor.check_and_refit(/*force=*/true).published);

  const fs::path g1 = tmp.path / "model.art.g1";
  ASSERT_TRUE(fs::exists(g1));
  EXPECT_TRUE(same_bytes(durable::read_file(g1), gen1));
  // The previous generation still loads as a complete model.
  std::ifstream is(g1, std::ios::binary);
  EXPECT_NO_THROW((void)AdversaryModel::load_framed(is));
}

TEST(Ingestor, CorruptDatasetBlockFailsTheDriftCheckAfterADurableAppend) {
  TempDir tmp;
  Ingestor ingestor(options_for(tmp.path));
  ingestor.init(ingest_world().world.dataset, ingest_world().world.ip_map);

  // Flip one bit in the middle of the binary dataset block. The drift
  // check parses only the body head, so only the CRC over the whole
  // payload can notice.
  std::string model = durable::read_file(ingestor.model_path());
  const std::size_t count = model.find("\ndataset_bytes ");
  ASSERT_NE(count, std::string::npos);
  const std::size_t block = model.find('\n', count + 1) + 1;
  const std::size_t block_bytes =
      std::stoull(model.substr(count + 15, block - 1 - (count + 15)));
  ASSERT_GT(block_bytes, 0u);
  ASSERT_EQ(model.compare(block + block_bytes, 12, "ipmap_lines "), 0);
  const std::size_t pos = block + block_bytes / 2;
  model[pos] = static_cast<char>(model[pos] ^ 0x01);
  std::ofstream(ingestor.model_path(), std::ios::binary | std::ios::trunc)
      << model;

  const std::size_t hour = 8 * 24 + 1;
  ASSERT_EQ(ingestor.append(hour, world_spike_csv(8 * 24, hour, 2, 920000))
                .status,
            AppendStatus::kAccepted);
  try {
    (void)ingestor.check_and_refit(/*force=*/false);
    ADD_FAILURE() << "check_and_refit accepted a corrupt model";
  } catch (const durable::LoadFailure& e) {
    EXPECT_EQ(e.code(), durable::LoadError::kBadChecksum) << e.what();
  }
  // The append before the failed check is durable: a fresh reader sees it.
  const SnapshotLog reopened(tmp.path);
  EXPECT_EQ(reopened.last_hour(), hour);
}

TEST(Ingestor, PreviousFormatModelKeepsDriftAndRefitsToV5) {
  // A directory published before the dataset block went binary holds a
  // framed v4 model.art whose body head is the current one under the v2
  // header line. The hourly drift check still reads it; the next refit
  // publishes the current format.
  TempDir tmp;
  Ingestor ingestor(options_for(tmp.path));
  ingestor.init(ingest_world().world.dataset, ingest_world().world.ip_map);
  const durable::Frame current =
      durable::parse_frame(durable::read_file(ingestor.model_path()));
  ASSERT_EQ(current.version, AdversaryModel::kFormatVersion);
  const std::string& body = current.payload;
  const std::size_t header_end = body.find('\n');
  const std::size_t head_end = body.find("\ndataset_bytes ") + 1;
  ASSERT_EQ(body.substr(0, header_end), "acbm:adversary_model:v3");
  durable::atomic_write_file(
      ingestor.model_path(),
      durable::frame_payload(
          "adversary_model", 4,
          "acbm:adversary_model:v2" +
              body.substr(header_end, head_end - header_end)));
  const std::string v4_file = durable::read_file(ingestor.model_path());

  const RefitResult check = ingestor.check_and_refit(/*force=*/false);
  EXPECT_FALSE(check.attempted);
  EXPECT_TRUE(same_bytes(durable::read_file(ingestor.model_path()), v4_file));

  const std::size_t hour = 8 * 24 + 1;
  ASSERT_EQ(ingestor.append(hour, world_spike_csv(8 * 24, hour, 2, 930000))
                .status,
            AppendStatus::kAccepted);
  const RefitResult refit = ingestor.check_and_refit(/*force=*/true);
  ASSERT_TRUE(refit.published) << refit.error;
  const std::string published = durable::read_file(ingestor.model_path());
  EXPECT_EQ(durable::parse_frame(published).version,
            AdversaryModel::kFormatVersion);
  EXPECT_TRUE(same_bytes(published,
                         cold_fit_bytes(ingestor.log().cumulative(),
                                        ingest_world().world.ip_map)));
  EXPECT_TRUE(
      same_bytes(durable::read_file(tmp.path / "model.art.g1"), v4_file));
}

TEST(Ingestor, CorruptInputsStateForcesAFullButConvergentRefit) {
  TempDir tmp;
  Ingestor ingestor(options_for(tmp.path));
  ingestor.init(ingest_world().world.dataset, ingest_world().world.ip_map);
  const std::size_t families =
      ingest_world().world.dataset.family_names().size();

  std::ofstream(tmp.path / "inputs.state",
                std::ios::binary | std::ios::trunc)
      << "garbage";
  EXPECT_EQ(ingestor.last_refit_hour(), 0u);
  const RefitResult result = ingestor.check_and_refit(/*force=*/true);
  ASSERT_TRUE(result.published) << result.error;
  // With no trusted hashes every stage counts as changed.
  EXPECT_EQ(result.stages_invalidated, families + 2);
  EXPECT_TRUE(same_bytes(durable::read_file(ingestor.model_path()),
                         cold_fit_bytes(ingestor.log().cumulative(),
                                        ingest_world().world.ip_map)));
}

TEST(Ingestor, CheckpointOfAnOlderNumericsVersionIsNotResumed) {
  // Stages checkpointed under the key of a build whose fit numerics differ
  // (here: the key before the fit-config tag named the tanh) must not be
  // resumed. They are planted with a different model (fitted on half the
  // data), so a resumed stage would show in the published bytes.
  TempDir tmp;
  Ingestor ingestor(options_for(tmp.path));
  ingestor.init(ingest_world().world.dataset, ingest_world().world.ip_map);

  std::uint64_t old_key = durable::fnv1a64("acbm-ingest-fit");
  old_key = durable::fnv1a64(durable::read_file(tmp.path / "ipmap.art"),
                             old_key);
  old_key = durable::fnv1a64("grid_search=0", old_key);
  const trace::Dataset& base = ingest_world().world.dataset;
  std::vector<trace::Attack> half(
      base.attacks().begin(),
      base.attacks().begin() +
          static_cast<std::ptrdiff_t>(base.attacks().size() / 2));
  const trace::Dataset other(base.family_names(), std::move(half), {},
                             base.window_start());
  {
    CheckpointDir::Options old_opts;
    old_opts.config_hash = old_key;
    CheckpointDir old_dir(tmp.path / "checkpoint", old_opts);
    AdversaryModel planted(options_for(tmp.path).model);
    planted.set_checkpoint(&old_dir);
    planted.fit(other, ingest_world().world.ip_map);
    ASSERT_FALSE(old_dir.completed_stages().empty());
  }

  // No input changed since init, so only the key keeps these stages out.
  const RefitResult result = ingestor.check_and_refit(/*force=*/true);
  ASSERT_TRUE(result.published) << result.error;
  EXPECT_EQ(result.stages_invalidated, 0u);
  EXPECT_TRUE(same_bytes(durable::read_file(ingestor.model_path()),
                         cold_fit_bytes(ingestor.log().cumulative(),
                                        ingest_world().world.ip_map)));
  EXPECT_NE(cold_fit_bytes(other, ingest_world().world.ip_map),
            cold_fit_bytes(ingestor.log().cumulative(),
                           ingest_world().world.ip_map));
}

TEST(Ingestor, CheckpointOfThePreviousSourceOrderIsNotResumed) {
  // A^s once summed its per-AS terms in hash-map order; stages checkpointed
  // under that version's key ("grid_search=0;tanh=acbm1") hold other A^s
  // bits and must not be resumed. They are planted with a model fitted on
  // half the data, so a resumed stage would show in the published bytes.
  TempDir tmp;
  Ingestor ingestor(options_for(tmp.path));
  ingestor.init(ingest_world().world.dataset, ingest_world().world.ip_map);

  std::uint64_t old_key = durable::fnv1a64("acbm-ingest-fit");
  old_key = durable::fnv1a64(durable::read_file(tmp.path / "ipmap.art"),
                             old_key);
  old_key = durable::fnv1a64("grid_search=0;tanh=acbm1", old_key);
  const trace::Dataset& base = ingest_world().world.dataset;
  std::vector<trace::Attack> half(
      base.attacks().begin(),
      base.attacks().begin() +
          static_cast<std::ptrdiff_t>(base.attacks().size() / 2));
  const trace::Dataset other(base.family_names(), std::move(half), {},
                             base.window_start());
  {
    CheckpointDir::Options old_opts;
    old_opts.config_hash = old_key;
    CheckpointDir old_dir(tmp.path / "checkpoint", old_opts);
    AdversaryModel planted(options_for(tmp.path).model);
    planted.set_checkpoint(&old_dir);
    planted.fit(other, ingest_world().world.ip_map);
    ASSERT_FALSE(old_dir.completed_stages().empty());
  }

  const RefitResult result = ingestor.check_and_refit(/*force=*/true);
  ASSERT_TRUE(result.published) << result.error;
  EXPECT_EQ(result.stages_invalidated, 0u);
  EXPECT_TRUE(same_bytes(durable::read_file(ingestor.model_path()),
                         cold_fit_bytes(ingestor.log().cumulative(),
                                        ingest_world().world.ip_map)));
}

TEST(Ingestor, CheckpointRecordedOnlyInARunManifestIsNotResumed) {
  // Stage completion was once recorded in a `run.json` manifest. A
  // checkpoint dir holding only that record (here under the current key,
  // with stages planted from a fit on half the data) resumes nothing: the
  // refit reruns every stage and publishes a cold fit's bytes.
  TempDir tmp;
  Ingestor ingestor(options_for(tmp.path));
  ingestor.init(ingest_world().world.dataset, ingest_world().world.ip_map);

  std::uint64_t key = durable::fnv1a64("acbm-ingest-fit");
  key = durable::fnv1a64(durable::read_file(tmp.path / "ipmap.art"), key);
  key = durable::fnv1a64(fit_config_tag(), key);
  const trace::Dataset& base = ingest_world().world.dataset;
  std::vector<trace::Attack> half(
      base.attacks().begin(),
      base.attacks().begin() +
          static_cast<std::ptrdiff_t>(base.attacks().size() / 2));
  const trace::Dataset other(base.family_names(), std::move(half), {},
                             base.window_start());
  const fs::path dir = tmp.path / "checkpoint";
  std::vector<std::string> stages;
  {
    CheckpointDir planted_dir(dir, {.config_hash = key, .resume = false});
    AdversaryModel planted(options_for(tmp.path).model);
    planted.set_checkpoint(&planted_dir);
    planted.fit(other, ingest_world().world.ip_map);
    stages = planted_dir.completed_stages();
  }
  ASSERT_FALSE(stages.empty());
  std::string manifest = "{\n  \"format\": 1,\n  \"config_hash\": \"" +
                         durable::to_hex(key) + "\",\n  \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const std::string slug = CheckpointDir::slug(stages[i]);
    const std::string payload =
        durable::load_artifact(dir / (slug + ".art"), slug, 1, 1);
    manifest += std::string(i == 0 ? "\n" : ",\n") + "    {\"name\": \"" +
                stages[i] + "\", \"file\": \"" + slug +
                ".art\", \"crc32c\": \"" +
                durable::to_hex(durable::crc32c(payload)) + "\"}";
    fs::remove(dir / (slug + ".done"));
  }
  manifest += "\n  ]\n}\n";
  durable::atomic_write_file(dir / "run.json", manifest);

  const RefitResult result = ingestor.check_and_refit(/*force=*/true);
  ASSERT_TRUE(result.published) << result.error;
  EXPECT_EQ(result.stages_invalidated, 0u);
  EXPECT_TRUE(same_bytes(durable::read_file(ingestor.model_path()),
                         cold_fit_bytes(ingestor.log().cumulative(),
                                        ingest_world().world.ip_map)));
  for (const std::string& stage : stages) {
    EXPECT_TRUE(fs::exists(dir / (CheckpointDir::slug(stage) + ".done")))
        << stage << " was not refit";
  }
}

TEST(Ingestor, FullyResumedRefitResolvesNoBot) {
  // The source table (every bot resolved to its AS) is built only when a
  // stage fits: the cold fit of init builds it once, a forced refit whose
  // stages all resume from the checkpoint never.
  struct ObserveGuard {
    ObserveGuard() {
      observe::Metrics::instance().reset();
      observe::set_enabled(true);
    }
    ~ObserveGuard() {
      observe::set_enabled(false);
      observe::Metrics::instance().reset();
    }
  } guard;
  const auto tables_built = [] {
    return observe::Metrics::instance().counter_value(
        "feature_cache.sources_built");
  };
  TempDir tmp;
  Ingestor ingestor(options_for(tmp.path));
  ingestor.init(ingest_world().world.dataset, ingest_world().world.ip_map);
  EXPECT_EQ(tables_built(), 1u);

  observe::Metrics::instance().reset();
  const RefitResult result = ingestor.check_and_refit(/*force=*/true);
  ASSERT_TRUE(result.published) << result.error;
  EXPECT_EQ(result.stages_invalidated, 0u);
  EXPECT_EQ(tables_built(), 0u);
}

}  // namespace
}  // namespace acbm::core::ingest
