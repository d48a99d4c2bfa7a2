#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/durable.h"
#include "core/observe.h"
#include "core/robust.h"

namespace acbm::core {
namespace {

namespace fs = std::filesystem;

struct FaultGuard {
  FaultGuard() { FaultInjector::instance().clear(); }
  ~FaultGuard() { FaultInjector::instance().clear(); }
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
           ("acbm_checkpoint_test_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

CheckpointDir::Options opts_with(std::uint64_t hash, bool resume) {
  CheckpointDir::Options opts;
  opts.config_hash = hash;
  opts.resume = resume;
  return opts;
}

TEST(CheckpointSlug, KeepsSafeCharsAndMapsSeparators) {
  EXPECT_EQ(CheckpointDir::slug("temporal/DirtJumper"), "temporal-DirtJumper");
  EXPECT_EQ(CheckpointDir::slug("eval/h=0.8"), "eval-h=0.8");
  EXPECT_EQ(CheckpointDir::slug("a b\tc"), "a-b-c");
  EXPECT_EQ(CheckpointDir::slug(""), "stage");
}

TEST(CheckpointDirTest, StoreThenLoadWithinOneRun) {
  TempDir tmp;
  CheckpointDir ckpt(tmp.path / "run", opts_with(1, false));
  EXPECT_FALSE(ckpt.load("temporal/BotA").has_value());
  ckpt.store("temporal/BotA", "payload bytes");
  EXPECT_TRUE(ckpt.is_complete("temporal/BotA"));
  EXPECT_EQ(ckpt.load("temporal/BotA"), "payload bytes");
  EXPECT_TRUE(fs::exists(tmp.path / "run" / "temporal-BotA.done"));
  EXPECT_TRUE(fs::exists(tmp.path / "run" / "journal.log"));
}

TEST(CheckpointDirTest, EmptyPayloadRoundTrips) {
  TempDir tmp;
  CheckpointDir ckpt(tmp.path / "run", opts_with(1, false));
  ckpt.store("temporal/TinyBot", "");
  const auto loaded = ckpt.load("temporal/TinyBot");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

TEST(CheckpointDirTest, ResumeSeesPriorStagesFreshDoesNot) {
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  {
    CheckpointDir ckpt(dir, opts_with(42, false));
    ckpt.store("spatial", "spatial payload");
  }
  {
    CheckpointDir resumed(dir, opts_with(42, true));
    EXPECT_TRUE(resumed.is_complete("spatial"));
    EXPECT_EQ(resumed.load("spatial"), "spatial payload");
  }
  {
    CheckpointDir fresh(dir, opts_with(42, false));
    EXPECT_FALSE(fresh.is_complete("spatial"));
    EXPECT_FALSE(fresh.load("spatial").has_value());
  }
}

TEST(CheckpointDirTest, ConfigHashMismatchIgnoresPriorStages) {
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  {
    CheckpointDir ckpt(dir, opts_with(42, false));
    ckpt.store("spatial", "old config payload");
  }
  CheckpointDir resumed(dir, opts_with(43, true));
  EXPECT_FALSE(resumed.is_complete("spatial"));
  EXPECT_FALSE(resumed.load("spatial").has_value());
}

TEST(CheckpointDirTest, CorruptArtifactFallsBackToPriorGeneration) {
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  {
    // A rerun of the same config stores the same bytes again, so g1 holds
    // a copy of the stage's payload.
    CheckpointDir ckpt(dir, opts_with(7, false));
    ckpt.store("spatial", "stage payload");
    ckpt.store("spatial", "stage payload");
  }
  // Bit-flip the primary artifact's payload.
  const fs::path primary = dir / "spatial.art";
  std::string bytes = durable::read_file(primary);
  bytes.back() ^= 0x20;
  std::ofstream(primary, std::ios::binary | std::ios::trunc) << bytes;

  CheckpointDir resumed(dir, opts_with(7, true));
  const auto loaded = resumed.load("spatial");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "stage payload");
  EXPECT_EQ(resumed.report().generation, 1);
  ASSERT_EQ(resumed.report().events.size(), 1U);
  EXPECT_EQ(resumed.report().events[0].error, durable::LoadError::kBadChecksum);
  // The bad primary was quarantined, not left to poison the next run.
  EXPECT_FALSE(fs::exists(primary));
  EXPECT_TRUE(fs::exists(dir / "spatial.art.corrupt-1"));
}

TEST(CheckpointDirTest, AllGenerationsCorruptRerunsTheStage) {
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  {
    CheckpointDir ckpt(dir, opts_with(7, false));
    ckpt.store("tree", "only copy");
  }
  const fs::path primary = dir / "tree.art";
  std::ofstream(primary, std::ios::binary | std::ios::trunc) << "garbage";

  CheckpointDir resumed(dir, opts_with(7, true));
  EXPECT_FALSE(resumed.load("tree").has_value());
  // The stage was dropped (its marker removed): a rerun can store it again.
  EXPECT_FALSE(resumed.is_complete("tree"));
  resumed.store("tree", "rebuilt");
  EXPECT_EQ(resumed.load("tree"), "rebuilt");
}

TEST(CheckpointDirTest, GenerationOfOtherBytesIsNeverServed) {
  // g1 holds the stage's previous payload (its inputs have changed since):
  // when the primary is corrupt, that stale copy is not this stage's bytes
  // and the stage reruns.
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  {
    CheckpointDir ckpt(dir, opts_with(7, false));
    ckpt.store("spatial", "stale inputs");
    ckpt.store("spatial", "current inputs");
  }
  const fs::path primary = dir / "spatial.art";
  std::string bytes = durable::read_file(primary);
  bytes.back() ^= 0x20;
  std::ofstream(primary, std::ios::binary | std::ios::trunc) << bytes;

  CheckpointDir resumed(dir, opts_with(7, true));
  EXPECT_FALSE(resumed.load("spatial").has_value());
  EXPECT_FALSE(resumed.is_complete("spatial"));
}

TEST(CheckpointDirTest, GenerationRotationKeepsABoundedSet) {
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  CheckpointDir ckpt(dir, opts_with(1, false));
  for (int i = 0; i < 5; ++i) {
    ckpt.store("spatial", "copy " + std::to_string(i));
  }
  EXPECT_TRUE(fs::exists(dir / "spatial.art"));
  EXPECT_TRUE(fs::exists(dir / "spatial.art.g1"));
  EXPECT_TRUE(fs::exists(dir / "spatial.art.g2"));
  EXPECT_FALSE(fs::exists(dir / "spatial.art.g3"));
}

TEST(CheckpointDirTest, CorruptManifestIsQuarantinedAndRunStartsFresh) {
  // The completion record is the stage's marker: a corrupt one reads as
  // "not done", and the resumed run reruns (and re-records) the stage.
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  {
    CheckpointDir ckpt(dir, opts_with(5, false));
    ckpt.store("spatial", "payload");
    ckpt.store("tree", "tree payload");
  }
  std::ofstream(dir / "spatial.done", std::ios::trunc) << "{ not a marker";

  CheckpointDir resumed(dir, opts_with(5, true));
  EXPECT_FALSE(resumed.is_complete("spatial"));
  EXPECT_FALSE(resumed.load("spatial").has_value());
  EXPECT_TRUE(resumed.is_complete("tree"));  // Other stages are untouched.
  resumed.store("spatial", "rerun payload");
  CheckpointDir again(dir, opts_with(5, true));
  EXPECT_EQ(again.load("spatial"), "rerun payload");
}

TEST(CheckpointDirTest, StageFaultCrashesBeforeTheManifestUpdate) {
  // The "manifest" is the stage's marker: the fault fires before it lands.
  FaultGuard guard;
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  {
    CheckpointDir ckpt(dir, opts_with(9, false));
    FaultInjector::instance().configure("checkpoint.stage:spatial");
    EXPECT_THROW(ckpt.store("spatial", "payload"), durable::WriteFailure);
  }
  FaultInjector::instance().clear();
  // The artifact landed but completion was never recorded: resume reruns.
  EXPECT_TRUE(fs::exists(dir / "spatial.art"));
  EXPECT_FALSE(fs::exists(dir / "spatial.done"));
  CheckpointDir resumed(dir, opts_with(9, true));
  EXPECT_FALSE(resumed.is_complete("spatial"));
  EXPECT_FALSE(resumed.load("spatial").has_value());
}

// Processes sharing one directory open it with resume, so each honours the
// markers the others publish.

TEST(CheckpointSharedTest, MarkersPublishCompletionAcrossInstances) {
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  CheckpointDir writer(dir, opts_with(11, true));
  CheckpointDir reader(dir, opts_with(11, true));
  EXPECT_FALSE(reader.is_complete("spatial"));
  writer.store("spatial", "published by another process");
  // No refresh needed: is_complete re-checks the on-disk marker.
  EXPECT_TRUE(reader.is_complete("spatial"));
  EXPECT_EQ(reader.load("spatial"), "published by another process");
  EXPECT_TRUE(fs::exists(dir / "spatial.done"));
}

TEST(CheckpointSharedTest, MarkersIgnoreAForeignConfigHash) {
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  {
    CheckpointDir writer(dir, opts_with(11, true));
    writer.store("spatial", "payload");
  }
  CheckpointDir other(dir, opts_with(12, true));
  EXPECT_FALSE(other.is_complete("spatial"));
  EXPECT_FALSE(other.load("spatial").has_value());
}

TEST(CheckpointSharedTest, RefreshPicksUpMarkersAndDropRemovesThem) {
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  CheckpointDir a(dir, opts_with(11, true));
  a.store("tree", "payload");
  // A dir opened later with resume honours the existing markers.
  CheckpointDir b(dir, opts_with(11, true));
  EXPECT_TRUE(b.is_complete("tree"));
  b.refresh();
  EXPECT_TRUE(b.is_complete("tree"));
  // An unrecoverable artifact drops the marker for every process.
  std::ofstream(dir / "tree.art", std::ios::binary | std::ios::trunc)
      << "garbage";
  EXPECT_FALSE(b.load("tree").has_value());
  EXPECT_FALSE(fs::exists(dir / "tree.done"));
  a.refresh();
  EXPECT_FALSE(a.is_complete("tree"));
}

TEST(CheckpointRetryTest, TransientReadFaultRetriesThenSucceeds) {
  FaultGuard guard;
  MetricsGuard metrics;
  TempDir tmp;
  CheckpointDir ckpt(tmp.path / "run", opts_with(3, false));
  ckpt.store("spatial", "payload");
  // Two injected failures, then the bounded retry's final attempt wins —
  // the mid-publish reader/writer race, compressed.
  FaultInjector::instance().configure("checkpoint.read:spatial#2");
  EXPECT_EQ(ckpt.load("spatial"), "payload");
  observe::Metrics& reg = observe::Metrics::instance();
  EXPECT_EQ(reg.counter("checkpoint.load.retry").value(), 2U);
  EXPECT_EQ(reg.counter("checkpoint.quarantine").value(), 0U);
}

TEST(CheckpointRetryTest, PersistentReadFaultDropsWithoutQuarantine) {
  FaultGuard guard;
  MetricsGuard metrics;
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  CheckpointDir ckpt(dir, opts_with(3, false));
  ckpt.store("spatial", "payload");
  FaultInjector::instance().configure("checkpoint.read:spatial");
  EXPECT_FALSE(ckpt.load("spatial").has_value());
  // The injected failure never condemned the (actually healthy) file.
  EXPECT_TRUE(fs::exists(dir / "spatial.art"));
  EXPECT_FALSE(fs::exists(dir / "spatial.art.corrupt-1"));
  EXPECT_EQ(
      observe::Metrics::instance().counter("checkpoint.quarantine").value(),
      0U);
  // The stage was dropped: once the fault clears, a rerun can store it.
  FaultInjector::instance().clear();
  EXPECT_FALSE(ckpt.is_complete("spatial"));
  ckpt.store("spatial", "rebuilt");
  EXPECT_EQ(ckpt.load("spatial"), "rebuilt");
}

TEST(CheckpointRetryTest, RepeatedCorruptionWalksBackTwoGenerations) {
  MetricsGuard metrics;
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  {
    CheckpointDir ckpt(dir, opts_with(7, false));
    for (int i = 0; i < 3; ++i) ckpt.store("spatial", "stage payload");
  }
  // Payload bit-flips (the frame header survives, so both copies fail with
  // bad_checksum — the error class that quarantines).
  for (const char* name : {"spatial.art", "spatial.art.g1"}) {
    const fs::path path = dir / name;
    std::string bytes = durable::read_file(path);
    bytes.back() ^= 0x20;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  }

  CheckpointDir resumed(dir, opts_with(7, true));
  const auto loaded = resumed.load("spatial");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "stage payload");
  EXPECT_EQ(resumed.report().generation, 2);
  // Exactly the two corrupt copies were quarantined, after each exhausted
  // its bounded retry (two retries, so two retry bumps per copy).
  observe::Metrics& reg = observe::Metrics::instance();
  EXPECT_EQ(reg.counter("checkpoint.quarantine").value(), 2U);
  EXPECT_EQ(reg.counter("checkpoint.load.retry").value(), 4U);
  EXPECT_TRUE(fs::exists(dir / "spatial.art.corrupt-1"));
  EXPECT_TRUE(fs::exists(dir / "spatial.art.g1.corrupt-1"));
}

TEST(CheckpointDirTest, IoWriteFaultDuringStoreLeavesStageIncomplete) {
  FaultGuard guard;
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  CheckpointDir ckpt(dir, opts_with(9, false));
  FaultInjector::instance().configure("io.write:spatial");
  EXPECT_THROW(ckpt.store("spatial", "payload"), durable::WriteFailure);
  FaultInjector::instance().clear();
  EXPECT_FALSE(ckpt.is_complete("spatial"));
  EXPECT_FALSE(fs::exists(dir / "spatial.art"));
}

TEST(CheckpointSharedTest, ZeroLengthMarkerReadsAsStageNotDone) {
  MetricsGuard metrics;
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  CheckpointDir writer(dir, opts_with(11, true));
  writer.store("temporal/BotA", "payload");
  // A crashed writer that opened its marker but never wrote a byte leaves a
  // zero-length .done file. That must read as "stage not done" — not as a
  // bad_magic corruption event, and without disturbing intact stages.
  std::ofstream(dir / (CheckpointDir::slug("temporal/BotB") + ".done"),
                std::ios::binary | std::ios::trunc);
  CheckpointDir reader(dir, opts_with(11, true));
  EXPECT_FALSE(reader.is_complete("temporal/BotB"));
  EXPECT_FALSE(reader.load("temporal/BotB").has_value());
  EXPECT_TRUE(reader.is_complete("temporal/BotA"));
  EXPECT_TRUE(reader.report().events.empty());  // No corruption diagnosed.
  reader.refresh();
  EXPECT_FALSE(reader.is_complete("temporal/BotB"));
}

TEST(CheckpointDirTest, ZeroLengthArtifactSkipsRetriesAndQuarantine) {
  MetricsGuard metrics;
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  {
    CheckpointDir ckpt(dir, opts_with(5, false));
    ckpt.store("spatial", "stage payload");
    ckpt.store("spatial", "stage payload");
  }
  // Truncate the primary to zero bytes (crashed writer, lost data blocks).
  std::ofstream(dir / "spatial.art", std::ios::binary | std::ios::trunc);
  CheckpointDir resumed(dir, opts_with(5, true));
  const auto loaded = resumed.load("spatial");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "stage payload");
  EXPECT_EQ(resumed.report().generation, 1);  // Fell straight through.
  observe::Metrics& reg = observe::Metrics::instance();
  EXPECT_EQ(reg.counter("checkpoint.load.retry").value(), 0U);
  EXPECT_EQ(reg.counter("checkpoint.quarantine").value(), 0U);
  EXPECT_FALSE(fs::exists(dir / "spatial.art.corrupt-1"));
  EXPECT_TRUE(resumed.report().events.empty());
}

TEST(CheckpointDirTest, InvalidateForgetsAStageUntilItIsStoredAgain) {
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  CheckpointDir ckpt(dir, opts_with(6, false));
  ckpt.store("temporal/BotA", "stale payload");
  ckpt.store("spatial", "spatial payload");
  ASSERT_TRUE(ckpt.is_complete("temporal/BotA"));
  ckpt.invalidate("temporal/BotA");
  EXPECT_FALSE(ckpt.is_complete("temporal/BotA"));
  EXPECT_FALSE(ckpt.load("temporal/BotA").has_value());
  EXPECT_TRUE(ckpt.is_complete("spatial"));  // Others untouched.
  EXPECT_EQ(ckpt.completed_stages(), std::vector<std::string>{"spatial"});
  ckpt.invalidate("temporal/BotA");  // Idempotent on an incomplete stage.
  // A resumed run must also not see the invalidated stage.
  CheckpointDir resumed(dir, opts_with(6, true));
  EXPECT_FALSE(resumed.is_complete("temporal/BotA"));
  EXPECT_TRUE(resumed.is_complete("spatial"));
  // Storing again completes it once more.
  ckpt.store("temporal/BotA", "fresh payload");
  EXPECT_EQ(ckpt.load("temporal/BotA"), "fresh payload");
}

TEST(CheckpointSharedTest, InvalidateRemovesTheMarkerForEveryProcess) {
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  CheckpointDir a(dir, opts_with(13, true));
  CheckpointDir b(dir, opts_with(13, true));
  a.store("tree", "payload");
  ASSERT_TRUE(b.is_complete("tree"));
  a.invalidate("tree");
  EXPECT_FALSE(fs::exists(dir / "tree.done"));
  b.refresh();
  EXPECT_FALSE(b.is_complete("tree"));
}

TEST(CheckpointSharedTest, FreshOpenRemovesEveryMarker) {
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  {
    CheckpointDir a(dir, opts_with(11, true));
    a.store("tree", "payload");
    CheckpointDir other(dir, opts_with(12, true));
    other.store("spatial", "payload");
  }
  CheckpointDir fresh(dir, opts_with(11, false));
  EXPECT_FALSE(fs::exists(dir / "tree.done"));
  EXPECT_FALSE(fs::exists(dir / "spatial.done"));
  EXPECT_TRUE(fs::exists(dir / "tree.art"));  // Artifacts stay.
  EXPECT_FALSE(fresh.is_complete("tree"));
}

TEST(CheckpointSharedTest, ForeignRunsArtifactIsNeverResumed) {
  // Run A stores "spatial"; run B (another config hash) overwrites the
  // artifact and crashes before its marker. A's marker still names A's
  // payload CRC, so A's resume must skip B's intact bytes and fall back
  // to the generation holding its own.
  FaultGuard guard;
  MetricsGuard metrics;
  TempDir tmp;
  const fs::path dir = tmp.path / "run";
  {
    CheckpointDir a(dir, opts_with(1, true));
    a.store("spatial", "bytes of run A");
  }
  {
    CheckpointDir b(dir, opts_with(2, true));
    FaultInjector::instance().configure("checkpoint.stage:spatial");
    EXPECT_THROW(b.store("spatial", "bytes of run B"), durable::WriteFailure);
    FaultInjector::instance().clear();
  }
  CheckpointDir resumed(dir, opts_with(1, true));
  EXPECT_TRUE(resumed.is_complete("spatial"));
  EXPECT_EQ(resumed.load("spatial"), "bytes of run A");
  observe::Metrics& reg = observe::Metrics::instance();
  EXPECT_EQ(reg.counter("checkpoint.load.foreign").value(), 1U);
  // Skipped without a retry or a quarantine: the file is intact.
  EXPECT_EQ(reg.counter("checkpoint.load.retry").value(), 0U);
  EXPECT_EQ(reg.counter("checkpoint.quarantine").value(), 0U);
  EXPECT_TRUE(resumed.report().events.empty());
  EXPECT_NE(durable::read_file(dir / "spatial.art").find("bytes of run B"),
            std::string::npos);  // Left in place.

  // With no generation left holding A's bytes the stage reruns.
  fs::remove(dir / "spatial.art.g1");
  CheckpointDir rerun(dir, opts_with(1, true));
  EXPECT_FALSE(rerun.load("spatial").has_value());
  EXPECT_FALSE(rerun.is_complete("spatial"));
  EXPECT_FALSE(fs::exists(dir / "spatial.done"));
}

}  // namespace
}  // namespace acbm::core
