#include "core/durable.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/robust.h"

namespace acbm::core::durable {
namespace {

namespace fs = std::filesystem;

struct FaultGuard {
  FaultGuard() { FaultInjector::instance().clear(); }
  ~FaultGuard() { FaultInjector::instance().clear(); }
};

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("acbm_durable_test_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] fs::path file(const char* name) const { return path / name; }
};

std::string slurp(const fs::path& path) { return read_file(path); }

TEST(Crc32c, MatchesTheCastagnoliCheckValue) {
  // The canonical CRC32C check value.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283U);
  EXPECT_EQ(crc32c(""), 0U);
}

TEST(Crc32c, IncrementalEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t oneshot = crc32c(data);
  const std::uint32_t chained =
      crc32c(data.substr(10), crc32c(data.substr(0, 10)));
  EXPECT_EQ(chained, oneshot);
}

TEST(Crc32c, DispatchedPathMatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // crc32c() may run on the hardware CRC instruction; it must agree with a
  // from-the-polynomial bitwise reference on every length (covering the
  // 8-byte-chunk/tail split) and starting offset (alignment).
  const auto reference = [](std::string_view data) {
    std::uint32_t crc = 0xFFFFFFFFU;
    for (const unsigned char byte : data) {
      crc ^= byte;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1U) ? 0x82F63B78U : 0U);
      }
    }
    return ~crc;
  };
  std::string data(257, '\0');
  std::uint64_t state = 42;
  for (char& byte : data) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<char>(state >> 56);
  }
  const std::string_view view = data;
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{8}, std::size_t{9}, std::size_t{63},
                          std::size_t{64}, std::size_t{200}}) {
    for (std::size_t off = 0; off < 9; ++off) {
      const std::string_view slice = view.substr(off, len);
      EXPECT_EQ(crc32c(slice), reference(slice))
          << "len " << len << " off " << off;
    }
  }
}

TEST(Fnv1a64, KnownValuesAndChaining) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("b", fnv1a64("a")), fnv1a64("ab"));
}

TEST(ToHex, FixedWidthLowercase) {
  EXPECT_EQ(to_hex(std::uint32_t{0}), "00000000");
  EXPECT_EQ(to_hex(std::uint32_t{0xE3069283U}), "e3069283");
  EXPECT_EQ(to_hex(std::uint64_t{0xcbf29ce484222325ULL}), "cbf29ce484222325");
}

TEST(LoadErrorTest, NamesAreStable) {
  EXPECT_STREQ(to_string(LoadError::kIo), "io");
  EXPECT_STREQ(to_string(LoadError::kTruncated), "truncated");
  EXPECT_STREQ(to_string(LoadError::kBadChecksum), "bad_checksum");
  EXPECT_STREQ(to_string(LoadError::kBadMagic), "bad_magic");
  EXPECT_STREQ(to_string(LoadError::kVersionUnsupported),
               "version_unsupported");
  EXPECT_STREQ(to_string(LoadError::kParse), "parse");
}

TEST(Frame, RoundTripsKindVersionAndPayload) {
  const std::string framed = frame_payload("model", 3, "hello\npayload\n");
  EXPECT_TRUE(looks_framed(framed));
  const Frame frame = parse_frame(framed);
  EXPECT_EQ(frame.kind, "model");
  EXPECT_EQ(frame.version, 3);
  EXPECT_EQ(frame.payload, "hello\npayload\n");
  EXPECT_EQ(unwrap(framed, "model", 3, 3), "hello\npayload\n");
}

TEST(Frame, EmptyPayloadIsValid) {
  const std::string framed = frame_payload("marker", 1, "");
  EXPECT_EQ(parse_frame(framed).payload, "");
}

TEST(Frame, RejectsMultiTokenKind) {
  EXPECT_THROW((void)frame_payload("two words", 1, "x"), std::invalid_argument);
}

TEST(Frame, MissingMagicIsBadMagic) {
  try {
    (void)parse_frame("not a framed artifact");
    FAIL() << "expected LoadFailure";
  } catch (const LoadFailure& e) {
    EXPECT_EQ(e.code(), LoadError::kBadMagic);
  }
}

TEST(Frame, ShortPayloadIsTruncated) {
  std::string framed = frame_payload("model", 1, "0123456789");
  framed.resize(framed.size() - 4);  // Drop payload bytes, keep the header.
  try {
    (void)parse_frame(framed);
    FAIL() << "expected LoadFailure";
  } catch (const LoadFailure& e) {
    EXPECT_EQ(e.code(), LoadError::kTruncated);
  }
}

TEST(Frame, HeaderWithoutNewlineIsTruncated) {
  const std::string framed = frame_payload("model", 1, "payload");
  const std::string header_only = framed.substr(0, framed.find('\n'));
  try {
    (void)parse_frame(header_only);
    FAIL() << "expected LoadFailure";
  } catch (const LoadFailure& e) {
    EXPECT_EQ(e.code(), LoadError::kTruncated);
  }
}

TEST(Frame, FlippedPayloadBitIsBadChecksum) {
  std::string framed = frame_payload("model", 1, "0123456789");
  framed[framed.size() - 3] ^= 0x01;
  try {
    (void)parse_frame(framed);
    FAIL() << "expected LoadFailure";
  } catch (const LoadFailure& e) {
    EXPECT_EQ(e.code(), LoadError::kBadChecksum);
  }
}

TEST(Frame, TrailingBytesAreParseError) {
  const std::string framed = frame_payload("model", 1, "0123456789") + "xx";
  try {
    (void)parse_frame(framed);
    FAIL() << "expected LoadFailure";
  } catch (const LoadFailure& e) {
    EXPECT_EQ(e.code(), LoadError::kParse);
  }
}

TEST(Frame, MangledHeaderTokensAreParseError) {
  for (const char* bad :
       {"ACBMF1 model vX len=1 crc32c=00000000\nx",
        "ACBMF1 model v1 len=one crc32c=00000000\nx",
        "ACBMF1 model v1 len=1 checksum=00000000\nx", "ACBMF1 model\nx"}) {
    try {
      (void)parse_frame(bad);
      FAIL() << "expected LoadFailure for: " << bad;
    } catch (const LoadFailure& e) {
      EXPECT_EQ(e.code(), LoadError::kParse) << bad;
    }
  }
}

TEST(Unwrap, KindMismatchIsParseError) {
  const std::string framed = frame_payload("model", 1, "x");
  try {
    (void)unwrap(framed, "dataset", 1, 1);
    FAIL() << "expected LoadFailure";
  } catch (const LoadFailure& e) {
    EXPECT_EQ(e.code(), LoadError::kParse);
  }
}

TEST(Unwrap, VersionOutsideRangeIsUnsupported) {
  const std::string framed = frame_payload("model", 9, "x");
  try {
    (void)unwrap(framed, "model", 1, 3);
    FAIL() << "expected LoadFailure";
  } catch (const LoadFailure& e) {
    EXPECT_EQ(e.code(), LoadError::kVersionUnsupported);
  }
}

TEST(AtomicWrite, CreatesAndReplacesWithoutLeftovers) {
  TempDir tmp;
  const fs::path target = tmp.file("artifact.txt");
  atomic_write_file(target, "first");
  EXPECT_EQ(slurp(target), "first");
  atomic_write_file(target, "second");
  EXPECT_EQ(slurp(target), "second");
  EXPECT_FALSE(fs::exists(tmp.file("artifact.txt.tmp")));
}

TEST(AtomicWrite, MissingFileIsTypedIoError) {
  try {
    (void)read_file("/nonexistent/acbm/artifact");
    FAIL() << "expected LoadFailure";
  } catch (const LoadFailure& e) {
    EXPECT_EQ(e.code(), LoadError::kIo);
  }
}

TEST(AtomicWrite, InjectedWriteCrashKeepsThePreviousContent) {
  FaultGuard guard;
  TempDir tmp;
  const fs::path target = tmp.file("artifact.txt");
  atomic_write_file(target, "intact old content");
  FaultInjector::instance().configure("io.write:artifact.txt");
  EXPECT_THROW(atomic_write_file(target, "replacement that never lands"),
               WriteFailure);
  // The crash hit the temp file: the final name still has the old bytes.
  FaultInjector::instance().clear();
  EXPECT_EQ(slurp(target), "intact old content");
}

TEST(AtomicWrite, InjectedFsyncFailureKeepsThePreviousContent) {
  FaultGuard guard;
  TempDir tmp;
  const fs::path target = tmp.file("artifact.txt");
  atomic_write_file(target, "intact old content");
  FaultInjector::instance().configure("io.fsync:artifact.txt");
  EXPECT_THROW(atomic_write_file(target, "unsynced replacement"),
               WriteFailure);
  FaultInjector::instance().clear();
  EXPECT_EQ(slurp(target), "intact old content");
}

TEST(AtomicWrite, InjectedDirsyncFaultFiresAfterTheRename) {
  FaultGuard guard;
  TempDir tmp;
  const fs::path target = tmp.file("artifact.txt");
  atomic_write_file(target, "old content");
  FaultInjector::instance().configure("io.dirsync:artifact.txt");
  EXPECT_THROW(atomic_write_file(target, "renamed but not dir-synced"),
               WriteFailure);
  FaultInjector::instance().clear();
  // The rename precedes the fault: this process already sees the new bytes
  // (a power loss could roll them back; retrying the write reconverges).
  EXPECT_EQ(slurp(target), "renamed but not dir-synced");
  EXPECT_FALSE(fs::exists(tmp.file("artifact.txt.tmp")));
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) out += part;
  return out;
}

TEST(SaveArtifactParts, BytesEqualFramingTheJoinedPayload) {
  TempDir tmp;
  const fs::path target = tmp.file("artifact.txt");
  // 8-byte CRC words split at every offset, empty parts anywhere, no parts.
  std::string text;
  for (int i = 0; i < 300; ++i) text += static_cast<char>('a' + i * 7 % 26);
  std::vector<std::vector<std::string>> cases = {
      {},
      {""},
      {"", "", ""},
      {"head\n", "", "middle ", "", "tail\n"},
      {text},
  };
  for (std::size_t cut = 1; cut < 17; ++cut) {
    cases.push_back({text.substr(0, cut), text.substr(cut, 3), "",
                     text.substr(cut + 3)});
  }
  for (const std::vector<std::string>& parts : cases) {
    const std::string payload = join(parts);
    const std::string expected = frame_payload("model", 3, payload);
    save_artifact(target, "model", 3, parts);
    EXPECT_EQ(slurp(target), expected) << parts.size() << " parts";
    const std::vector<std::string_view> views(parts.begin(), parts.end());
    EXPECT_EQ(frame_header("model", 3, views) + payload, expected);
    save_artifact(target, "model", 3, std::string_view(payload));
    EXPECT_EQ(slurp(target), expected);
  }
  EXPECT_FALSE(fs::exists(tmp.file("artifact.txt.tmp")));
}

TEST(SaveArtifactParts, MorePartsThanOneGatheredWriteTakes) {
  TempDir tmp;
  const fs::path target = tmp.file("artifact.txt");
  std::vector<std::string> parts;
  for (int i = 0; i < 5000; ++i) parts.push_back(std::to_string(i) + ",");
  save_artifact(target, "model", 1, parts);
  EXPECT_EQ(slurp(target), frame_payload("model", 1, join(parts)));
}

TEST(SaveArtifactParts, InjectedFaultsKeepThePreviousFile) {
  FaultGuard guard;
  TempDir tmp;
  const fs::path target = tmp.file("artifact.txt");
  const std::vector<std::string> old_parts = {"intact ", "old ", "content"};
  save_artifact(target, "model", 1, old_parts);
  const std::string old_bytes = slurp(target);
  const std::vector<std::string> parts = {"replacement ", "", "that ",
                                          "never lands"};
  const std::string framed = frame_payload("model", 1, join(parts));

  FaultInjector::instance().configure("io.write:artifact.txt");
  EXPECT_THROW(save_artifact(target, "model", 1, parts), WriteFailure);
  FaultInjector::instance().clear();
  EXPECT_EQ(slurp(target), old_bytes);
  // The crash wrote the first half of the framed bytes, across the parts.
  EXPECT_EQ(slurp(tmp.file("artifact.txt.tmp")),
            framed.substr(0, framed.size() / 2));

  FaultInjector::instance().configure("io.fsync:artifact.txt");
  EXPECT_THROW(save_artifact(target, "model", 1, parts), WriteFailure);
  FaultInjector::instance().clear();
  EXPECT_EQ(slurp(target), old_bytes);

  save_artifact(target, "model", 1, parts);
  EXPECT_EQ(slurp(target), framed);
}

TEST(Quarantine, MovesFilesAsideWithIncreasingSuffixes) {
  TempDir tmp;
  const fs::path target = tmp.file("bad.art");
  std::ofstream(target) << "junk";
  EXPECT_EQ(quarantine(target), tmp.file("bad.art.corrupt-1"));
  EXPECT_FALSE(fs::exists(target));
  std::ofstream(target) << "more junk";
  EXPECT_EQ(quarantine(target), tmp.file("bad.art.corrupt-2"));
}

TEST(LoadArtifactTest, RoundTripsWithCleanReport) {
  TempDir tmp;
  const fs::path target = tmp.file("model.art");
  save_artifact(target, "model", 2, "the payload");
  LoadReport report;
  EXPECT_EQ(load_artifact(target, "model", 1, 3, &report), "the payload");
  EXPECT_TRUE(report.clean());
}

TEST(LoadArtifactTest, CorruptFileIsQuarantinedAndTyped) {
  TempDir tmp;
  const fs::path target = tmp.file("model.art");
  save_artifact(target, "model", 2, "the payload");
  std::string bytes = slurp(target);
  bytes.back() ^= 0x40;
  std::ofstream(target, std::ios::binary | std::ios::trunc) << bytes;

  LoadReport report;
  try {
    (void)load_artifact(target, "model", 1, 3, &report);
    FAIL() << "expected LoadFailure";
  } catch (const LoadFailure& e) {
    EXPECT_EQ(e.code(), LoadError::kBadChecksum);
  }
  EXPECT_FALSE(fs::exists(target));
  EXPECT_TRUE(fs::exists(tmp.file("model.art.corrupt-1")));
  ASSERT_EQ(report.events.size(), 1U);
  EXPECT_EQ(report.events[0].error, LoadError::kBadChecksum);
  EXPECT_FALSE(report.events[0].quarantined_to.empty());
  EXPECT_FALSE(report.clean());
}

TEST(LoadArtifactTest, LegacyPassthroughOnlyWhenAllowed) {
  // No loader passes unframed bytes through any more: a bare pre-framing
  // body is kBadMagic, and the file is left where it is.
  TempDir tmp;
  const fs::path target = tmp.file("legacy.art");
  std::ofstream(target) << "acbm:model:v2\nold body\n";

  LoadReport report;
  try {
    (void)load_artifact(target, "model", 1, 3, &report);
    FAIL() << "expected LoadFailure";
  } catch (const LoadFailure& e) {
    EXPECT_EQ(e.code(), LoadError::kBadMagic);
  }
  EXPECT_TRUE(fs::exists(target));
  EXPECT_FALSE(fs::exists(tmp.file("legacy.art.corrupt-1")));
  EXPECT_TRUE(report.clean());
}

TEST(LoadArtifactTest, NewerSchemaIsReportedButNotQuarantined) {
  TempDir tmp;
  const fs::path target = tmp.file("model.art");
  save_artifact(target, "model", 9, "from the future");
  try {
    (void)load_artifact(target, "model", 1, 3);
    FAIL() << "expected LoadFailure";
  } catch (const LoadFailure& e) {
    EXPECT_EQ(e.code(), LoadError::kVersionUnsupported);
  }
  EXPECT_TRUE(fs::exists(target));  // The file is intact: keep it.
}

TEST(LoadReportTest, WriteListsEventsAndFlags) {
  LoadReport report;
  report.events.push_back({"/tmp/x.art", LoadError::kBadChecksum, "crc",
                           "/tmp/x.art.corrupt-1"});
  report.generation = 2;
  std::ostringstream os;
  report.write(os);
  EXPECT_EQ(os.str(),
            "corrupt artifact: /tmp/x.art (bad_checksum: crc) quarantined to "
            "/tmp/x.art.corrupt-1\nfell back to checkpoint generation 2\n");
  EXPECT_FALSE(report.clean());
}

}  // namespace
}  // namespace acbm::core::durable
