// Format-layer tests for the zero-copy .armm serving artifact
// (core/artifact_map.h): pack/parse roundtrip, section alignment, CRC
// detection of arbitrary byte flips, typed rejection of truncated or
// structurally corrupt images, and mmap loading.
#include "core/artifact_map.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <random>

#include "core/durable.h"
#include "core/pipeline.h"
#include "trace/world.h"

namespace acbm::core::armm {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("acbm_armm_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

SpatiotemporalOptions fast_options() {
  SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  opts.spatial.fixed.mlp.max_epochs = 60;
  return opts;
}

/// One fitted model + packed image shared by every test in the binary
/// (fitting dominates runtime; the image is immutable).
struct Fixture {
  trace::World world = trace::build_world(trace::small_world_options(37));
  AdversaryModel model{fast_options()};
  std::string image;

  Fixture() {
    model.fit(world.dataset, world.ip_map);
    image = pack_model(model);
  }
};

const Fixture& fx() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

/// Parse an image from a std::string (aligning it first; string data is
/// not guaranteed 8-byte-aligned).
ArtifactView parse_copy(std::string_view image, bool verify_crc = true) {
  static thread_local std::vector<std::uint64_t> buf;
  buf.assign((image.size() + 7) / 8, 0);
  // An empty image leaves buf.data() null, which memcpy may not take.
  if (!image.empty()) std::memcpy(buf.data(), image.data(), image.size());
  return ArtifactView::parse(
      {reinterpret_cast<const char*>(buf.data()), image.size()}, verify_crc);
}

TEST(ArtifactMap, PackedImageParses) {
  const ArtifactView view = parse_copy(fx().image);
  EXPECT_EQ(view.families().size(), fx().model.dataset().family_names().size());
  EXPECT_GT(view.targets().size(), 0u);
  EXPECT_EQ(view.temporal_slots().size(),
            view.families().size() * kTemporalSeriesCount);
  EXPECT_EQ(view.spatial_slots().size(), view.targets().size() * 3);
  EXPECT_EQ(static_cast<trace::EpochSeconds>(view.meta().window_start),
            fx().model.dataset().window_start());
}

TEST(ArtifactMap, HeaderAndSectionsAligned) {
  const std::string& image = fx().image;
  ASSERT_GE(image.size(), sizeof(FileHeader));
  FileHeader header{};
  std::memcpy(&header, image.data(), sizeof(header));
  EXPECT_EQ(std::memcmp(header.magic, kMagic, sizeof(kMagic)), 0);
  EXPECT_EQ(header.endian_check, kEndianCheck);
  EXPECT_EQ(header.file_size, image.size());
  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry{};
    std::memcpy(&entry, image.data() + sizeof(header) + i * sizeof(entry),
                sizeof(entry));
    EXPECT_EQ(entry.offset % kSectionAlign, 0u) << "section " << i;
  }
}

TEST(ArtifactMap, TargetLookupIsExactAndSorted) {
  const ArtifactView view = parse_copy(fx().image);
  net::Asn prev = 0;
  for (const TargetRec& rec : view.targets()) {
    EXPECT_GT(rec.asn, prev);  // Strictly ascending.
    prev = rec.asn;
    EXPECT_EQ(view.target(rec.asn), &rec);
  }
  EXPECT_EQ(view.target(4294967295u), nullptr);
}

TEST(ArtifactMap, EveryByteFlipIsDetected) {
  // Flip a pseudorandom sample of single bytes across the whole image; the
  // CRC sweep (or a structural check) must reject every one of them.
  const std::string& clean = fx().image;
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 64; ++trial) {
    std::string corrupt = clean;
    const std::size_t at = rng() % corrupt.size();
    corrupt[at] = static_cast<char>(corrupt[at] ^ (1 + rng() % 255));
    EXPECT_THROW((void)parse_copy(corrupt), durable::LoadFailure)
        << "byte " << at;
  }
}

TEST(ArtifactMap, TruncationIsTyped) {
  const std::string& clean = fx().image;
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, sizeof(FileHeader) - 1,
        sizeof(FileHeader) + 3, clean.size() / 2, clean.size() - 1}) {
    EXPECT_THROW((void)parse_copy(clean.substr(0, keep)),
                 durable::LoadFailure)
        << "kept " << keep;
  }
}

TEST(ArtifactMap, TrailingGarbageRejected) {
  std::string padded = fx().image;
  padded += "tail";
  EXPECT_THROW((void)parse_copy(padded), durable::LoadFailure);
}

TEST(ArtifactMap, MisalignedBufferRejected) {
  static std::vector<std::uint64_t> buf((fx().image.size() + 8) / 8 + 1, 0);
  char* misaligned = reinterpret_cast<char*>(buf.data()) + 4;
  std::memcpy(misaligned, fx().image.data(), fx().image.size());
  EXPECT_THROW(
      (void)ArtifactView::parse({misaligned, fx().image.size()}),
      durable::LoadFailure);
}

TEST(ArtifactMap, WrongMagicAndVersionRejected) {
  std::string wrong_magic = fx().image;
  wrong_magic[0] = 'X';
  EXPECT_THROW((void)parse_copy(wrong_magic), durable::LoadFailure);

  std::string wrong_version = fx().image;
  FileHeader header{};
  std::memcpy(&header, wrong_version.data(), sizeof(header));
  header.version = kFormatVersion + 1;
  std::memcpy(wrong_version.data(), &header, sizeof(header));
  EXPECT_THROW((void)parse_copy(wrong_version), durable::LoadFailure);
}

TEST(ArtifactMap, MappedFileParsesInPlace) {
  TempDir tmp;
  const fs::path path = tmp.path / "model.armm";
  durable::atomic_write_file(path, fx().image);
  durable::MappedFile file(path);
  ASSERT_TRUE(file.mapped());
  const ArtifactView view = ArtifactView::parse(file.view());
  EXPECT_EQ(view.targets().size(), parse_copy(fx().image).targets().size());
}

TEST(ArtifactMap, PackUnfittedThrows) {
  AdversaryModel unfitted;
  EXPECT_THROW((void)pack_model(unfitted), std::logic_error);
}

TEST(ArtifactMap, PackIsDeterministic) {
  EXPECT_EQ(pack_model(fx().model), fx().image);
}

// Pins the packed bytes of the fixture world across commits, so a change
// meant to be byte-neutral (a performance change) that alters model bytes
// fails here instead of passing on self-consistency. A change that alters
// model outputs on purpose re-pins this value and says so.
TEST(ArtifactMap, PackedBytesArePinned) {
  EXPECT_EQ(fx().image.size(), 3960064u);
  EXPECT_EQ(durable::fnv1a64(fx().image), 0x68fe8d12ad374f91ULL);
}

}  // namespace
}  // namespace acbm::core::armm
