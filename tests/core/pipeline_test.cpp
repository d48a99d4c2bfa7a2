#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "core/durable.h"
#include "core/serving.h"
#include "trace/world.h"

namespace acbm::core {
namespace {

SpatiotemporalOptions fast_options() {
  SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  opts.spatial.fixed.mlp.max_epochs = 60;
  return opts;
}

struct Fixture {
  trace::World world = trace::build_world(trace::small_world_options(37));
  AdversaryModel model{fast_options()};

  Fixture() { model.fit(world.dataset, world.ip_map); }
};

/// The model's body (what the framed artifact wraps), as save() writes it.
std::string body_of(const AdversaryModel& model) {
  std::ostringstream os;
  model.save(os);
  return os.str();
}

/// A scratch file removed on scope exit.
struct TempFile {
  std::filesystem::path path;
  explicit TempFile(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("acbm_pipeline_test_" + std::to_string(::getpid()) + "_" +
              name)) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

void expect_same_baselines(const std::vector<FamilyDriftBaseline>& a,
                           const std::vector<FamilyDriftBaseline>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].family, b[i].family);
    EXPECT_EQ(a[i].hours, b[i].hours);
    EXPECT_EQ(a[i].rate_mean, b[i].rate_mean);
    EXPECT_EQ(a[i].rate_std, b[i].rate_std);
    EXPECT_EQ(a[i].magnitude_mean, b[i].magnitude_mean);
    EXPECT_EQ(a[i].magnitude_std, b[i].magnitude_std);
    EXPECT_EQ(a[i].interval_mean, b[i].interval_mean);
    EXPECT_EQ(a[i].interval_residual_std, b[i].interval_residual_std);
  }
}

TEST(AdversaryModel, DriftBaselinesLoadWithoutTheModel) {
  Fixture fx;
  TempFile file("v4.art");
  {
    std::ostringstream os;
    fx.model.save_framed(os);
    std::ofstream(file.path, std::ios::binary) << os.str();
  }
  std::ifstream in(file.path, std::ios::binary);
  const AdversaryModel loaded = AdversaryModel::load_framed(in);
  const std::vector<FamilyDriftBaseline> baselines =
      AdversaryModel::load_drift_baselines(file.path);
  EXPECT_FALSE(baselines.empty());
  expect_same_baselines(baselines, loaded.drift_baselines());
  expect_same_baselines(baselines, fx.model.drift_baselines());
}

TEST(AdversaryModel, DriftBaselinesOfAV1BodyAreEmpty) {
  // Framed v3 (a v1 body, with no drift block) is no longer read: every
  // loader reports it as an unsupported version and leaves the file, which
  // is intact, in place.
  Fixture fx;
  std::istringstream v2(body_of(fx.model));
  std::string v1;
  std::string line;
  while (std::getline(v2, line)) {
    if (line == "acbm:adversary_model:v3") line = "acbm:adversary_model:v1";
    if (line.rfind("drift", 0) == 0) continue;
    v1 += line + "\n";
  }
  TempFile file("v3.art");
  std::ofstream(file.path, std::ios::binary)
      << durable::frame_payload("adversary_model", 3, v1);

  const auto expect_unsupported = [](const auto& load, const char* what) {
    try {
      load();
      ADD_FAILURE() << what << " loaded a framed v3 model";
    } catch (const durable::LoadFailure& e) {
      EXPECT_EQ(e.code(), durable::LoadError::kVersionUnsupported) << what;
    }
  };
  expect_unsupported(
      [&] { (void)AdversaryModel::load_drift_baselines(file.path); },
      "load_drift_baselines");
  expect_unsupported(
      [&] {
        std::ifstream in(file.path, std::ios::binary);
        (void)AdversaryModel::load_framed(in);
      },
      "load_framed");
  expect_unsupported([&] { (void)ServingModel::load_any(file.path); },
                     "load_any");
  EXPECT_TRUE(std::filesystem::exists(file.path));
  EXPECT_FALSE(std::filesystem::exists(file.path.string() + ".corrupt-1"));
}

TEST(AdversaryModel, DriftBaselinesOfAnUnframedFileAreALoadFailure) {
  Fixture fx;
  TempFile file("bare.art");
  {
    std::ostringstream os;
    fx.model.save(os);
    std::ofstream(file.path, std::ios::binary) << os.str();
  }
  try {
    (void)AdversaryModel::load_drift_baselines(file.path);
    ADD_FAILURE() << "an unframed body loaded";
  } catch (const durable::LoadFailure& e) {
    EXPECT_EQ(e.code(), durable::LoadError::kBadMagic);
  }
}

TEST(AdversaryModel, BodyRoundTripsByteForByte) {
  Fixture fx;
  const std::string body = body_of(fx.model);
  std::string joined;
  for (const std::string& part : fx.model.body_parts()) joined += part;
  // Compared with ==: the body holds binary bytes, no diff to print.
  EXPECT_TRUE(joined == body);
  const AdversaryModel back = AdversaryModel::load_body(body);
  EXPECT_TRUE(body_of(back) == body);
  // The dataset travels as its binary block, not as CSV.
  EXPECT_EQ(body.rfind("acbm:adversary_model:v3\n", 0), 0u);
  EXPECT_NE(body.find("\ndataset_bytes "), std::string::npos);
  EXPECT_EQ(body.find("#window_start="), std::string::npos);
  ASSERT_EQ(back.dataset().size(), fx.model.dataset().size());
  EXPECT_EQ(back.dataset().family_names(), fx.model.dataset().family_names());
  for (std::size_t i = 0; i < back.dataset().size(); ++i) {
    EXPECT_EQ(back.dataset().attacks()[i].bots,
              fx.model.dataset().attacks()[i].bots);
  }
}

/// Frames `body` with a valid CRC, then checks that the framed loader and
/// `acbm pack` both reject it as a typed parse failure.
void expect_body_parse_failure(const std::string& body,
                               const std::string& name) {
  TempFile file(name + ".art");
  std::ofstream(file.path, std::ios::binary)
      << durable::frame_payload("adversary_model",
                                AdversaryModel::kFormatVersion, body);
  std::ifstream in(file.path, std::ios::binary);
  try {
    (void)AdversaryModel::load_framed(in);
    ADD_FAILURE() << name << ": a malformed body loaded";
  } catch (const durable::LoadFailure& e) {
    EXPECT_EQ(e.code(), durable::LoadError::kParse) << name;
  }
  TempFile packed(name + ".armm");
  const std::vector<std::string> argv = {"pack", "--model", file.path.string(),
                                         "--out", packed.path.string()};
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(cli::run(argv, out, err), 3) << name << ": " << err.str();
  EXPECT_NE(err.str().find("error (parse)"), std::string::npos) << err.str();
  EXPECT_FALSE(std::filesystem::exists(packed.path)) << name;
}

TEST(AdversaryModel, MalformedBodyBlocksAreTypedParseErrors) {
  Fixture fx;
  const std::string body = body_of(fx.model);
  const std::size_t count_at = body.find("\ndataset_bytes ") + 1;
  const std::size_t block_at = body.find('\n', count_at) + 1;
  ASSERT_LT(count_at, block_at);
  const std::size_t block_bytes = std::stoull(
      body.substr(count_at + 14, block_at - 1 - (count_at + 14)));
  const std::size_t ipmap_at = block_at + block_bytes;
  ASSERT_EQ(body.compare(ipmap_at, 12, "ipmap_lines "), 0);

  // The payload ends halfway through the dataset block.
  expect_body_parse_failure(body.substr(0, block_at + block_bytes / 2),
                            "cut_dataset");
  // dataset_bytes counts more bytes than the whole payload holds, or
  // wraps around from a negative count.
  for (const char* count : {"1000000000000", "-1"}) {
    expect_body_parse_failure(body.substr(0, count_at) + "dataset_bytes " +
                                  count + body.substr(block_at - 1),
                              "long_dataset");
  }
  // dataset_bytes one short: the block ends inside its last bot.
  expect_body_parse_failure(body.substr(0, count_at) + "dataset_bytes " +
                                std::to_string(block_bytes - 1) +
                                body.substr(block_at - 1),
                            "short_dataset");
  // Intact counts around a malformed block: an attack count of 2^60, and
  // a family index past the family list (the CRC is valid, so only the
  // block's own checks can notice).
  const trace::Dataset& ds = fx.model.dataset();
  std::size_t counts_at = block_at + 4 + 8 + 8;  // window_start follows.
  for (const std::string& name : ds.family_names()) counts_at += 8 + name.size();
  const auto patched = [&](std::size_t at, auto value) {
    std::string out = body;
    std::memcpy(out.data() + at, &value, sizeof(value));
    return out;
  };
  std::uint64_t attacks = 0;
  std::memcpy(&attacks, body.data() + counts_at, sizeof(attacks));
  ASSERT_EQ(attacks, ds.size());
  expect_body_parse_failure(patched(counts_at, std::uint64_t{1} << 60),
                            "attack_count");
  expect_body_parse_failure(
      patched(counts_at + 16 + 8,
              static_cast<std::uint32_t>(ds.family_names().size())),
      "family_index");
  // The ipmap_lines line is gone; its block follows the dataset directly.
  const std::size_t ipmap_block_at = body.find('\n', ipmap_at) + 1;
  expect_body_parse_failure(
      body.substr(0, ipmap_at) + body.substr(ipmap_block_at), "no_ipmap_lines");
}

TEST(AdversaryModel, DriftBaselinesReadThePreviousFormat) {
  // Framed v4 (body v2, the dataset as CSV) has the same head as v5: the
  // drift baselines still load from it, the model itself no longer does.
  Fixture fx;
  std::string head = body_of(fx.model);
  head = "acbm:adversary_model:v2" +
         head.substr(head.find('\n'), head.find("\ndataset_bytes ") -
                                          head.find('\n') + 1);
  TempFile file("v4.art");
  std::ofstream(file.path, std::ios::binary)
      << durable::frame_payload("adversary_model", 4, head);
  expect_same_baselines(AdversaryModel::load_drift_baselines(file.path),
                        fx.model.drift_baselines());
  std::ifstream in(file.path, std::ios::binary);
  try {
    (void)AdversaryModel::load_framed(in);
    ADD_FAILURE() << "a framed v4 model loaded";
  } catch (const durable::LoadFailure& e) {
    EXPECT_EQ(e.code(), durable::LoadError::kVersionUnsupported);
  }
}

TEST(AdversaryModel, UnfittedUseThrows) {
  AdversaryModel model;
  EXPECT_THROW((void)model.predict_next_attack(1), std::logic_error);
}

TEST(AdversaryModel, PredictsForKnownTarget) {
  Fixture fx;
  const net::Asn busiest = fx.world.dataset.target_asns().front();
  const auto pred = fx.model.predict_next_attack(busiest);
  ASSERT_TRUE(pred.has_value());
  EXPECT_GE(pred->magnitude, 1.0);
  EXPECT_LT(pred->magnitude, 100000.0);
  EXPECT_GE(pred->duration_s, 30.0);
  EXPECT_GE(pred->hour, 0.0);
  EXPECT_LT(pred->hour, 24.0);
  EXPECT_LT(pred->assumed_family, 10u);
  // Timestamp is strictly in the future of the target's last attack.
  const auto indices = fx.world.dataset.attacks_on_asn(busiest);
  EXPECT_GT(pred->start, fx.world.dataset.attacks()[indices.back()].start);
}

TEST(AdversaryModel, SourceDistributionNormalized) {
  Fixture fx;
  const net::Asn busiest = fx.world.dataset.target_asns().front();
  const auto pred = fx.model.predict_next_attack(busiest);
  ASSERT_TRUE(pred.has_value());
  ASSERT_FALSE(pred->source_distribution.empty());
  double total = 0.0;
  for (const auto& [asn, share] : pred->source_distribution) {
    EXPECT_GE(share, 0.0);
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(AdversaryModel, UnknownTargetGivesNullopt) {
  Fixture fx;
  EXPECT_FALSE(fx.model.predict_next_attack(123456789).has_value());
}

TEST(AdversaryModel, PredictsForEveryAttackedTarget) {
  Fixture fx;
  for (net::Asn asn : fx.world.dataset.target_asns()) {
    const auto pred = fx.model.predict_next_attack(asn);
    ASSERT_TRUE(pred.has_value()) << "target AS " << asn;
    EXPECT_GE(pred->hour, 0.0);
    EXPECT_LT(pred->hour, 24.0);
  }
}

TEST(AdversaryModel, DeterministicPredictions) {
  Fixture fx;
  const net::Asn busiest = fx.world.dataset.target_asns().front();
  const auto a = fx.model.predict_next_attack(busiest);
  const auto b = fx.model.predict_next_attack(busiest);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(a->magnitude, b->magnitude);
  EXPECT_DOUBLE_EQ(a->hour, b->hour);
  EXPECT_EQ(a->start, b->start);
}

}  // namespace
}  // namespace acbm::core
