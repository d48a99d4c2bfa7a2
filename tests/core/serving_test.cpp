// ServingModel tests: the mmap serving path must be BYTE-identical to the
// batch pipeline — f64 predictions equal AdversaryModel::predict_next_attack
// bit for bit across every target — and the f32 path (the only f32
// predictor) must stay within the documented bound of f64 (DESIGN.md §6)
// with its output bits pinned, component by component (ARIMA, NAR, model
// tree, the temporal / spatial ladders, the combiner). Plus format
// interchange (map_file == from_image == load_any on .art) and concurrent
// predict safety.
#include "core/serving.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/artifact_map.h"
#include "core/durable.h"
#include "core/evaluation.h"
#include "core/pipeline.h"
#include "core/spatiotemporal_model.h"
#include "stats/rng.h"
#include "trace/world.h"

namespace acbm::core {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("acbm_serving_test_" + std::to_string(::getpid()) + "_" +
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

struct Fixture {
  trace::World world = trace::build_world(trace::small_world_options(37));
  AdversaryModel model{fast_options()};
  ServingModel serving;

  Fixture() {
    model.fit(world.dataset, world.ip_map);
    serving = ServingModel::from_image(armm::pack_model(model));
  }
};

const Fixture& fx() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bitwise equality over every field, including the source distribution.
void expect_identical(const AttackPrediction& got,
                      const AttackPrediction& want, net::Asn asn) {
  EXPECT_EQ(bits(got.magnitude), bits(want.magnitude)) << "AS" << asn;
  EXPECT_EQ(bits(got.magnitude_sd), bits(want.magnitude_sd)) << "AS" << asn;
  EXPECT_EQ(bits(got.duration_s), bits(want.duration_s)) << "AS" << asn;
  EXPECT_EQ(bits(got.hour), bits(want.hour)) << "AS" << asn;
  EXPECT_EQ(bits(got.day), bits(want.day)) << "AS" << asn;
  EXPECT_EQ(got.start, want.start) << "AS" << asn;
  EXPECT_EQ(got.assumed_family, want.assumed_family) << "AS" << asn;
  ASSERT_EQ(got.source_distribution.size(), want.source_distribution.size())
      << "AS" << asn;
  for (const auto& [src, share] : want.source_distribution) {
    const auto it = got.source_distribution.find(src);
    ASSERT_NE(it, got.source_distribution.end()) << "AS" << asn << " src "
                                                 << src;
    EXPECT_EQ(bits(it->second), bits(share)) << "AS" << asn << " src " << src;
  }
}

TEST(ServingModel, F64ByteIdenticalToBatchAcrossAllTargets) {
  const Fixture& f = fx();
  for (net::Asn asn : f.serving.targets()) {
    const auto want = f.model.predict_next_attack(asn);
    const auto got = f.serving.predict(asn, Precision::kF64);
    ASSERT_EQ(got.has_value(), want.has_value()) << "AS" << asn;
    if (want) expect_identical(*got, *want, asn);
  }
}

/// The documented f32-vs-f64 forecast bound: |f32 - f64| must stay within
/// this fraction of max(1, |f64|) (absolute near zero, relative elsewhere).
constexpr double kF32RelErrorBound = 1e-3;

void expect_within_bound(double f32_val, double f64_val) {
  ASSERT_TRUE(std::isfinite(f32_val)) << "f32 path produced " << f32_val;
  EXPECT_LE(std::abs(f32_val - f64_val),
            kF32RelErrorBound * std::max(1.0, std::abs(f64_val)))
      << "f32 " << f32_val << " vs f64 " << f64_val;
}

/// FNV-1a over the little-endian bytes of `value`.
void fnv1a(std::uint64_t& hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
}

TEST(ServingModel, F32PredictionsArePinned) {
  // FNV-1a digest of every scalar field of every f32 prediction, in
  // targets() order. Pinned so a change to the f32 arithmetic cannot land
  // silently; a deliberate change must update the constant. The kernels
  // are bit-identical across scalar/AVX2/NEON (stats/kernels.h), so one
  // constant holds at every ISA.
  const Fixture& f = fx();
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (net::Asn asn : f.serving.targets()) {
    const auto pred = f.serving.predict(asn, Precision::kF32);
    ASSERT_TRUE(pred.has_value()) << "AS" << asn;
    fnv1a(hash, asn);
    fnv1a(hash, pred->assumed_family);
    fnv1a(hash, bits(pred->magnitude));
    fnv1a(hash, bits(pred->magnitude_sd));
    fnv1a(hash, bits(pred->duration_s));
    fnv1a(hash, bits(pred->hour));
    fnv1a(hash, bits(pred->day));
    fnv1a(hash, static_cast<std::uint64_t>(pred->start));
  }
  EXPECT_EQ(hash, 0x5d9a5c87bbd27e5bull) << std::hex << hash;
}

TEST(ServingModel, F32WithinBoundOfF64AcrossAllTargets) {
  const Fixture& f = fx();
  for (net::Asn asn : f.serving.targets()) {
    SCOPED_TRACE("AS" + std::to_string(asn));
    const auto want = f.model.predict_next_attack(asn);
    const auto got = f.serving.predict(asn, Precision::kF32);
    ASSERT_TRUE(want.has_value());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->assumed_family, want->assumed_family);
    expect_within_bound(got->magnitude, want->magnitude);
    expect_within_bound(got->duration_s, want->duration_s);
    // The source distribution is a pure f64 computation at both precisions.
    EXPECT_EQ(got->source_distribution, want->source_distribution);
  }
}

// --- Per-component f32 checks ---------------------------------------------
//
// Each f32 recurrence of the serving path (ARIMA innovations filter, NAR
// MLP, model-tree leaves, the temporal / spatial ladders and the combiner)
// against the fitted f64 model it was packed from: within the documented
// bound at kF32, bit-identical at kF64.

/// The packed training series of one family, by temporal series; empty
/// for the series the artifact does not carry.
std::span<const double> family_series(const ServingModel& serving,
                                      std::uint32_t family,
                                      TemporalSeries which) {
  const armm::FamilyRec* rec = serving.view().family(family);
  switch (which) {
    case TemporalSeries::kMagnitude: return serving.view().f64(rec->magnitude);
    case TemporalSeries::kHour: return serving.view().f64(rec->hour);
    case TemporalSeries::kInterval: return serving.view().f64(rec->interval);
    default: return {};
  }
}

/// The packed training series of one target, by spatial series.
std::span<const double> target_series(const ServingModel& serving,
                                      net::Asn asn, SpatialSeries which) {
  const armm::TargetRec* rec = serving.view().target(asn);
  switch (which) {
    case SpatialSeries::kDuration: return serving.view().f64(rec->duration);
    case SpatialSeries::kInterval: return serving.view().f64(rec->interval);
    case SpatialSeries::kHour: return serving.view().f64(rec->hour);
  }
  return {};
}

/// Mean-reverting level + seasonality + noise — the flavor of series the
/// temporal models see.
std::vector<double> synthetic_series(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> s(n);
  double level = 10.0;
  for (std::size_t i = 0; i < n; ++i) {
    level = 0.92 * level + rng.normal(0.8, 0.4);
    s[i] = level + 3.0 * std::sin(static_cast<double>(i) * 0.35) +
           rng.normal(0.0, 0.25);
  }
  return s;
}

TEST(ArimaF32, MatchesF64WalkForward) {
  // Walk every fitted family ARIMA forward over its own training series.
  const Fixture& f = fx();
  const SpatiotemporalModel& st = f.model.spatiotemporal();
  std::size_t checked = 0;
  for (std::uint32_t family = 0;
       family < f.model.dataset().family_names().size(); ++family) {
    const TemporalModel* temporal = st.temporal(family);
    if (temporal == nullptr) continue;
    for (std::size_t s = 0; s < kTemporalSeriesCount; ++s) {
      const auto which = static_cast<TemporalSeries>(s);
      const auto& arima = temporal->model(which);
      const std::span<const double> series =
          family_series(f.serving, family, which);
      if (!arima || series.empty()) continue;
      SCOPED_TRACE("family " + std::to_string(family) + " series " +
                   std::to_string(s));
      for (std::size_t t = arima->order().d + 1; t <= series.size(); t += 7) {
        const std::span<const double> history = series.first(t);
        const double want = arima->forecast_one(history);
        EXPECT_EQ(bits(f.serving.forecast_temporal(family, which, history,
                                                   Precision::kF64)),
                  bits(want));
        expect_within_bound(f.serving.forecast_temporal(family, which,
                                                        history,
                                                        Precision::kF32),
                            want);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u) << "no fitted ARIMA in the fixture";
}

TEST(NarF32View, MatchesNarModelWalkForward) {
  // Walk every fitted target NAR forward over its own training series.
  const Fixture& f = fx();
  const SpatiotemporalModel& st = f.model.spatiotemporal();
  std::size_t checked = 0;
  for (net::Asn asn : f.serving.targets()) {
    const SpatialModel* spatial = st.spatial(asn);
    if (spatial == nullptr) continue;
    for (std::size_t s = 0; s < kSpatialSeriesCount; ++s) {
      const auto which = static_cast<SpatialSeries>(s);
      const auto& nar = spatial->nar(which);
      if (!nar) continue;
      SCOPED_TRACE("AS" + std::to_string(asn) + " series " +
                   std::to_string(s));
      const std::span<const double> series = target_series(f.serving, asn,
                                                           which);
      for (std::size_t t = nar->delays(); t <= series.size(); ++t) {
        const std::span<const double> history = series.first(t);
        const double want = nar->forecast_one(history);
        EXPECT_EQ(bits(f.serving.forecast_spatial(asn, which, history,
                                                  Precision::kF64)),
                  bits(want));
        expect_within_bound(f.serving.forecast_spatial(asn, which, history,
                                                       Precision::kF32),
                            want);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u) << "no fitted NAR in the fixture";
}

// Batch predict and f64 serving run the same MLP forward pass
// (nn::forward_normalized), so they agree bit for bit. Five delays give
// each hidden unit an input dot longer than one 4-wide vector, and every
// history prefix is served, not only the full series.
TEST(ServingModel, F64ByteIdenticalToBatchAtFiveDelays) {
  SpatiotemporalOptions opts = fast_options();
  opts.spatial.fixed.delays = 5;
  const trace::World world =
      trace::build_world(trace::small_world_options(37));
  AdversaryModel model{opts};
  model.fit(world.dataset, world.ip_map);
  const ServingModel serving =
      ServingModel::from_image(armm::pack_model(model));
  std::size_t checked = 0;
  for (net::Asn asn : serving.targets()) {
    const auto want = model.predict_next_attack(asn);
    const auto got = serving.predict(asn, Precision::kF64);
    ASSERT_EQ(got.has_value(), want.has_value()) << "AS" << asn;
    if (want) expect_identical(*got, *want, asn);
    const SpatialModel* spatial = model.spatiotemporal().spatial(asn);
    if (spatial == nullptr) continue;
    for (std::size_t s = 0; s < kSpatialSeriesCount; ++s) {
      const auto which = static_cast<SpatialSeries>(s);
      const auto& nar = spatial->nar(which);
      if (!nar || nar->delays() != 5) continue;
      const std::span<const double> series =
          target_series(serving, asn, which);
      for (std::size_t t = nar->delays(); t <= series.size(); ++t) {
        const std::span<const double> history = series.first(t);
        EXPECT_EQ(bits(serving.forecast_spatial(asn, which, history,
                                                Precision::kF64)),
                  bits(nar->forecast_one(history)))
            << "AS" << asn << " series " << s << " t " << t;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u) << "no five-delay NAR in the fixture";
}

TEST(TreeF32, MatchesModelTreeOnTrainingRows) {
  const Fixture& f = fx();
  const SpatiotemporalModel& st = f.model.spatiotemporal();
  ASSERT_TRUE(st.hour_tree().fitted());
  ASSERT_TRUE(st.day_tree().fitted());

  // The combining trees' training rows, reassembled from the sub-models.
  std::unordered_map<std::uint32_t, TemporalModel> temporal;
  for (std::uint32_t family = 0;
       family < f.model.dataset().family_names().size(); ++family) {
    if (const TemporalModel* t = st.temporal(family)) {
      temporal.emplace(family, *t);
    }
  }
  std::unordered_map<net::Asn, SpatialModel> spatial;
  for (net::Asn asn : f.serving.targets()) {
    if (const SpatialModel* sp = st.spatial(asn)) spatial.emplace(asn, *sp);
  }
  const std::vector<StRow> rows =
      assemble_rows(f.model.dataset(), f.model.ip_map(), temporal, spatial,
                    st.options());
  ASSERT_FALSE(rows.empty());

  for (const StRow& row : rows) {
    // Thresholds stay f64 in the artifact, so routing is identical and the
    // only divergence is the f32 leaf model arithmetic.
    const double hour = std::clamp(
        st.hour_tree().predict(row.features.hour_row()), 0.0, 23.999);
    const double day = st.day_tree().predict(row.features.day_row());
    EXPECT_EQ(bits(f.serving.predict_hour(row.features, Precision::kF64)),
              bits(hour));
    EXPECT_EQ(bits(f.serving.predict_day(row.features, Precision::kF64)),
              bits(day));
    expect_within_bound(f.serving.predict_hour(row.features, Precision::kF32),
                        hour);
    expect_within_bound(f.serving.predict_day(row.features, Precision::kF32),
                        day);
  }
}

TEST(InferenceView, CombinerPredictionsWithinBound) {
  const Fixture& f = fx();
  const SpatiotemporalModel& st = f.model.spatiotemporal();
  StFeatures features;
  features.tmp_hour = 14.0;
  features.spa_hour = 15.0;
  features.tmp_interval_s = 3600.0;
  features.spa_interval_s = 7200.0;
  features.prev_hour = 13.0;
  features.prev_day = 30.0;
  features.avg_magnitude = 80.0;
  for (int variant = 0; variant < 8; ++variant) {
    features.tmp_hour = 2.0 + 2.5 * variant;
    features.prev_day = 5.0 + 10.0 * variant;
    features.avg_magnitude = 20.0 + 15.0 * variant;
    const double hour = f.serving.predict_hour(features, Precision::kF32);
    EXPECT_EQ(bits(f.serving.predict_hour(features, Precision::kF64)),
              bits(st.predict_hour(features)));
    EXPECT_EQ(bits(f.serving.predict_day(features, Precision::kF64)),
              bits(st.predict_day(features)));
    expect_within_bound(hour, st.predict_hour(features));
    EXPECT_GE(hour, 0.0);
    EXPECT_LT(hour, 24.0);
    expect_within_bound(f.serving.predict_day(features, Precision::kF32),
                        st.predict_day(features));
  }
}

TEST(InferenceView, TemporalForecastMatchesModelLadder) {
  const Fixture& f = fx();
  const std::uint32_t dj = f.model.dataset().family_index("DirtJumper");
  const TemporalModel* temporal = f.model.spatiotemporal().temporal(dj);
  ASSERT_NE(temporal, nullptr);

  const std::vector<double> long_history = synthetic_series(48, 11);
  const std::vector<double> short_history = {12.0};  // Forces fallback rungs.
  std::vector<double> dirty_history = synthetic_series(32, 13);
  dirty_history[5] = std::numeric_limits<double>::quiet_NaN();  // Repair path.

  for (std::size_t s = 0; s < kTemporalSeriesCount; ++s) {
    const auto which = static_cast<TemporalSeries>(s);
    for (const auto& history : {long_history, short_history, dirty_history}) {
      const double want = temporal->forecast_next(which, history);
      EXPECT_EQ(bits(f.serving.forecast_temporal(dj, which, history,
                                                 Precision::kF64)),
                bits(want));
      expect_within_bound(
          f.serving.forecast_temporal(dj, which, history, Precision::kF32),
          want);
    }
  }
}

TEST(InferenceView, SpatialForecastMatchesModelLadder) {
  const Fixture& f = fx();
  const net::Asn busiest = f.model.dataset().target_asns().front();
  const SpatialModel* spatial = f.model.spatiotemporal().spatial(busiest);
  ASSERT_NE(spatial, nullptr);

  const std::vector<double> long_history = synthetic_series(40, 17);
  const std::vector<double> short_history = {7.0};

  for (std::size_t s = 0; s < kSpatialSeriesCount; ++s) {
    const auto which = static_cast<SpatialSeries>(s);
    for (const auto& history : {long_history, short_history}) {
      const double want = spatial->forecast_next(which, history);
      EXPECT_EQ(bits(f.serving.forecast_spatial(busiest, which, history,
                                                Precision::kF64)),
                bits(want));
      expect_within_bound(f.serving.forecast_spatial(busiest, which, history,
                                                     Precision::kF32),
                          want);
    }
  }
}

TEST(InferenceView, UnknownKeysThrow) {
  const Fixture& f = fx();
  const std::vector<double> history = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)f.serving.forecast_temporal(
                   999999, TemporalSeries::kHour, history, Precision::kF32),
               std::invalid_argument);
  EXPECT_THROW((void)f.serving.forecast_spatial(
                   4242424, SpatialSeries::kHour, history, Precision::kF32),
               std::invalid_argument);
}

TEST(Precision, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_precision("f64"), Precision::kF64);
  EXPECT_EQ(parse_precision("f32"), Precision::kF32);
  EXPECT_EQ(precision_name(Precision::kF64), "f64");
  EXPECT_EQ(precision_name(Precision::kF32), "f32");
  EXPECT_THROW((void)parse_precision("f16"), std::invalid_argument);
  EXPECT_THROW((void)parse_precision(""), std::invalid_argument);
}

TEST(EvaluateTimestampsF32, TracksTheF64Evaluation) {
  const Fixture& f = fx();
  const TimestampEvaluation f64 =
      evaluate_timestamps(f.world.dataset, f.world.ip_map, fast_options(),
                          0.8, Precision::kF64);
  const TimestampEvaluation f32 =
      evaluate_timestamps(f.world.dataset, f.world.ip_map, fast_options(),
                          0.8, Precision::kF32);

  ASSERT_EQ(f32.st_hour.size(), f64.st_hour.size());
  ASSERT_EQ(f32.st_day.size(), f64.st_day.size());
  for (std::size_t i = 0; i < f64.st_hour.size(); ++i) {
    expect_within_bound(f32.st_hour[i], f64.st_hour[i]);
  }
  for (std::size_t i = 0; i < f64.st_day.size(); ++i) {
    expect_within_bound(f32.st_day[i], f64.st_day[i]);
  }
  // Fitting and the non-spatiotemporal columns are precision-independent.
  EXPECT_EQ(f32.truth_hour, f64.truth_hour);
  EXPECT_EQ(f32.spa_hour, f64.spa_hour);
  EXPECT_EQ(f32.tmp_hour, f64.tmp_hour);
  EXPECT_LE(std::abs(f32.rmse_hour_st - f64.rmse_hour_st),
            kF32RelErrorBound * std::max(1.0, f64.rmse_hour_st));
}

TEST(ServingModel, TargetsMatchDataset) {
  const Fixture& f = fx();
  const auto targets = f.serving.targets();
  auto want = f.model.dataset().target_asns();
  std::sort(want.begin(), want.end());
  EXPECT_EQ(targets, want);
  EXPECT_FALSE(f.serving.predict(4294967295u).has_value());
  EXPECT_FALSE(f.serving.has_target(4294967295u));
}

TEST(ServingModel, FamilyNamesRoundTrip) {
  const Fixture& f = fx();
  const auto& names = f.model.dataset().family_names();
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(f.serving.family_name(i), names[i]);
  }
}

TEST(ServingModel, MapFileEqualsFromImage) {
  const Fixture& f = fx();
  TempDir tmp;
  const fs::path path = tmp.path / "model.armm";
  durable::atomic_write_file(path, f.serving.image());
  const ServingModel mapped = ServingModel::map_file(path);
  EXPECT_EQ(mapped.image_size(), f.serving.image_size());
  for (net::Asn asn : f.serving.targets()) {
    const auto want = f.serving.predict(asn);
    const auto got = mapped.predict(asn);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (want) expect_identical(*got, *want, asn);
  }
}

TEST(ServingModel, LoadAnyReadsBothFormats) {
  const Fixture& f = fx();
  TempDir tmp;
  const fs::path armm = tmp.path / "model.armm";
  const fs::path art = tmp.path / "model.art";
  durable::atomic_write_file(armm, f.serving.image());
  {
    std::ofstream out(art, std::ios::binary);
    f.model.save_framed(out);
  }
  const ServingModel from_armm = ServingModel::load_any(armm);
  const ServingModel from_art = ServingModel::load_any(art);
  // The framed fallback re-packs in memory; both must serve identically.
  for (net::Asn asn : f.serving.targets()) {
    const auto a = from_armm.predict(asn);
    const auto b = from_art.predict(asn);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) expect_identical(*a, *b, asn);
  }
}

TEST(ServingModel, LoadAnyRejectsGarbage) {
  TempDir tmp;
  const fs::path path = tmp.path / "junk";
  durable::atomic_write_file(path, "not a model at all");
  EXPECT_THROW((void)ServingModel::load_any(path), durable::LoadFailure);
  EXPECT_THROW((void)ServingModel::load_any(tmp.path / "missing"),
               durable::LoadFailure);
}

TEST(ServingModel, ConcurrentPredictIsRaceFreeAndIdentical) {
  // One shared instance, many threads: per-thread scratch means every
  // thread must see the same bits the single-threaded path produces.
  const Fixture& f = fx();
  const auto targets = f.serving.targets();
  std::vector<std::optional<AttackPrediction>> want(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    want[i] = f.serving.predict(targets[i]);
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < targets.size(); ++i) {
        const std::size_t at = (i + static_cast<std::size_t>(t)) %
                               targets.size();
        const auto got = f.serving.predict(
            targets[at], (t % 2) == 0 ? Precision::kF64 : Precision::kF32);
        if ((t % 2) == 0) {
          if (got.has_value() != want[at].has_value() ||
              (got && bits(got->magnitude) != bits(want[at]->magnitude))) {
            failed.store(true);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

TEST(ServingModel, UnloadedPredictThrows) {
  ServingModel empty;
  EXPECT_FALSE(empty.loaded());
  EXPECT_THROW((void)empty.predict(1), std::logic_error);
  EXPECT_THROW((void)empty.predict_hour(StFeatures{}, Precision::kF32),
               std::logic_error);
  EXPECT_THROW((void)empty.predict_day(StFeatures{}, Precision::kF64),
               std::logic_error);
  const std::vector<double> history = {1.0, 2.0};
  EXPECT_THROW((void)empty.forecast_temporal(0, TemporalSeries::kHour,
                                             history, Precision::kF64),
               std::logic_error);
  EXPECT_THROW((void)empty.forecast_spatial(1, SpatialSeries::kHour, history,
                                            Precision::kF32),
               std::logic_error);
}

}  // namespace
}  // namespace acbm::core
