// Degenerate inputs and injected faults must walk the degradation ladder to
// a documented rung — never crash. Covers every rung of each ladder plus the
// acceptance scenario: a faulted family degrades, everything else does not.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/robust.h"
#include "core/spatial_model.h"
#include "core/spatiotemporal_model.h"
#include "core/temporal_model.h"
#include "nn/grid_search.h"
#include "trace/world.h"
#include "ts/arma.h"

namespace acbm::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// Clears injected faults and the thread override on exit so a failing test
// cannot poison later ones.
struct FaultGuard {
  ~FaultGuard() {
    FaultInjector::instance().clear();
    set_num_threads(0);
  }
};

FamilySeries uniform_family_series(const std::vector<double>& xs) {
  FamilySeries fs;
  fs.magnitude = xs;
  fs.activity = xs;
  fs.norm_magnitude = xs;
  fs.source_coeff = xs;
  fs.interval_s = xs;
  fs.hour = xs;
  fs.day = xs;
  fs.duration_s = xs;
  return fs;
}

const FitRecord* find_record(const FitReport& report,
                             const std::string& component) {
  for (const FitRecord& record : report.records()) {
    if (record.component == component) return &record;
  }
  return nullptr;
}

TEST(TemporalDegradation, ConstantSeriesNeverCrashes) {
  // A constant series is the classic ARIMA killer. The ridge-stabilized
  // normal equations keep the primary rung alive here; what matters is that
  // the fit lands on a documented rung, forecasts the constant, and the
  // report marks nothing degraded.
  const std::vector<double> xs(64, 5.0);
  TemporalModel model;
  model.fit(uniform_family_series(xs));
  EXPECT_TRUE(model.fitted());
  EXPECT_NEAR(model.forecast_next(TemporalSeries::kMagnitude, xs), 5.0, 1e-6);
  const auto preds =
      model.one_step_predictions(TemporalSeries::kMagnitude, xs, 32);
  for (double p : preds) EXPECT_TRUE(std::isfinite(p));
  ASSERT_EQ(model.fit_report().size(), kTemporalSeriesCount);
  const FitRecord* record = find_record(model.fit_report(), "magnitude");
  ASSERT_NE(record, nullptr);
  EXPECT_FALSE(record->degraded());
}

TEST(TemporalDegradation, ArmaFitFailuresAreTyped) {
  ts::ArmaModel model({2, 1});
  try {
    model.fit(std::vector<double>{1.0, 2.0, 3.0});
    FAIL() << "short-series fit must throw";
  } catch (const FitFailure& e) {
    EXPECT_EQ(e.code(), FitError::kSeriesTooShort);
  }
  std::vector<double> xs(40, 0.0);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = std::sin(0.3 * i);
  xs[17] = kNan;
  try {
    model.fit(xs);
    FAIL() << "non-finite input must throw";
  } catch (const FitFailure& e) {
    EXPECT_EQ(e.code(), FitError::kNonfiniteInput);
  }
}

TEST(TemporalDegradation, AllNanSeriesLandsOnMeanWithNonfiniteError) {
  const std::vector<double> xs(40, kNan);
  TemporalModel model;
  model.fit(uniform_family_series(xs));
  EXPECT_EQ(model.rung(TemporalSeries::kHour), FitRung::kMean);
  const double f = model.forecast_next(TemporalSeries::kHour, xs);
  EXPECT_TRUE(std::isfinite(f));

  const FitRecord* record = find_record(model.fit_report(), "hour");
  ASSERT_NE(record, nullptr);
  ASSERT_TRUE(record->error.has_value());
  EXPECT_EQ(*record->error, FitError::kNonfiniteInput);
  EXPECT_TRUE(record->degraded());
}

TEST(TemporalDegradation, RepairedSeriesSkipsArimaAndLandsOnAr) {
  // A corrupt-but-long series is stripped of NaNs; the stripped series no
  // longer has equal spacing, so the primary ARIMA rung is skipped and the
  // fit starts at the conservative AR rung.
  std::vector<double> xs;
  for (int t = 0; t < 80; ++t) {
    xs.push_back(10.0 + std::sin(0.4 * t) + 0.1 * std::cos(1.7 * t));
  }
  for (std::size_t i = 0; i < xs.size(); i += 7) xs[i] = kNan;
  TemporalModel model;
  model.fit(uniform_family_series(xs));
  EXPECT_EQ(model.rung(TemporalSeries::kMagnitude), FitRung::kAr);
  EXPECT_TRUE(std::isfinite(model.forecast_next(TemporalSeries::kMagnitude, xs)));

  const FitRecord* record = find_record(model.fit_report(), "magnitude");
  ASSERT_NE(record, nullptr);
  ASSERT_TRUE(record->error.has_value());
  EXPECT_EQ(*record->error, FitError::kNonfiniteInput);
  EXPECT_TRUE(record->degraded());
}

TEST(TemporalDegradation, ShortSeriesIsPolicyNotDegradation) {
  const std::vector<double> xs{10.0, 12.0, 8.0};
  TemporalModel model;
  model.fit(uniform_family_series(xs));
  EXPECT_EQ(model.rung(TemporalSeries::kMagnitude), FitRung::kMean);
  const FitRecord* record = find_record(model.fit_report(), "magnitude");
  ASSERT_NE(record, nullptr);
  ASSERT_TRUE(record->error.has_value());
  EXPECT_EQ(*record->error, FitError::kSeriesTooShort);
  EXPECT_FALSE(record->degraded());
  EXPECT_EQ(model.fit_report().degraded_count(), 0u);
}

struct SpatialFixture {
  trace::World world = trace::build_world(trace::small_world_options(23));
  TargetSeries series;

  SpatialFixture() {
    series = extract_target_series(world.dataset,
                                   world.dataset.target_asns().front());
  }

  /// The training attacks' bots resolved, for SpatialModel::fit.
  [[nodiscard]] SourceTable sources_of(const TargetSeries& s) const {
    return SourceTable(world.dataset, world.ip_map, s.attack_indices);
  }

  [[nodiscard]] SpatialModelOptions fast_options() const {
    SpatialModelOptions opts;
    opts.grid_search = false;
    opts.fixed.mlp.max_epochs = 60;
    return opts;
  }
};

TEST(SpatialDegradation, InjectedNonconvergenceTriggersSeededRetry) {
  FaultGuard guard;
  SpatialFixture fx;
  // Fail every first attempt; the perturbed-seed retry must succeed.
  FaultInjector::instance().configure("nar.nonconvergence:attempt=0");
  SpatialModel model(fx.fast_options());
  model.fit(fx.series, fx.sources_of(fx.series));
  ASSERT_TRUE(model.fitted());
  EXPECT_EQ(model.rung(SpatialSeries::kDuration), FitRung::kNarRetry);
  EXPECT_EQ(model.rung(SpatialSeries::kHour), FitRung::kNarRetry);
  const FitRecord* record = find_record(model.fit_report(), "duration");
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->degraded());
  ASSERT_TRUE(record->error.has_value());
  EXPECT_EQ(*record->error, FitError::kNonconvergence);
  EXPECT_TRUE(std::isfinite(
      model.forecast_next(SpatialSeries::kDuration, fx.series.duration_s)));
}

TEST(SpatialDegradation, PersistentNonconvergenceFallsToAr) {
  FaultGuard guard;
  SpatialFixture fx;
  // No attempt filter: every NAR attempt fails, landing on the AR rung.
  FaultInjector::instance().configure("nar.nonconvergence");
  SpatialModel model(fx.fast_options());
  model.fit(fx.series, fx.sources_of(fx.series));
  ASSERT_TRUE(model.fitted());
  EXPECT_EQ(model.rung(SpatialSeries::kDuration), FitRung::kAr);
  EXPECT_TRUE(std::isfinite(
      model.forecast_next(SpatialSeries::kDuration, fx.series.duration_s)));
  const auto preds = model.one_step_predictions(
      SpatialSeries::kHour, fx.series.hour, fx.series.hour.size() / 2);
  for (double p : preds) EXPECT_TRUE(std::isfinite(p));
}

TEST(SpatialDegradation, EmptyHistoryPredictsFromFallback) {
  SpatialFixture fx;
  SpatialModel model(fx.fast_options());
  model.fit(fx.series, fx.sources_of(fx.series));
  // Empty target history must not crash any rung.
  const std::vector<double> empty;
  EXPECT_TRUE(std::isfinite(model.forecast_next(SpatialSeries::kDuration, empty)));
  EXPECT_TRUE(std::isfinite(model.forecast_next(SpatialSeries::kHour, empty)));
}

TEST(GridSearchDegradation, AllCandidatesFailedReturnsTypedError) {
  // Constant series: every candidate trains but forecasts are degenerate on
  // the holdout; with delays longer than the series nothing fits at all.
  const std::vector<double> tiny{1.0, 2.0, 3.0, 4.0, 5.0};
  nn::NarGridOptions opts;
  opts.delay_grid = {50};
  opts.hidden_grid = {2};
  const auto result = nn::nar_grid_search(tiny, opts);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error(), FitError::kSeriesTooShort);
}

SpatiotemporalOptions fast_st_options() {
  SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  opts.spatial.fixed.mlp.max_epochs = 60;
  return opts;
}

TEST(TreeDegradation, InjectedTreeFaultFallsToPooledLinear) {
  FaultGuard guard;
  trace::World world = trace::build_world(trace::small_world_options(29));
  FaultInjector::instance().configure("tree.fail:hour");
  SpatiotemporalModel model(fast_st_options());
  model.fit(world.dataset, world.ip_map);
  ASSERT_TRUE(model.fitted());

  const FitRecord* hour = find_record(model.fit_report(), "tree/hour");
  ASSERT_NE(hour, nullptr);
  EXPECT_EQ(hour->rung, FitRung::kPooledLinear);
  EXPECT_TRUE(hour->degraded());
  const FitRecord* day = find_record(model.fit_report(), "tree/day");
  ASSERT_NE(day, nullptr);
  EXPECT_EQ(day->rung, FitRung::kModelTree);
  EXPECT_FALSE(day->degraded());

  StFeatures f;
  f.tmp_hour = 14.0;
  f.spa_hour = 15.0;
  f.tmp_interval_s = 3600.0;
  f.spa_interval_s = 7200.0;
  f.prev_hour = 13.0;
  f.prev_day = 30.0;
  f.avg_magnitude = 80.0;
  const double hour_pred = model.predict_hour(f);
  EXPECT_GE(hour_pred, 0.0);
  EXPECT_LT(hour_pred, 24.0);
  EXPECT_TRUE(std::isfinite(model.predict_day(f)));
}

TEST(PipelineDegradation, SingleAttackFamilyAndUnknownTargetNeverCrash) {
  // A dataset with one single-attack family and one target: every ladder
  // bottoms out on a policy rung and prediction still works end to end.
  std::vector<trace::Attack> attacks;
  trace::Attack attack;
  attack.id = 1;
  attack.family = 0;
  attack.target_ip = net::parse_ipv4("10.0.0.1");
  attack.target_asn = 7;
  attack.start = 1000;
  attack.duration_s = 60.0;
  attacks.push_back(attack);
  const trace::Dataset dataset({"lonely"}, attacks, {}, 0);

  AdversaryModel model(fast_st_options());
  model.fit(dataset, net::IpToAsnMap{});
  EXPECT_TRUE(model.fitted());
  // Nothing fit at a primary rung, but nothing degraded either: there was
  // never enough data to attempt a primary fit.
  EXPECT_EQ(model.fit_report().degraded_count(), 0u);
  EXPECT_GT(model.fit_report().size(), 0u);
  // Unknown target: no history, no prediction, no crash.
  EXPECT_FALSE(model.predict_next_attack(999).has_value());
  // Known target with a one-attack history still produces finite output.
  const auto pred = model.predict_next_attack(7);
  if (pred) {
    EXPECT_TRUE(std::isfinite(pred->magnitude));
    EXPECT_TRUE(std::isfinite(pred->hour));
  }
}

TEST(PipelineDegradation, FaultedFamilyDegradesExactlyThatFamily) {
  // The acceptance scenario: corrupt one family's series via ACBM_FAULTS
  // semantics; the full fit+predict run completes and the report names the
  // degraded rungs for exactly the faulted components.
  FaultGuard guard;
  trace::World world = trace::build_world(trace::small_world_options(29));
  const std::string faulted = "DirtJumper";

  // Baseline: whatever degrades without faults degrades for data reasons and
  // is excluded from the comparison.
  std::set<std::string> baseline;
  {
    AdversaryModel clean(fast_st_options());
    clean.fit(world.dataset, world.ip_map);
    for (const FitRecord* record : clean.fit_report().degraded()) {
      baseline.insert(record->component);
    }
  }

  FaultInjector::instance().configure("temporal.nonfinite:family=" + faulted);
  AdversaryModel model(fast_st_options());
  model.fit(world.dataset, world.ip_map);
  ASSERT_TRUE(model.fitted());

  const std::string prefix = "temporal/" + faulted + "/";
  std::size_t newly_degraded = 0;
  for (const FitRecord* record : model.fit_report().degraded()) {
    if (baseline.count(record->component) > 0) continue;
    ++newly_degraded;
    EXPECT_EQ(record->component.rfind(prefix, 0), 0u)
        << "unexpected degraded component " << record->component;
    EXPECT_FALSE(is_primary_rung(record->rung));
  }
  ASSERT_GT(newly_degraded, 0u);
  // The full predict path still runs on the degraded model.
  const net::Asn busiest = world.dataset.target_asns().front();
  const auto pred = model.predict_next_attack(busiest);
  ASSERT_TRUE(pred.has_value());
  EXPECT_TRUE(std::isfinite(pred->magnitude));
  EXPECT_TRUE(std::isfinite(pred->duration_s));
  EXPECT_GE(pred->hour, 0.0);
  EXPECT_LT(pred->hour, 24.0);
}

}  // namespace
}  // namespace acbm::core
