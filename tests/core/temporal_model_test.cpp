#include "core/temporal_model.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/baselines.h"
#include "stats/metrics.h"
#include "trace/world.h"

namespace acbm::core {
namespace {

struct Fixture {
  trace::World world = trace::build_world(trace::small_world_options(17));
  FamilySeries series;
  std::uint32_t family;

  Fixture() {
    // DirtJumper: the highest-volume family, so series are long.
    family = world.dataset.family_index("DirtJumper");
    series = extract_family_series(world.dataset, family, world.ip_map, nullptr);
  }

  [[nodiscard]] FamilySeries train_prefix(std::size_t n) const {
    FamilySeries out = series;
    const auto cut = [n](std::vector<double>& v) {
      v.resize(std::min(n, v.size()));
    };
    out.attack_indices.resize(std::min(n, out.attack_indices.size()));
    cut(out.magnitude);
    cut(out.activity);
    cut(out.norm_magnitude);
    cut(out.source_coeff);
    cut(out.interval_s);
    cut(out.hour);
    cut(out.day);
    cut(out.duration_s);
    return out;
  }
};

TEST(TemporalModel, FitsAllSeries) {
  Fixture fx;
  TemporalModel model;
  model.fit(fx.series);
  EXPECT_TRUE(model.fitted());
  // The long DirtJumper series must yield real ARIMA models, not fallbacks.
  EXPECT_TRUE(model.model(TemporalSeries::kMagnitude).has_value());
  EXPECT_TRUE(model.model(TemporalSeries::kHour).has_value());
  EXPECT_TRUE(model.model(TemporalSeries::kInterval).has_value());
}

TEST(TemporalModel, UnfittedUseThrows) {
  TemporalModel model;
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_THROW((void)model.forecast_next(TemporalSeries::kMagnitude, xs),
               std::logic_error);
  EXPECT_THROW((void)model.one_step_predictions(TemporalSeries::kHour, xs, 1),
               std::logic_error);
}

TEST(TemporalModel, ShortSeriesFallsBackToMean) {
  FamilySeries tiny;
  tiny.magnitude = {10.0, 12.0, 8.0};
  tiny.activity = {1.0, 1.0, 1.0};
  tiny.norm_magnitude = {1.0, 0.5, 0.3};
  tiny.source_coeff = {0.1, 0.1, 0.1};
  tiny.interval_s = {0.0, 100.0, 200.0};
  tiny.hour = {1.0, 2.0, 3.0};
  tiny.day = {0.0, 1.0, 2.0};
  tiny.duration_s = {60.0, 70.0, 80.0};
  TemporalModel model;
  model.fit(tiny);
  EXPECT_FALSE(model.model(TemporalSeries::kMagnitude).has_value());
  EXPECT_DOUBLE_EQ(model.forecast_next(TemporalSeries::kMagnitude,
                                       tiny.magnitude),
                   10.0);  // Mean of {10, 12, 8}.
}

TEST(TemporalModel, PredictionsBeatAlwaysMeanOnMagnitude) {
  // Fig. 1's headline claim, on the synthetic trace: the temporal model
  // tracks attack magnitudes better than the naive baseline.
  Fixture fx;
  const std::size_t n = fx.series.magnitude.size();
  ASSERT_GT(n, 100u);
  const std::size_t split = n * 8 / 10;
  TemporalModel model;
  model.fit(fx.train_prefix(split));
  const auto preds = model.one_step_predictions(TemporalSeries::kMagnitude,
                                                fx.series.magnitude, split);
  const auto mean_preds = always_mean_predictions(fx.series.magnitude, split);
  const std::vector<double> truth(fx.series.magnitude.begin() + split,
                                  fx.series.magnitude.end());
  EXPECT_LT(acbm::stats::rmse(truth, preds),
            acbm::stats::rmse(truth, mean_preds) * 1.05);
}

TEST(TemporalModel, OneStepPredictionsAreCausal) {
  Fixture fx;
  const std::size_t n = fx.series.hour.size();
  const std::size_t split = n * 8 / 10;
  TemporalModel model;
  model.fit(fx.train_prefix(split));
  auto mutated = fx.series.hour;
  const auto before =
      model.one_step_predictions(TemporalSeries::kHour, fx.series.hour, split);
  mutated.back() += 12.0;
  const auto after =
      model.one_step_predictions(TemporalSeries::kHour, mutated, split);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i], after[i]);
  }
}

TEST(TemporalModel, AutoOrderAlsoWorks) {
  Fixture fx;
  TemporalModelOptions opts;
  opts.auto_order = true;
  opts.auto_options.max_p = 2;
  opts.auto_options.max_q = 1;
  opts.auto_options.max_d = 0;
  TemporalModel model(opts);
  model.fit(fx.train_prefix(fx.series.magnitude.size() * 8 / 10));
  EXPECT_TRUE(model.fitted());
  const double f = model.forecast_next(TemporalSeries::kMagnitude,
                                       fx.series.magnitude);
  EXPECT_GT(f, 0.0);
  EXPECT_LT(f, 10000.0);
}

TEST(TemporalModel, ForecastHorizonConvergesToLongRunForecast) {
  Fixture fx;
  TemporalModel model;
  model.fit(fx.series);
  const std::span<const double> history(fx.series.magnitude.data(),
                                        fx.series.magnitude.size() / 2);
  const double h1 =
      model.forecast_horizon(TemporalSeries::kMagnitude, history, 1);
  // Horizon 1 equals the one-step forecast.
  EXPECT_DOUBLE_EQ(
      h1, model.forecast_next(TemporalSeries::kMagnitude, history));
  // Beyond the cap the forecast is the converged long-run value: huge
  // horizons give identical results.
  const double far1 =
      model.forecast_horizon(TemporalSeries::kMagnitude, history, 100000);
  const double far2 =
      model.forecast_horizon(TemporalSeries::kMagnitude, history, 999999);
  EXPECT_DOUBLE_EQ(far1, far2);
  EXPECT_TRUE(std::isfinite(far1));
}

TEST(TemporalModel, ForecastHorizonZeroThrows) {
  Fixture fx;
  TemporalModel model;
  model.fit(fx.series);
  EXPECT_THROW((void)model.forecast_horizon(TemporalSeries::kHour,
                                            fx.series.hour, 0),
               std::invalid_argument);
}

TEST(TemporalModel, BadStartThrows) {
  Fixture fx;
  TemporalModel model;
  model.fit(fx.series);
  EXPECT_THROW((void)model.one_step_predictions(TemporalSeries::kMagnitude,
                                                fx.series.magnitude, 0),
               std::invalid_argument);
}

// --- Prefix forecaster -------------------------------------------------------

FamilySeries same_series_everywhere(const std::vector<double>& xs) {
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

std::vector<double> wavy_series(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t t = 0; t < n; ++t) {
    const auto x = static_cast<double>(t);
    xs.push_back(10.0 + std::sin(0.4 * x) + 0.3 * std::cos(1.9 * x));
  }
  return xs;
}

/// A forecaster built on series.first(len) and one built on the whole
/// series must give the same double, bit for bit, for every prefix length
/// and horizon, including horizons past the default 64-step cap.
void expect_prefix_forecasts_match(const TemporalModel& model,
                                   TemporalSeries which,
                                   const std::vector<double>& series) {
  const std::span<const double> all(series);
  const TemporalModel::Forecaster full = model.forecaster(which, all);
  for (std::size_t len = 0; len <= series.size(); ++len) {
    const TemporalModel::Forecaster prefix =
        model.forecaster(which, all.first(len));
    for (const std::size_t h : {1u, 2u, 63u, 64u, 65u, 1000u}) {
      const double expected = prefix.forecast_horizon(len, h);
      const double got = full.forecast_horizon(len, h);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(expected))
          << "len " << len << " h " << h << ": " << got << " vs "
          << expected;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(
                    model.forecast_horizon(which, all.first(len), h)),
                std::bit_cast<std::uint64_t>(expected));
    }
  }
}

TEST(TemporalForecaster, ArimaWithoutDifferencingMatchesEveryPrefix) {
  const std::vector<double> xs = wavy_series(150);
  TemporalModel model;  // Default order (2, 0, 1).
  model.fit(same_series_everywhere(xs));
  ASSERT_EQ(model.rung(TemporalSeries::kHour), FitRung::kArima);
  ASSERT_EQ(model.model(TemporalSeries::kHour)->order().d, 0u);
  expect_prefix_forecasts_match(model, TemporalSeries::kHour, xs);
}

TEST(TemporalForecaster, ArimaWithDifferencingMatchesEveryPrefix) {
  std::vector<double> xs;
  double level = 0.0;
  for (std::size_t t = 0; t < 150; ++t) {
    level += 0.5 + std::sin(0.7 * static_cast<double>(t));
    xs.push_back(level);
  }
  TemporalModelOptions opts;
  opts.order = {1, 1, 1};
  TemporalModel model(opts);
  model.fit(same_series_everywhere(xs));
  ASSERT_EQ(model.rung(TemporalSeries::kInterval), FitRung::kArima);
  ASSERT_EQ(model.model(TemporalSeries::kInterval)->order().d, 1u);
  expect_prefix_forecasts_match(model, TemporalSeries::kInterval, xs);
}

TEST(TemporalForecaster, SeasonalNaiveMatchesEveryPrefix) {
  // No cheap series falls through both the ARIMA and AR(1) rungs, so the
  // seasonal-naive slot state is loaded directly.
  std::ostringstream text;
  text << "acbm:temporal:v2\nfitted 1\nseries_count " << kTemporalSeriesCount
       << "\n";
  for (std::size_t s = 0; s < kTemporalSeriesCount; ++s) {
    text << "fallback_mean 3.25\nrung "
         << static_cast<int>(FitRung::kSeasonalNaive)
         << "\nseasonal_period 5\nhas_arima 0\n";
  }
  std::istringstream in(text.str());
  const TemporalModel model = TemporalModel::load(in);
  ASSERT_EQ(model.rung(TemporalSeries::kHour), FitRung::kSeasonalNaive);
  std::vector<double> xs = wavy_series(40);
  xs[12] = std::numeric_limits<double>::quiet_NaN();  // Repaired to the mean.
  expect_prefix_forecasts_match(model, TemporalSeries::kHour, xs);
}

TEST(TemporalForecaster, MeanRungMatchesEveryPrefix) {
  const std::vector<double> short_series = wavy_series(12);
  TemporalModel model;
  model.fit(same_series_everywhere(short_series));
  ASSERT_EQ(model.rung(TemporalSeries::kHour), FitRung::kMean);
  expect_prefix_forecasts_match(model, TemporalSeries::kHour, wavy_series(50));
}

TEST(TemporalForecaster, NanPoisonedSeriesMatchesEveryPrefix) {
  // The temporal.nonfinite fault path: every 7th value NaN. The fit lands
  // on the AR rung and every forecast goes through the predict-time repair.
  std::vector<double> xs = wavy_series(120);
  for (std::size_t i = 0; i < xs.size(); i += 7) {
    xs[i] = std::numeric_limits<double>::quiet_NaN();
  }
  TemporalModel model;
  model.fit(same_series_everywhere(xs));
  ASSERT_EQ(model.rung(TemporalSeries::kInterval), FitRung::kAr);
  expect_prefix_forecasts_match(model, TemporalSeries::kInterval, xs);
}

TEST(TemporalForecaster, PrefixBeyondSeriesAndHorizonZeroThrow) {
  const std::vector<double> xs = wavy_series(60);
  TemporalModel model;
  model.fit(same_series_everywhere(xs));
  const TemporalModel::Forecaster f = model.forecaster(TemporalSeries::kHour, xs);
  EXPECT_THROW((void)f.forecast_horizon(xs.size() + 1, 1),
               std::invalid_argument);
  EXPECT_THROW((void)f.forecast_horizon(10, 0), std::invalid_argument);
  EXPECT_THROW((void)TemporalModel().forecaster(TemporalSeries::kHour, xs),
               std::logic_error);
}

}  // namespace
}  // namespace acbm::core
