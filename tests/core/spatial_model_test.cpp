#include "core/spatial_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stats/descriptive.h"
#include "trace/world.h"

namespace acbm::core {
namespace {

struct Fixture {
  trace::World world = trace::build_world(trace::small_world_options(23));
  net::Asn busiest;
  TargetSeries series;

  Fixture() {
    busiest = world.dataset.target_asns().front();
    series = extract_target_series(world.dataset, busiest);
  }

  [[nodiscard]] TargetSeries train_prefix(std::size_t n) const {
    TargetSeries out = series;
    n = std::min(n, out.attack_indices.size());
    out.attack_indices.resize(n);
    out.duration_s.resize(n);
    out.interval_s.resize(n);
    out.hour.resize(n);
    out.day.resize(n);
    out.magnitude.resize(n);
    return out;
  }

  /// The training attacks' bots resolved, for SpatialModel::fit.
  [[nodiscard]] SourceTable sources_of(const TargetSeries& s) const {
    return SourceTable(world.dataset, world.ip_map, s.attack_indices);
  }
};

SpatialModelOptions fast_options() {
  SpatialModelOptions opts;
  opts.grid_search = false;  // Keep unit tests fast.
  opts.fixed.mlp.max_epochs = 80;
  return opts;
}

TEST(SpatialModel, FitsOnBusiestTarget) {
  Fixture fx;
  ASSERT_GT(fx.series.attack_indices.size(), 30u);
  SpatialModel model(fast_options());
  model.fit(fx.series, fx.sources_of(fx.series));
  EXPECT_TRUE(model.fitted());
  EXPECT_EQ(model.target_asn(), fx.busiest);
  EXPECT_FALSE(model.tracked_ases().empty());
}

TEST(SpatialModel, UnfittedUseThrows) {
  SpatialModel model;
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW((void)model.forecast_next(SpatialSeries::kDuration, xs),
               std::logic_error);
  EXPECT_THROW(
      (void)model.predict_source_distribution(
          std::span<const std::unordered_map<net::Asn, double>>{}),
      std::logic_error);
}

TEST(SpatialModel, DurationForecastIsFiniteAndPositiveish) {
  Fixture fx;
  SpatialModel model(fast_options());
  const std::size_t split = fx.series.attack_indices.size() * 8 / 10;
  const TargetSeries train = fx.train_prefix(split);
  model.fit(train, fx.sources_of(train));
  const double f =
      model.forecast_next(SpatialSeries::kDuration, fx.series.duration_s);
  EXPECT_TRUE(std::isfinite(f));
  // Durations in the generator live in [30, 2 days]; the forecast should be
  // in a sane band around that.
  EXPECT_GT(f, -86400.0);
  EXPECT_LT(f, 4.0 * 86400.0);
}

TEST(SpatialModel, ShortSeriesUsesMeanFallback) {
  Fixture fx;
  SpatialModel model(fast_options());
  const TargetSeries tiny = fx.train_prefix(5);
  model.fit(tiny, fx.sources_of(tiny));
  const double expected_mean =
      acbm::stats::mean(std::span<const double>(tiny.duration_s));
  EXPECT_DOUBLE_EQ(
      model.forecast_next(SpatialSeries::kDuration, tiny.duration_s),
      expected_mean);
}

TEST(SpatialModel, SourceDistributionIsNormalized) {
  Fixture fx;
  SpatialModel model(fast_options());
  model.fit(fx.series, fx.sources_of(fx.series));
  std::vector<std::unordered_map<net::Asn, double>> history;
  for (std::size_t idx : fx.series.attack_indices) {
    history.push_back(source_asn_distribution(
        fx.world.dataset.attacks()[idx], fx.world.ip_map));
  }
  const auto pred = model.predict_source_distribution(history);
  double total = 0.0;
  for (const auto& [asn, share] : pred) {
    EXPECT_GE(share, 0.0);
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SpatialModel, SourcePredictionTracksRecentShift) {
  // History shifts all mass from AS 1 to AS 2; the EWMA must follow.
  Fixture fx;
  SpatialModel model(fast_options());
  model.fit(fx.series, fx.sources_of(fx.series));
  const net::Asn a = model.tracked_ases().size() > 0 ? model.tracked_ases()[0] : 1;
  const net::Asn b = model.tracked_ases().size() > 1 ? model.tracked_ases()[1] : 2;
  std::vector<std::unordered_map<net::Asn, double>> history;
  for (int i = 0; i < 10; ++i) history.push_back({{a, 1.0}});
  for (int i = 0; i < 10; ++i) history.push_back({{b, 1.0}});
  const auto pred = model.predict_source_distribution(history);
  const double share_a = pred.contains(a) ? pred.at(a) : 0.0;
  const double share_b = pred.contains(b) ? pred.at(b) : 0.0;
  EXPECT_GT(share_b, share_a);
}

TEST(SpatialModel, EmptyHistoryGivesUniformOverTracked) {
  Fixture fx;
  SpatialModel model(fast_options());
  model.fit(fx.series, fx.sources_of(fx.series));
  const auto pred = model.predict_source_distribution(
      std::span<const std::unordered_map<net::Asn, double>>{});
  ASSERT_FALSE(pred.empty());
  const double expected = 1.0 / static_cast<double>(model.tracked_ases().size());
  for (const auto& [asn, share] : pred) {
    EXPECT_NEAR(share, expected, 1e-9);
  }
}

TEST(SpatialModel, GridSearchPathProducesFittedNar) {
  Fixture fx;
  SpatialModelOptions opts;  // Grid search on (defaults are small).
  opts.grid.mlp.max_epochs = 60;
  SpatialModel model(opts);
  model.fit(fx.series, fx.sources_of(fx.series));
  EXPECT_TRUE(model.fitted());
  const double f = model.forecast_next(SpatialSeries::kHour, fx.series.hour);
  EXPECT_TRUE(std::isfinite(f));
}

TEST(SpatialModel, BadStartThrows) {
  Fixture fx;
  SpatialModel model(fast_options());
  model.fit(fx.series, fx.sources_of(fx.series));
  EXPECT_THROW((void)model.one_step_predictions(SpatialSeries::kHour,
                                                fx.series.hour, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace acbm::core
