#include "core/temporal_model.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/durable.h"
#include "stats/descriptive.h"
#include "stats/serialize.h"

namespace acbm::core {

namespace {
std::span<const double> pick(const FamilySeries& fs, TemporalSeries which) {
  switch (which) {
    case TemporalSeries::kMagnitude: return fs.magnitude;
    case TemporalSeries::kActivity: return fs.activity;
    case TemporalSeries::kNormMagnitude: return fs.norm_magnitude;
    case TemporalSeries::kSourceCoeff: return fs.source_coeff;
    case TemporalSeries::kInterval: return fs.interval_s;
    case TemporalSeries::kHour: return fs.hour;
  }
  throw std::invalid_argument("TemporalModel: unknown series");
}

const char* series_name(TemporalSeries which) {
  switch (which) {
    case TemporalSeries::kMagnitude: return "magnitude";
    case TemporalSeries::kActivity: return "activity";
    case TemporalSeries::kNormMagnitude: return "norm_magnitude";
    case TemporalSeries::kSourceCoeff: return "source_coeff";
    case TemporalSeries::kInterval: return "interval";
    case TemporalSeries::kHour: return "hour";
  }
  return "unknown";
}

/// Seasonal-naive rung: the lag in [2, min(n/2, 24)] with the strongest
/// positive autocorrelation, or 0 when nothing stands out (rung unusable).
std::size_t pick_seasonal_period(std::span<const double> xs) {
  const std::size_t max_lag = std::min<std::size_t>(xs.size() / 2, 24);
  if (max_lag < 2) return 0;
  const std::vector<double> rho = acbm::stats::acf(xs, max_lag);
  std::size_t best = 0;
  double best_rho = 0.2;  // Weak seasonality is worse than the plain mean.
  for (std::size_t lag = 2; lag < rho.size(); ++lag) {
    if (std::isfinite(rho[lag]) && rho[lag] > best_rho) {
      best = lag;
      best_rho = rho[lag];
    }
  }
  return best;
}

/// Predict-time repair: non-finite history values are replaced by the
/// fitted fallback mean, keeping positions (and output lengths) aligned.
std::span<const double> repair_history(std::span<const double> xs, double fill,
                                       std::vector<double>& storage) {
  if (all_finite(xs)) return xs;
  storage.assign(xs.begin(), xs.end());
  for (double& x : storage) {
    if (!std::isfinite(x)) x = fill;
  }
  return storage;
}
}  // namespace

const TemporalModel::SeriesModel& TemporalModel::series_model(
    TemporalSeries which) const {
  return models_[static_cast<std::size_t>(which)];
}

void TemporalModel::fit_one(TemporalSeries which,
                            std::span<const double> series) {
  SeriesModel& slot = models_[static_cast<std::size_t>(which)];
  slot.arima.reset();
  slot.seasonal_period = 0;
  slot.rung = FitRung::kMean;

  FitRecord record;
  record.component = series_name(which);
  const auto note = [&record](FitError error, const std::string& detail) {
    if (record.error) return;  // Keep the first (highest-rung) failure.
    record.error = error;
    record.detail = detail;
  };

  // Repair: strip non-finite observations before fitting anything.
  std::size_t dropped = 0;
  std::vector<double> cleaned;
  std::span<const double> work = series;
  if (!all_finite(series)) {
    cleaned = drop_nonfinite(series, &dropped);
    work = cleaned;
    note(FitError::kNonfiniteInput,
         "stripped " + std::to_string(dropped) + " non-finite values");
  }
  slot.fallback_mean = acbm::stats::mean(work);

  if (work.size() >= opts_.min_fit_length) {
    // Rung 1: the requested ARIMA. Skipped when the series needed repair —
    // stripping observations breaks the equal-spacing the order was chosen
    // for, so a repaired series starts at the conservative AR rung.
    if (dropped == 0) {
      try {
        if (opts_.auto_order) {
          if (auto best = ts::auto_arima(work, opts_.auto_options)) {
            slot.arima = std::move(best->model);
            slot.rung = FitRung::kArima;
          } else {
            note(FitError::kNonconvergence, "auto_arima: no candidate fit");
          }
        } else {
          ts::ArimaModel model(opts_.order);
          model.fit(work);
          slot.arima = std::move(model);
          slot.rung = FitRung::kArima;
        }
      } catch (const FitFailure& e) {
        note(e.code(), e.what());
      } catch (const std::invalid_argument& e) {
        note(FitError::kSeriesTooShort, e.what());
      } catch (const std::domain_error& e) {
        note(FitError::kSingularSystem, e.what());
      }
    }

    // Rung 2: AR(1) (stored as a degenerate ARIMA so forecasting and
    // serialization reuse the arima slot).
    if (!slot.arima) {
      try {
        ts::ArimaModel ar({1, 0, 0});
        ar.fit(work);
        slot.arima = std::move(ar);
        slot.rung = FitRung::kAr;
      } catch (const std::invalid_argument&) {
      } catch (const std::domain_error&) {
      }
    }

    // Rung 3: seasonal-naive, when the series has a usable period.
    if (!slot.arima) {
      slot.seasonal_period = pick_seasonal_period(work);
      if (slot.seasonal_period > 0) slot.rung = FitRung::kSeasonalNaive;
    }
  } else {
    note(FitError::kSeriesTooShort,
         "length " + std::to_string(work.size()) + " < " +
             std::to_string(opts_.min_fit_length));
  }

  // Rung 4 (mean) is the slot's default state.
  record.rung = slot.rung;
  report_.add(std::move(record));
}

void TemporalModel::fit(const FamilySeries& train) {
  report_.clear();
  for (std::size_t s = 0; s < kTemporalSeriesCount; ++s) {
    fit_one(static_cast<TemporalSeries>(s),
            pick(train, static_cast<TemporalSeries>(s)));
  }
  fitted_ = true;
}

std::vector<double> TemporalModel::one_step_predictions(
    TemporalSeries which, std::span<const double> full_series,
    std::size_t start) const {
  if (!fitted_) throw std::logic_error("TemporalModel: not fitted");
  if (start == 0 || start > full_series.size()) {
    throw std::invalid_argument("TemporalModel::one_step_predictions: bad start");
  }
  const SeriesModel& slot = series_model(which);
  std::vector<double> storage;
  const std::span<const double> series =
      repair_history(full_series, slot.fallback_mean, storage);
  if (slot.arima && start > slot.arima->order().d) {
    return slot.arima->one_step_predictions(series, start);
  }
  if (slot.seasonal_period > 0) {
    std::vector<double> preds;
    preds.reserve(series.size() - start);
    for (std::size_t t = start; t < series.size(); ++t) {
      preds.push_back(t >= slot.seasonal_period
                          ? series[t - slot.seasonal_period]
                          : slot.fallback_mean);
    }
    return preds;
  }
  return std::vector<double>(full_series.size() - start, slot.fallback_mean);
}

double TemporalModel::forecast_next(TemporalSeries which,
                                    std::span<const double> history) const {
  return forecast_horizon(which, history, 1);
}

double TemporalModel::forecast_horizon(TemporalSeries which,
                                       std::span<const double> history,
                                       std::size_t horizon,
                                       std::size_t max_horizon) const {
  return forecaster(which, history)
      .forecast_horizon(history.size(), horizon, max_horizon);
}

TemporalModel::Forecaster TemporalModel::forecaster(
    TemporalSeries which, std::span<const double> series) const {
  if (!fitted_) throw std::logic_error("TemporalModel: not fitted");
  return Forecaster(series_model(which), series);
}

TemporalModel::Forecaster::Forecaster(const SeriesModel& slot,
                                      std::span<const double> series)
    : slot_(&slot), series_(series.begin(), series.end()) {
  for (double& x : series_) {
    if (!std::isfinite(x)) x = slot.fallback_mean;
  }
  if (slot.arima && series_.size() > slot.arima->order().d) {
    arima_.emplace(*slot.arima, series_);
  }
}

double TemporalModel::Forecaster::forecast_horizon(
    std::size_t len, std::size_t horizon, std::size_t max_horizon) const {
  if (horizon == 0) {
    throw std::invalid_argument("TemporalModel::forecast_horizon: horizon 0");
  }
  if (len > series_.size()) {
    throw std::invalid_argument(
        "TemporalModel::forecast_horizon: prefix beyond series");
  }
  const std::size_t h = std::min(horizon, std::max<std::size_t>(max_horizon, 1));
  if (arima_ && len > slot_->arima->order().d) {
    return arima_->forecast(len, h).back();
  }
  const std::size_t period = slot_->seasonal_period;
  if (period > 0 && len >= period) {
    // Seasonal naive: repeat the value one whole period back from the
    // forecast position.
    return series_[len - period + ((h - 1) % period)];
  }
  return slot_->fallback_mean;
}

const std::optional<ts::ArimaModel>& TemporalModel::model(
    TemporalSeries which) const {
  return series_model(which).arima;
}

FitRung TemporalModel::rung(TemporalSeries which) const {
  return series_model(which).rung;
}

double TemporalModel::fallback_mean(TemporalSeries which) const {
  return series_model(which).fallback_mean;
}

std::size_t TemporalModel::seasonal_period(TemporalSeries which) const {
  return series_model(which).seasonal_period;
}

void TemporalModel::save(std::ostream& os) const {
  namespace io = acbm::stats::io;
  io::write_header(os, "temporal", 2);
  io::write_scalar(os, "fitted", fitted_ ? 1 : 0);
  io::write_scalar(os, "series_count", models_.size());
  for (const SeriesModel& slot : models_) {
    io::write_scalar(os, "fallback_mean", slot.fallback_mean);
    io::write_scalar(os, "rung", static_cast<int>(slot.rung));
    io::write_scalar(os, "seasonal_period", slot.seasonal_period);
    io::write_scalar(os, "has_arima", slot.arima.has_value() ? 1 : 0);
    if (slot.arima) slot.arima->save(os);
  }
}

void TemporalModel::save_framed(std::ostream& os) const {
  std::ostringstream body;
  save(body);
  os << durable::frame_payload("temporal", 3, body.str());
}

TemporalModel TemporalModel::load_framed(std::istream& is) {
  return durable::load_framed_stream(
      is, "temporal", 3, 3, [](std::istream& body) { return load(body); });
}

TemporalModel TemporalModel::load(std::istream& is) {
  namespace io = acbm::stats::io;
  io::expect_header(is, "temporal", 2);
  TemporalModel model;
  model.fitted_ = io::read_scalar<int>(is, "fitted") != 0;
  const auto count = io::read_scalar<std::size_t>(is, "series_count");
  if (count != kTemporalSeriesCount) {
    throw std::invalid_argument("TemporalModel::load: series count mismatch");
  }
  for (SeriesModel& slot : model.models_) {
    slot.fallback_mean = io::read_scalar<double>(is, "fallback_mean");
    const int rung = io::read_scalar<int>(is, "rung");
    if (rung < 0 || rung > static_cast<int>(FitRung::kPooledLinear)) {
      throw std::invalid_argument("TemporalModel::load: bad rung");
    }
    slot.rung = static_cast<FitRung>(rung);
    slot.seasonal_period = io::read_scalar<std::size_t>(is, "seasonal_period");
    if (io::read_scalar<int>(is, "has_arima") != 0) {
      slot.arima = ts::ArimaModel::load(is);
    }
  }
  return model;
}

}  // namespace acbm::core
