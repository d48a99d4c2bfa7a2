// The temporal model (§IV): per-family ARIMA over the attacker-side time
// series A^f, A^b, A^s (Eq. 5), plus the derived magnitude, inter-launch
// interval, and launch-hour series the evaluation predicts (Fig. 1, and the
// N_tmp / N_int inputs of the spatiotemporal model).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/features.h"
#include "core/robust.h"
#include "ts/arima.h"
#include "ts/selection.h"

namespace acbm::core {

/// The series the temporal model maintains an ARIMA for.
enum class TemporalSeries {
  kMagnitude,       ///< Raw bots per attack (Fig. 1's target).
  kActivity,        ///< A^f, Eq. 1.
  kNormMagnitude,   ///< A^b, Eq. 2.
  kSourceCoeff,     ///< A^s, Eq. 3.
  kInterval,        ///< Seconds between consecutive family attacks.
  kHour,            ///< Launch hour of day.
};
inline constexpr std::size_t kTemporalSeriesCount = 6;

struct TemporalModelOptions {
  ts::ArimaOrder order{2, 0, 1};
  /// When true, the order is chosen per series by AIC grid search
  /// (DESIGN.md ablation #1).
  bool auto_order = false;
  ts::AutoArimaOptions auto_options;
  /// Series shorter than this are modeled by their mean (degenerate ARIMA).
  std::size_t min_fit_length = 30;
};

/// Per-family temporal model: one ARIMA per series.
class TemporalModel {
 public:
  TemporalModel() = default;
  explicit TemporalModel(TemporalModelOptions opts) : opts_(std::move(opts)) {}

  /// Fits on the training prefix of a family's series.
  void fit(const FamilySeries& train);

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }

  /// One-step walk-forward predictions over a full (train+test) series for
  /// positions [start, series.size()); causal (each prediction only sees
  /// earlier values). Falls back to the training mean when the underlying
  /// ARIMA could not be fitted.
  [[nodiscard]] std::vector<double> one_step_predictions(
      TemporalSeries which, std::span<const double> full_series,
      std::size_t start) const;

  /// Forecast of the next value after `history`.
  [[nodiscard]] double forecast_next(TemporalSeries which,
                                     std::span<const double> history) const;

  /// h-step-ahead forecast: the value at position history.size() + h - 1,
  /// conditioning only on `history`. Horizons beyond `max_horizon` (where
  /// an ARMA forecast has converged to the unconditional mean anyway)
  /// return the converged long-run forecast. Equivalent to
  /// forecaster(which, history).forecast_horizon(history.size(), ...).
  [[nodiscard]] double forecast_horizon(TemporalSeries which,
                                        std::span<const double> history,
                                        std::size_t horizon,
                                        std::size_t max_horizon = 64) const;

  class Forecaster;

  /// A forecaster over every prefix of `series`: repairs, differences and
  /// filters it once, so that each prefix's forecast_horizon costs
  /// O(min(h, max_horizon) (p + q)) instead of a pass over the prefix.
  /// Keeps a pointer into this model, which must outlive it.
  [[nodiscard]] Forecaster forecaster(TemporalSeries which,
                                      std::span<const double> series) const;

  /// The fitted ARIMA for a series, if the series was long enough.
  [[nodiscard]] const std::optional<ts::ArimaModel>& model(
      TemporalSeries which) const;

  /// The degradation-ladder rung the series landed on:
  /// ARIMA -> AR(1) -> seasonal-naive -> mean.
  [[nodiscard]] FitRung rung(TemporalSeries which) const;

  /// Accessors for the .armm packer (armm::pack_model): the fallback mean
  /// and seasonal period of a series' degradation slot.
  [[nodiscard]] double fallback_mean(TemporalSeries which) const;
  [[nodiscard]] std::size_t seasonal_period(TemporalSeries which) const;

  /// One record per series from the last fit() (not serialized).
  [[nodiscard]] const FitReport& fit_report() const noexcept {
    return report_;
  }

  /// Text serialization of the fitted state (fitting options are not
  /// persisted; a loaded model predicts identically but refits with
  /// defaults).
  void save(std::ostream& os) const;
  [[nodiscard]] static TemporalModel load(std::istream& is);

  /// Framed (v3) serialization: the v2 body wrapped in durable.h's
  /// magic/version/CRC32C envelope, so truncation and bit flips are caught
  /// before parsing. load_framed takes framed v3 only; corruption throws
  /// a typed durable::LoadFailure, never a crash.
  void save_framed(std::ostream& os) const;
  [[nodiscard]] static TemporalModel load_framed(std::istream& is);

 private:
  struct SeriesModel {
    std::optional<ts::ArimaModel> arima;  ///< kArima or (order (1,0,0)) kAr.
    std::size_t seasonal_period = 0;      ///< kSeasonalNaive rung.
    double fallback_mean = 0.0;
    FitRung rung = FitRung::kMean;
  };

  [[nodiscard]] const SeriesModel& series_model(TemporalSeries which) const;
  void fit_one(TemporalSeries which, std::span<const double> series);

  TemporalModelOptions opts_;
  std::vector<SeriesModel> models_{kTemporalSeriesCount};
  FitReport report_;
  bool fitted_ = false;
};

/// Forecasts from every prefix of one series with one temporal slot (see
/// TemporalModel::forecaster). Differencing, the predict-time repair and
/// the innovations filter are all causal, so forecast_horizon(len, ...)
/// equals TemporalModel::forecast_horizon(which, series.first(len), ...)
/// bit for bit.
class TemporalModel::Forecaster {
 public:
  /// Requires horizon >= 1 and len <= series.size().
  [[nodiscard]] double forecast_horizon(std::size_t len, std::size_t horizon,
                                        std::size_t max_horizon = 64) const;

 private:
  friend class TemporalModel;
  Forecaster(const SeriesModel& slot, std::span<const double> series);

  const SeriesModel* slot_;
  std::vector<double> series_;  ///< Repaired: non-finite -> fallback mean.
  std::optional<ts::ArimaPrefixForecaster> arima_;
};

}  // namespace acbm::core
