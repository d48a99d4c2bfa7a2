// ARIMA(p, d, q): ARMA estimation on the d-times differenced series with
// forecast integration back to the original scale. This is the model class
// of the paper's temporal component (§IV).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "ts/arma.h"

namespace acbm::ts {

struct ArimaOrder {
  std::size_t p = 1;
  std::size_t d = 0;
  std::size_t q = 0;
};

class ArimaModel {
 public:
  ArimaModel() = default;
  explicit ArimaModel(ArimaOrder order) : order_(order) {}

  /// Fits on the original-scale series. Throws std::invalid_argument when
  /// the differenced series is too short for the ARMA order.
  void fit(std::span<const double> series);

  /// h-step forecast on the original scale following `history`.
  /// Equivalent to ArimaPrefixForecaster(*this, history)
  /// .forecast(history.size(), h).
  [[nodiscard]] std::vector<double> forecast(std::span<const double> history,
                                             std::size_t h) const;

  [[nodiscard]] double forecast_one(std::span<const double> history) const;

  /// Walk-forward one-step predictions for series[start..] on the original
  /// scale, each using only data strictly before the predicted point.
  [[nodiscard]] std::vector<double> one_step_predictions(
      std::span<const double> series, std::size_t start) const;

  [[nodiscard]] bool fitted() const noexcept { return arma_.fitted(); }
  [[nodiscard]] ArimaOrder order() const noexcept { return order_; }
  [[nodiscard]] const ArmaModel& arma() const noexcept { return arma_; }
  [[nodiscard]] double aic() const { return arma_.aic(); }
  [[nodiscard]] double bic() const { return arma_.bic(); }

  /// Variance of the h-step-ahead forecast error on the original scale:
  /// the differenced process's psi weights are cumulative-summed d times
  /// before squaring. Throws std::invalid_argument for h == 0.
  [[nodiscard]] double forecast_variance(std::size_t h) const;

  /// Text serialization of the fitted state.
  void save(std::ostream& os) const;
  [[nodiscard]] static ArimaModel load(std::istream& is);

 private:
  ArimaOrder order_;
  ArmaModel arma_;
};

/// Forecasts from every prefix of one series. The constructor differences
/// the series and filters its innovations once; forecast(len, h) then equals
/// model.forecast(series.first(len), h) bit for bit in O(h (p + q)), because
/// differencing and the innovations filter are causal: their outputs over a
/// prefix are the prefix of their outputs over the whole series. Keeps a
/// pointer to `model`, which must outlive the forecaster.
class ArimaPrefixForecaster {
 public:
  /// Throws std::logic_error when the model is unfitted and
  /// std::invalid_argument when series.size() <= d.
  ArimaPrefixForecaster(const ArimaModel& model,
                        std::span<const double> series);

  /// h-step forecast after series.first(len); requires
  /// d < len <= series.size().
  [[nodiscard]] std::vector<double> forecast(std::size_t len,
                                             std::size_t h) const;

 private:
  const ArimaModel* model_;
  std::vector<double> series_;
  std::vector<double> diffed_;
  std::vector<double> innov_;
};

}  // namespace acbm::ts
