// ARMA(p, q) estimation and forecasting — the paper's Eq. (5):
//   A_t = sum_{j=1..p} phi_j A_{t-j} + sum_{j=0..q} theta_j e_{t-j}.
// Estimation uses the Hannan-Rissanen two-stage regression (long-AR residual
// proxy, then OLS on lagged values and lagged residuals).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

namespace acbm::ts {

struct ArmaOrder {
  std::size_t p = 1;  ///< Autoregressive order.
  std::size_t q = 0;  ///< Moving-average order.
};

/// A fitted ARMA(p, q) model with intercept.
class ArmaModel {
 public:
  ArmaModel() = default;
  explicit ArmaModel(ArmaOrder order) : order_(order) {}

  /// Fits by Hannan-Rissanen. Requires the series length to comfortably
  /// exceed p + q (at least p + q + long-AR burn-in + 2 points); throws
  /// std::invalid_argument otherwise.
  void fit(std::span<const double> series);

  /// Innovations e_t filtered through the fitted model (conditional on zero
  /// pre-sample values). Same length as `series`; the first max(p,q) entries
  /// are burn-in.
  [[nodiscard]] std::vector<double> innovations(
      std::span<const double> series) const;

  /// One-step-ahead forecast of the value following `history`.
  [[nodiscard]] double forecast_one(std::span<const double> history) const;

  /// h-step forecast after `history`; future innovations are set to zero.
  /// Filters innovations(history), then roll()s.
  [[nodiscard]] std::vector<double> forecast(std::span<const double> history,
                                             std::size_t h) const;

  /// Rolls the recursion h steps past `history`, given its innovations
  /// `innov` (same length), with future innovations set to zero. Reads only
  /// the last p values and q innovations. Because the filter is causal,
  /// `innov` may be the matching prefix of one innovations() pass over a
  /// longer series.
  [[nodiscard]] std::vector<double> roll(std::span<const double> history,
                                         std::span<const double> innov,
                                         std::size_t h) const;

  /// Walk-forward one-step predictions for series[start..], each using only
  /// data strictly before the predicted point. Useful for test-set
  /// evaluation. Requires start >= 1.
  [[nodiscard]] std::vector<double> one_step_predictions(
      std::span<const double> series, std::size_t start) const;

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] ArmaOrder order() const noexcept { return order_; }
  [[nodiscard]] const std::vector<double>& phi() const noexcept { return phi_; }
  [[nodiscard]] const std::vector<double>& theta() const noexcept {
    return theta_;
  }
  [[nodiscard]] double intercept() const noexcept { return intercept_; }
  [[nodiscard]] double sigma2() const noexcept { return sigma2_; }

  /// Akaike / Bayesian information criteria from the last fit (Gaussian
  /// likelihood approximation on n_eff residuals).
  [[nodiscard]] double aic() const;
  [[nodiscard]] double bic() const;

  /// Psi (MA-infinity) weights psi_0..psi_{n-1} of the fitted process:
  /// psi_0 = 1, psi_j = theta_j + sum_i phi_i psi_{j-i}.
  [[nodiscard]] std::vector<double> psi_weights(std::size_t n) const;

  /// Variance of the h-step-ahead forecast error:
  /// sigma^2 * sum_{j<h} psi_j^2. Throws std::invalid_argument for h == 0.
  [[nodiscard]] double forecast_variance(std::size_t h) const;

  /// Text serialization of the fitted state.
  void save(std::ostream& os) const;
  [[nodiscard]] static ArmaModel load(std::istream& is);

 private:
  ArmaOrder order_;
  std::vector<double> phi_;
  std::vector<double> theta_;
  double intercept_ = 0.0;
  double sigma2_ = 0.0;
  std::size_t n_fit_ = 0;
  bool fitted_ = false;
};

}  // namespace acbm::ts
