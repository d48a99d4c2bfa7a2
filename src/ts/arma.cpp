#include "ts/arma.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/robust.h"
#include "stats/descriptive.h"
#include "stats/matrix.h"
#include "stats/ols.h"
#include "stats/serialize.h"
#include "ts/ar.h"

namespace acbm::ts {

namespace {
// Long-AR order for the first Hannan-Rissanen stage.
std::size_t long_ar_order(std::size_t n, ArmaOrder order) {
  const auto by_length = static_cast<std::size_t>(
      std::ceil(10.0 * std::log10(std::max<double>(static_cast<double>(n), 10.0))));
  std::size_t m = std::max({order.p + order.q, by_length, std::size_t{1}});
  // Keep enough residual rows for the second-stage regression.
  while (m > order.p + order.q + 1 && n < 4 * m) --m;
  return m;
}

bool all_finite(std::span<const double> xs) {
  for (double x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}
}  // namespace

void ArmaModel::fit(std::span<const double> series) {
  const std::size_t n = series.size();
  const std::size_t params = order_.p + order_.q + 1;
  if (n < params + 4) {
    throw core::FitFailure(core::FitError::kSeriesTooShort,
                           "ArmaModel::fit: series too short for order");
  }
  if (!all_finite(series)) {
    throw core::FitFailure(core::FitError::kNonfiniteInput,
                           "ArmaModel::fit: non-finite input");
  }

  if (order_.q == 0) {
    // Pure AR: conditional least squares directly (skip residual proxying).
    ArFit ar = n >= 2 * order_.p + 2 ? fit_ar_least_squares(series, order_.p)
                                     : fit_ar_yule_walker(series, order_.p);
    if (!all_finite(ar.phi) || !std::isfinite(ar.intercept)) {
      // Yule-Walker on a degenerate (e.g. constant) series divides by a
      // zero lag-0 autocovariance; surface it as a singular system.
      throw core::FitFailure(core::FitError::kSingularSystem,
                             "ArmaModel::fit: singular AR system");
    }
    phi_ = std::move(ar.phi);
    theta_.clear();
    intercept_ = ar.intercept;
    sigma2_ = ar.sigma2;
    n_fit_ = n;
    fitted_ = true;
    return;
  }

  // Stage 1: long AR fit to obtain residual proxies for the unobserved
  // innovations.
  std::size_t m = long_ar_order(n, order_);
  while (m > 1 && series.size() <= 2 * m + 2) --m;
  const ArFit long_ar = series.size() >= 2 * m + 2
                            ? fit_ar_least_squares(series, m)
                            : fit_ar_yule_walker(series, m);
  std::vector<double> e(n, 0.0);
  for (std::size_t t = m; t < n; ++t) {
    e[t] = series[t] - long_ar.forecast_one(series.subspan(0, t));
  }

  // Stage 2: regress x_t on p lags of x and q lags of e.
  const std::size_t start = std::max(order_.p, std::max(order_.q, m));
  if (n - start < params + 2) {
    throw core::FitFailure(core::FitError::kSeriesTooShort,
                           "ArmaModel::fit: too few effective samples");
  }
  const std::size_t rows = n - start;
  acbm::stats::Matrix x(rows, order_.p + order_.q);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t t = start + r;
    y[r] = series[t];
    for (std::size_t i = 0; i < order_.p; ++i) x(r, i) = series[t - 1 - i];
    for (std::size_t j = 0; j < order_.q; ++j) {
      x(r, order_.p + j) = e[t - 1 - j];
    }
  }
  // The Hannan-Rissanen regression throws FitFailure(kSingularSystem) when
  // the lag matrix is singular (constant series, collinear lags); let it
  // propagate typed instead of producing non-finite coefficients.
  acbm::stats::LinearRegression reg;
  reg.fit(x, y);
  const std::vector<double>& beta = reg.coefficients();
  phi_.assign(beta.begin(), beta.begin() + static_cast<std::ptrdiff_t>(order_.p));
  theta_.assign(beta.begin() + static_cast<std::ptrdiff_t>(order_.p), beta.end());
  intercept_ = reg.intercept();
  n_fit_ = n;
  fitted_ = true;

  const std::vector<double> innov = innovations(series);
  const std::size_t burn = std::max(order_.p, order_.q);
  const std::span<const double> tail(innov.data() + burn, innov.size() - burn);
  sigma2_ = acbm::stats::population_variance(tail);
}

std::vector<double> ArmaModel::innovations(
    std::span<const double> series) const {
  if (!fitted_) throw std::logic_error("ArmaModel::innovations: not fitted");
  std::vector<double> e(series.size(), 0.0);
  for (std::size_t t = 0; t < series.size(); ++t) {
    double pred = intercept_;
    for (std::size_t i = 0; i < phi_.size(); ++i) {
      if (t > i) pred += phi_[i] * series[t - 1 - i];
    }
    for (std::size_t j = 0; j < theta_.size(); ++j) {
      if (t > j) pred += theta_[j] * e[t - 1 - j];
    }
    e[t] = series[t] - pred;
  }
  return e;
}

double ArmaModel::forecast_one(std::span<const double> history) const {
  return forecast(history, 1).front();
}

std::vector<double> ArmaModel::forecast(std::span<const double> history,
                                        std::size_t h) const {
  if (!fitted_) throw std::logic_error("ArmaModel::forecast: not fitted");
  if (h == 0) return {};
  return roll(history, innovations(history), h);
}

std::vector<double> ArmaModel::roll(std::span<const double> history,
                                    std::span<const double> innov,
                                    std::size_t h) const {
  if (!fitted_) throw std::logic_error("ArmaModel::roll: not fitted");
  if (innov.size() != history.size()) {
    throw std::invalid_argument("ArmaModel::roll: innovations length");
  }
  if (h == 0) return {};
  // Windows over the last p values and q innovations, extended by the
  // forecasts and by zero future innovations; index t of the full series
  // sits at t - (n - window) in each.
  const std::size_t n = history.size();
  const std::size_t xw = std::min(n, phi_.size());
  const std::size_t ew = std::min(n, theta_.size());
  std::vector<double> x(history.end() - static_cast<std::ptrdiff_t>(xw),
                        history.end());
  std::vector<double> e(innov.end() - static_cast<std::ptrdiff_t>(ew),
                        innov.end());
  x.reserve(xw + h);
  e.resize(ew + h, 0.0);

  std::vector<double> out;
  out.reserve(h);
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t t = n + k;
    double pred = intercept_;
    for (std::size_t i = 0; i < phi_.size(); ++i) {
      if (t > i) pred += phi_[i] * x[t - 1 - i - (n - xw)];
    }
    for (std::size_t j = 0; j < theta_.size(); ++j) {
      if (t > j) pred += theta_[j] * e[t - 1 - j - (n - ew)];
    }
    x.push_back(pred);
    out.push_back(pred);
  }
  return out;
}

std::vector<double> ArmaModel::one_step_predictions(
    std::span<const double> series, std::size_t start) const {
  if (!fitted_) {
    throw std::logic_error("ArmaModel::one_step_predictions: not fitted");
  }
  if (start == 0 || start > series.size()) {
    throw std::invalid_argument("ArmaModel::one_step_predictions: bad start");
  }
  // Single innovation filter pass; the prediction for index t only uses
  // series values and innovations strictly before t.
  std::vector<double> e(series.size(), 0.0);
  std::vector<double> preds;
  preds.reserve(series.size() - start);
  for (std::size_t t = 0; t < series.size(); ++t) {
    double pred = intercept_;
    for (std::size_t i = 0; i < phi_.size(); ++i) {
      if (t > i) pred += phi_[i] * series[t - 1 - i];
    }
    for (std::size_t j = 0; j < theta_.size(); ++j) {
      if (t > j) pred += theta_[j] * e[t - 1 - j];
    }
    e[t] = series[t] - pred;
    if (t >= start) preds.push_back(pred);
  }
  return preds;
}

std::vector<double> ArmaModel::psi_weights(std::size_t n) const {
  if (!fitted_) throw std::logic_error("ArmaModel::psi_weights: not fitted");
  std::vector<double> psi(n, 0.0);
  if (n == 0) return psi;
  psi[0] = 1.0;
  for (std::size_t j = 1; j < n; ++j) {
    double value = j <= theta_.size() ? theta_[j - 1] : 0.0;
    for (std::size_t i = 1; i <= std::min(j, phi_.size()); ++i) {
      value += phi_[i - 1] * psi[j - i];
    }
    psi[j] = value;
  }
  return psi;
}

double ArmaModel::forecast_variance(std::size_t h) const {
  if (h == 0) {
    throw std::invalid_argument("ArmaModel::forecast_variance: h == 0");
  }
  const std::vector<double> psi = psi_weights(h);
  double acc = 0.0;
  for (double w : psi) acc += w * w;
  return sigma2_ * acc;
}

void ArmaModel::save(std::ostream& os) const {
  namespace io = acbm::stats::io;
  io::write_header(os, "arma", 1);
  io::write_scalar(os, "p", order_.p);
  io::write_scalar(os, "q", order_.q);
  io::write_scalar(os, "fitted", fitted_ ? 1 : 0);
  io::write_scalar(os, "intercept", intercept_);
  io::write_scalar(os, "sigma2", sigma2_);
  io::write_scalar(os, "n_fit", n_fit_);
  io::write_vector<double>(os, "phi", phi_);
  io::write_vector<double>(os, "theta", theta_);
}

ArmaModel ArmaModel::load(std::istream& is) {
  namespace io = acbm::stats::io;
  io::expect_header(is, "arma", 1);
  ArmaOrder order;
  order.p = io::read_scalar<std::size_t>(is, "p");
  order.q = io::read_scalar<std::size_t>(is, "q");
  ArmaModel model(order);
  model.fitted_ = io::read_scalar<int>(is, "fitted") != 0;
  model.intercept_ = io::read_scalar<double>(is, "intercept");
  model.sigma2_ = io::read_scalar<double>(is, "sigma2");
  model.n_fit_ = io::read_scalar<std::size_t>(is, "n_fit");
  model.phi_ = io::read_vector<double>(is, "phi");
  model.theta_ = io::read_vector<double>(is, "theta");
  return model;
}

double ArmaModel::aic() const {
  if (!fitted_) throw std::logic_error("ArmaModel::aic: not fitted");
  const auto k = static_cast<double>(order_.p + order_.q + 1);
  const auto n = static_cast<double>(n_fit_);
  const double s2 = std::max(sigma2_, 1e-12);
  return n * std::log(s2) + 2.0 * k;
}

double ArmaModel::bic() const {
  if (!fitted_) throw std::logic_error("ArmaModel::bic: not fitted");
  const auto k = static_cast<double>(order_.p + order_.q + 1);
  const auto n = static_cast<double>(n_fit_);
  const double s2 = std::max(sigma2_, 1e-12);
  return n * std::log(s2) + k * std::log(n);
}

}  // namespace acbm::ts
