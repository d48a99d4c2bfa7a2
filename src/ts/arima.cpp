#include "ts/arima.h"

#include <stdexcept>

#include "stats/serialize.h"
#include "ts/differencing.h"

namespace acbm::ts {

void ArimaModel::fit(std::span<const double> series) {
  if (series.size() <= order_.d + 1) {
    throw std::invalid_argument("ArimaModel::fit: series too short to difference");
  }
  const std::vector<double> diffed = difference(series, order_.d);
  arma_ = ArmaModel({order_.p, order_.q});
  arma_.fit(diffed);
}

std::vector<double> ArimaModel::forecast(std::span<const double> history,
                                         std::size_t h) const {
  return ArimaPrefixForecaster(*this, history).forecast(history.size(), h);
}

ArimaPrefixForecaster::ArimaPrefixForecaster(const ArimaModel& model,
                                             std::span<const double> series)
    : model_(&model) {
  if (!model.fitted()) {
    throw std::logic_error("ArimaModel::forecast: not fitted");
  }
  if (series.size() <= model.order().d) {
    throw std::invalid_argument("ArimaModel::forecast: history too short");
  }
  series_.assign(series.begin(), series.end());
  diffed_ = difference(series_, model.order().d);
  innov_ = model.arma().innovations(diffed_);
}

std::vector<double> ArimaPrefixForecaster::forecast(std::size_t len,
                                                    std::size_t h) const {
  const std::size_t d = model_->order().d;
  if (len <= d || len > series_.size()) {
    throw std::invalid_argument("ArimaPrefixForecaster: bad prefix length");
  }
  const std::size_t m = len - d;
  const std::vector<double> f =
      model_->arma().roll(std::span<const double>(diffed_).first(m),
                          std::span<const double>(innov_).first(m), h);
  return integrate_forecast(f, std::span<const double>(series_).first(len), d);
}

double ArimaModel::forecast_one(std::span<const double> history) const {
  return forecast(history, 1).front();
}

double ArimaModel::forecast_variance(std::size_t h) const {
  if (!fitted()) {
    throw std::logic_error("ArimaModel::forecast_variance: not fitted");
  }
  if (h == 0) {
    throw std::invalid_argument("ArimaModel::forecast_variance: h == 0");
  }
  std::vector<double> psi = arma_.psi_weights(h);
  // Integrating the process d times cumulative-sums its psi weights d times.
  for (std::size_t pass = 0; pass < order_.d; ++pass) {
    double running = 0.0;
    for (double& w : psi) {
      running += w;
      w = running;
    }
  }
  double acc = 0.0;
  for (double w : psi) acc += w * w;
  return arma_.sigma2() * acc;
}

void ArimaModel::save(std::ostream& os) const {
  namespace io = acbm::stats::io;
  io::write_header(os, "arima", 1);
  io::write_scalar(os, "d", order_.d);
  arma_.save(os);
}

ArimaModel ArimaModel::load(std::istream& is) {
  namespace io = acbm::stats::io;
  io::expect_header(is, "arima", 1);
  const auto d = io::read_scalar<std::size_t>(is, "d");
  ArmaModel arma = ArmaModel::load(is);
  ArimaModel model({arma.order().p, d, arma.order().q});
  model.arma_ = std::move(arma);
  return model;
}

std::vector<double> ArimaModel::one_step_predictions(
    std::span<const double> series, std::size_t start) const {
  if (!fitted()) {
    throw std::logic_error("ArimaModel::one_step_predictions: not fitted");
  }
  if (start <= order_.d || start > series.size()) {
    throw std::invalid_argument("ArimaModel::one_step_predictions: bad start");
  }
  if (order_.d == 0) {
    return arma_.one_step_predictions(series, start);
  }
  // On the differenced series, the prediction of diffed[t] corresponds to
  // series[t + d]; add back the previous original value(s).
  const std::vector<double> diffed = difference(series, order_.d);
  const std::size_t dstart = start - order_.d;
  const std::vector<double> dpred = arma_.one_step_predictions(diffed, dstart);
  std::vector<double> out;
  out.reserve(dpred.size());
  for (std::size_t i = 0; i < dpred.size(); ++i) {
    const std::size_t t = start + i;  // Index being predicted, original scale.
    // Integrate a single step: take the last d original values before t.
    const std::span<const double> tail = std::span<const double>(series)
                                             .subspan(t - order_.d, order_.d);
    const std::vector<double> one = integrate_forecast(
        std::span<const double>(&dpred[i], 1), tail, order_.d);
    out.push_back(one.front());
  }
  return out;
}

}  // namespace acbm::ts
