#include "nn/nar.h"

#include <stdexcept>

#include "core/robust.h"
#include "stats/serialize.h"

namespace acbm::nn {

NarModel::NarModel(NarOptions opts) : opts_(std::move(opts)) {
  if (opts_.delays == 0) throw std::invalid_argument("NarModel: delays == 0");
  if (opts_.hidden_nodes == 0) {
    throw std::invalid_argument("NarModel: hidden_nodes == 0");
  }
  opts_.mlp.hidden_units = opts_.hidden_nodes;
  mlp_ = Mlp(opts_.mlp);
}

std::vector<double> NarModel::window(std::span<const double> values) const {
  if (values.size() < opts_.delays) {
    throw std::invalid_argument("NarModel: history shorter than delay window");
  }
  // Most recent value first: f(T_j, T_{j-1}, ..., T_{j-q+1}).
  std::vector<double> w(opts_.delays);
  for (std::size_t i = 0; i < opts_.delays; ++i) {
    w[i] = values[values.size() - 1 - i];
  }
  return w;
}

void NarModel::fit(std::span<const double> series) {
  if (series.size() < opts_.delays + 2) {
    throw core::FitFailure(core::FitError::kSeriesTooShort,
                           "NarModel::fit: series too short for delays");
  }
  fit_prepared(
      MlpTrainingSet::build_lagged(series, opts_.delays, series.size()));
}

void NarModel::fit_prepared(const MlpTrainingSet& data) {
  if (data.cols != opts_.delays) {
    throw std::invalid_argument(
        "NarModel::fit_prepared: training set delay count mismatch");
  }
  mlp_.fit(data);
}

double NarModel::forecast_one(std::span<const double> history) const {
  if (!fitted()) throw std::logic_error("NarModel::forecast_one: not fitted");
  return mlp_.predict(window(history));
}

std::vector<double> NarModel::forecast(std::span<const double> history,
                                       std::size_t h) const {
  if (!fitted()) throw std::logic_error("NarModel::forecast: not fitted");
  if (h > 0 && history.size() < opts_.delays) {
    throw std::invalid_argument("NarModel: history shorter than delay window");
  }
  std::vector<double> extended(history.begin(), history.end());
  extended.reserve(history.size() + h);
  std::vector<double> out;
  out.reserve(h);
  Workspace ws;
  std::vector<double> w(opts_.delays);
  for (std::size_t k = 0; k < h; ++k) {
    for (std::size_t i = 0; i < opts_.delays; ++i) {
      w[i] = extended[extended.size() - 1 - i];
    }
    const double next = mlp_.predict(ws, w);
    extended.push_back(next);
    out.push_back(next);
  }
  return out;
}

void NarModel::save(std::ostream& os) const {
  namespace io = acbm::stats::io;
  io::write_header(os, "nar", 1);
  io::write_scalar(os, "delays", opts_.delays);
  io::write_scalar(os, "hidden_nodes", opts_.hidden_nodes);
  mlp_.save(os);
}

NarModel NarModel::load(std::istream& is) {
  namespace io = acbm::stats::io;
  io::expect_header(is, "nar", 1);
  NarOptions opts;
  opts.delays = io::read_scalar<std::size_t>(is, "delays");
  opts.hidden_nodes = io::read_scalar<std::size_t>(is, "hidden_nodes");
  NarModel model(opts);
  model.mlp_ = Mlp::load(is);
  return model;
}

std::vector<double> NarModel::one_step_predictions(
    std::span<const double> series, std::size_t start) const {
  if (!fitted()) {
    throw std::logic_error("NarModel::one_step_predictions: not fitted");
  }
  if (start < opts_.delays || start > series.size()) {
    throw std::invalid_argument("NarModel::one_step_predictions: bad start");
  }
  std::vector<double> out;
  out.reserve(series.size() - start);
  // One window buffer and one workspace for the whole walk — the scoring
  // loop in nar_grid_search calls this for every candidate.
  Workspace ws;
  std::vector<double> w(opts_.delays);
  for (std::size_t t = start; t < series.size(); ++t) {
    for (std::size_t i = 0; i < opts_.delays; ++i) {
      w[i] = series[t - 1 - i];
    }
    out.push_back(mlp_.predict(ws, w));
  }
  return out;
}

}  // namespace acbm::nn
