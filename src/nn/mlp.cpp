#include "nn/mlp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/robust.h"
#include "stats/descriptive.h"
#include "stats/kernels.h"
#include "stats/serialize.h"

namespace acbm::nn {

MlpTrainingSet MlpTrainingSet::build(const std::vector<std::vector<double>>& x,
                                     std::span<const double> y) {
  if (x.empty() || y.size() != x.size()) {
    throw std::invalid_argument("Mlp::fit: empty input or size mismatch");
  }
  MlpTrainingSet out;
  out.rows = x.size();
  out.cols = x.front().size();
  if (out.cols == 0) throw std::invalid_argument("Mlp::fit: zero-width rows");
  for (const auto& row : x) {
    if (row.size() != out.cols) {
      throw std::invalid_argument("Mlp::fit: ragged rows");
    }
    for (double v : row) {
      if (!std::isfinite(v)) {
        throw core::FitFailure(core::FitError::kNonfiniteInput,
                               "Mlp::fit: non-finite feature");
      }
    }
  }
  for (double v : y) {
    if (!std::isfinite(v)) {
      throw core::FitFailure(core::FitError::kNonfiniteInput,
                             "Mlp::fit: non-finite target");
    }
  }

  // Fit the per-column scalers exactly as Mlp::fit(x, y) historically did:
  // gather each column and z-score it.
  std::vector<double> col(out.rows);
  for (std::size_t j = 0; j < out.cols; ++j) {
    for (std::size_t i = 0; i < out.rows; ++i) col[i] = x[i][j];
    out.input_scalers.push_back(acbm::stats::fit_zscore(col));
  }
  out.output_scaler = acbm::stats::fit_zscore(y);

  out.x_norm.resize(out.rows * out.cols);
  out.y_norm.resize(out.rows);
  for (std::size_t i = 0; i < out.rows; ++i) {
    double* dst = out.x_norm.data() + i * out.cols;
    for (std::size_t j = 0; j < out.cols; ++j) {
      dst[j] = out.input_scalers[j].transform(x[i][j]);
    }
    out.y_norm[i] = out.output_scaler.transform(y[i]);
  }
  return out;
}

MlpTrainingSet MlpTrainingSet::build_lagged(std::span<const double> series,
                                            std::size_t delays,
                                            std::size_t length) {
  if (delays == 0 || length > series.size()) {
    throw std::invalid_argument("MlpTrainingSet::build_lagged: bad shape");
  }
  if (length < delays + 2) {
    throw core::FitFailure(core::FitError::kSeriesTooShort,
                           "NarModel::fit: series too short for delays");
  }
  MlpTrainingSet out;
  out.rows = length - delays;
  out.cols = delays;

  // Same validation order (and messages) as the nested-vector path: rows
  // first, feature by feature, then targets.
  for (std::size_t t = delays; t < length; ++t) {
    for (std::size_t j = 0; j < delays; ++j) {
      if (!std::isfinite(series[t - 1 - j])) {
        throw core::FitFailure(core::FitError::kNonfiniteInput,
                               "Mlp::fit: non-finite feature");
      }
    }
  }
  for (std::size_t t = delays; t < length; ++t) {
    if (!std::isfinite(series[t])) {
      throw core::FitFailure(core::FitError::kNonfiniteInput,
                             "Mlp::fit: non-finite target");
    }
  }

  // Column j of the lag embedding is series[t - 1 - j] for t in
  // [delays, length) — the values NarModel::window() would place there.
  std::vector<double> col(out.rows);
  for (std::size_t j = 0; j < delays; ++j) {
    for (std::size_t r = 0; r < out.rows; ++r) {
      col[r] = series[delays + r - 1 - j];
    }
    out.input_scalers.push_back(acbm::stats::fit_zscore(col));
  }
  out.output_scaler =
      acbm::stats::fit_zscore(series.subspan(delays, out.rows));

  out.x_norm.resize(out.rows * out.cols);
  out.y_norm.resize(out.rows);
  for (std::size_t r = 0; r < out.rows; ++r) {
    const std::size_t t = delays + r;
    double* dst = out.x_norm.data() + r * out.cols;
    for (std::size_t j = 0; j < delays; ++j) {
      dst[j] = out.input_scalers[j].transform(series[t - 1 - j]);
    }
    out.y_norm[r] = out.output_scaler.transform(series[t]);
  }
  return out;
}

void Mlp::prepare_workspace(Workspace& ws, std::size_t rows) const {
  // Cheap shape-key check keeps this near-free on the predict hot path;
  // only a shape change (different grid candidate reusing the thread-local
  // workspace) rewinds the arena and recarves the spans.
  if (ws.inputs == input_dim_ && ws.hidden_units == hidden_ &&
      ws.rows >= rows) {
    return;
  }
  ws.inputs = input_dim_;
  ws.hidden_units = hidden_;
  ws.rows = rows;
  ws.arena.reset();
  const std::size_t total = params_.size();
  ws.xn = ws.arena.alloc_span<double>(input_dim_);
  ws.hidden = ws.arena.alloc_span<double>(rows * hidden_);
  ws.residual = ws.arena.alloc_span<double>(rows);
  ws.grad = ws.arena.alloc_span<double>(total);
  ws.best_params = ws.arena.alloc_span<double>(total);
  ws.m_state = ws.arena.alloc_span<double>(total);
  ws.v_state = ws.arena.alloc_span<double>(total);
}

namespace {

/// out[o] = b[o] + w[o, :] . x for o in [0, rows): each a bias-first
/// sequential dot over `cols` inputs.
void affine(const double* w, const double* b, std::size_t rows,
            std::size_t cols, const double* x, double* out) {
  for (std::size_t o = 0; o < rows; ++o) {
    const double* row = w + o * cols;
    double z = b[o];
    for (std::size_t i = 0; i < cols; ++i) z += row[i] * x[i];
    out[o] = z;
  }
}

}  // namespace

double forward_normalized(const MlpLayerView& hidden_layer,
                          const MlpLayerView& output_layer,
                          std::span<const double> x_norm,
                          std::span<double> hidden) {
  const std::size_t units = hidden_layer.out;
  affine(hidden_layer.weights.data(), hidden_layer.biases.data(), units,
         hidden_layer.in, x_norm.data(), hidden.data());
  const std::span<double> h = hidden.first(units);
  acbm::stats::tanh(h, h);
  double y = 0.0;
  affine(output_layer.weights.data(), output_layer.biases.data(), 1, units,
         hidden.data(), &y);
  return y;
}

double Mlp::forward(std::span<const double> x_norm, double* hidden) const {
  const auto [hidden_layer, output_layer] = views();
  return forward_normalized(hidden_layer, output_layer, x_norm,
                            {hidden, hidden_});
}

void Mlp::forward_block(const MlpTrainingSet& data, const std::size_t* rows,
                        std::size_t count, Workspace& ws) const {
  // forward_normalized() split in three so one stats::tanh call covers
  // the block: the same dots on the same values, in the same order.
  const auto [hl, ol] = views();
  double* const hidden = ws.hidden.data();
  for (std::size_t k = 0; k < count; ++k) {
    affine(hl.weights.data(), hl.biases.data(), hidden_, input_dim_,
           data.row(rows[k]).data(), hidden + k * hidden_);
  }
  const std::span<double> block{hidden, count * hidden_};
  acbm::stats::tanh(block, block);
  for (std::size_t k = 0; k < count; ++k) {
    double y = 0.0;
    affine(ol.weights.data(), ol.biases.data(), 1, hidden_,
           hidden + k * hidden_, &y);
    ws.residual[k] = y - data.y_norm[rows[k]];
  }
}

void Mlp::accumulate_gradient(std::span<const double> x_norm,
                              const double* hidden, double d,
                              double* grad) const {
  const std::size_t in = input_dim_;
  const double* w2 = params_.data() + hidden_ * (in + 1);
  double* g_b1 = grad + hidden_ * in;
  double* g_w2 = g_b1 + hidden_;
  for (std::size_t o = 0; o < hidden_; ++o) {
    g_w2[o] += d * hidden[o];
    // Back through the tanh: d/dz tanh(z) = 1 - tanh(z)^2.
    const double dz = w2[o] * d * (1.0 - hidden[o] * hidden[o]);
    double* g_row = grad + o * in;
    for (std::size_t i = 0; i < in; ++i) g_row[i] += dz * x_norm[i];
    g_b1[o] += dz;
  }
  g_w2[hidden_] += d;  // b2
}

void Mlp::fit(const std::vector<std::vector<double>>& x,
              std::span<const double> y) {
  fit(MlpTrainingSet::build(x, y));
}

void Mlp::fit(const MlpTrainingSet& data) {
  if (opts_.hidden_units == 0) {
    throw std::invalid_argument("Mlp: zero-width layer");
  }
  if (opts_.batch_size == 0) {
    throw std::invalid_argument("Mlp: batch_size == 0");
  }
  input_dim_ = data.cols;
  hidden_ = opts_.hidden_units;
  input_scalers_ = data.input_scalers;
  output_scaler_ = data.output_scaler;
  const std::size_t n = data.rows;
  const std::size_t in = input_dim_;

  // Xavier/Glorot initialization keeps tanh units out of saturation; the
  // biases start at zero.
  acbm::stats::Rng rng(opts_.seed);
  params_.assign(hidden_ * (in + 2) + 1, 0.0);
  const double scale1 = std::sqrt(6.0 / static_cast<double>(in + hidden_));
  for (std::size_t p = 0; p < hidden_ * in; ++p) {
    params_[p] = rng.uniform(-scale1, scale1);
  }
  const double scale2 = std::sqrt(6.0 / static_cast<double>(hidden_ + 1));
  for (std::size_t o = 0; o < hidden_; ++o) {
    params_[hidden_ * (in + 1) + o] = rng.uniform(-scale2, scale2);
  }
  fitted_ = true;

  static thread_local Workspace tl_ws;
  Workspace& ws = tl_ws;
  prepare_workspace(ws, std::min(opts_.batch_size, n));
  const std::size_t total = params_.size();
  double* const params = params_.data();
  double* const grad = ws.grad.data();

  // Validation holdout (tail of a shuffled order) for early stopping.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::size_t n_val = static_cast<std::size_t>(
      static_cast<double>(n) * opts_.validation_fraction);
  if (n <= 8) n_val = 0;  // Tiny datasets: train on everything.
  const std::size_t n_train = n - n_val;

  // Adam state (also reused as momentum buffers for SGD).
  std::fill(ws.m_state.begin(), ws.m_state.end(), 0.0);
  std::fill(ws.v_state.begin(), ws.v_state.end(), 0.0);
  std::size_t adam_t = 0;

  std::copy(params_.begin(), params_.end(), ws.best_params.begin());
  double best_val = std::numeric_limits<double>::infinity();
  std::size_t since_best = 0;

  const auto validation_loss = [&]() {
    double acc = 0.0;
    for (std::size_t begin = n_train; begin < n; begin += ws.rows) {
      const std::size_t count = std::min(ws.rows, n - begin);
      forward_block(data, order.data() + begin, count, ws);
      for (std::size_t k = 0; k < count; ++k) {
        acc += 0.5 * ws.residual[k] * ws.residual[k];
      }
    }
    return acc / static_cast<double>(n_val);
  };

  for (std::size_t epoch = 0; epoch < opts_.max_epochs; ++epoch) {
    // Shuffle the training prefix each epoch.
    for (std::size_t k = n_train; k > 1; --k) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
      std::swap(order[k - 1], order[j]);
    }

    for (std::size_t batch_start = 0; batch_start < n_train;
         batch_start += opts_.batch_size) {
      const std::size_t batch_end =
          std::min(batch_start + opts_.batch_size, n_train);
      const std::size_t count = batch_end - batch_start;
      forward_block(data, order.data() + batch_start, count, ws);
      // Per-sample gradients added in sample order, as a per-sample
      // forward/backward loop would.
      std::fill_n(grad, total, 0.0);
      for (std::size_t k = 0; k < count; ++k) {
        accumulate_gradient(data.row(order[batch_start + k]),
                            ws.hidden.data() + k * hidden_, ws.residual[k],
                            grad);
      }
      const double inv = 1.0 / static_cast<double>(count);
      for (std::size_t p = 0; p < total; ++p) {
        grad[p] = grad[p] * inv + opts_.weight_decay * params[p];
      }

      if (opts_.optimizer == Optimizer::kAdam) {
        ++adam_t;
        constexpr double kBeta1 = 0.9;
        constexpr double kBeta2 = 0.999;
        constexpr double kEps = 1e-8;
        // Bias corrections of this step, shared by every parameter.
        const double correct1 =
            1.0 - std::pow(kBeta1, static_cast<double>(adam_t));
        const double correct2 =
            1.0 - std::pow(kBeta2, static_cast<double>(adam_t));
        for (std::size_t p = 0; p < total; ++p) {
          const double g = grad[p];
          ws.m_state[p] = kBeta1 * ws.m_state[p] + (1.0 - kBeta1) * g;
          ws.v_state[p] = kBeta2 * ws.v_state[p] + (1.0 - kBeta2) * g * g;
          const double mh = ws.m_state[p] / correct1;
          const double vh = ws.v_state[p] / correct2;
          params[p] -= opts_.learning_rate * mh / (std::sqrt(vh) + kEps);
        }
      } else {
        for (std::size_t p = 0; p < total; ++p) {
          ws.m_state[p] = opts_.momentum * ws.m_state[p] -
                          opts_.learning_rate * grad[p];
          params[p] += ws.m_state[p];
        }
      }
    }

    if (n_val > 0) {
      const double vl = validation_loss();
      if (vl < best_val - 1e-12) {
        best_val = vl;
        std::copy(params_.begin(), params_.end(), ws.best_params.begin());
        since_best = 0;
      } else if (++since_best >= opts_.patience) {
        break;
      }
    }
  }

  if (n_val > 0) {
    std::copy(ws.best_params.begin(), ws.best_params.end(), params_.begin());
    best_val_loss_ = best_val;
  } else {
    // Training loss over every row, in row order.
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = forward(data.row(i), ws.hidden.data()) - data.y_norm[i];
      acc += 0.5 * d * d;
    }
    best_val_loss_ = acc / static_cast<double>(n);
  }

  // Training can diverge (exploding gradients on pathological scaling);
  // refuse to hand back a network that predicts non-finite values.
  for (double p : params_) {
    if (std::isfinite(p)) continue;
    fitted_ = false;
    throw core::FitFailure(core::FitError::kNonconvergence,
                           "Mlp::fit: training diverged (non-finite weights)");
  }
  if (!std::isfinite(best_val_loss_)) {
    fitted_ = false;
    throw core::FitFailure(core::FitError::kNonconvergence,
                           "Mlp::fit: training diverged (non-finite loss)");
  }
}

double Mlp::predict(std::span<const double> features) const {
  static thread_local Workspace tl_ws;
  return predict(tl_ws, features);
}

double Mlp::predict(Workspace& ws, std::span<const double> features) const {
  if (!fitted_) throw std::logic_error("Mlp::predict: not fitted");
  if (features.size() != input_dim_) {
    throw std::invalid_argument("Mlp::predict: feature count mismatch");
  }
  prepare_workspace(ws, 1);
  for (std::size_t j = 0; j < input_dim_; ++j) {
    ws.xn[j] = input_scalers_[j].transform(features[j]);
  }
  return output_scaler_.inverse(forward(ws.xn, ws.hidden.data()));
}

double Mlp::sample_loss(std::span<const double> features_norm,
                        double target_norm) const {
  if (!fitted_) throw std::logic_error("Mlp::sample_loss: not fitted");
  std::vector<double> hidden(hidden_);
  const double d = forward(features_norm, hidden.data()) - target_norm;
  return 0.5 * d * d;
}

std::vector<double> Mlp::loss_gradient(std::span<const double> features_norm,
                                       double target_norm) const {
  if (!fitted_) throw std::logic_error("Mlp::loss_gradient: not fitted");
  std::vector<double> hidden(hidden_);
  std::vector<double> grad(params_.size(), 0.0);
  const double d = forward(features_norm, hidden.data()) - target_norm;
  accumulate_gradient(features_norm, hidden.data(), d, grad.data());
  return grad;
}

void Mlp::save(std::ostream& os) const {
  namespace io = acbm::stats::io;
  io::write_header(os, "mlp", 1);
  io::write_scalar(os, "fitted", fitted_ ? 1 : 0);
  io::write_scalar(os, "input_dim", input_dim_);
  io::write_scalar(os, "best_val_loss", best_val_loss_);
  std::vector<std::size_t> layer_sizes;
  if (!params_.empty()) layer_sizes = {hidden_, 1};
  io::write_vector<std::size_t>(os, "layer_sizes", layer_sizes);
  for (const MlpLayerView& layer : layer_views()) {
    io::write_vector<double>(os, "weights", layer.weights);
    io::write_vector<double>(os, "biases", layer.biases);
  }
  std::vector<double> scaler_values;
  for (const acbm::stats::ZScore& z : input_scalers_) {
    scaler_values.push_back(z.mean);
    scaler_values.push_back(z.sd);
  }
  io::write_vector<double>(os, "input_scalers", scaler_values);
  io::write_scalar(os, "output_mean", output_scaler_.mean);
  io::write_scalar(os, "output_sd", output_scaler_.sd);
}

Mlp Mlp::load(std::istream& is) {
  namespace io = acbm::stats::io;
  io::expect_header(is, "mlp", 1);
  Mlp net;
  net.fitted_ = io::read_scalar<int>(is, "fitted") != 0;
  net.input_dim_ = io::read_scalar<std::size_t>(is, "input_dim");
  net.best_val_loss_ = io::read_scalar<double>(is, "best_val_loss");
  const auto layer_sizes = io::read_vector<std::size_t>(is, "layer_sizes");
  if (!layer_sizes.empty()) {
    if (layer_sizes.size() != 2 || layer_sizes[0] == 0 ||
        layer_sizes[1] != 1) {
      throw std::invalid_argument(
          "Mlp::load: not a one-hidden-layer scalar network");
    }
    const std::size_t in = net.input_dim_;
    net.hidden_ = layer_sizes[0];
    const auto read_layer = [&](std::size_t in_dim, std::size_t out_dim) {
      const auto weights = io::read_vector<double>(is, "weights");
      const auto biases = io::read_vector<double>(is, "biases");
      if (weights.size() != in_dim * out_dim || biases.size() != out_dim) {
        throw std::invalid_argument("Mlp::load: inconsistent layer shape");
      }
      net.params_.insert(net.params_.end(), weights.begin(), weights.end());
      net.params_.insert(net.params_.end(), biases.begin(), biases.end());
    };
    read_layer(in, net.hidden_);
    read_layer(net.hidden_, 1);
    net.opts_.hidden_units = net.hidden_;
  }
  const auto scaler_values = io::read_vector<double>(is, "input_scalers");
  if (scaler_values.size() != 2 * net.input_dim_) {
    throw std::invalid_argument("Mlp::load: inconsistent scaler count");
  }
  for (std::size_t i = 0; i < net.input_dim_; ++i) {
    net.input_scalers_.push_back(
        {scaler_values[2 * i], scaler_values[2 * i + 1]});
  }
  net.output_scaler_.mean = io::read_scalar<double>(is, "output_mean");
  net.output_scaler_.sd = io::read_scalar<double>(is, "output_sd");
  return net;
}

std::array<MlpLayerView, 2> Mlp::views() const {
  const std::size_t in = input_dim_;
  const double* w1 = params_.data();
  const double* b1 = w1 + hidden_ * in;
  const double* w2 = b1 + hidden_;
  return {{{{w1, hidden_ * in}, {b1, hidden_}, in, hidden_},
           {{w2, hidden_}, {w2 + hidden_, 1}, hidden_, 1}}};
}

std::vector<MlpLayerView> Mlp::layer_views() const {
  if (params_.empty()) return {};
  const auto [hidden_layer, output_layer] = views();
  return {hidden_layer, output_layer};
}

std::vector<double> Mlp::parameters() const { return params_; }

void Mlp::set_parameters(std::span<const double> params) {
  if (params.size() != params_.size()) {
    throw std::invalid_argument("Mlp::set_parameters: wrong parameter count");
  }
  std::copy(params.begin(), params.end(), params_.begin());
}

}  // namespace acbm::nn
