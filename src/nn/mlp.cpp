#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/robust.h"
#include "stats/descriptive.h"
#include "stats/kernels.h"
#include "stats/serialize.h"

namespace acbm::nn {

namespace {
double tanh_derivative_from_output(double y) { return 1.0 - y * y; }
}  // namespace

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

void Mlp::init_layers(std::size_t input_dim, acbm::stats::Rng& rng) {
  layers_.clear();
  std::size_t in = input_dim;
  std::vector<std::size_t> sizes = opts_.hidden_layers;
  sizes.push_back(1);  // Linear scalar output.
  for (std::size_t out : sizes) {
    if (out == 0) throw std::invalid_argument("Mlp: zero-width layer");
    Layer layer;
    layer.in = in;
    layer.out = out;
    layer.weights.resize(in * out);
    layer.biases.assign(out, 0.0);
    // Xavier/Glorot initialization keeps tanh units out of saturation.
    const double scale = std::sqrt(6.0 / static_cast<double>(in + out));
    for (double& w : layer.weights) w = rng.uniform(-scale, scale);
    layers_.push_back(std::move(layer));
    in = out;
  }
}

void Mlp::prepare_workspace(Workspace& ws) const {
  // Cheap shape-key check keeps this near-free on the predict hot path;
  // only a topology change (different grid candidate reusing the
  // thread-local workspace) rewinds the arena and recarves the spans.
  const std::size_t n_layers = layers_.size();
  bool same = ws.shape.size() == n_layers + 1 && ws.shape[0] == input_dim_;
  for (std::size_t l = 0; same && l < n_layers; ++l) {
    same = ws.shape[l + 1] == layers_[l].out;
  }
  if (same) return;

  ws.shape.assign(1, input_dim_);
  for (const Layer& layer : layers_) ws.shape.push_back(layer.out);
  ws.arena.reset();
  ws.acts.assign(n_layers + 1, {});
  ws.acts[0] = ws.arena.alloc_span<double>(input_dim_);
  std::size_t total = 0;
  std::size_t max_width = input_dim_;
  for (std::size_t l = 0; l < n_layers; ++l) {
    ws.acts[l + 1] = ws.arena.alloc_span<double>(layers_[l].out);
    total += layers_[l].weights.size() + layers_[l].biases.size();
    max_width = std::max(max_width, layers_[l].out);
  }
  ws.sample_grad = ws.arena.alloc_span<double>(total);
  ws.batch_grad = ws.arena.alloc_span<double>(total);
  ws.delta = ws.arena.alloc_span<double>(max_width);
  ws.prev_delta = ws.arena.alloc_span<double>(max_width);
  ws.xn = ws.arena.alloc_span<double>(input_dim_);
  ws.params = ws.arena.alloc_span<double>(total);
  ws.best_params = ws.arena.alloc_span<double>(total);
  ws.m_state = ws.arena.alloc_span<double>(total);
  ws.v_state = ws.arena.alloc_span<double>(total);
}

double Mlp::forward_into(Workspace& ws, std::span<const double> x_norm) const {
  // acts[0] keeps the input so the backward pass can read it.
  std::copy(x_norm.begin(), x_norm.end(), ws.acts[0].begin());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::span<const double> in{ws.acts[l].data(), layer.in};
    std::span<double> out{ws.acts[l + 1].data(), layer.out};
    // Hidden layers use tanh; the final layer is linear. The fused kernels
    // accumulate bias-first in sequential order, matching the reference
    // per-neuron loop bit for bit.
    if (l + 1 < layers_.size()) {
      acbm::stats::gemv_tanh(layer.weights, layer.biases, in, out);
    } else {
      acbm::stats::gemv(layer.weights, layer.biases, in, out);
    }
  }
  return ws.acts.back().front();
}

void Mlp::gradient_into(Workspace& ws, std::span<const double> x_norm,
                        double target_norm) const {
  const double output = forward_into(ws, x_norm);

  // Backward pass: delta is dLoss/dz for the current layer. Every element
  // of sample_grad is overwritten below, so no zero-fill is needed.
  ws.delta[0] = output - target_norm;
  std::size_t block_end = ws.sample_grad.size();
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const Layer& layer = layers_[li];
    const std::span<const double> input = ws.acts[li];
    const std::size_t block_start =
        block_end - layer.weights.size() - layer.biases.size();
    double* grad = ws.sample_grad.data();
    for (std::size_t o = 0; o < layer.out; ++o) {
      const double d = ws.delta[o];
      double* grad_row = grad + block_start + o * layer.in;
      for (std::size_t i = 0; i < layer.in; ++i) {
        grad_row[i] = d * input[i];
      }
      grad[block_start + layer.weights.size() + o] = d;
    }
    if (li > 0) {
      for (std::size_t i = 0; i < layer.in; ++i) {
        double acc = 0.0;
        for (std::size_t o = 0; o < layer.out; ++o) {
          acc += layer.weights[o * layer.in + i] * ws.delta[o];
        }
        ws.prev_delta[i] = acc * tanh_derivative_from_output(input[i]);
      }
      std::swap(ws.delta, ws.prev_delta);
    }
    block_end = block_start;
  }
}

void Mlp::fit(const std::vector<std::vector<double>>& x,
              std::span<const double> y) {
  fit(MlpTrainingSet::build(x, y));
}

void Mlp::fit(const MlpTrainingSet& data) {
  input_dim_ = data.cols;
  input_scalers_ = data.input_scalers;
  output_scaler_ = data.output_scaler;
  const std::size_t n = data.rows;

  acbm::stats::Rng rng(opts_.seed);
  init_layers(input_dim_, rng);
  fitted_ = true;  // forward/gradient helpers below require this.

  static thread_local Workspace tl_ws;
  Workspace& ws = tl_ws;
  prepare_workspace(ws);
  const std::size_t total = ws.sample_grad.size();

  // Validation holdout (tail of a shuffled order) for early stopping.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::size_t n_val = static_cast<std::size_t>(
      static_cast<double>(n) * opts_.validation_fraction);
  if (n <= 8) n_val = 0;  // Tiny datasets: train on everything.
  const std::size_t n_train = n - n_val;

  // Optimizer state and parameter mirrors live in the workspace so a
  // refit (grid search, retry rungs) reuses the same storage.
  const std::span<double> params = ws.params;
  {
    std::size_t pos = 0;
    for (const Layer& layer : layers_) {
      std::copy(layer.weights.begin(), layer.weights.end(),
                params.begin() + static_cast<std::ptrdiff_t>(pos));
      pos += layer.weights.size();
      std::copy(layer.biases.begin(), layer.biases.end(),
                params.begin() + static_cast<std::ptrdiff_t>(pos));
      pos += layer.biases.size();
    }
  }
  // Adam state (also reused as momentum buffers for SGD).
  std::fill(ws.m_state.begin(), ws.m_state.end(), 0.0);
  std::fill(ws.v_state.begin(), ws.v_state.end(), 0.0);
  std::size_t adam_t = 0;

  std::copy(params.begin(), params.end(), ws.best_params.begin());
  double best_val = std::numeric_limits<double>::infinity();
  std::size_t since_best = 0;

  const auto validation_loss = [&]() {
    if (n_val == 0) return 0.0;
    double acc = 0.0;
    for (std::size_t k = n_train; k < n; ++k) {
      const std::size_t i = order[k];
      const double d = forward_into(ws, data.row(i)) - data.y_norm[i];
      acc += 0.5 * d * d;
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
      std::fill(ws.batch_grad.begin(), ws.batch_grad.end(), 0.0);
      for (std::size_t k = batch_start; k < batch_end; ++k) {
        const std::size_t i = order[k];
        gradient_into(ws, data.row(i), data.y_norm[i]);
        for (std::size_t p = 0; p < total; ++p) {
          ws.batch_grad[p] += ws.sample_grad[p];
        }
      }
      const double inv = 1.0 / static_cast<double>(batch_end - batch_start);
      for (std::size_t p = 0; p < total; ++p) {
        ws.batch_grad[p] = ws.batch_grad[p] * inv + opts_.weight_decay * params[p];
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
          const double g = ws.batch_grad[p];
          ws.m_state[p] = kBeta1 * ws.m_state[p] + (1.0 - kBeta1) * g;
          ws.v_state[p] = kBeta2 * ws.v_state[p] + (1.0 - kBeta2) * g * g;
          const double mh = ws.m_state[p] / correct1;
          const double vh = ws.v_state[p] / correct2;
          params[p] -= opts_.learning_rate * mh / (std::sqrt(vh) + kEps);
        }
      } else {
        for (std::size_t p = 0; p < total; ++p) {
          ws.m_state[p] = opts_.momentum * ws.m_state[p] -
                          opts_.learning_rate * ws.batch_grad[p];
          params[p] += ws.m_state[p];
        }
      }
      set_parameters(params);
    }

    if (n_val > 0) {
      const double vl = validation_loss();
      if (vl < best_val - 1e-12) {
        best_val = vl;
        std::copy(params.begin(), params.end(), ws.best_params.begin());
        since_best = 0;
      } else if (++since_best >= opts_.patience) {
        break;
      }
    }
  }

  if (n_val > 0) {
    set_parameters(ws.best_params);
    best_val_loss_ = best_val;
  } else {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = forward_into(ws, data.row(i)) - data.y_norm[i];
      acc += 0.5 * d * d;
    }
    best_val_loss_ = acc / static_cast<double>(n);
  }

  // Training can diverge (exploding gradients on pathological scaling);
  // refuse to hand back a network that predicts non-finite values.
  for (const Layer& layer : layers_) {
    for (double p : layer.weights) {
      if (std::isfinite(p)) continue;
      fitted_ = false;
      throw core::FitFailure(core::FitError::kNonconvergence,
                             "Mlp::fit: training diverged (non-finite weights)");
    }
    for (double p : layer.biases) {
      if (std::isfinite(p)) continue;
      fitted_ = false;
      throw core::FitFailure(core::FitError::kNonconvergence,
                             "Mlp::fit: training diverged (non-finite weights)");
    }
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
  prepare_workspace(ws);
  for (std::size_t j = 0; j < input_dim_; ++j) {
    ws.xn[j] = input_scalers_[j].transform(features[j]);
  }
  return output_scaler_.inverse(forward_into(ws, ws.xn));
}

double Mlp::sample_loss(std::span<const double> features_norm,
                        double target_norm) const {
  if (!fitted_) throw std::logic_error("Mlp::sample_loss: not fitted");
  static thread_local Workspace tl_ws;
  prepare_workspace(tl_ws);
  const double d = forward_into(tl_ws, features_norm) - target_norm;
  return 0.5 * d * d;
}

std::vector<double> Mlp::loss_gradient(std::span<const double> features_norm,
                                       double target_norm) const {
  if (!fitted_) throw std::logic_error("Mlp::loss_gradient: not fitted");
  static thread_local Workspace tl_ws;
  prepare_workspace(tl_ws);
  gradient_into(tl_ws, features_norm, target_norm);
  return {tl_ws.sample_grad.begin(), tl_ws.sample_grad.end()};
}

void Mlp::save(std::ostream& os) const {
  namespace io = acbm::stats::io;
  io::write_header(os, "mlp", 1);
  io::write_scalar(os, "fitted", fitted_ ? 1 : 0);
  io::write_scalar(os, "input_dim", input_dim_);
  io::write_scalar(os, "best_val_loss", best_val_loss_);
  std::vector<std::size_t> layer_sizes;
  for (const Layer& layer : layers_) layer_sizes.push_back(layer.out);
  io::write_vector<std::size_t>(os, "layer_sizes", layer_sizes);
  for (const Layer& layer : layers_) {
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
  std::size_t in = net.input_dim_;
  for (std::size_t out : layer_sizes) {
    Layer layer;
    layer.in = in;
    layer.out = out;
    layer.weights = io::read_vector<double>(is, "weights");
    layer.biases = io::read_vector<double>(is, "biases");
    if (layer.weights.size() != in * out || layer.biases.size() != out) {
      throw std::invalid_argument("Mlp::load: inconsistent layer shape");
    }
    net.layers_.push_back(std::move(layer));
    in = out;
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
  // Reconstruct the hidden-layer option list for consistency.
  net.opts_.hidden_layers.assign(layer_sizes.begin(),
                                 layer_sizes.end() - (layer_sizes.empty() ? 0 : 1));
  return net;
}

std::vector<MlpLayerView> Mlp::layer_views() const {
  std::vector<MlpLayerView> out;
  out.reserve(layers_.size());
  for (const Layer& layer : layers_) {
    out.push_back({layer.weights, layer.biases, layer.in, layer.out});
  }
  return out;
}

std::vector<double> Mlp::parameters() const {
  std::vector<double> out;
  for (const Layer& layer : layers_) {
    out.insert(out.end(), layer.weights.begin(), layer.weights.end());
    out.insert(out.end(), layer.biases.begin(), layer.biases.end());
  }
  return out;
}

void Mlp::set_parameters(std::span<const double> params) {
  std::size_t pos = 0;
  for (Layer& layer : layers_) {
    if (pos + layer.weights.size() + layer.biases.size() > params.size()) {
      throw std::invalid_argument("Mlp::set_parameters: wrong parameter count");
    }
    std::copy_n(params.begin() + static_cast<std::ptrdiff_t>(pos),
                layer.weights.size(), layer.weights.begin());
    pos += layer.weights.size();
    std::copy_n(params.begin() + static_cast<std::ptrdiff_t>(pos),
                layer.biases.size(), layer.biases.begin());
    pos += layer.biases.size();
  }
  if (pos != params.size()) {
    throw std::invalid_argument("Mlp::set_parameters: wrong parameter count");
  }
}

}  // namespace acbm::nn
