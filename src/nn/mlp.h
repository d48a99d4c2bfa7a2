// Feed-forward perceptron with one tanh hidden layer and a linear output —
// the network the paper's spatial model uses (§V-A: one hidden layer with
// the Tan-Sigmoid transfer function). Trained by backpropagation with Adam
// or SGD+momentum and optional early stopping.
//
// Training is one fused loop, allocation-free inside the epoch loop: each
// sample's forward pass reads the parameter array the optimizer updates,
// its gradient is added straight into the batch gradient, and the hidden
// block goes through stats::tanh (stats/kernels.h). All scratch lives in a
// per-thread Workspace sized once per fit. The
// normalized design matrix plus its column scalers can be prebuilt once as
// an MlpTrainingSet and shared across fits (grid-search candidates and
// degradation-ladder retry rungs reuse one set via nn::LagMatrixCache).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "core/arena.h"
#include "stats/descriptive.h"
#include "stats/rng.h"

namespace acbm::nn {

enum class Optimizer { kSgdMomentum, kAdam };

struct MlpOptions {
  std::size_t hidden_units = 8;  ///< Width of the one tanh hidden layer.
  std::size_t max_epochs = 500;
  std::size_t batch_size = 32;
  double learning_rate = 1e-2;
  double momentum = 0.9;          ///< SGD only.
  double weight_decay = 1e-5;     ///< L2 regularization.
  Optimizer optimizer = Optimizer::kAdam;
  double validation_fraction = 0.15;  ///< Held out for early stopping.
  std::size_t patience = 40;          ///< Epochs without improvement.
  std::uint64_t seed = 1;
};

/// An immutable, normalization-ready training set: the z-scored design
/// matrix (row-major, rows x cols) together with the fitted per-column and
/// target scalers. Building one performs exactly the validation and
/// normalization Mlp::fit(x, y) would, so a set built once can be shared
/// by every fit over the same data — column means/sds are computed once
/// instead of once per refit rung or grid candidate.
struct MlpTrainingSet {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> x_norm;  ///< rows * cols, z-scored per column.
  std::vector<double> y_norm;  ///< rows, z-scored.
  std::vector<acbm::stats::ZScore> input_scalers;
  acbm::stats::ZScore output_scaler;

  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {x_norm.data() + i * cols, cols};
  }

  /// Validates (non-empty, non-ragged, finite) and normalizes. Throws
  /// std::invalid_argument / core::FitFailure exactly like Mlp::fit(x, y).
  [[nodiscard]] static MlpTrainingSet build(
      const std::vector<std::vector<double>>& x, std::span<const double> y);

  /// Builds the lag-embedded set for a NAR model directly from a series:
  /// row t-delays is [series[t-1], ..., series[t-delays]] -> series[t] for
  /// t in [delays, length). Identical values (and scalers) to building via
  /// the nested-vector overload on the explicit lag windows.
  /// Requires length >= delays + 2 and length <= series.size(); throws
  /// core::FitFailure(kSeriesTooShort) otherwise.
  [[nodiscard]] static MlpTrainingSet build_lagged(
      std::span<const double> series, std::size_t delays, std::size_t length);
};

/// Preallocated training/inference scratch. Methods taking a Workspace
/// size it for the network once and then run allocation-free; one
/// Workspace per thread (the trainers keep a thread_local instance), never
/// shared concurrently. All buffers are spans carved from one arena, so a
/// shape change (grid-search candidates sharing the thread-local
/// workspace) recarves in place instead of reallocating each vector.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) noexcept = default;
  Workspace& operator=(Workspace&&) noexcept = default;

 private:
  friend class Mlp;
  acbm::core::Arena arena;  ///< Backing storage for every span below.
  std::size_t inputs = 0;   ///< Carve key, with hidden_units and rows.
  std::size_t hidden_units = 0;
  std::size_t rows = 0;      ///< Samples one forward block holds.
  std::span<double> xn;      ///< Normalized features for predict().
  std::span<double> hidden;  ///< Hidden activations, rows x hidden_units.
  std::span<double> residual;  ///< Output minus target, per block row.
  std::span<double> grad;    ///< Batch gradient, parameter layout.
  std::span<double> best_params;
  std::span<double> m_state;
  std::span<double> v_state;
};

/// Read-only view of one fitted layer (row-major weights [out x in]): what
/// the .armm packer (core::armm::pack_model) stores and what
/// forward_normalized() runs.
struct MlpLayerView {
  std::span<const double> weights;
  std::span<const double> biases;
  std::size_t in = 0;
  std::size_t out = 0;
};

/// The forward pass of a one-hidden-layer network on normalized features:
/// hidden = stats::tanh(b1 + W1 x), each row a bias-first sequential dot,
/// then b2 + w2 . hidden, returned. `hidden` receives the activations
/// (hidden_layer.out values). Mlp (fit, predict) and the f64 serving path
/// (core::ServingModel) all run this code, and mlp.cpp is compiled with
/// -ffp-contract=off, so their values agree bit for bit on every CPU.
[[nodiscard]] double forward_normalized(const MlpLayerView& hidden_layer,
                                        const MlpLayerView& output_layer,
                                        std::span<const double> x_norm,
                                        std::span<double> hidden);

/// A fully connected regression network with exactly one hidden layer:
/// inputs -> tanh hidden units -> linear output. Inputs and targets are
/// z-score normalized internally, so callers work on the original scale.
/// fit() throws std::invalid_argument for MlpOptions::hidden_units == 0.
class Mlp {
 public:
  Mlp() = default;
  explicit Mlp(MlpOptions opts) : opts_(std::move(opts)) {}

  /// Trains on rows x[i] -> y[i]. All rows must share the same width.
  /// Throws std::invalid_argument on empty or ragged inputs.
  void fit(const std::vector<std::vector<double>>& x,
           std::span<const double> y);

  /// Trains on a prebuilt (already validated + normalized) set. Bit-
  /// identical to fit(x, y) on the data the set was built from.
  void fit(const MlpTrainingSet& data);

  /// Predicts one sample (original scale).
  [[nodiscard]] double predict(std::span<const double> features) const;

  /// Allocation-free predict against a caller-owned workspace — for tight
  /// walk-forward loops (NarModel::one_step_predictions).
  [[nodiscard]] double predict(Workspace& ws,
                               std::span<const double> features) const;

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] std::size_t input_dim() const noexcept { return input_dim_; }

  /// Per-layer weight/bias views in forward order (hidden layers first,
  /// linear output last). Valid until the next fit or load.
  [[nodiscard]] std::vector<MlpLayerView> layer_views() const;
  [[nodiscard]] const std::vector<acbm::stats::ZScore>& input_scalers()
      const noexcept {
    return input_scalers_;
  }
  [[nodiscard]] const acbm::stats::ZScore& output_scaler() const noexcept {
    return output_scaler_;
  }

  /// Best validation loss observed during training (MSE, normalized scale).
  [[nodiscard]] double best_validation_loss() const noexcept {
    return best_val_loss_;
  }

  /// Gradient of the loss for a single sample, flattened across all
  /// parameters — exposed so tests can check backprop against numerical
  /// differentiation.
  [[nodiscard]] std::vector<double> loss_gradient(
      std::span<const double> features_norm, double target_norm) const;

  /// Flattened parameter access (weights then biases, hidden layer first:
  /// W1 [hidden x inputs] | b1 [hidden] | w2 [hidden] | b2); used with
  /// loss_gradient by the gradient-check test.
  [[nodiscard]] std::vector<double> parameters() const;
  void set_parameters(std::span<const double> params);

  /// Loss for a single normalized sample: 0.5 * (output - target)^2.
  [[nodiscard]] double sample_loss(std::span<const double> features_norm,
                                   double target_norm) const;

  /// Text serialization of the fitted network (weights, biases, scalers).
  /// Loaded models predict identically but retraining restarts from the
  /// saved weights' topology with default training options.
  void save(std::ostream& os) const;
  [[nodiscard]] static Mlp load(std::istream& is);

 private:
  /// Sizes ws for this shape and at least `rows` block rows (idempotent;
  /// no-op once sized).
  void prepare_workspace(Workspace& ws, std::size_t rows) const;

  /// The hidden and output layers over params_ (valid while params_ is
  /// not resized).
  [[nodiscard]] std::array<MlpLayerView, 2> views() const;

  /// forward_normalized() over this network's parameters.
  double forward(std::span<const double> x_norm, double* hidden) const;

  /// The forward pass of data rows rows[0, count) at once, count <=
  /// ws.rows: activations into ws.hidden, output minus target into
  /// ws.residual. Every value equals forward()'s; the samples are
  /// independent, so their dots overlap and one stats::tanh call covers
  /// the whole hidden block.
  void forward_block(const MlpTrainingSet& data, const std::size_t* rows,
                     std::size_t count, Workspace& ws) const;

  /// Adds one sample's loss gradient to `grad` (parameter layout), given
  /// the hidden activations of its forward pass and d = output - target.
  void accumulate_gradient(std::span<const double> x_norm,
                           const double* hidden, double d, double* grad) const;

  MlpOptions opts_;
  std::size_t hidden_ = 0;      ///< Hidden units.
  std::vector<double> params_;  ///< W1 | b1 | w2 | b2, see parameters().
  std::vector<acbm::stats::ZScore> input_scalers_;
  acbm::stats::ZScore output_scaler_;
  std::size_t input_dim_ = 0;
  double best_val_loss_ = 0.0;
  bool fitted_ = false;
};

}  // namespace acbm::nn
