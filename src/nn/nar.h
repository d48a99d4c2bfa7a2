// Nonlinear autoregression (NAR): the paper's spatial model (Eq. 6-7)
//   T_{j+1} = f(T_j, T_{j-1}, ..., T_{j-q}) + eps,  eps ~ N(0, sigma^2)
// where f is a one-hidden-layer tanh network. This wrapper builds the lag
// embedding, trains the Mlp, and provides open-loop (one-step, true history)
// and closed-loop (multi-step, fed-back) forecasts.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "nn/mlp.h"

namespace acbm::nn {

struct NarOptions {
  std::size_t delays = 3;        ///< q in Eq. (6): number of lagged inputs.
  std::size_t hidden_nodes = 8;  ///< Width of the single hidden layer.
  MlpOptions mlp;                ///< hidden_units is overwritten from above.
};

class NarModel {
 public:
  NarModel() = default;
  explicit NarModel(NarOptions opts);

  /// Fits f on all (lag-window -> next value) pairs in the series.
  /// Requires series.size() >= delays + 2; throws std::invalid_argument.
  void fit(std::span<const double> series);

  /// Fits from a prebuilt lag-embedded training set (see
  /// MlpTrainingSet::build_lagged) — bit-identical to fit() on the series
  /// the set was built from, but the embedding and its column scalers are
  /// computed once and shared across fits (grid-search candidates with the
  /// same delay count, degradation-ladder retry rungs). The set's column
  /// count must equal this model's delays.
  void fit_prepared(const MlpTrainingSet& data);

  /// One-step forecast from the last `delays` values of `history`.
  [[nodiscard]] double forecast_one(std::span<const double> history) const;

  /// Closed-loop h-step forecast: predictions are fed back as inputs.
  [[nodiscard]] std::vector<double> forecast(std::span<const double> history,
                                             std::size_t h) const;

  /// Walk-forward one-step predictions for series[start..], each using the
  /// true lagged values (open loop). Requires start >= delays.
  [[nodiscard]] std::vector<double> one_step_predictions(
      std::span<const double> series, std::size_t start) const;

  [[nodiscard]] bool fitted() const noexcept { return mlp_.fitted(); }
  [[nodiscard]] std::size_t delays() const noexcept { return opts_.delays; }
  [[nodiscard]] const Mlp& network() const noexcept { return mlp_; }

  /// Text serialization of the fitted state.
  void save(std::ostream& os) const;
  [[nodiscard]] static NarModel load(std::istream& is);

 private:
  [[nodiscard]] std::vector<double> window(std::span<const double> values) const;

  NarOptions opts_;
  Mlp mlp_;
};

}  // namespace acbm::nn
