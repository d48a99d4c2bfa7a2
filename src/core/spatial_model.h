// The spatial model (§V): per-target-network (AS-level) nonlinear
// autoregression. Durations, launch hours, and inter-launch intervals of
// the attacks on one target are modeled by NAR networks (Eq. 6-7, tanh
// hidden layer, grid-searched delays/hidden nodes); the attacker source-AS
// distribution is modeled per source AS and renormalized (Fig. 2).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/features.h"
#include "core/robust.h"
#include "nn/grid_search.h"
#include "nn/nar.h"
#include "ts/arima.h"

namespace acbm::core {

enum class SpatialSeries {
  kDuration,  ///< T^d.
  kInterval,  ///< Time between attacks on this target.
  kHour,      ///< Launch hour.
};
inline constexpr std::size_t kSpatialSeriesCount = 3;

struct SpatialModelOptions {
  /// Grid-search delays and hidden nodes per series (§V-A); when false the
  /// fixed NAR settings below are used (DESIGN.md ablation #2).
  bool grid_search = true;
  nn::NarGridOptions grid;
  nn::NarOptions fixed;
  /// Series shorter than this are modeled by their mean.
  std::size_t min_fit_length = 20;
  /// NAR fit attempts before falling to the AR rung; attempts beyond the
  /// first reseed the network init from a substream of the base seed.
  std::size_t max_fit_attempts = 2;
  /// Source-AS distribution: shares tracked for the most common ASes; the
  /// rest aggregate into an "other" bucket.
  std::size_t top_source_ases = 32;
  /// Recency weight of the share predictor's EWMA component.
  double share_smoothing = 0.2;
  /// Blend between the recency EWMA (this weight) and the historical mean
  /// share (the remainder): robust when sources are stable, adaptive when
  /// the botmaster rotates the pool.
  double share_recency_blend = 0.45;

  SpatialModelOptions() {
    // Spatial series are short (per-target); keep candidate networks small
    // and training fast.
    grid.delay_grid = {1, 2, 3};
    grid.hidden_grid = {2, 4};
    grid.mlp.max_epochs = 150;
    grid.mlp.hidden_units = 4;
    fixed.delays = 2;
    fixed.hidden_nodes = 4;
    fixed.mlp.max_epochs = 150;
  }
};

/// Per-target spatial model.
class SpatialModel {
 public:
  SpatialModel() = default;
  explicit SpatialModel(SpatialModelOptions opts) : opts_(std::move(opts)) {}

  /// Fits on a target's training series; also learns the source-AS share
  /// dynamics from the same attacks, whose bots `sources` holds resolved.
  void fit(const TargetSeries& train, const SourceTable& sources);

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] net::Asn target_asn() const noexcept { return asn_; }

  /// Causal one-step predictions over a full (train+test) series.
  [[nodiscard]] std::vector<double> one_step_predictions(
      SpatialSeries which, std::span<const double> full_series,
      std::size_t start) const;

  [[nodiscard]] double forecast_next(SpatialSeries which,
                                     std::span<const double> history) const;

  /// Predicted source-AS distribution of the target's next attack, given the
  /// distributions of the attacks observed so far (chronological). The
  /// result is normalized; the unattributed remainder appears under ASN 0.
  [[nodiscard]] std::unordered_map<net::Asn, double> predict_source_distribution(
      std::span<const std::unordered_map<net::Asn, double>> history) const;

  /// The ASes whose shares the model tracks (fitted order, most common
  /// first).
  [[nodiscard]] const std::vector<net::Asn>& tracked_ases() const noexcept {
    return tracked_ases_;
  }

  /// Share-predictor weights (persisted by save(); serving-artifact
  /// extraction mirrors predict_source_distribution with them).
  [[nodiscard]] double share_smoothing() const noexcept {
    return opts_.share_smoothing;
  }
  [[nodiscard]] double share_recency_blend() const noexcept {
    return opts_.share_recency_blend;
  }

  /// The degradation-ladder rung the series landed on:
  /// NAR -> NAR retry (perturbed init) -> AR(1) -> mean.
  [[nodiscard]] FitRung rung(SpatialSeries which) const;

  /// Accessors for the .armm packer (armm::pack_model): the fitted models
  /// and fallback mean of a series' degradation slot.
  [[nodiscard]] const std::optional<nn::NarModel>& nar(
      SpatialSeries which) const;
  [[nodiscard]] const std::optional<ts::ArimaModel>& ar(
      SpatialSeries which) const;
  [[nodiscard]] double fallback_mean(SpatialSeries which) const;

  /// One record per series from the last fit() (not serialized).
  [[nodiscard]] const FitReport& fit_report() const noexcept {
    return report_;
  }

  /// Text serialization of the fitted state (prediction-relevant options
  /// are persisted; fitting options reset to defaults on load).
  void save(std::ostream& os) const;
  [[nodiscard]] static SpatialModel load(std::istream& is);

  /// Framed (v3) serialization: the v2 body wrapped in durable.h's
  /// magic/version/CRC32C envelope. load_framed takes framed v3 only;
  /// corruption throws a typed durable::LoadFailure.
  void save_framed(std::ostream& os) const;
  [[nodiscard]] static SpatialModel load_framed(std::istream& is);

 private:
  struct SeriesModel {
    std::optional<nn::NarModel> nar;     ///< kNar / kNarRetry rungs.
    std::optional<ts::ArimaModel> ar;    ///< kAr rung.
    double fallback_mean = 0.0;
    FitRung rung = FitRung::kMean;
    FitRecord record;  ///< Staged per-series, merged in index order by fit().
  };

  void fit_one(SpatialSeries which, std::span<const double> series);
  [[nodiscard]] const SeriesModel& series_model(SpatialSeries which) const;

  SpatialModelOptions opts_;
  net::Asn asn_ = 0;
  std::vector<SeriesModel> models_{kSpatialSeriesCount};
  std::vector<net::Asn> tracked_ases_;
  FitReport report_;
  bool fitted_ = false;
};

}  // namespace acbm::core
