// The paper's evaluation protocol: chronological 80/20 split, walk-forward
// one-step prediction on the test tail, RMSE and error-distribution
// reporting. Each function here backs one figure or table of the paper
// (see DESIGN.md §3 for the experiment index).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/serving.h"
#include "core/spatiotemporal_model.h"
#include "net/ip_space.h"
#include "trace/dataset.h"

namespace acbm::core {

/// Walk-forward evaluation of one family series (Fig. 1 uses kMagnitude):
/// the temporal model against the two naive baselines of §VII-A.
struct SeriesEvaluation {
  std::string family;
  std::vector<double> truth;       ///< Test-tail ground truth.
  std::vector<double> model_pred;  ///< Temporal (ARIMA) predictions.
  std::vector<double> same_pred;   ///< Always-Same baseline.
  std::vector<double> mean_pred;   ///< Always-Mean baseline.
  double model_rmse = 0.0;
  double same_rmse = 0.0;
  double mean_rmse = 0.0;
};

[[nodiscard]] SeriesEvaluation evaluate_temporal_series(
    const trace::Dataset& dataset, const net::IpToAsnMap& ip_map,
    std::uint32_t family, TemporalSeries which,
    const TemporalModelOptions& opts = {}, double train_fraction = 0.8);

/// Per-target spatial (NAR) evaluation of a series aggregated over all of a
/// family's targets (duration is the paper's T^d): per-test-attack truth and
/// predictions from the spatial model and the two baselines.
struct SpatialEvaluation {
  std::string family;
  std::size_t targets_evaluated = 0;
  std::vector<double> truth;
  std::vector<double> model_pred;
  std::vector<double> same_pred;
  std::vector<double> mean_pred;
  double model_rmse = 0.0;
  double same_rmse = 0.0;
  double mean_rmse = 0.0;
};

[[nodiscard]] SpatialEvaluation evaluate_spatial_series(
    const trace::Dataset& dataset, const net::IpToAsnMap& ip_map,
    std::uint32_t family, SpatialSeries which,
    const SpatialModelOptions& opts = {}, double train_fraction = 0.8,
    std::size_t min_target_attacks = 10);

/// Fig. 2: attacker source-AS distribution prediction for one family.
struct SourceDistributionEvaluation {
  std::string family;
  std::vector<net::Asn> ases;        ///< Union of tracked ASes, ranked.
  std::vector<double> truth_freq;    ///< Aggregate truth distribution.
  std::vector<double> pred_freq;     ///< Aggregate predicted distribution.
  std::vector<double> per_attack_tv; ///< Total-variation error per attack.
  double model_rmse = 0.0;           ///< sqrt(mean(tv^2)) over test attacks.
  double same_rmse = 0.0;            ///< Previous-distribution baseline.
  double mean_rmse = 0.0;            ///< Historical-mean baseline.
};

[[nodiscard]] SourceDistributionEvaluation evaluate_source_distribution(
    const trace::Dataset& dataset, const net::IpToAsnMap& ip_map,
    std::uint32_t family, const SpatialModelOptions& opts = {},
    double train_fraction = 0.8, std::size_t min_target_attacks = 10);

/// Fig. 3/4 and the §VI-B RMSE numbers: per-target timestamp (day & hour)
/// prediction comparing spatial-only, temporal-only, and spatiotemporal.
struct TimestampEvaluation {
  std::vector<double> truth_hour;
  std::vector<double> st_hour;    ///< Spatiotemporal tree.
  std::vector<double> spa_hour;   ///< Spatial model alone.
  std::vector<double> tmp_hour;   ///< Temporal model alone.
  std::vector<double> truth_day;
  std::vector<double> st_day;
  std::vector<double> spa_day;
  std::vector<double> tmp_day;
  /// §VII-A naive baselines on the same test rows, computed per target
  /// walk-forward: Always-Same repeats the target's previous hour and
  /// previous inter-attack interval; Always-Mean predicts the running means.
  std::vector<double> same_hour;
  std::vector<double> mean_hour;
  std::vector<double> same_day;
  std::vector<double> mean_day;
  double rmse_hour_st = 0.0;
  double rmse_hour_spa = 0.0;
  double rmse_hour_tmp = 0.0;
  double rmse_day_st = 0.0;
  double rmse_day_spa = 0.0;
  double rmse_day_tmp = 0.0;
  double rmse_hour_same = 0.0;
  double rmse_hour_mean = 0.0;
  double rmse_day_same = 0.0;
  double rmse_day_mean = 0.0;
};

/// `precision` selects the serving arithmetic for the spatiotemporal
/// columns (st_hour / st_day): kF64 scores the fitted models directly,
/// kF32 packs them (armm::pack_model) and scores the combiners through
/// ServingModel (--precision f32). Fitting is identical either way.
[[nodiscard]] TimestampEvaluation evaluate_timestamps(
    const trace::Dataset& dataset, const net::IpToAsnMap& ip_map,
    const SpatiotemporalOptions& opts = {}, double train_fraction = 0.8,
    Precision precision = Precision::kF64);

/// §VII-A comparison row: one family, one feature, three predictors.
struct ComparisonRow {
  std::string family;
  std::string feature;
  double model_rmse = 0.0;
  double same_rmse = 0.0;
  double mean_rmse = 0.0;
};

/// Runs the §VII-A comparison (magnitude, duration, source distribution)
/// for the `top_families` most active families.
[[nodiscard]] std::vector<ComparisonRow> comparison_table(
    const trace::Dataset& dataset, const net::IpToAsnMap& ip_map,
    std::size_t top_families = 5, double train_fraction = 0.8);

/// The `count` most active families (by attack volume), descending.
[[nodiscard]] std::vector<std::uint32_t> most_active_families(
    const trace::Dataset& dataset, std::size_t count);

/// A causal forecast of one test attack: when it was predicted to launch
/// and where its traffic was predicted to come from, using only information
/// available before the target's previous attack ended. Drives the Fig. 5
/// SDN simulations and any downstream provisioning logic.
struct PredictedAttack {
  std::size_t attack_index = 0;
  net::Asn target = 0;
  trace::EpochSeconds predicted_start = 0;
  trace::EpochSeconds actual_start = 0;
  /// Smallest predicted source-AS set covering `source_mass` of the mass.
  std::vector<net::Asn> predicted_sources;
};

/// Fits on the train split and produces causal predictions for every test
/// attack covered by the models (same protocol as evaluate_timestamps).
[[nodiscard]] std::vector<PredictedAttack> predict_attacks(
    const trace::Dataset& dataset, const net::IpToAsnMap& ip_map,
    const SpatiotemporalOptions& opts = {}, double train_fraction = 0.8,
    double source_mass = 0.9);

}  // namespace acbm::core
