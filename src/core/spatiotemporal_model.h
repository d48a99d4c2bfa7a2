// The spatiotemporal model (§VI): a regression tree (CART with multivariate
// linear leaf models, pruned to keep 88% of the original SD) combining the
// temporal and spatial models' outputs. The tree's inputs mirror the paper's
// nodes: N_tmp (temporal hourly prediction), N_spa (spatial hourly
// prediction), and N_int (temporal inter-launch interval prediction), plus
// target context (previous attack's timestamp parts, recent mean
// magnitude). One tree predicts the next attack's hour, a second its day.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/feature_cache.h"
#include "core/robust.h"
#include "core/spatial_model.h"
#include "core/temporal_model.h"
#include "stats/ols.h"
#include "tree/model_tree.h"

namespace acbm::core {

class CheckpointDir;  // checkpoint.h

struct SpatiotemporalOptions {
  TemporalModelOptions temporal;
  SpatialModelOptions spatial;
  tree::ModelTreeOptions tree;  ///< sd_keep_ratio defaults to the paper's 0.88.

  SpatiotemporalOptions() {
    // The combining trees see few, noisy features; shallow structure with
    // aggressive pruning generalizes (the paper prunes to keep 88% of the
    // original SD and notes the unpruned tree drags in spurious splits).
    tree.cart.max_depth = 5;
    tree.cart.min_samples_leaf = 25;
    tree.cart.min_samples_split = 50;
    tree.prune_factor = 1.1;
  }

  /// Targets with fewer training attacks than this get no spatial model and
  /// contribute no tree rows.
  std::size_t min_target_attacks = 4;
  /// Tree rows start once a target has this many prior attacks (the paper
  /// trains from 10 historical attacks per group).
  std::size_t target_warmup = 3;
  /// Window of recent target attacks averaged into the magnitude feature.
  std::size_t magnitude_window = 10;
  /// Threat-intel budget: per-target spatial models see only the most
  /// recent `max_target_history` training attacks (0 = unlimited). The
  /// paper's per-target experiment uses 10 historical attacks per group;
  /// this knob reproduces that limited-information setting (§VI-B).
  std::size_t max_target_history = 0;
  /// Stage checkpointing (checkpoint.h): when set, fit() loads completed
  /// stages ("temporal/<family>", "spatial", "tree") from the store instead
  /// of refitting them, and records each stage as it completes. Non-owning;
  /// the store must outlive the fit. Fits are bit-identical with or without
  /// resume at any thread count.
  CheckpointDir* checkpoint = nullptr;
};

/// Inputs to the combining trees for one prediction.
struct StFeatures {
  double tmp_hour = 0.0;        ///< N_tmp: temporal model's hour prediction.
  double spa_hour = 0.0;        ///< N_spa: spatial model's hour prediction.
  double tmp_interval_s = 0.0;  ///< N_int: temporal interval prediction.
  double spa_interval_s = 0.0;
  double prev_hour = 0.0;       ///< Hour of the target's previous attack.
  double prev_day = 0.0;        ///< Day index of the target's previous attack.
  double mean_hour = 0.0;       ///< Mean launch hour of the target's history.
  double avg_magnitude = 0.0;   ///< Mean magnitude of recent target attacks.

  [[nodiscard]] std::vector<double> hour_row() const;
  [[nodiscard]] std::vector<double> day_row() const;
};

class SpatiotemporalModel {
 public:
  SpatiotemporalModel() = default;
  explicit SpatiotemporalModel(SpatiotemporalOptions opts)
      : opts_(std::move(opts)) {}

  /// Fits the per-family temporal models, per-target spatial models, and
  /// the two combining trees, all from the training dataset.
  void fit(const trace::Dataset& train, const net::IpToAsnMap& ip_map);

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }

  /// Predicted hour of the next attack, clamped to [0, 24).
  [[nodiscard]] double predict_hour(const StFeatures& features) const;

  /// Predicted day index of the next attack (not clamped).
  [[nodiscard]] double predict_day(const StFeatures& features) const;

  /// Sub-model access (null when the family/target had too little data).
  [[nodiscard]] const TemporalModel* temporal(std::uint32_t family) const;
  [[nodiscard]] const SpatialModel* spatial(net::Asn target) const;

  [[nodiscard]] const SpatiotemporalOptions& options() const noexcept {
    return opts_;
  }
  [[nodiscard]] const tree::ModelTree& hour_tree() const noexcept {
    return hour_tree_;
  }
  [[nodiscard]] const tree::ModelTree& day_tree() const noexcept {
    return day_tree_;
  }

  /// The pooled-linear fallback combiners, for the .armm packer
  /// (armm::pack_model).
  [[nodiscard]] const std::optional<stats::LinearRegression>& hour_fallback()
      const noexcept {
    return hour_linear_;
  }
  [[nodiscard]] const std::optional<stats::LinearRegression>& day_fallback()
      const noexcept {
    return day_linear_;
  }

  /// Aggregated degradation-ladder report of the last fit(): one record per
  /// temporal series ("temporal/<family>/<series>"), spatial series
  /// ("spatial/AS<asn>/<series>"), and combining tree ("tree/hour",
  /// "tree/day"). Not serialized; empty on a loaded model.
  [[nodiscard]] const FitReport& fit_report() const noexcept {
    return report_;
  }

  /// Text serialization of the fitted state (prediction-relevant options
  /// are persisted; sub-model fitting options reset to defaults on load).
  void save(std::ostream& os) const;
  [[nodiscard]] static SpatiotemporalModel load(std::istream& is);

  /// Framed (v3) serialization: the v2 body wrapped in durable.h's
  /// magic/version/CRC32C envelope. load_framed takes framed v3 only;
  /// corruption throws a typed durable::LoadFailure.
  void save_framed(std::ostream& os) const;
  [[nodiscard]] static SpatiotemporalModel load_framed(std::istream& is);

 private:
  /// Checkpoint-stage payloads for fit(): the spatial map and the combining
  /// trees serialized standalone (the temporal stage reuses
  /// TemporalModel::save/load directly).
  [[nodiscard]] std::string save_spatial_stage() const;
  void load_spatial_stage(const std::string& payload);
  [[nodiscard]] std::string save_tree_stage() const;
  void load_tree_stage(const std::string& payload);
  friend struct RowAssembler;
  SpatiotemporalOptions opts_;
  std::unordered_map<std::uint32_t, TemporalModel> temporal_;
  std::unordered_map<net::Asn, SpatialModel> spatial_;
  tree::ModelTree hour_tree_;
  tree::ModelTree day_tree_;
  /// Pooled-linear rung: fallback combiners when a tree fit fails.
  std::optional<stats::LinearRegression> hour_linear_;
  std::optional<stats::LinearRegression> day_linear_;
  FitReport report_;
  bool fitted_ = false;
};

/// One assembled prediction instance: the tree features, the ground truth,
/// and the global attack index it predicts (so callers can filter to the
/// test split).
struct StRow {
  StFeatures features;
  double truth_hour = 0.0;
  double truth_day = 0.0;
  std::size_t attack_index = 0;  ///< Into dataset.attacks().
  std::size_t target_pos = 0;    ///< Position in the target's series.
  net::Asn target_asn = 0;
};

// --- Shared stage-fit helpers ----------------------------------------------
//
// SpatiotemporalModel::fit and the sharded worker path (core/shard.h) fit
// checkpoint stages through these same functions, so a stage artifact is
// byte-identical whether it was produced by a single-process fit, a resumed
// fit, or any worker of a multi-process run. They include the stage's fault
// hooks (temporal.nonfinite) for the same reason.

/// Fits one family's temporal model from the shared FeatureCache. Returns
/// nullopt when the family is unmodelable (fewer than 2 attacks).
[[nodiscard]] std::optional<TemporalModel> fit_family_temporal(
    const trace::Dataset& train, FeatureCache& features, std::uint32_t family,
    const SpatiotemporalOptions& opts);

/// Fits one target's spatial model. Returns nullopt when the target has
/// fewer than `opts.min_target_attacks` training attacks. Honors
/// `opts.max_target_history` (limited-information trimming). The series
/// and the resolved bots come from `features`, which must be built over
/// `train` and `ip_map`.
[[nodiscard]] std::optional<SpatialModel> fit_target_spatial(
    const trace::Dataset& train, const net::IpToAsnMap& ip_map,
    FeatureCache& features, net::Asn target,
    const SpatiotemporalOptions& opts);

/// "temporal/<family>" stage payload: the model's text serialization, or the
/// empty string for an unmodelable family (a completed stage with no model).
[[nodiscard]] std::string encode_temporal_stage(
    const std::optional<TemporalModel>& model);

/// "spatial" stage payload: every fitted target model, sorted by ASN so the
/// bytes are independent of map iteration order.
[[nodiscard]] std::string encode_spatial_stage(
    const std::unordered_map<net::Asn, SpatialModel>& spatial);

/// Builds causal prediction rows over `dataset` using already-fitted
/// sub-models: for each target with a spatial model, every attack beyond the
/// warmup gets a row whose sub-model predictions use only earlier attacks.
/// When evaluating, fit the sub-models on the train split and assemble over
/// the full dataset, then keep rows with attack_index in the test range.
/// `cache` (optional) serves the family/target series from a shared
/// FeatureCache — pass the cache used to fit the sub-models so assembly
/// reuses those extractions instead of re-walking the dataset; with the
/// default nullptr the series are extracted locally. Rows are identical
/// either way.
[[nodiscard]] std::vector<StRow> assemble_rows(
    const trace::Dataset& dataset, const net::IpToAsnMap& ip_map,
    const std::unordered_map<std::uint32_t, TemporalModel>& temporal,
    const std::unordered_map<net::Asn, SpatialModel>& spatial,
    const SpatiotemporalOptions& opts, FeatureCache* cache = nullptr);

}  // namespace acbm::core
