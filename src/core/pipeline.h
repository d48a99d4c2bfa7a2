// End-to-end facade: fit the three models on a trace and predict every
// feature of the next attack on a target (§VI-B: "the most important and
// relevant features include magnitude of bots involved during the DDoS
// attacks, the time when the DDoS attack happen and how long it lasts").
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/spatiotemporal_model.h"
#include "net/ip_space.h"
#include "trace/dataset.h"

namespace acbm::core {

/// All predicted features of a target's next attack.
struct AttackPrediction {
  double magnitude = 0.0;    ///< Expected number of bots.
  /// One-step forecast standard deviation of the magnitude (0 when the
  /// family's series fell back to a mean model).
  double magnitude_sd = 0.0;
  double duration_s = 0.0;   ///< Expected attack duration.
  double hour = 0.0;         ///< Predicted launch hour of day, [0, 24).
  double day = 0.0;          ///< Predicted day index in the window.
  trace::EpochSeconds start = 0;  ///< day/hour materialized as a timestamp.
  /// Predicted attacker source-AS distribution (ASN 0 = unattributed mass).
  std::unordered_map<net::Asn, double> source_distribution;
  /// Which family the prediction assumes (the target's dominant attacker).
  std::uint32_t assumed_family = 0;
};

/// Fit-time per-family reference statistics recorded in the model artifact
/// so a live drift monitor (core/ingest.h) can z-score streaming behavior
/// against what the fit actually saw. Three channels: launch rate
/// (attacks/hour over the fit window), volume (attack magnitude), and
/// inter-arrival seconds — for the interval channel the spread is the
/// standard deviation of the fitted temporal model's one-step *residuals*,
/// i.e. the error the model could not explain at fit time; live error
/// beyond that is drift, not noise.
struct FamilyDriftBaseline {
  std::uint32_t family = 0;
  double hours = 0.0;         ///< Fit-window hours the rate channel covers.
  double rate_mean = 0.0;     ///< Mean attacks/hour.
  double rate_std = 0.0;
  double magnitude_mean = 0.0;
  double magnitude_std = 0.0;
  double interval_mean = 0.0;  ///< Mean inter-arrival seconds.
  double interval_residual_std = 0.0;  ///< Std of one-step interval residuals.
};

/// The model options every CLI surface fits with: grid search off (the CLI
/// favors responsiveness), everything else at library defaults. cmd_fit,
/// cmd_worker, cmd_predict, cmd_evaluate, and the ingest refit loop must all
/// use exactly these options — checkpoint stages and sharded fits are keyed
/// on fit_config_tag() and must stay byte-identical across entry points.
[[nodiscard]] SpatiotemporalOptions default_cli_options();

/// The configuration part of every checkpoint and shard-plan key, hashed
/// beside the input bytes: the options above ("grid_search=0") and the
/// numerics the fit runs on ("tanh=acbm1": stats::tanh, not libm's;
/// "as=asn-order": A^s sums its per-AS terms in ascending ASN order). A
/// change that alters fitted bytes on purpose changes this tag, so a stage
/// checkpointed by another version is never resumed into this one.
[[nodiscard]] std::string_view fit_config_tag();

/// The full adversary-centric behavior model.
class AdversaryModel {
 public:
  /// The framed model artifact's version (durable.h envelope): 5 wraps
  /// body v3, whose dataset block is binary (Dataset::binary_parts).
  static constexpr int kFormatVersion = 5;

  AdversaryModel() = default;
  explicit AdversaryModel(SpatiotemporalOptions opts) : opts_(std::move(opts)) {}

  /// Fits temporal, spatial, and spatiotemporal components on the dataset
  /// (typically the training split). The dataset and map are copied so the
  /// model is self-contained; the rvalue overload takes the dataset over
  /// instead, for callers that do not read it again.
  void fit(const trace::Dataset& dataset, const net::IpToAsnMap& ip_map);
  void fit(trace::Dataset&& dataset, const net::IpToAsnMap& ip_map);

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }

  /// Predicts the next attack on a target AS from all history in the fitted
  /// dataset, a pure function of the fitted state. Returns nullopt when the
  /// target has never been attacked. This is the f64 reference
  /// ServingModel::predict is pinned to; f32 forecasts are served by
  /// ServingModel only.
  [[nodiscard]] std::optional<AttackPrediction> predict_next_attack(
      net::Asn target_asn) const;

  [[nodiscard]] const SpatiotemporalModel& spatiotemporal() const noexcept {
    return st_;
  }

  /// Pipeline-wide degradation-ladder report of the last fit() (empty on a
  /// loaded model; see SpatiotemporalModel::fit_report).
  [[nodiscard]] const FitReport& fit_report() const noexcept {
    return st_.fit_report();
  }
  [[nodiscard]] const trace::Dataset& dataset() const noexcept {
    return dataset_;
  }
  /// The IP->ASN map the model predicts with (serving-artifact extraction:
  /// core/artifact_map.h precomputes source-AS distributions at pack time).
  [[nodiscard]] const net::IpToAsnMap& ip_map() const noexcept {
    return ip_map_;
  }
  [[nodiscard]] const SpatiotemporalOptions& options() const noexcept {
    return opts_;
  }

  /// Fit-time drift baselines, one per family with >= 2 attacks, ordered by
  /// family index. Empty on an unfitted model (drift monitoring then has
  /// no reference and never trips).
  [[nodiscard]] const std::vector<FamilyDriftBaseline>& drift_baselines()
      const noexcept {
    return drift_baselines_;
  }

  /// Full-model serialization: fitted sub-models, the training dataset, the
  /// IP->ASN map, and the per-family drift baselines, so a loaded model
  /// predicts (and drift-monitors) standalone. body_parts() builds body v3
  /// as ordered parts: the head and sub-models as text ending in
  /// `dataset_bytes <n>`, the n-byte binary dataset block's parts
  /// (Dataset::binary_parts), then `ipmap_lines <m>` and the IP map text; a
  /// writer hands them to durable::save_artifact without joining them;
  /// save writes them to a stream. load_body is the one body parser: it
  /// slices exactly n bytes for the dataset block and parses it and the
  /// IP-map block in place in `body`, and throws on a malformed body. load
  /// reads the stream to its end, then parses it.
  [[nodiscard]] std::vector<std::string> body_parts() const;
  void save(std::ostream& os) const;
  [[nodiscard]] static AdversaryModel load_body(std::string_view body);
  [[nodiscard]] static AdversaryModel load(std::istream& is);

  /// Framed (kFormatVersion) serialization: the body wrapped in durable.h's
  /// magic/version/CRC32C envelope, written part by part after
  /// durable::frame_header. load_framed takes kFormatVersion only;
  /// corruption throws a typed durable::LoadFailure.
  void save_framed(std::ostream& os) const;
  [[nodiscard]] static AdversaryModel load_framed(std::istream& is);

  /// drift_baselines() of the framed artifact at `path` without loading
  /// the model: the CRC is checked over the whole mapped payload, then only
  /// the body head up to the drift block is parsed. Also reads the previous
  /// frame version (4), whose head is the same. Throws
  /// durable::LoadFailure, like load_framed.
  [[nodiscard]] static std::vector<FamilyDriftBaseline> load_drift_baselines(
      const std::filesystem::path& path);

  /// Stage checkpointing for fit() (see SpatiotemporalOptions::checkpoint).
  void set_checkpoint(CheckpointDir* store) { opts_.checkpoint = store; }

 private:
  /// The body version kFormatVersion wraps.
  static constexpr int kBodyVersion = 3;

  void compute_drift_baselines();

  SpatiotemporalOptions opts_;
  SpatiotemporalModel st_;
  trace::Dataset dataset_;
  net::IpToAsnMap ip_map_;
  std::vector<FamilyDriftBaseline> drift_baselines_;
  bool fitted_ = false;
};

}  // namespace acbm::core
