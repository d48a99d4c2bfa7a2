// Immutable shared inference view over a zero-copy .armm artifact
// (core/artifact_map.h), split from the fitting-side AdversaryModel.
//
// A ServingModel wraps a parsed ArtifactView plus the mapping (or owned
// image) that backs it. It is immutable after construction and safe to
// share across threads: predict() touches only const mapped state plus a
// thread_local scratch arena, so one model instance serves any number of
// concurrent callers with zero synchronization.
//
// Numeric contract: predict() mirrors AdversaryModel::predict_next_attack
// on a freshly loaded model (no live observations) operation for
// operation. The f64 path is byte-identical to predict_next_attack; the
// f32 path runs the same degradation ladders over the artifact's f32
// pools, keeping every structural decision (ladder rung, tree routing,
// history repair) in f64, and stays within 1e-3 * max(1, |f64|) of it
// (DESIGN.md §6). ServingModel is the only f32 predictor: `predict` and
// `evaluate --precision f32` and the daemon all run through it. The
// serving tests assert both contracts across every target of a fitted
// model and pin the f32 output bits.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact_map.h"
#include "core/durable.h"
#include "core/pipeline.h"
#include "core/spatial_model.h"
#include "core/temporal_model.h"

namespace acbm::core {

/// Arithmetic precision of the serving path (--precision CLI flag).
enum class Precision {
  kF64,  ///< The fitted f64 models (default; byte-identical to batch).
  kF32,  ///< The artifact's f32 pools (documented rel-error bound).
};

[[nodiscard]] std::string_view precision_name(Precision precision) noexcept;

/// Parses "f64" / "f32"; throws std::invalid_argument on anything else.
[[nodiscard]] Precision parse_precision(std::string_view text);

class ServingModel {
 public:
  ServingModel() = default;

  /// Maps an .armm artifact and validates it in place (O(µs) startup plus
  /// the optional CRC sweep); no deserialization, no allocation
  /// proportional to model size. Throws durable::LoadFailure on
  /// corruption.
  [[nodiscard]] static ServingModel map_file(const std::filesystem::path& path,
                                             bool verify_crc = true);

  /// Parses an in-memory image (copied into an owned 8-byte-aligned
  /// buffer). For tests and for models packed on the fly.
  [[nodiscard]] static ServingModel from_image(std::string_view image);

  /// Loads either format: .armm artifacts map directly; framed model.art
  /// artifacts are mapped (durable::load_framed_view), deserialized, and
  /// packed in memory. The daemon uses this as its .art fallback path.
  [[nodiscard]] static ServingModel load_any(const std::filesystem::path& path);

  [[nodiscard]] bool loaded() const noexcept { return loaded_; }

  /// Next-attack forecast for one target, mirroring
  /// AdversaryModel::predict_next_attack at either precision. Returns
  /// nullopt for targets with no attack history. Thread-safe; uses
  /// thread_local scratch only.
  [[nodiscard]] std::optional<AttackPrediction> predict(
      net::Asn target_asn, Precision precision = Precision::kF64) const;

  /// The combining-tree hour / day predictions predict() feeds its
  /// features through; at kF64 bit-identical to
  /// SpatiotemporalModel::predict_hour / predict_day.
  [[nodiscard]] double predict_hour(const StFeatures& features,
                                    Precision precision) const;
  [[nodiscard]] double predict_day(const StFeatures& features,
                                   Precision precision) const;

  /// One series forecast of one family's temporal model over `history`,
  /// mirroring TemporalModel::forecast_next (same ladder rung at both
  /// precisions; at kF64 bit-identical). Throws std::invalid_argument for
  /// a family without a temporal model.
  [[nodiscard]] double forecast_temporal(std::uint32_t family,
                                         TemporalSeries which,
                                         std::span<const double> history,
                                         Precision precision) const;
  /// One series forecast of one target's spatial model over `history`,
  /// mirroring SpatialModel::forecast_next likewise. Throws
  /// std::invalid_argument for a target without a spatial model.
  [[nodiscard]] double forecast_spatial(net::Asn target, SpatialSeries which,
                                        std::span<const double> history,
                                        Precision precision) const;

  /// All target ASNs in the artifact, ascending.
  [[nodiscard]] std::vector<net::Asn> targets() const;
  [[nodiscard]] bool has_target(net::Asn asn) const noexcept {
    return view_.target(asn) != nullptr;
  }

  [[nodiscard]] std::string_view family_name(std::uint32_t family) const;
  [[nodiscard]] trace::EpochSeconds window_start() const noexcept;
  [[nodiscard]] const armm::ArtifactView& view() const noexcept {
    return view_;
  }
  /// Size in bytes of the backing image / mapping.
  [[nodiscard]] std::size_t image_size() const noexcept;
  /// The raw .armm image bytes backing this model (mapping or owned
  /// buffer); valid while the model is alive. `acbm pack` writes this.
  [[nodiscard]] std::string_view image() const noexcept;

 private:
  durable::MappedFile file_;            ///< map_file path.
  std::vector<std::uint64_t> image_;    ///< from_image path (aligned).
  std::size_t image_bytes_ = 0;
  armm::ArtifactView view_;
  bool loaded_ = false;
};

}  // namespace acbm::core
