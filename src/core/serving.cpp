#include "core/serving.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/observe.h"
#include "core/spatiotemporal_model.h"
#include "nn/mlp.h"
#include "stats/kernels.h"
#include "trace/dataset.h"

namespace acbm::core {

namespace {

using armm::ArimaRec;
using armm::ArtifactView;
using armm::FamilyRec;
using armm::LinearRec;
using armm::MetaRec;
using armm::MlpLayerRec;
using armm::MlpRec;
using armm::SpatialSlotRec;
using armm::TargetRec;
using armm::TemporalSlotRec;
using armm::TreeNodeRec;

/// Per-thread reusable buffers for the forecast recurrences. One instance
/// per thread makes predict() lock-free on a shared ServingModel.
struct Scratch {
  std::vector<double> repair;   ///< Non-finite-patched history copy.
  std::vector<double> diff;     ///< Differenced series (ARIMA).
  std::vector<double> innov;    ///< f64 innovations filter state.
  std::vector<double> level;    ///< Integration tail scratch.
  std::vector<double> last;     ///< last_at_level per differencing level.
  std::vector<float> x32;       ///< f32 differenced series.
  std::vector<float> e32;       ///< f32 innovations.
  std::vector<double> window;   ///< NAR delay window (most recent first).
  std::vector<double> act_a, act_b;  ///< f64 MLP features, activations.
  std::vector<float> fact_a, fact_b;  ///< f32 MLP ping-pong activations.
};

Scratch& tl_scratch() {
  static thread_local Scratch scratch;
  return scratch;
}

/// Mirrors temporal_model.cpp repair_history: the history unchanged when
/// all finite, else a patched copy.
std::span<const double> repair(std::span<const double> history, double fill,
                               std::vector<double>& storage) {
  const bool finite =
      std::all_of(history.begin(), history.end(),
                  [](double x) { return std::isfinite(x); });
  if (finite) return history;
  storage.assign(history.begin(), history.end());
  for (double& x : storage) {
    if (!std::isfinite(x)) x = fill;
  }
  return storage;
}

/// Mirrors ts::ArimaModel::forecast_one: difference d times, run the f64
/// innovations filter (ArmaModel::forecast with h = 1), integrate back
/// (ts::integrate_forecast). Identical IEEE operations in identical order.
double arima_forecast_f64(const ArimaRec& rec, const ArtifactView& view,
                          std::span<const double> history, Scratch& s) {
  const std::size_t d = rec.d;
  if (history.size() <= d) {
    throw std::invalid_argument("ArimaModel::forecast: history too short");
  }
  // difference(history, d): in-place forward differencing computes the
  // same values as the allocate-per-level reference.
  s.diff.assign(history.begin(), history.end());
  std::size_t n = s.diff.size();
  for (std::size_t k = 0; k < d; ++k) {
    for (std::size_t t = 1; t < n; ++t) s.diff[t - 1] = s.diff[t] - s.diff[t - 1];
    --n;
  }
  const std::span<const double> phi = view.f64(rec.phi);
  const std::span<const double> theta = view.f64(rec.theta);

  // ArmaModel::innovations over the differenced series.
  s.innov.assign(n, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    double pred = rec.intercept;
    for (std::size_t i = 0; i < phi.size(); ++i) {
      if (t > i) pred += phi[i] * s.diff[t - 1 - i];
    }
    for (std::size_t j = 0; j < theta.size(); ++j) {
      if (t > j) pred += theta[j] * s.innov[t - 1 - j];
    }
    s.innov[t] = s.diff[t] - pred;
  }
  // One step ahead with the future innovation at zero.
  const std::size_t t = n;
  double pred = rec.intercept;
  for (std::size_t i = 0; i < phi.size(); ++i) {
    if (t > i) pred += phi[i] * s.diff[t - 1 - i];
  }
  for (std::size_t j = 0; j < theta.size(); ++j) {
    if (t > j) pred += theta[j] * s.innov[t - 1 - j];
  }

  // integrate_forecast({pred}, history, d): add back the last value at
  // each differencing level, innermost level first.
  if (d > 0) {
    s.level.assign(history.end() - static_cast<std::ptrdiff_t>(d),
                   history.end());
    s.last.resize(d);
    std::size_t len = d;
    for (std::size_t k = 0; k < d; ++k) {
      s.last[k] = s.level[len - 1];
      if (len >= 2) {
        for (std::size_t tt = 1; tt < len; ++tt) {
          s.level[tt - 1] = s.level[tt] - s.level[tt - 1];
        }
        --len;
      }
    }
    for (std::size_t kk = d; kk-- > 0;) pred = s.last[kk] + pred;
  }
  return pred;
}

/// f32 counterpart of arima_forecast_f64 over the mapped f32
/// coefficients: differencing and integration stay f64 (exact subtractions
/// of the caller's history); the innovations filter runs in f32 as a
/// branch-free AR sweep plus a sequential MA recurrence.
double arima_forecast_f32(const ArimaRec& rec, const ArtifactView& view,
                          std::span<const double> history, Scratch& s) {
  const std::size_t d = rec.d;
  if (history.size() <= d) {
    throw std::invalid_argument("arima_forecast_f32: history too short");
  }
  s.diff.assign(history.begin(), history.end());
  std::size_t n = s.diff.size();
  double integrate_add = 0.0;
  for (std::size_t k = 0; k < d; ++k) {
    integrate_add += s.diff[n - 1];
    for (std::size_t t = 1; t < n; ++t) s.diff[t - 1] = s.diff[t] - s.diff[t - 1];
    --n;
  }
  const std::span<const float> phi = view.f32(rec.phi32);
  const std::span<const float> theta = view.f32(rec.theta32);
  const float intercept = rec.intercept32;

  s.x32.resize(n);
  for (std::size_t t = 0; t < n; ++t) s.x32[t] = static_cast<float>(s.diff[t]);
  const std::size_t p = phi.size();
  const std::size_t q = theta.size();
  if (q > 0) {
    s.e32.resize(n);
    float* const e = s.e32.data();
    const float* const x = s.x32.data();
    for (std::size_t t = 0; t < n; ++t) e[t] = x[t] - intercept;
    for (std::size_t i = 0; i < p; ++i) {
      const float ph = phi[i];
      for (std::size_t t = i + 1; t < n; ++t) e[t] -= ph * x[t - 1 - i];
    }
    if (q == 1) {
      const float th = theta[0];
      float prev = e[0];
      for (std::size_t t = 1; t < n; ++t) {
        prev = e[t] - th * prev;
        e[t] = prev;
      }
    } else {
      for (std::size_t t = 1; t < n; ++t) {
        float acc = e[t];
        for (std::size_t j = 0; j < q && t > j; ++j) {
          acc -= theta[j] * e[t - 1 - j];
        }
        e[t] = acc;
      }
    }
  }
  float next = intercept;
  for (std::size_t i = 0; i < p && n > i; ++i) {
    next += phi[i] * s.x32[n - 1 - i];
  }
  for (std::size_t j = 0; j < q && n > j; ++j) {
    next += theta[j] * s.e32[n - 1 - j];
  }
  return static_cast<double>(next) + integrate_add;
}

/// nn::Mlp::predict over the mapped f64 layers: ZScore transform, then
/// nn::forward_normalized, the forward pass Mlp itself runs (one copy of
/// the code, compiled with -ffp-contract=off), then ZScore inverse. So the
/// forecast equals the batch model's bit for bit.
/// The loader (artifact_map.cpp) admits only one-hidden-layer networks.
double mlp_predict_f64(const MlpRec& mlp, const ArtifactView& view,
                       std::span<const double> features, Scratch& s) {
  const std::span<const double> in_mean = view.f64(mlp.in_mean);
  const std::span<const double> in_sd = view.f64(mlp.in_sd);
  const std::span<const MlpLayerRec> layers =
      view.mlp_layers().subspan(mlp.layer_off, mlp.layer_count);
  const auto layer_view = [&](const MlpLayerRec& layer) {
    return nn::MlpLayerView{view.f64(layer.weights), view.f64(layer.biases),
                            static_cast<std::size_t>(layer.in),
                            static_cast<std::size_t>(layer.out)};
  };
  s.act_a.resize(mlp.input_dim);
  s.act_b.resize(layers[0].out);
  for (std::size_t j = 0; j < mlp.input_dim; ++j) {
    s.act_a[j] = (features[j] - in_mean[j]) / in_sd[j];
  }
  const double y = nn::forward_normalized(layer_view(layers[0]),
                                          layer_view(layers[1]), s.act_a,
                                          s.act_b);
  return y * mlp.out_sd + mlp.out_mean;
}

/// f32 counterpart of mlp_predict_f64 over the mapped transposed f32
/// layers (the gemv_t_f32 kernels); the output de-normalization stays f64.
double mlp_predict_f32(const MlpRec& mlp, const ArtifactView& view,
                       std::span<const double> features, Scratch& s) {
  const std::span<const float> in_mean = view.f32(mlp.in_mean32);
  const std::span<const float> in_sd = view.f32(mlp.in_sd32);
  const std::span<const MlpLayerRec> layers =
      view.mlp_layers().subspan(mlp.layer_off, mlp.layer_count);
  std::size_t max_width = mlp.input_dim;
  for (const MlpLayerRec& layer : layers) {
    max_width = std::max<std::size_t>(max_width, layer.out);
  }
  s.fact_a.resize(max_width);
  s.fact_b.resize(max_width);
  float* cur = s.fact_a.data();
  float* next = s.fact_b.data();
  for (std::size_t j = 0; j < mlp.input_dim; ++j) {
    cur[j] = (static_cast<float>(features[j]) - in_mean[j]) / in_sd[j];
  }
  std::size_t width = mlp.input_dim;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const MlpLayerRec& layer = layers[l];
    const std::span<const float> in{cur, width};
    const std::span<float> out{next, static_cast<std::size_t>(layer.out)};
    if (l + 1 < layers.size()) {
      stats::gemv_t_tanh_f32(view.f32(layer.weights_t32),
                             view.f32(layer.biases32), in, out);
    } else {
      stats::gemv_t_f32(view.f32(layer.weights_t32), view.f32(layer.biases32),
                        in, out);
    }
    std::swap(cur, next);
    width = layer.out;
  }
  return static_cast<double>(cur[0]) * mlp.out_sd + mlp.out_mean;
}

/// NAR forecast: the delay window (most recent value first, mirroring
/// NarModel::window) fed through the family's MLP at the given precision.
double nar_forecast(const MlpRec& mlp, const ArtifactView& view,
                    std::span<const double> history, bool f32, Scratch& s) {
  const std::size_t delays = mlp.delays;
  s.window.resize(delays);
  for (std::size_t i = 0; i < delays; ++i) {
    s.window[i] = history[history.size() - 1 - i];
  }
  return f32 ? mlp_predict_f32(mlp, view, s.window, s)
             : mlp_predict_f64(mlp, view, s.window, s);
}

/// Mirrors TemporalModel::forecast_next; both precisions take the same
/// rung.
double temporal_forecast(const TemporalSlotRec& slot, const ArtifactView& view,
                         std::span<const double> history, bool f32,
                         Scratch& s) {
  const std::span<const double> series =
      repair(history, slot.fallback_mean, s.repair);
  if (slot.arima.present != 0 && series.size() > slot.arima.d) {
    return f32 ? arima_forecast_f32(slot.arima, view, series, s)
               : arima_forecast_f64(slot.arima, view, series, s);
  }
  if (slot.seasonal_period > 0 && series.size() >= slot.seasonal_period) {
    return series[series.size() - slot.seasonal_period];
  }
  return slot.fallback_mean;
}

/// Mirrors SpatialModel::forecast_next; both precisions take the same
/// rung. The AR rung is always an AR(1) (d == 0), so SpatialModel's
/// non-empty-series guard is the series.size() > d guard written here.
double spatial_forecast(const SpatialSlotRec& slot, const ArtifactView& view,
                        std::span<const double> history, bool f32,
                        Scratch& s) {
  const std::span<const double> series =
      repair(history, slot.fallback_mean, s.repair);
  if (slot.has_nar != 0) {
    const MlpRec& mlp = view.mlps()[slot.mlp_index];
    if (series.size() >= mlp.delays) {
      return nar_forecast(mlp, view, series, f32, s);
    }
  }
  if (slot.ar.present != 0 && series.size() > slot.ar.d) {
    return f32 ? arima_forecast_f32(slot.ar, view, series, s)
               : arima_forecast_f64(slot.ar, view, series, s);
  }
  return slot.fallback_mean;
}

/// Mirrors RegressionTree::leaf_index + ModelTree leaf dispatch over one
/// tree's node block. Thresholds stay f64 at both precisions, so every
/// sample lands in the same leaf; at f32 only the leaf model runs in f32.
double tree_predict(const ArtifactView& view, std::uint64_t off,
                    std::span<const double> features, bool f32) {
  const TreeNodeRec* nodes = view.tree_nodes().data() + off;
  std::size_t id = 0;
  while (nodes[id].left >= 0) {
    const TreeNodeRec& node = nodes[id];
    id = static_cast<std::size_t>(
        features[node.feature] <= node.threshold ? node.left : node.right);
  }
  const TreeNodeRec& leaf = nodes[id];
  if (leaf.use_linear == 0) return leaf.mean;
  if (f32) {
    float acc = leaf.intercept32;
    const std::span<const float> coef = view.f32(leaf.coef32);
    for (std::size_t i = 0; i < coef.size(); ++i) {
      acc += coef[i] * static_cast<float>(features[i]);
    }
    return static_cast<double>(acc);
  }
  return stats::dot(view.f64(leaf.coef), features.first(leaf.coef.len),
                    leaf.intercept);
}

/// Mirrors LinearRegression::predict (the pooled-linear combiner rung).
double linear_predict(const LinearRec& rec, const ArtifactView& view,
                      std::span<const double> features, bool f32) {
  if (f32) {
    float acc = rec.intercept32;
    const std::span<const float> coef = view.f32(rec.coef32);
    for (std::size_t i = 0; i < coef.size(); ++i) {
      acc += coef[i] * static_cast<float>(features[i]);
    }
    return static_cast<double>(acc);
  }
  return stats::dot(view.f64(rec.coef), features.first(rec.coef.len),
                    rec.intercept);
}

/// Share of `asn` in one attack's stored distribution (records sorted by
/// ASN); 0.0 when absent — the map-lookup the reference code performs.
double dist_share_of(std::span<const std::uint32_t> asns,
                     std::span<const double> shares, std::uint32_t lo,
                     std::uint32_t hi, net::Asn asn) {
  const auto begin = asns.begin() + lo;
  const auto end = asns.begin() + hi;
  const auto it = std::lower_bound(begin, end, asn);
  if (it == end || *it != asn) return 0.0;
  return shares[static_cast<std::size_t>(it - asns.begin())];
}

/// Mirrors SpatialModel::predict_source_distribution over the packed
/// per-attack distributions.
std::unordered_map<net::Asn, double> predict_source_distribution(
    const ArtifactView& view, const TargetRec& rec) {
  std::unordered_map<net::Asn, double> prediction;
  const std::span<const std::uint32_t> tracked = view.u32(rec.tracked);
  const std::span<const std::uint32_t> index = view.u32(rec.dist_index);
  const std::span<const std::uint32_t> dist_asn = view.u32(rec.dist_asn);
  const std::span<const double> dist_share = view.f64(rec.dist_share);
  const std::size_t n = index.size() - 1;  // History length (>= 1).
  if (n == 0) {
    if (!tracked.empty()) {
      const double u = 1.0 / static_cast<double>(tracked.size());
      for (net::Asn asn : tracked) prediction[asn] = u;
    }
    return prediction;
  }
  const double alpha = rec.share_smoothing;
  const double blend = rec.share_recency_blend;
  double tracked_total = 0.0;
  for (net::Asn asn : tracked) {
    double ewma = 0.0;
    double sum = 0.0;
    bool seeded = false;
    for (std::size_t a = 0; a < n; ++a) {
      const double share =
          dist_share_of(dist_asn, dist_share, index[a], index[a + 1], asn);
      sum += share;
      if (!seeded) {
        ewma = share;
        seeded = true;
      } else {
        ewma = alpha * share + (1.0 - alpha) * ewma;
      }
    }
    const double mean_share = sum / static_cast<double>(n);
    const double estimate = blend * ewma + (1.0 - blend) * mean_share;
    if (estimate > 0.0) {
      prediction[asn] = estimate;
      tracked_total += estimate;
    }
  }
  if (tracked_total > 1.0) {
    for (auto& [asn, share] : prediction) share /= tracked_total;
    tracked_total = 1.0;
  }
  if (tracked_total < 1.0) {
    prediction[0] = 1.0 - tracked_total;  // Unattributed remainder.
  }
  return prediction;
}

/// One attack's stored distribution as a map (the cold-target fallback:
/// source_asn_distribution of the last observed attack).
std::unordered_map<net::Asn, double> stored_distribution(
    const ArtifactView& view, const TargetRec& rec, std::size_t attack) {
  const std::span<const std::uint32_t> index = view.u32(rec.dist_index);
  const std::span<const std::uint32_t> dist_asn = view.u32(rec.dist_asn);
  const std::span<const double> dist_share = view.f64(rec.dist_share);
  std::unordered_map<net::Asn, double> out;
  for (std::uint32_t k = index[attack]; k < index[attack + 1]; ++k) {
    out[dist_asn[k]] = dist_share[k];
  }
  return out;
}

}  // namespace

std::string_view precision_name(Precision precision) noexcept {
  return precision == Precision::kF32 ? "f32" : "f64";
}

Precision parse_precision(std::string_view text) {
  if (text == "f64") return Precision::kF64;
  if (text == "f32") return Precision::kF32;
  throw std::invalid_argument("parse_precision: expected f64 or f32, got '" +
                              std::string(text) + "'");
}

ServingModel ServingModel::map_file(const std::filesystem::path& path,
                                    bool verify_crc) {
  ServingModel model;
  model.file_ = durable::MappedFile(path);
  model.view_ = armm::ArtifactView::parse(model.file_.view(), verify_crc);
  model.image_bytes_ = model.file_.size();
  model.loaded_ = true;
  return model;
}

ServingModel ServingModel::from_image(std::string_view image) {
  ServingModel model;
  model.image_.resize((image.size() + sizeof(std::uint64_t) - 1) /
                      sizeof(std::uint64_t));
  std::memcpy(model.image_.data(), image.data(), image.size());
  model.view_ = armm::ArtifactView::parse(
      {reinterpret_cast<const char*>(model.image_.data()), image.size()});
  model.image_bytes_ = image.size();
  model.loaded_ = true;
  return model;
}

ServingModel ServingModel::load_any(const std::filesystem::path& path) {
  {
    durable::MappedFile probe(path);
    if (probe.size() >= sizeof(armm::kMagic) &&
        std::memcmp(probe.data(), armm::kMagic, sizeof(armm::kMagic)) == 0) {
      ServingModel model;
      model.file_ = std::move(probe);
      model.view_ = armm::ArtifactView::parse(model.file_.view());
      model.image_bytes_ = model.file_.size();
      model.loaded_ = true;
      return model;
    }
  }
  // Framed model.art fallback: validate the frame against the mapping
  // without copying, parse the body in place, re-pack in memory.
  const AdversaryModel model = [&path] {
    ACBM_SPAN("pack.load");
    const durable::FramedView framed =
        durable::load_framed_view(path, "adversary_model",
                                  AdversaryModel::kFormatVersion,
                                  AdversaryModel::kFormatVersion);
    return durable::parse_payload(path.string(), [&framed] {
      return AdversaryModel::load_body(framed.payload);
    });
  }();
  std::string image;
  {
    ACBM_SPAN("pack.image");
    image = armm::pack_model(model);
  }
  return from_image(image);
}

std::vector<net::Asn> ServingModel::targets() const {
  std::vector<net::Asn> out;
  out.reserve(view_.targets().size());
  for (const TargetRec& rec : view_.targets()) out.push_back(rec.asn);
  return out;
}

std::string_view ServingModel::family_name(std::uint32_t family) const {
  const FamilyRec* rec = view_.family(family);
  if (rec == nullptr) return {};
  const std::span<const char> chars = view_.chars(rec->name);
  return {chars.data(), chars.size()};
}

trace::EpochSeconds ServingModel::window_start() const noexcept {
  return static_cast<trace::EpochSeconds>(view_.meta().window_start);
}

std::size_t ServingModel::image_size() const noexcept { return image_bytes_; }

std::string_view ServingModel::image() const noexcept {
  if (file_.mapped()) return file_.view();
  return {reinterpret_cast<const char*>(image_.data()), image_bytes_};
}

/// Mirrors SpatiotemporalModel::predict_hour.
double ServingModel::predict_hour(const StFeatures& features,
                                  Precision precision) const {
  if (!loaded_) {
    throw std::logic_error("ServingModel::predict_hour: not loaded");
  }
  const bool f32 = precision == Precision::kF32;
  const MetaRec& meta = view_.meta();
  double hour;
  if (meta.hour_tree_count > 0) {
    hour = tree_predict(view_, meta.hour_tree_off, features.hour_row(), f32);
  } else if (meta.hour_linear.present != 0) {
    hour = linear_predict(meta.hour_linear, view_, features.hour_row(), f32);
  } else {
    hour = 0.5 * (features.tmp_hour + features.spa_hour);
  }
  return std::clamp(hour, 0.0, 23.999);
}

/// Mirrors SpatiotemporalModel::predict_day.
double ServingModel::predict_day(const StFeatures& features,
                                 Precision precision) const {
  if (!loaded_) throw std::logic_error("ServingModel::predict_day: not loaded");
  const bool f32 = precision == Precision::kF32;
  const MetaRec& meta = view_.meta();
  if (meta.day_tree_count > 0) {
    return tree_predict(view_, meta.day_tree_off, features.day_row(), f32);
  }
  if (meta.day_linear.present != 0) {
    return linear_predict(meta.day_linear, view_, features.day_row(), f32);
  }
  return features.prev_day + features.tmp_interval_s / 86400.0;
}

double ServingModel::forecast_temporal(std::uint32_t family,
                                       TemporalSeries which,
                                       std::span<const double> history,
                                       Precision precision) const {
  if (!loaded_) {
    throw std::logic_error("ServingModel::forecast_temporal: not loaded");
  }
  const FamilyRec* frec = view_.family(family);
  if (frec == nullptr || frec->has_temporal == 0) {
    throw std::invalid_argument(
        "ServingModel::forecast_temporal: no temporal model for family " +
        std::to_string(family));
  }
  const TemporalSlotRec& slot =
      view_.temporal_slots()[static_cast<std::size_t>(family) *
                                 kTemporalSeriesCount +
                             static_cast<std::size_t>(which)];
  return temporal_forecast(slot, view_, history,
                           precision == Precision::kF32, tl_scratch());
}

double ServingModel::forecast_spatial(net::Asn target, SpatialSeries which,
                                      std::span<const double> history,
                                      Precision precision) const {
  if (!loaded_) {
    throw std::logic_error("ServingModel::forecast_spatial: not loaded");
  }
  const TargetRec* trec = view_.target(target);
  if (trec == nullptr || trec->has_spatial == 0) {
    throw std::invalid_argument(
        "ServingModel::forecast_spatial: no spatial model for AS" +
        std::to_string(target));
  }
  const SpatialSlotRec& slot =
      view_.spatial_slots()[view_.target_index(*trec) * kSpatialSeriesCount +
                            static_cast<std::size_t>(which)];
  return spatial_forecast(slot, view_, history, precision == Precision::kF32,
                          tl_scratch());
}

std::optional<AttackPrediction> ServingModel::predict(
    net::Asn target_asn, Precision precision) const {
  if (!loaded_) throw std::logic_error("ServingModel::predict: not loaded");
  const TargetRec* trec = view_.target(target_asn);
  if (trec == nullptr) return std::nullopt;  // No attack history.
  Scratch& s = tl_scratch();
  const bool f32 = precision == Precision::kF32;

  const std::span<const std::uint32_t> fams = view_.u32(trec->attack_family);
  const std::span<const std::int64_t> starts = view_.i64(trec->attack_start);
  const std::span<const double> t_duration = view_.f64(trec->duration);
  const std::span<const double> t_interval = view_.f64(trec->interval);
  const std::span<const double> t_hour = view_.f64(trec->hour);
  const std::span<const double> t_day = view_.f64(trec->day);
  const std::span<const double> t_magnitude = view_.f64(trec->magnitude);

  // Dominant attacker family — same seeded map scan as the reference; the
  // result is the smallest family id among the most frequent.
  std::unordered_map<std::uint32_t, std::size_t> family_counts;
  for (std::uint32_t f : fams) ++family_counts[f];
  std::uint32_t family = fams.back();
  std::size_t best_count = 0;
  for (const auto& [f, count] : family_counts) {
    if (count > best_count || (count == best_count && f < family)) {
      family = f;
      best_count = count;
    }
  }

  AttackPrediction pred;
  pred.assumed_family = family;

  const FamilyRec* frec = view_.family(family);
  const std::span<const double> f_magnitude = view_.f64(frec->magnitude);
  const std::span<const double> f_hour = view_.f64(frec->hour);
  const std::span<const double> f_interval = view_.f64(frec->interval);
  const std::span<const TemporalSlotRec> t_slots = view_.temporal_slots()
      .subspan(static_cast<std::size_t>(family) * kTemporalSeriesCount,
               kTemporalSeriesCount);

  StFeatures features;
  if (frec->has_temporal != 0 && !f_magnitude.empty()) {
    const auto& mag_slot =
        t_slots[static_cast<std::size_t>(TemporalSeries::kMagnitude)];
    pred.magnitude = std::max(
        1.0, temporal_forecast(mag_slot, view_, f_magnitude, f32, s));
    if (mag_slot.arima.present != 0) {
      // forecast_variance(1) is exactly sigma2 (psi_0 = 1 survives the
      // cumulative-sum passes untouched); always f64 regardless of the
      // requested precision, as in the reference.
      pred.magnitude_sd = std::sqrt(mag_slot.arima.sigma2);
    }
    features.tmp_hour = temporal_forecast(
        t_slots[static_cast<std::size_t>(TemporalSeries::kHour)], view_,
        f_hour, f32, s);
    features.tmp_interval_s = std::max(
        30.0, temporal_forecast(
                  t_slots[static_cast<std::size_t>(TemporalSeries::kInterval)],
                  view_, f_interval, f32, s));
  } else {
    pred.magnitude = t_magnitude.back();
    features.tmp_hour = t_hour.back();
    features.tmp_interval_s = 86400.0;
  }

  const std::span<const SpatialSlotRec> s_slots = view_.spatial_slots()
      .subspan(view_.target_index(*trec) * kSpatialSeriesCount,
               kSpatialSeriesCount);
  if (trec->has_spatial != 0) {
    pred.duration_s = std::max(
        30.0, spatial_forecast(
                  s_slots[static_cast<std::size_t>(SpatialSeries::kDuration)],
                  view_, t_duration, f32, s));
    features.spa_hour = spatial_forecast(
        s_slots[static_cast<std::size_t>(SpatialSeries::kHour)], view_, t_hour,
        f32, s);
    features.spa_interval_s = std::max(
        30.0, spatial_forecast(
                  s_slots[static_cast<std::size_t>(SpatialSeries::kInterval)],
                  view_, t_interval, f32, s));
    pred.source_distribution = predict_source_distribution(view_, *trec);
  } else {
    // Cold target: fall back to its own last observations.
    double mean_duration = 0.0;
    for (double d : t_duration) mean_duration += d;
    pred.duration_s =
        mean_duration / static_cast<double>(t_duration.size());
    features.spa_hour = t_hour.back();
    features.spa_interval_s = features.tmp_interval_s;
    pred.source_distribution =
        stored_distribution(view_, *trec, fams.size() - 1);
  }

  features.prev_hour = t_hour.back();
  features.prev_day = t_day.back();
  double hour_sum = 0.0;
  for (double h : t_hour) hour_sum += h;
  features.mean_hour = hour_sum / static_cast<double>(t_hour.size());
  const std::size_t window = std::min<std::size_t>(
      view_.meta().magnitude_window, t_magnitude.size());
  double mag = 0.0;
  for (std::size_t i = t_magnitude.size() - window; i < t_magnitude.size();
       ++i) {
    mag += t_magnitude[i];
  }
  features.avg_magnitude = mag / static_cast<double>(window);

  pred.hour = predict_hour(features, precision);
  pred.day = predict_day(features, precision);
  // Materialize (day, hour) as a timestamp with the same
  // same-day-collision fallback as the reference.
  const double day_for_ts = std::max(pred.day, features.prev_day);
  const auto window_start =
      static_cast<trace::EpochSeconds>(view_.meta().window_start);
  pred.start = window_start +
               static_cast<trace::EpochSeconds>(day_for_ts) * 86400 +
               static_cast<trace::EpochSeconds>(pred.hour * 3600.0);
  const auto last_start = static_cast<trace::EpochSeconds>(starts.back());
  if (pred.start <= last_start) {
    const double interval = std::max(
        30.0, 0.5 * (features.tmp_interval_s + features.spa_interval_s));
    pred.start = last_start + static_cast<trace::EpochSeconds>(interval);
    const trace::DayHour dh =
        trace::decompose_timestamp(pred.start, window_start);
    pred.day = dh.day;
    pred.hour = dh.hour;
  }
  return pred;
}

}  // namespace acbm::core
