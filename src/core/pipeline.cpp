#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <stdexcept>
#include <sstream>
#include <tuple>
#include <utility>

#include "core/durable.h"
#include "core/features.h"
#include "core/observe.h"
#include "stats/serialize.h"

namespace acbm::core {

namespace {

/// Sequential mean/population-std (deterministic accumulation order).
std::pair<double, double> mean_std(std::span<const double> xs) {
  if (xs.empty()) return {0.0, 0.0};
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return {mean, std::sqrt(ss / static_cast<double>(xs.size()))};
}

}  // namespace

SpatiotemporalOptions default_cli_options() {
  SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  return opts;
}

std::string_view fit_config_tag() {
  return "grid_search=0;tanh=acbm1;as=asn-order";
}

void AdversaryModel::fit(const trace::Dataset& dataset,
                         const net::IpToAsnMap& ip_map) {
  trace::Dataset copy;
  {
    ACBM_SPAN("fit.dataset_copy");
    copy = dataset;
  }
  fit(std::move(copy), ip_map);
}

void AdversaryModel::fit(trace::Dataset&& dataset,
                         const net::IpToAsnMap& ip_map) {
  dataset_ = std::move(dataset);
  ip_map_ = ip_map;
  st_ = SpatiotemporalModel(opts_);
  st_.fit(dataset_, ip_map_);
  fitted_ = true;
  compute_drift_baselines();
}

void AdversaryModel::compute_drift_baselines() {
  ACBM_SPAN("fit.drift_baselines");
  drift_baselines_.clear();
  // Fit-window length in whole hours (rate channel denominator): enough
  // hours to cover the latest attack start.
  trace::EpochSeconds last_start = dataset_.window_start();
  for (const trace::Attack& attack : dataset_.attacks()) {
    last_start = std::max(last_start, attack.start);
  }
  const std::size_t hours = static_cast<std::size_t>(
      (last_start - dataset_.window_start()) / 3600 + 1);
  for (std::uint32_t family = 0;
       family < static_cast<std::uint32_t>(dataset_.family_names().size());
       ++family) {
    const FamilySeries series = extract_family_series(dataset_, family);
    const std::size_t n = series.magnitude.size();
    if (n < 2) continue;  // One attack pins no spread on any channel.
    FamilyDriftBaseline base;
    base.family = family;
    base.hours = static_cast<double>(hours);
    const std::vector<double> rate =
        hourly_attack_counts(dataset_, family, hours);
    std::tie(base.rate_mean, base.rate_std) = mean_std(rate);
    std::tie(base.magnitude_mean, base.magnitude_std) =
        mean_std(series.magnitude);
    std::tie(base.interval_mean, std::ignore) = mean_std(series.interval_s);
    // Interval residuals against the fitted temporal model's causal one-step
    // predictions: what the model could not explain at fit time. Families
    // without a temporal model (unmodelable) fall back to the raw interval
    // spread.
    const TemporalModel* temporal = st_.temporal(family);
    const std::size_t warmup = std::min<std::size_t>(4, n - 1);
    if (temporal != nullptr && warmup >= 1) {
      const std::vector<double> pred = temporal->one_step_predictions(
          TemporalSeries::kInterval, series.interval_s, warmup);
      std::vector<double> residuals;
      residuals.reserve(pred.size());
      for (std::size_t i = 0; i < pred.size(); ++i) {
        residuals.push_back(series.interval_s[warmup + i] - pred[i]);
      }
      std::tie(std::ignore, base.interval_residual_std) = mean_std(residuals);
    } else {
      std::tie(std::ignore, base.interval_residual_std) =
          mean_std(series.interval_s);
    }
    drift_baselines_.push_back(base);
  }
}

std::vector<std::string> AdversaryModel::body_parts() const {
  namespace io = acbm::stats::io;
  std::ostringstream head;
  io::write_header(head, "adversary_model", kBodyVersion);
  io::write_scalar(head, "fitted", fitted_ ? 1 : 0);
  io::write_scalar(head, "magnitude_window", opts_.magnitude_window);
  io::write_scalar(head, "drift_families", drift_baselines_.size());
  for (const FamilyDriftBaseline& base : drift_baselines_) {
    head << "drift " << base.family << ' ' << base.hours << ' '
         << base.rate_mean << ' ' << base.rate_std << ' '
         << base.magnitude_mean << ' ' << base.magnitude_std << ' '
         << base.interval_mean << ' ' << base.interval_residual_std << '\n';
  }
  st_.save(head);
  // The dataset block is binary and the IP map text; each goes behind its
  // size (bytes, lines) so the loader knows exactly where it ends.
  std::vector<std::string> dataset = dataset_.binary_parts();
  std::size_t dataset_bytes = 0;
  for (const std::string& part : dataset) dataset_bytes += part.size();
  io::write_scalar(head, "dataset_bytes", dataset_bytes);
  std::vector<std::string> parts = {std::move(head).str()};
  std::move(dataset.begin(), dataset.end(), std::back_inserter(parts));

  std::ostringstream ipmap_text;
  ip_map_.save(ipmap_text);
  const std::string_view ipmap = ipmap_text.view();
  std::string tail = "ipmap_lines ";
  tail += std::to_string(std::count(ipmap.begin(), ipmap.end(), '\n'));
  tail += '\n';
  tail += ipmap;
  parts.push_back(std::move(tail));
  return parts;
}

void AdversaryModel::save(std::ostream& os) const {
  for (const std::string& part : body_parts()) {
    os.write(part.data(), static_cast<std::streamsize>(part.size()));
  }
}

namespace {

/// The body fields ahead of the sub-models.
struct BodyHead {
  bool fitted = false;
  std::size_t magnitude_window = 0;
  std::vector<FamilyDriftBaseline> drift_baselines;
};

/// Reads the body head of body version `version`; the head itself is the
/// same in every version this reads.
BodyHead read_body_head(std::istream& is, int version) {
  namespace io = acbm::stats::io;
  std::string header;
  if (!std::getline(is, header)) {
    throw std::invalid_argument("AdversaryModel::load: missing header");
  }
  if (header != "acbm:adversary_model:v" + std::to_string(version)) {
    throw std::invalid_argument("AdversaryModel::load: unexpected header '" +
                                header + "'");
  }
  BodyHead head;
  head.fitted = io::read_scalar<int>(is, "fitted") != 0;
  head.magnitude_window = io::read_scalar<std::size_t>(is, "magnitude_window");
  const auto count = io::read_scalar<std::size_t>(is, "drift_families");
  head.drift_baselines.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto ss = io::expect_tag(is, "drift");
    FamilyDriftBaseline base;
    if (!(ss >> base.family >> base.hours >> base.rate_mean >>
          base.rate_std >> base.magnitude_mean >> base.magnitude_std >>
          base.interval_mean >> base.interval_residual_std)) {
      throw std::invalid_argument("AdversaryModel::load: bad drift baseline");
    }
    head.drift_baselines.push_back(base);
  }
  return head;
}

/// Splits the `<tag> <count>` line off the front of `rest` and returns
/// the count.
std::size_t take_count(std::string_view& rest, std::string_view tag) {
  durable::SpanBuf buf(rest);
  std::istream is(&buf);
  const auto count = acbm::stats::io::read_scalar<std::size_t>(is, tag);
  rest.remove_prefix(buf.consumed());
  return count;
}

/// Splits the `dataset_bytes <n>` line and then that many bytes off the
/// front of `rest`; the block is a view into it, not a copy.
std::string_view take_bytes(std::string_view& rest) {
  const std::size_t bytes = take_count(rest, "dataset_bytes");
  if (bytes > rest.size()) {
    throw std::invalid_argument(
        "AdversaryModel::load: dataset block of " + std::to_string(bytes) +
        " bytes, " + std::to_string(rest.size()) + " left");
  }
  const std::string_view block = rest.substr(0, bytes);
  rest.remove_prefix(bytes);
  return block;
}

/// Splits the `<tag> <lines>` line and then the block of that many
/// '\n'-terminated lines off the front of `rest`; the block is a view into
/// it, not a copy.
std::string_view take_block(std::string_view& rest, std::string_view tag) {
  const std::size_t lines = take_count(rest, tag);
  std::size_t end = 0;
  for (std::size_t i = 0; i < lines; ++i) {
    const std::size_t eol = rest.find('\n', end);
    if (eol == std::string_view::npos) {
      throw std::invalid_argument("AdversaryModel::load: truncated " +
                                  std::string(tag) + " block");
    }
    end = eol + 1;
  }
  const std::string_view block = rest.substr(0, end);
  rest.remove_prefix(end);
  return block;
}

}  // namespace

AdversaryModel AdversaryModel::load_body(std::string_view body) {
  // The head and sub-models (a small share of the body) go through their
  // stream parsers; the dataset and IP-map blocks are parsed in place.
  durable::SpanBuf buf(body);
  std::istream is(&buf);
  BodyHead head = read_body_head(is, kBodyVersion);
  AdversaryModel model;
  model.fitted_ = head.fitted;
  model.opts_.magnitude_window = head.magnitude_window;
  model.drift_baselines_ = std::move(head.drift_baselines);
  model.st_ = SpatiotemporalModel::load(is);

  std::string_view rest = body.substr(buf.consumed());
  model.dataset_ = trace::Dataset::load_binary(take_bytes(rest));
  durable::SpanBuf ipmap_buf(take_block(rest, "ipmap_lines"));
  std::istream ipmap_text(&ipmap_buf);
  model.ip_map_ = net::IpToAsnMap::load(ipmap_text);
  return model;
}

AdversaryModel AdversaryModel::load(std::istream& is) {
  return load_body(durable::read_stream(is));
}

void AdversaryModel::save_framed(std::ostream& os) const {
  const std::vector<std::string> parts = body_parts();
  const std::vector<std::string_view> views(parts.begin(), parts.end());
  os << durable::frame_header("adversary_model", kFormatVersion, views);
  for (std::string_view part : views) {
    os.write(part.data(), static_cast<std::streamsize>(part.size()));
  }
}

AdversaryModel AdversaryModel::load_framed(std::istream& is) {
  return durable::load_framed_text(is, "adversary_model", kFormatVersion,
                                   kFormatVersion, load_body);
}

std::vector<FamilyDriftBaseline> AdversaryModel::load_drift_baselines(
    const std::filesystem::path& path) {
  // Frame v4 (body v2, the dataset as CSV) has the same head, so a
  // directory published before v5 keeps its drift checks until it refits.
  const durable::FramedView framed = durable::load_framed_view(
      path, "adversary_model", kFormatVersion - 1, kFormatVersion);
  return durable::parse_payload(path.string(), [&framed] {
    durable::SpanBuf buf(framed.payload);
    std::istream body(&buf);
    return read_body_head(body, framed.version - kFormatVersion + kBodyVersion)
        .drift_baselines;
  });
}

std::optional<AttackPrediction> AdversaryModel::predict_next_attack(
    net::Asn target_asn) const {
  if (!fitted_) {
    throw std::logic_error("AdversaryModel::predict_next_attack: not fitted");
  }
  const TargetSeries target = extract_target_series(dataset_, target_asn);
  std::vector<const trace::Attack*> target_attacks;
  for (std::size_t idx : target.attack_indices) {
    target_attacks.push_back(&dataset_.attacks()[idx]);
  }
  if (target_attacks.empty()) return std::nullopt;

  // Dominant attacker family on this target.
  std::unordered_map<std::uint32_t, std::size_t> family_counts;
  for (const trace::Attack* attack : target_attacks) {
    ++family_counts[attack->family];
  }
  std::uint32_t family = target_attacks.back()->family;
  std::size_t best_count = 0;
  for (const auto& [f, count] : family_counts) {
    if (count > best_count || (count == best_count && f < family)) {
      family = f;
      best_count = count;
    }
  }

  AttackPrediction pred;
  pred.assumed_family = family;

  // Temporal component: the family's magnitude / hour / interval forecasts.
  const FamilySeries family_series = extract_family_series(dataset_, family);
  const TemporalModel* temporal = st_.temporal(family);
  StFeatures features;
  if (temporal != nullptr && !family_series.magnitude.empty()) {
    pred.magnitude = std::max(
        1.0, temporal->forecast_next(TemporalSeries::kMagnitude,
                                     family_series.magnitude));
    if (const auto& arima = temporal->model(TemporalSeries::kMagnitude)) {
      pred.magnitude_sd = std::sqrt(arima->forecast_variance(1));
    }
    features.tmp_hour =
        temporal->forecast_next(TemporalSeries::kHour, family_series.hour);
    features.tmp_interval_s = std::max(
        30.0, temporal->forecast_next(TemporalSeries::kInterval,
                                      family_series.interval_s));
  } else {
    pred.magnitude = target.magnitude.back();
    features.tmp_hour = target.hour.back();
    features.tmp_interval_s = 86400.0;
  }

  // Spatial component: per-target duration / hour / interval forecasts and
  // the source-AS distribution.
  const SpatialModel* spatial = st_.spatial(target_asn);
  if (spatial != nullptr) {
    pred.duration_s = std::max(
        30.0,
        spatial->forecast_next(SpatialSeries::kDuration, target.duration_s));
    features.spa_hour =
        spatial->forecast_next(SpatialSeries::kHour, target.hour);
    features.spa_interval_s = std::max(
        30.0,
        spatial->forecast_next(SpatialSeries::kInterval, target.interval_s));
    std::vector<std::unordered_map<net::Asn, double>> dists;
    dists.reserve(target_attacks.size());
    for (const trace::Attack* attack : target_attacks) {
      dists.push_back(source_asn_distribution(*attack, ip_map_));
    }
    pred.source_distribution = spatial->predict_source_distribution(dists);
  } else {
    // Cold target: fall back to its own last observations.
    double mean_duration = 0.0;
    for (double d : target.duration_s) mean_duration += d;
    pred.duration_s = mean_duration / static_cast<double>(target.duration_s.size());
    features.spa_hour = target.hour.back();
    features.spa_interval_s = features.tmp_interval_s;
    pred.source_distribution =
        source_asn_distribution(*target_attacks.back(), ip_map_);
  }

  features.prev_hour = target.hour.back();
  features.prev_day = target.day.back();
  double hour_sum = 0.0;
  for (double h : target.hour) hour_sum += h;
  features.mean_hour = hour_sum / static_cast<double>(target.hour.size());
  const std::size_t window =
      std::min<std::size_t>(opts_.magnitude_window, target.magnitude.size());
  double mag = 0.0;
  for (std::size_t i = target.magnitude.size() - window;
       i < target.magnitude.size(); ++i) {
    mag += target.magnitude[i];
  }
  features.avg_magnitude = mag / static_cast<double>(window);

  pred.hour = st_.predict_hour(features);
  pred.day = st_.predict_day(features);
  // Materialize (day, hour) as a timestamp. When that instant is not
  // strictly in the future of the last observed attack (multistage chains
  // often continue within the same day), fall back to the predicted
  // inter-launch interval instead of skipping a whole day.
  const double day_for_ts = std::max(pred.day, features.prev_day);
  pred.start = dataset_.window_start() +
               static_cast<trace::EpochSeconds>(day_for_ts) * 86400 +
               static_cast<trace::EpochSeconds>(pred.hour * 3600.0);
  const trace::EpochSeconds last_start = target_attacks.back()->start;
  if (pred.start <= last_start) {
    const double interval =
        std::max(30.0, 0.5 * (features.tmp_interval_s + features.spa_interval_s));
    pred.start = last_start + static_cast<trace::EpochSeconds>(interval);
    const trace::DayHour dh =
        trace::decompose_timestamp(pred.start, dataset_.window_start());
    pred.day = dh.day;
    pred.hour = dh.hour;
  }
  return pred;
}

}  // namespace acbm::core
