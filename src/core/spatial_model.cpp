#include "core/spatial_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/durable.h"
#include "core/observe.h"
#include "core/parallel.h"
#include "stats/descriptive.h"
#include "stats/rng.h"
#include "stats/serialize.h"

namespace acbm::core {

namespace {
const char* series_name(SpatialSeries which) {
  switch (which) {
    case SpatialSeries::kDuration: return "duration";
    case SpatialSeries::kInterval: return "interval";
    case SpatialSeries::kHour: return "hour";
  }
  return "unknown";
}
}  // namespace

const SpatialModel::SeriesModel& SpatialModel::series_model(
    SpatialSeries which) const {
  return models_[static_cast<std::size_t>(which)];
}

void SpatialModel::fit_one(SpatialSeries which,
                           std::span<const double> series) {
  ACBM_SPAN_KV("spatial.series", std::string("asn=") + std::to_string(asn_) +
                                     ",series=" + series_name(which));
  SeriesModel& slot = models_[static_cast<std::size_t>(which)];
  slot.nar.reset();
  slot.ar.reset();
  slot.rung = FitRung::kMean;
  slot.record = FitRecord{};
  slot.record.component = series_name(which);
  const auto note = [&slot](FitError error, const std::string& detail) {
    if (slot.record.error) return;  // Keep the first failure.
    slot.record.error = error;
    slot.record.detail = detail;
  };

  // Repair: strip non-finite observations before fitting anything.
  std::size_t dropped = 0;
  std::vector<double> cleaned;
  std::span<const double> work = series;
  if (!all_finite(series)) {
    cleaned = drop_nonfinite(series, &dropped);
    work = cleaned;
    note(FitError::kNonfiniteInput,
         "stripped " + std::to_string(dropped) + " non-finite values");
  }
  slot.fallback_mean = acbm::stats::mean(work);

  if (work.size() < opts_.min_fit_length) {
    note(FitError::kSeriesTooShort,
         "length " + std::to_string(work.size()) + " < " +
             std::to_string(opts_.min_fit_length));
    slot.record.rung = slot.rung;
    return;
  }

  // Rungs 1..k: NAR, retried with a perturbed substream-seeded init. The
  // fault key is a pure function of (target, series, attempt) so injected
  // nonconvergence is identical at every thread count.
  //
  // Retries change only the network seed, never the data, so the lag
  // embeddings (and their z-score column scalers) are built once per delay
  // count and shared across every attempt — and, under grid search, across
  // every candidate within each attempt.
  FaultInjector& injector = FaultInjector::instance();
  nn::LagMatrixCache lag_cache;
  const std::size_t attempts = std::max<std::size_t>(opts_.max_fit_attempts, 1);
  for (std::size_t attempt = 0; attempt < attempts && !slot.nar; ++attempt) {
    if (attempt > 0) ACBM_COUNT("spatial.nar_retry", 1);
    try {
      if (injector.enabled() &&
          injector.fires("nar.nonconvergence",
                         "asn=" + std::to_string(asn_) + "/" +
                             series_name(which) +
                             "/attempt=" + std::to_string(attempt))) {
        throw FitFailure(FitError::kNonconvergence,
                         "injected fault: nar.nonconvergence attempt " +
                             std::to_string(attempt));
      }
      nn::NarModel candidate;
      if (opts_.grid_search) {
        nn::NarGridOptions grid_opts = opts_.grid;
        if (attempt > 0) {
          grid_opts.mlp.seed =
              acbm::stats::substream_seed(grid_opts.mlp.seed, 0x9e1d + attempt);
        }
        auto best = nn::nar_grid_search(work, grid_opts, &lag_cache);
        if (!best) throw FitFailure(best.error(), best.detail());
        candidate = std::move(best->model);
      } else {
        nn::NarOptions fixed_opts = opts_.fixed;
        if (attempt > 0) {
          fixed_opts.mlp.seed =
              acbm::stats::substream_seed(fixed_opts.mlp.seed, 0x9e1d + attempt);
        }
        nn::NarModel model(fixed_opts);
        model.fit_prepared(
            *lag_cache.get(0, work, fixed_opts.delays, work.size()));
        candidate = std::move(model);
      }
      if (!std::isfinite(candidate.forecast_one(work))) {
        throw FitFailure(FitError::kNonconvergence,
                         "NAR forecast is non-finite");
      }
      slot.nar = std::move(candidate);
      slot.rung = attempt == 0 ? FitRung::kNar : FitRung::kNarRetry;
    } catch (const FitFailure& e) {
      note(e.code(), e.what());
    } catch (const std::invalid_argument& e) {
      note(FitError::kSeriesTooShort, e.what());
    }
  }

  // Rung: AR(1) fallback when every NAR attempt failed.
  if (!slot.nar) {
    try {
      ts::ArimaModel ar({1, 0, 0});
      ar.fit(work);
      slot.ar = std::move(ar);
      slot.rung = FitRung::kAr;
    } catch (const std::invalid_argument&) {
    } catch (const std::domain_error&) {
    }
  }

  slot.record.rung = slot.rung;
}

void SpatialModel::fit(const TargetSeries& train, const SourceTable& sources) {
  asn_ = train.asn;
  // The three series models are independent (each writes its own slot and
  // every candidate network seeds its own Rng), so they fit concurrently.
  const std::array<std::span<const double>, kSpatialSeriesCount> series = {
      std::span<const double>(train.duration_s),
      std::span<const double>(train.interval_s),
      std::span<const double>(train.hour)};
  parallel_for(0, kSpatialSeriesCount, [&](std::size_t s) {
    fit_one(static_cast<SpatialSeries>(s), series[s]);
  });
  // Each task staged its record in its own slot; merge in series order so
  // the report is identical at any thread count.
  report_.clear();
  for (const SeriesModel& slot : models_) report_.add(slot.record);

  // Source-AS share tracking: rank the ASes seen across the training
  // attacks by total share.
  std::unordered_map<net::Asn, double> totals;
  for (std::size_t idx : train.attack_indices) {
    const AttackSources row = sources[idx];
    for (std::size_t i = 0; i < row.asns.size(); ++i) {
      totals[row.asns[i]] += row.share(i);
    }
  }
  std::vector<std::pair<net::Asn, double>> ranked(totals.begin(), totals.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  tracked_ases_.clear();
  for (std::size_t i = 0; i < ranked.size() && i < opts_.top_source_ases; ++i) {
    tracked_ases_.push_back(ranked[i].first);
  }
  fitted_ = true;
}

std::vector<double> SpatialModel::one_step_predictions(
    SpatialSeries which, std::span<const double> full_series,
    std::size_t start) const {
  if (!fitted_) throw std::logic_error("SpatialModel: not fitted");
  if (start == 0 || start > full_series.size()) {
    throw std::invalid_argument("SpatialModel::one_step_predictions: bad start");
  }
  const SeriesModel& slot = series_model(which);
  std::vector<double> storage;
  const std::span<const double> series = [&] {
    if (all_finite(full_series)) return full_series;
    storage.assign(full_series.begin(), full_series.end());
    for (double& x : storage) {
      if (!std::isfinite(x)) x = slot.fallback_mean;
    }
    return std::span<const double>(storage);
  }();
  if (slot.nar && start >= slot.nar->delays()) {
    return slot.nar->one_step_predictions(series, start);
  }
  if (slot.ar && start > 0) {
    return slot.ar->one_step_predictions(series, start);
  }
  return std::vector<double>(full_series.size() - start, slot.fallback_mean);
}

double SpatialModel::forecast_next(SpatialSeries which,
                                   std::span<const double> history) const {
  if (!fitted_) throw std::logic_error("SpatialModel: not fitted");
  const SeriesModel& slot = series_model(which);
  std::vector<double> storage;
  const std::span<const double> series = [&] {
    if (all_finite(history)) return history;
    storage.assign(history.begin(), history.end());
    for (double& x : storage) {
      if (!std::isfinite(x)) x = slot.fallback_mean;
    }
    return std::span<const double>(storage);
  }();
  if (slot.nar && series.size() >= slot.nar->delays()) {
    return slot.nar->forecast_one(series);
  }
  if (slot.ar && !series.empty()) {
    return slot.ar->forecast_one(series);
  }
  return slot.fallback_mean;
}

FitRung SpatialModel::rung(SpatialSeries which) const {
  return series_model(which).rung;
}

const std::optional<nn::NarModel>& SpatialModel::nar(
    SpatialSeries which) const {
  return series_model(which).nar;
}

const std::optional<ts::ArimaModel>& SpatialModel::ar(
    SpatialSeries which) const {
  return series_model(which).ar;
}

double SpatialModel::fallback_mean(SpatialSeries which) const {
  return series_model(which).fallback_mean;
}

void SpatialModel::save(std::ostream& os) const {
  namespace io = acbm::stats::io;
  io::write_header(os, "spatial", 2);
  io::write_scalar(os, "fitted", fitted_ ? 1 : 0);
  io::write_scalar(os, "asn", asn_);
  io::write_scalar(os, "share_smoothing", opts_.share_smoothing);
  io::write_scalar(os, "share_recency_blend", opts_.share_recency_blend);
  io::write_scalar(os, "top_source_ases", opts_.top_source_ases);
  io::write_vector<net::Asn>(os, "tracked_ases", tracked_ases_);
  io::write_scalar(os, "series_count", models_.size());
  for (const SeriesModel& slot : models_) {
    io::write_scalar(os, "fallback_mean", slot.fallback_mean);
    io::write_scalar(os, "rung", static_cast<int>(slot.rung));
    io::write_scalar(os, "has_nar", slot.nar.has_value() ? 1 : 0);
    if (slot.nar) slot.nar->save(os);
    io::write_scalar(os, "has_ar", slot.ar.has_value() ? 1 : 0);
    if (slot.ar) slot.ar->save(os);
  }
}

void SpatialModel::save_framed(std::ostream& os) const {
  std::ostringstream body;
  save(body);
  os << durable::frame_payload("spatial", 3, body.str());
}

SpatialModel SpatialModel::load_framed(std::istream& is) {
  return durable::load_framed_stream(
      is, "spatial", 3, 3, [](std::istream& body) { return load(body); });
}

SpatialModel SpatialModel::load(std::istream& is) {
  namespace io = acbm::stats::io;
  io::expect_header(is, "spatial", 2);
  SpatialModel model;
  model.fitted_ = io::read_scalar<int>(is, "fitted") != 0;
  model.asn_ = io::read_scalar<net::Asn>(is, "asn");
  model.opts_.share_smoothing = io::read_scalar<double>(is, "share_smoothing");
  model.opts_.share_recency_blend =
      io::read_scalar<double>(is, "share_recency_blend");
  model.opts_.top_source_ases =
      io::read_scalar<std::size_t>(is, "top_source_ases");
  model.tracked_ases_ = io::read_vector<net::Asn>(is, "tracked_ases");
  const auto count = io::read_scalar<std::size_t>(is, "series_count");
  if (count != kSpatialSeriesCount) {
    throw std::invalid_argument("SpatialModel::load: series count mismatch");
  }
  for (SeriesModel& slot : model.models_) {
    slot.fallback_mean = io::read_scalar<double>(is, "fallback_mean");
    const int rung = io::read_scalar<int>(is, "rung");
    if (rung < 0 || rung > static_cast<int>(FitRung::kPooledLinear)) {
      throw std::invalid_argument("SpatialModel::load: bad rung");
    }
    slot.rung = static_cast<FitRung>(rung);
    if (io::read_scalar<int>(is, "has_nar") != 0) {
      slot.nar = nn::NarModel::load(is);
    }
    if (io::read_scalar<int>(is, "has_ar") != 0) {
      slot.ar = ts::ArimaModel::load(is);
    }
  }
  return model;
}

std::unordered_map<net::Asn, double> SpatialModel::predict_source_distribution(
    std::span<const std::unordered_map<net::Asn, double>> history) const {
  if (!fitted_) throw std::logic_error("SpatialModel: not fitted");
  std::unordered_map<net::Asn, double> prediction;
  if (history.empty()) {
    // No observations yet: uniform over tracked ASes.
    if (!tracked_ases_.empty()) {
      const double u = 1.0 / static_cast<double>(tracked_ases_.size());
      for (net::Asn asn : tracked_ases_) prediction[asn] = u;
    }
    return prediction;
  }

  // Per tracked AS: blend the historical mean share (optimal when the
  // botmaster's pool is stable) with a recency EWMA (adaptive when bots
  // "rotate or shift", §III-B1).
  const double alpha = opts_.share_smoothing;
  const double blend = opts_.share_recency_blend;
  double tracked_total = 0.0;
  for (net::Asn asn : tracked_ases_) {
    double ewma = 0.0;
    double sum = 0.0;
    bool seeded = false;
    for (const auto& dist : history) {
      const auto it = dist.find(asn);
      const double share = it == dist.end() ? 0.0 : it->second;
      sum += share;
      if (!seeded) {
        ewma = share;
        seeded = true;
      } else {
        ewma = alpha * share + (1.0 - alpha) * ewma;
      }
    }
    const double mean_share = sum / static_cast<double>(history.size());
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

}  // namespace acbm::core
