#include "core/spatiotemporal_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/checkpoint.h"
#include "core/durable.h"
#include "core/observe.h"
#include "core/parallel.h"
#include "stats/serialize.h"

namespace acbm::core {

namespace {
constexpr std::array<std::pair<TemporalSeries, const char*>,
                     kTemporalSeriesCount>
    kTemporalSeriesNames = {{{TemporalSeries::kMagnitude, "magnitude"},
                             {TemporalSeries::kActivity, "activity"},
                             {TemporalSeries::kNormMagnitude, "norm_magnitude"},
                             {TemporalSeries::kSourceCoeff, "source_coeff"},
                             {TemporalSeries::kInterval, "interval"},
                             {TemporalSeries::kHour, "hour"}}};

constexpr std::array<std::pair<SpatialSeries, const char*>, kSpatialSeriesCount>
    kSpatialSeriesNames = {{{SpatialSeries::kDuration, "duration"},
                            {SpatialSeries::kInterval, "interval"},
                            {SpatialSeries::kHour, "hour"}}};

/// Report records for a sub-model restored from a checkpoint: the landed
/// rung is persisted, the original failure detail is not, so resumed
/// records carry the rung with a "resumed" note and no error.
template <typename Model, typename Names>
void add_resumed_records(FitReport& report, const std::string& prefix,
                         const Model& model, const Names& names) {
  for (const auto& [series, name] : names) {
    report.add({prefix + name, model.rung(series), std::nullopt,
                "resumed from checkpoint"});
  }
}

/// The "temporal.nonfinite" fault point: NaN-poisons every 7th value of each
/// modeled family series, exercising the repair + degradation path.
void poison_family_series(FamilySeries& series) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::vector<double>* xs :
       {&series.magnitude, &series.activity, &series.norm_magnitude,
        &series.source_coeff, &series.interval_s, &series.hour}) {
    for (std::size_t i = 0; i < xs->size(); i += 7) (*xs)[i] = nan;
  }
}
}  // namespace

std::optional<TemporalModel> fit_family_temporal(
    const trace::Dataset& train, FeatureCache& features, std::uint32_t family,
    const SpatiotemporalOptions& opts) {
  const std::shared_ptr<const FamilySeries> series = features.family(family);
  if (series->attack_indices.size() < 2) return std::nullopt;
  TemporalModel model(opts.temporal);
  FaultInjector& injector = FaultInjector::instance();
  if (injector.enabled() &&
      injector.fires("temporal.nonfinite",
                     "family=" + train.family_names()[family])) {
    // Poison a private copy; the cached series stays pristine for the other
    // stages.
    FamilySeries poisoned = *series;
    poison_family_series(poisoned);
    model.fit(poisoned);
  } else {
    model.fit(*series);
  }
  return model;
}

std::optional<SpatialModel> fit_target_spatial(
    const trace::Dataset& /*train*/, const net::IpToAsnMap& /*ip_map*/,
    FeatureCache& features, net::Asn target,
    const SpatiotemporalOptions& opts) {
  const std::shared_ptr<const TargetSeries> shared = features.target(target);
  if (shared->attack_indices.size() < opts.min_target_attacks) {
    return std::nullopt;
  }
  SpatialModel model(opts.spatial);
  if (opts.max_target_history > 0 &&
      shared->attack_indices.size() > opts.max_target_history) {
    // Limited-information setting: keep only the most recent attacks. Trim
    // a private copy — row assembly needs the cached full-history series.
    TargetSeries series = *shared;
    const std::size_t drop =
        series.attack_indices.size() - opts.max_target_history;
    const auto trim = [drop](std::vector<double>& v) {
      v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(drop));
    };
    series.attack_indices.erase(
        series.attack_indices.begin(),
        series.attack_indices.begin() + static_cast<std::ptrdiff_t>(drop));
    trim(series.duration_s);
    trim(series.interval_s);
    trim(series.hour);
    trim(series.day);
    trim(series.magnitude);
    model.fit(series, *features.sources());
  } else {
    model.fit(*shared, *features.sources());
  }
  return model;
}

std::string encode_temporal_stage(const std::optional<TemporalModel>& model) {
  if (!model) return {};
  std::ostringstream body;
  model->save(body);
  return body.str();
}

std::string encode_spatial_stage(
    const std::unordered_map<net::Asn, SpatialModel>& spatial) {
  namespace io = acbm::stats::io;
  std::ostringstream os;
  io::write_scalar(os, "spatial_count", spatial.size());
  std::vector<net::Asn> targets;
  targets.reserve(spatial.size());
  for (const auto& [asn, model] : spatial) targets.push_back(asn);
  std::sort(targets.begin(), targets.end());
  for (net::Asn asn : targets) {
    io::write_scalar(os, "target", asn);
    spatial.at(asn).save(os);
  }
  return os.str();
}

std::vector<double> StFeatures::hour_row() const {
  return {tmp_hour, spa_hour, tmp_interval_s / 3600.0, prev_hour, mean_hour,
          avg_magnitude};
}

std::vector<double> StFeatures::day_row() const {
  // Both interval predictions are turned into implied next-day estimates
  // anchored at the previous attack; the tree learns how to weigh them.
  return {prev_day + tmp_interval_s / 86400.0,
          prev_day + spa_interval_s / 86400.0, prev_day, avg_magnitude};
}

std::vector<StRow> assemble_rows(
    const trace::Dataset& dataset, const net::IpToAsnMap& ip_map,
    const std::unordered_map<std::uint32_t, TemporalModel>& temporal,
    const std::unordered_map<net::Asn, SpatialModel>& spatial,
    const SpatiotemporalOptions& opts, FeatureCache* cache) {
  // With no caller-provided cache the series are still extracted (and
  // shared) through a local one.
  FeatureCache local_cache(dataset, ip_map, nullptr);
  if (cache == nullptr) cache = &local_cache;

  // Per-family series plus the mapping from a global attack index to its
  // position in the family series. Temporal features for a row are
  // multi-step forecasts: the information cutoff is the target's previous
  // attack, so the temporal model must forecast across every other family
  // attack launched in between (this is what the paper's per-target
  // experiment demands — a one-step family forecast would leak near-future
  // information from parallel campaigns). Each family's hour and interval
  // series are filtered once; every row then reads its forecast from the
  // prefix ending at its cutoff.
  struct FamilyData {
    std::shared_ptr<const FamilySeries> series;
    std::optional<TemporalModel::Forecaster> hour;
    std::optional<TemporalModel::Forecaster> interval;
    std::unordered_map<std::size_t, std::size_t> position_of;
  };
  std::unordered_map<std::uint32_t, FamilyData> family_data;
  for (const auto& [family, model] : temporal) {
    FamilyData fd;
    fd.series = cache->family(family);
    const std::size_t n = fd.series->attack_indices.size();
    if (n < 2) continue;
    fd.hour = model.forecaster(TemporalSeries::kHour, fd.series->hour);
    fd.interval =
        model.forecaster(TemporalSeries::kInterval, fd.series->interval_s);
    for (std::size_t pos = 0; pos < n; ++pos) {
      fd.position_of[fd.series->attack_indices[pos]] = pos;
    }
    family_data.emplace(family, std::move(fd));
  }

  // Fan out over targets (sorted so task indexing is reproducible); each
  // task builds its own row block and the blocks are concatenated in target
  // order before the final sort.
  std::vector<net::Asn> target_order;
  target_order.reserve(spatial.size());
  for (const auto& [asn, model] : spatial) target_order.push_back(asn);
  std::sort(target_order.begin(), target_order.end());

  const std::vector<std::vector<StRow>> row_blocks = parallel_map(
      target_order.size(), [&](std::size_t ti) -> std::vector<StRow> {
    const net::Asn asn = target_order[ti];
    const SpatialModel& model = spatial.at(asn);
    std::vector<StRow> rows;
    const std::shared_ptr<const TargetSeries> target_ptr = cache->target(asn);
    const TargetSeries& target = *target_ptr;
    const std::size_t n = target.attack_indices.size();
    const std::size_t warmup = std::max<std::size_t>(opts.target_warmup, 1);
    if (n <= warmup) return rows;
    const std::vector<double> spa_hour =
        model.one_step_predictions(SpatialSeries::kHour, target.hour, warmup);
    const std::vector<double> spa_interval = model.one_step_predictions(
        SpatialSeries::kInterval, target.interval_s, warmup);

    for (std::size_t k = warmup; k < n; ++k) {
      const std::size_t attack_idx = target.attack_indices[k];
      const std::size_t prev_idx = target.attack_indices[k - 1];
      const trace::Attack& attack = dataset.attacks()[attack_idx];
      const auto fit = family_data.find(attack.family);
      if (fit == family_data.end()) continue;
      const FamilyData& fd = fit->second;
      const auto pit = fd.position_of.find(attack_idx);
      if (pit == fd.position_of.end() || pit->second == 0) continue;
      const std::size_t fpos = pit->second;

      // Information cutoff: the last family attack at or before the
      // target's previous attack.
      const auto& fidx = fd.series->attack_indices;
      const auto cut = std::upper_bound(fidx.begin(), fidx.end(), prev_idx);
      if (cut == fidx.begin()) continue;
      const auto q = static_cast<std::size_t>(cut - fidx.begin() - 1);
      const std::size_t horizon = fpos > q ? fpos - q : 1;

      StRow row;
      row.attack_index = attack_idx;
      row.target_pos = k;
      row.target_asn = asn;
      row.truth_hour = target.hour[k];
      row.truth_day = target.day[k];
      row.features.tmp_hour = fd.hour->forecast_horizon(q + 1, horizon);
      row.features.tmp_interval_s =
          fd.interval->forecast_horizon(q + 1, horizon);
      row.features.spa_hour = spa_hour[k - warmup];
      row.features.spa_interval_s = spa_interval[k - warmup];
      row.features.prev_hour = target.hour[k - 1];
      row.features.prev_day = target.day[k - 1];
      double hour_sum = 0.0;
      for (std::size_t w = 0; w < k; ++w) hour_sum += target.hour[w];
      row.features.mean_hour = hour_sum / static_cast<double>(k);
      const std::size_t window = std::min(opts.magnitude_window, k);
      double mag = 0.0;
      for (std::size_t w = k - window; w < k; ++w) mag += target.magnitude[w];
      row.features.avg_magnitude = mag / static_cast<double>(window);
      rows.push_back(std::move(row));
    }
    return rows;
  });

  std::vector<StRow> rows;
  for (const std::vector<StRow>& block : row_blocks) {
    rows.insert(rows.end(), block.begin(), block.end());
  }
  // Deterministic order (by predicted attack) regardless of map iteration.
  std::sort(rows.begin(), rows.end(), [](const StRow& a, const StRow& b) {
    return a.attack_index < b.attack_index;
  });
  return rows;
}

void SpatiotemporalModel::fit(const trace::Dataset& train,
                              const net::IpToAsnMap& ip_map) {
  ACBM_SPAN("fit.spatiotemporal");
  temporal_.clear();
  spatial_.clear();
  report_.clear();
  FaultInjector& injector = FaultInjector::instance();
  CheckpointDir* checkpoint = opts_.checkpoint;

  // One extraction pass shared by the temporal stage, the spatial stage,
  // and row assembly for the combining tree (each used to re-extract the
  // same series independently).
  FeatureCache features(train, ip_map, nullptr);

  // Per-family temporal fits and per-target spatial fits are independent,
  // so they run as one fan-out, longest series first: the biggest family's
  // temporal fit (the critical path) starts at once, and the small tasks
  // fill in behind it. Each task writes its own index slot; the report
  // merges and checkpoint stores run afterwards in family-then-target
  // order, so the fitted model (and the fit report) is identical at any
  // thread count. Checkpoint loads happen before the fan-out and stores
  // after the merge: the store only ever sees single-threaded access at
  // stage boundaries.
  const auto n_families =
      static_cast<std::uint32_t>(train.family_names().size());
  const std::vector<net::Asn> targets = train.target_asns();
  std::vector<std::optional<std::string>> cached_family(n_families);
  bool spatial_resumed = false;
  if (checkpoint != nullptr) {
    for (std::uint32_t f = 0; f < n_families; ++f) {
      cached_family[f] =
          checkpoint->load("temporal/" + train.family_names()[f]);
    }
    if (const std::optional<std::string> payload =
            checkpoint->load("spatial")) {
      try {
        load_spatial_stage(*payload);
        spatial_resumed = true;
      } catch (const std::exception&) {
        spatial_.clear();  // Unusable payload: refit below.
      }
    }
  }
  // Task i < n_families fits family i; the rest fit targets[i - n_families].
  // A task's series length stands in for its cost.
  const std::size_t n_target_tasks = spatial_resumed ? 0 : targets.size();
  std::vector<std::size_t> order(n_families + n_target_tasks);
  std::vector<std::size_t> length(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
    length[i] =
        i < n_families
            ? train.attacks_of_family(static_cast<std::uint32_t>(i)).size()
            : train.attacks_on_asn(targets[i - n_families]).size();
  }
  std::stable_sort(order.begin(), order.end(),
                   [&length](std::size_t a, std::size_t b) {
                     return length[a] > length[b];
                   });
  std::vector<std::optional<TemporalModel>> family_fits(n_families);
  std::vector<std::optional<SpatialModel>> target_fits(n_target_tasks);
  // Every family and target stage that fits reads the source table; build
  // it once here, on the whole pool, unless every stage resumes.
  const bool any_family_fit =
      std::any_of(cached_family.begin(), cached_family.end(),
                  [](const std::optional<std::string>& c) { return !c; });
  if (any_family_fit || n_target_tasks > 0) (void)features.sources();
  {
    ACBM_SPAN("fit.submodels");
    parallel_for(0, order.size(), [&](std::size_t k) {
      const std::size_t i = order[k];
      if (i >= n_families) {
        const net::Asn asn = targets[i - n_families];
        ACBM_SPAN_KV("fit.target", "asn=" + std::to_string(asn));
        target_fits[i - n_families] =
            fit_target_spatial(train, ip_map, features, asn, opts_);
        return;
      }
      ACBM_SPAN_KV("fit.family", "family=" + train.family_names()[i]);
      if (cached_family[i]) {
        // Empty payload = completed stage with too little data to model.
        if (cached_family[i]->empty()) return;
        try {
          std::istringstream body(*cached_family[i]);
          family_fits[i] = TemporalModel::load(body);
          return;
        } catch (const std::exception&) {
          cached_family[i].reset();  // Unusable payload: refit below.
        }
      }
      family_fits[i] = fit_family_temporal(
          train, features, static_cast<std::uint32_t>(i), opts_);
    });
  }

  for (std::uint32_t family = 0; family < n_families; ++family) {
    const std::string& name = train.family_names()[family];
    const bool resumed = cached_family[family].has_value();
    if (family_fits[family]) {
      if (resumed) {
        add_resumed_records(report_, "temporal/" + name + "/",
                            *family_fits[family], kTemporalSeriesNames);
      } else {
        report_.merge("temporal/" + name + "/",
                      family_fits[family]->fit_report());
        if (checkpoint != nullptr) {
          checkpoint->store("temporal/" + name,
                            encode_temporal_stage(family_fits[family]));
        }
      }
      temporal_.emplace(family, std::move(*family_fits[family]));
    } else {
      report_.add({"temporal/" + name, FitRung::kMean,
                   FitError::kSeriesTooShort, "fewer than 2 attacks"});
      if (checkpoint != nullptr && !resumed) {
        checkpoint->store("temporal/" + name, "");
      }
    }
  }

  const auto add_unmodeled_target = [this](net::Asn asn) {
    report_.add({"spatial/AS" + std::to_string(asn), FitRung::kMean,
                 FitError::kSeriesTooShort,
                 "fewer than " + std::to_string(opts_.min_target_attacks) +
                     " attacks"});
  };
  if (spatial_resumed) {
    for (net::Asn asn : targets) {
      const auto it = spatial_.find(asn);
      if (it != spatial_.end()) {
        add_resumed_records(report_, "spatial/AS" + std::to_string(asn) + "/",
                            it->second, kSpatialSeriesNames);
      } else {
        add_unmodeled_target(asn);
      }
    }
  } else {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      if (target_fits[t]) {
        report_.merge("spatial/AS" + std::to_string(targets[t]) + "/",
                      target_fits[t]->fit_report());
        spatial_.emplace(targets[t], std::move(*target_fits[t]));
      } else {
        add_unmodeled_target(targets[t]);
      }
    }
    if (checkpoint != nullptr) {
      checkpoint->store("spatial", save_spatial_stage());
    }
  }

  hour_tree_ = tree::ModelTree(opts_.tree);
  day_tree_ = tree::ModelTree(opts_.tree);
  hour_linear_.reset();
  day_linear_.reset();
  if (checkpoint != nullptr) {
    ACBM_SPAN("fit.tree");
    if (const std::optional<std::string> payload = checkpoint->load("tree")) {
      try {
        load_tree_stage(*payload);
        const auto combiner_rung = [this](const tree::ModelTree& tree,
                                          const std::optional<
                                              acbm::stats::LinearRegression>&
                                              linear) {
          return tree.fitted()  ? FitRung::kModelTree
                 : linear       ? FitRung::kPooledLinear
                                : FitRung::kMean;
        };
        report_.add({"tree/hour", combiner_rung(hour_tree_, hour_linear_),
                     std::nullopt, "resumed from checkpoint"});
        report_.add({"tree/day", combiner_rung(day_tree_, day_linear_),
                     std::nullopt, "resumed from checkpoint"});
        fitted_ = true;
        return;
      } catch (const std::exception&) {
        // Unusable payload: refit below.
        hour_tree_ = tree::ModelTree(opts_.tree);
        day_tree_ = tree::ModelTree(opts_.tree);
        hour_linear_.reset();
        day_linear_.reset();
      }
    }
  }

  std::vector<StRow> rows;
  {
    ACBM_SPAN("fit.rows");
    rows = assemble_rows(train, ip_map, temporal_, spatial_, opts_, &features);
  }

  // Combining-tree ladder: model tree -> pooled linear model over the same
  // rows -> (at predict time) the fixed sub-model blend.
  const auto fit_combiner = [&](const char* name, bool inject_failure,
                                tree::ModelTree& tree,
                                std::optional<acbm::stats::LinearRegression>&
                                    linear,
                                const acbm::stats::Matrix& x,
                                std::span<const double> y) {
    FitRecord record;
    record.component = std::string("tree/") + name;
    record.rung = FitRung::kModelTree;
    try {
      if (inject_failure) {
        throw FitFailure(FitError::kNonconvergence,
                         std::string("injected fault: tree.fail ") + name);
      }
      tree.fit(x, y);
    } catch (const FitFailure& e) {
      record.error = e.code();
      record.detail = e.what();
    } catch (const std::exception& e) {
      record.error = FitError::kNonconvergence;
      record.detail = e.what();
    }
    if (!tree.fitted()) {
      tree = tree::ModelTree(opts_.tree);  // Discard any half-built state.
      try {
        acbm::stats::LinearRegression reg;
        reg.fit(x, y);
        linear = std::move(reg);
        record.rung = FitRung::kPooledLinear;
      } catch (const std::exception&) {
        record.rung = FitRung::kMean;  // Predict-time sub-model blend.
      }
    }
    return record;
  };

  ACBM_SPAN("fit.tree");
  if (rows.size() >= 20) {
    acbm::stats::Matrix hour_x(rows.size(), rows.front().features.hour_row().size());
    acbm::stats::Matrix day_x(rows.size(), rows.front().features.day_row().size());
    std::vector<double> hour_y(rows.size());
    std::vector<double> day_y(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::vector<double> hr = rows[i].features.hour_row();
      const std::vector<double> dr = rows[i].features.day_row();
      for (std::size_t j = 0; j < hr.size(); ++j) hour_x(i, j) = hr[j];
      for (std::size_t j = 0; j < dr.size(); ++j) day_x(i, j) = dr[j];
      hour_y[i] = rows[i].truth_hour;
      day_y[i] = rows[i].truth_day;
    }
    // The two combiners are independent, so they fit concurrently; their
    // records go in hour-then-day order. The injected faults are drawn
    // first, in that order, because a fault's #limit counts its fires().
    const bool fail_hour =
        injector.enabled() && injector.fires("tree.fail", "hour");
    const bool fail_day =
        injector.enabled() && injector.fires("tree.fail", "day");
    std::array<FitRecord, 2> records;
    parallel_for(0, 2, [&](std::size_t k) {
      records[k] =
          k == 0 ? fit_combiner("hour", fail_hour, hour_tree_, hour_linear_,
                                hour_x, hour_y)
                 : fit_combiner("day", fail_day, day_tree_, day_linear_,
                                day_x, day_y);
    });
    for (FitRecord& record : records) report_.add(std::move(record));
  } else {
    report_.add({"tree/hour", FitRung::kMean, FitError::kSeriesTooShort,
                 std::to_string(rows.size()) + " rows < 20"});
    report_.add({"tree/day", FitRung::kMean, FitError::kSeriesTooShort,
                 std::to_string(rows.size()) + " rows < 20"});
  }
  if (checkpoint != nullptr) checkpoint->store("tree", save_tree_stage());
  fitted_ = true;
}

double SpatiotemporalModel::predict_hour(const StFeatures& features) const {
  if (!fitted_) throw std::logic_error("SpatiotemporalModel: not fitted");
  double hour;
  if (hour_tree_.fitted()) {
    hour = hour_tree_.predict(features.hour_row());
  } else if (hour_linear_) {
    // Pooled-linear rung: the tree fit failed but a linear combiner fit.
    hour = hour_linear_->predict(features.hour_row());
  } else {
    // Too few training rows for a tree: blend the two sub-models.
    hour = 0.5 * (features.tmp_hour + features.spa_hour);
  }
  return std::clamp(hour, 0.0, 23.999);
}

double SpatiotemporalModel::predict_day(const StFeatures& features) const {
  if (!fitted_) throw std::logic_error("SpatiotemporalModel: not fitted");
  if (day_tree_.fitted()) {
    return day_tree_.predict(features.day_row());
  }
  if (day_linear_) {
    return day_linear_->predict(features.day_row());
  }
  return features.prev_day + features.tmp_interval_s / 86400.0;
}

void SpatiotemporalModel::save(std::ostream& os) const {
  namespace io = acbm::stats::io;
  io::write_header(os, "spatiotemporal", 2);
  io::write_scalar(os, "fitted", fitted_ ? 1 : 0);
  io::write_scalar(os, "min_target_attacks", opts_.min_target_attacks);
  io::write_scalar(os, "target_warmup", opts_.target_warmup);
  io::write_scalar(os, "magnitude_window", opts_.magnitude_window);
  io::write_scalar(os, "max_target_history", opts_.max_target_history);

  io::write_scalar(os, "temporal_count", temporal_.size());
  std::vector<std::uint32_t> families;
  for (const auto& [family, model] : temporal_) families.push_back(family);
  std::sort(families.begin(), families.end());
  for (std::uint32_t family : families) {
    io::write_scalar(os, "family", family);
    temporal_.at(family).save(os);
  }

  io::write_scalar(os, "spatial_count", spatial_.size());
  std::vector<net::Asn> targets;
  for (const auto& [asn, model] : spatial_) targets.push_back(asn);
  std::sort(targets.begin(), targets.end());
  for (net::Asn asn : targets) {
    io::write_scalar(os, "target", asn);
    spatial_.at(asn).save(os);
  }

  io::write_scalar(os, "has_hour_tree", hour_tree_.fitted() ? 1 : 0);
  if (hour_tree_.fitted()) hour_tree_.save(os);
  io::write_scalar(os, "has_day_tree", day_tree_.fitted() ? 1 : 0);
  if (day_tree_.fitted()) day_tree_.save(os);
  io::write_scalar(os, "has_hour_linear", hour_linear_.has_value() ? 1 : 0);
  if (hour_linear_) hour_linear_->save(os);
  io::write_scalar(os, "has_day_linear", day_linear_.has_value() ? 1 : 0);
  if (day_linear_) day_linear_->save(os);
}

SpatiotemporalModel SpatiotemporalModel::load(std::istream& is) {
  namespace io = acbm::stats::io;
  io::expect_header(is, "spatiotemporal", 2);
  SpatiotemporalModel model;
  model.fitted_ = io::read_scalar<int>(is, "fitted") != 0;
  model.opts_.min_target_attacks =
      io::read_scalar<std::size_t>(is, "min_target_attacks");
  model.opts_.target_warmup = io::read_scalar<std::size_t>(is, "target_warmup");
  model.opts_.magnitude_window =
      io::read_scalar<std::size_t>(is, "magnitude_window");
  model.opts_.max_target_history =
      io::read_scalar<std::size_t>(is, "max_target_history");

  const auto temporal_count = io::read_scalar<std::size_t>(is, "temporal_count");
  for (std::size_t i = 0; i < temporal_count; ++i) {
    const auto family = io::read_scalar<std::uint32_t>(is, "family");
    model.temporal_.emplace(family, TemporalModel::load(is));
  }
  const auto spatial_count = io::read_scalar<std::size_t>(is, "spatial_count");
  for (std::size_t i = 0; i < spatial_count; ++i) {
    const auto asn = io::read_scalar<net::Asn>(is, "target");
    model.spatial_.emplace(asn, SpatialModel::load(is));
  }
  if (io::read_scalar<int>(is, "has_hour_tree") != 0) {
    model.hour_tree_ = tree::ModelTree::load(is);
  }
  if (io::read_scalar<int>(is, "has_day_tree") != 0) {
    model.day_tree_ = tree::ModelTree::load(is);
  }
  if (io::read_scalar<int>(is, "has_hour_linear") != 0) {
    model.hour_linear_ = acbm::stats::LinearRegression::load(is);
  }
  if (io::read_scalar<int>(is, "has_day_linear") != 0) {
    model.day_linear_ = acbm::stats::LinearRegression::load(is);
  }
  return model;
}

void SpatiotemporalModel::save_framed(std::ostream& os) const {
  std::ostringstream body;
  save(body);
  os << durable::frame_payload("spatiotemporal", 3, body.str());
}

SpatiotemporalModel SpatiotemporalModel::load_framed(std::istream& is) {
  return durable::load_framed_stream(
      is, "spatiotemporal", 3, 3,
      [](std::istream& body) { return load(body); });
}

std::string SpatiotemporalModel::save_spatial_stage() const {
  return encode_spatial_stage(spatial_);
}

void SpatiotemporalModel::load_spatial_stage(const std::string& payload) {
  namespace io = acbm::stats::io;
  spatial_.clear();
  std::istringstream is(payload);
  const auto count = io::read_scalar<std::size_t>(is, "spatial_count");
  for (std::size_t i = 0; i < count; ++i) {
    const auto asn = io::read_scalar<net::Asn>(is, "target");
    spatial_.emplace(asn, SpatialModel::load(is));
  }
}

std::string SpatiotemporalModel::save_tree_stage() const {
  namespace io = acbm::stats::io;
  std::ostringstream os;
  io::write_scalar(os, "has_hour_tree", hour_tree_.fitted() ? 1 : 0);
  if (hour_tree_.fitted()) hour_tree_.save(os);
  io::write_scalar(os, "has_day_tree", day_tree_.fitted() ? 1 : 0);
  if (day_tree_.fitted()) day_tree_.save(os);
  io::write_scalar(os, "has_hour_linear", hour_linear_.has_value() ? 1 : 0);
  if (hour_linear_) hour_linear_->save(os);
  io::write_scalar(os, "has_day_linear", day_linear_.has_value() ? 1 : 0);
  if (day_linear_) day_linear_->save(os);
  return os.str();
}

void SpatiotemporalModel::load_tree_stage(const std::string& payload) {
  namespace io = acbm::stats::io;
  std::istringstream is(payload);
  if (io::read_scalar<int>(is, "has_hour_tree") != 0) {
    hour_tree_ = tree::ModelTree::load(is);
  }
  if (io::read_scalar<int>(is, "has_day_tree") != 0) {
    day_tree_ = tree::ModelTree::load(is);
  }
  if (io::read_scalar<int>(is, "has_hour_linear") != 0) {
    hour_linear_ = acbm::stats::LinearRegression::load(is);
  }
  if (io::read_scalar<int>(is, "has_day_linear") != 0) {
    day_linear_ = acbm::stats::LinearRegression::load(is);
  }
}

const TemporalModel* SpatiotemporalModel::temporal(
    std::uint32_t family) const {
  const auto it = temporal_.find(family);
  return it == temporal_.end() ? nullptr : &it->second;
}

const SpatialModel* SpatiotemporalModel::spatial(net::Asn target) const {
  const auto it = spatial_.find(target);
  return it == spatial_.end() ? nullptr : &it->second;
}

}  // namespace acbm::core
