#include "core/evaluation.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/artifact_map.h"
#include "core/parallel.h"
#include "stats/metrics.h"

namespace acbm::core {

namespace {

// Truncates a family series to its first `n` attacks (a chronological
// training prefix).
FamilySeries prefix(const FamilySeries& fs, std::size_t n) {
  FamilySeries out;
  const auto take = [n](const std::vector<double>& v) {
    return std::vector<double>(v.begin(),
                               v.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(n, v.size())));
  };
  out.attack_indices.assign(
      fs.attack_indices.begin(),
      fs.attack_indices.begin() +
          static_cast<std::ptrdiff_t>(std::min(n, fs.attack_indices.size())));
  out.magnitude = take(fs.magnitude);
  out.activity = take(fs.activity);
  out.norm_magnitude = take(fs.norm_magnitude);
  out.source_coeff = take(fs.source_coeff);
  out.interval_s = take(fs.interval_s);
  out.hour = take(fs.hour);
  out.day = take(fs.day);
  out.duration_s = take(fs.duration_s);
  return out;
}

std::span<const double> series_of(const FamilySeries& fs, TemporalSeries which) {
  switch (which) {
    case TemporalSeries::kMagnitude: return fs.magnitude;
    case TemporalSeries::kActivity: return fs.activity;
    case TemporalSeries::kNormMagnitude: return fs.norm_magnitude;
    case TemporalSeries::kSourceCoeff: return fs.source_coeff;
    case TemporalSeries::kInterval: return fs.interval_s;
    case TemporalSeries::kHour: return fs.hour;
  }
  throw std::invalid_argument("series_of: unknown series");
}

std::span<const double> series_of(const TargetSeries& ts, SpatialSeries which) {
  switch (which) {
    case SpatialSeries::kDuration: return ts.duration_s;
    case SpatialSeries::kInterval: return ts.interval_s;
    case SpatialSeries::kHour: return ts.hour;
  }
  throw std::invalid_argument("series_of: unknown series");
}

double tv_distance(const std::unordered_map<net::Asn, double>& a,
                   const std::unordered_map<net::Asn, double>& b) {
  double l1 = 0.0;
  std::unordered_set<net::Asn> keys;
  for (const auto& [asn, share] : a) keys.insert(asn);
  for (const auto& [asn, share] : b) keys.insert(asn);
  for (net::Asn asn : keys) {
    const auto ia = a.find(asn);
    const auto ib = b.find(asn);
    l1 += std::abs((ia == a.end() ? 0.0 : ia->second) -
                   (ib == b.end() ? 0.0 : ib->second));
  }
  return l1 / 2.0;  // Total variation.
}

double rms(const std::vector<double>& errors) {
  if (errors.empty()) return 0.0;
  double acc = 0.0;
  for (double e : errors) acc += e * e;
  return std::sqrt(acc / static_cast<double>(errors.size()));
}

}  // namespace

std::vector<std::uint32_t> most_active_families(const trace::Dataset& dataset,
                                                std::size_t count) {
  std::vector<std::pair<std::uint32_t, std::size_t>> volumes;
  for (std::uint32_t f = 0;
       f < static_cast<std::uint32_t>(dataset.family_names().size()); ++f) {
    volumes.emplace_back(f, dataset.attacks_of_family(f).size());
  }
  std::sort(volumes.begin(), volumes.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < volumes.size() && i < count; ++i) {
    out.push_back(volumes[i].first);
  }
  return out;
}

SeriesEvaluation evaluate_temporal_series(const trace::Dataset& dataset,
                                          const net::IpToAsnMap& ip_map,
                                          std::uint32_t family,
                                          TemporalSeries which,
                                          const TemporalModelOptions& opts,
                                          double train_fraction) {
  if (!(train_fraction > 0.0 && train_fraction < 1.0)) {
    throw std::invalid_argument("evaluate_temporal_series: bad fraction");
  }
  SeriesEvaluation out;
  out.family = dataset.family_names().at(family);
  const FamilySeries full =
      extract_family_series(dataset, family, ip_map, nullptr);
  const std::span<const double> series = series_of(full, which);
  const auto split = static_cast<std::size_t>(
      static_cast<double>(series.size()) * train_fraction);
  if (split < 4 || split >= series.size()) return out;

  TemporalModel model(opts);
  model.fit(prefix(full, split));
  out.model_pred = model.one_step_predictions(which, series, split);
  out.same_pred = always_same_predictions(series, split);
  out.mean_pred = always_mean_predictions(series, split);
  out.truth.assign(series.begin() + static_cast<std::ptrdiff_t>(split),
                   series.end());
  out.model_rmse = acbm::stats::rmse(out.truth, out.model_pred);
  out.same_rmse = acbm::stats::rmse(out.truth, out.same_pred);
  out.mean_rmse = acbm::stats::rmse(out.truth, out.mean_pred);
  return out;
}

SpatialEvaluation evaluate_spatial_series(const trace::Dataset& dataset,
                                          const net::IpToAsnMap& ip_map,
                                          std::uint32_t family,
                                          SpatialSeries which,
                                          const SpatialModelOptions& opts,
                                          double train_fraction,
                                          std::size_t min_target_attacks) {
  if (!(train_fraction > 0.0 && train_fraction < 1.0)) {
    throw std::invalid_argument("evaluate_spatial_series: bad fraction");
  }
  SpatialEvaluation out;
  out.family = dataset.family_names().at(family);

  // Per-target series restricted to this family's attacks.
  std::unordered_map<net::Asn, std::vector<std::size_t>> per_target;
  for (std::size_t idx : dataset.attacks_of_family(family)) {
    per_target[dataset.attacks()[idx].target_asn].push_back(idx);
  }
  std::vector<net::Asn> targets;
  targets.reserve(per_target.size());
  for (const auto& [asn, list] : per_target) targets.push_back(asn);
  std::sort(targets.begin(), targets.end());

  // Per-target fit+score tasks are independent; their per-attack outputs
  // are concatenated in sorted-target order, matching the serial sweep.
  struct TargetBlock {
    std::vector<double> truth;
    std::vector<double> model_pred;
    std::vector<double> same_pred;
    std::vector<double> mean_pred;
    bool evaluated = false;
  };
  const std::vector<TargetBlock> blocks = parallel_map(
      targets.size(), [&](std::size_t ti) -> TargetBlock {
    TargetBlock block;
    const net::Asn asn = targets[ti];
    const auto& indices = per_target.at(asn);
    if (indices.size() < min_target_attacks) return block;
    // Build the target series restricted to this family.
    TargetSeries ts;
    ts.asn = asn;
    ts.attack_indices = indices;
    for (std::size_t k = 0; k < indices.size(); ++k) {
      const trace::Attack& attack = dataset.attacks()[indices[k]];
      ts.duration_s.push_back(attack.duration_s);
      ts.magnitude.push_back(static_cast<double>(attack.magnitude()));
      ts.interval_s.push_back(
          k == 0 ? 0.0
                 : static_cast<double>(
                       attack.start - dataset.attacks()[indices[k - 1]].start));
      const trace::DayHour dh =
          trace::decompose_timestamp(attack.start, dataset.window_start());
      ts.hour.push_back(static_cast<double>(dh.hour));
      ts.day.push_back(static_cast<double>(dh.day));
    }

    const std::span<const double> series = series_of(ts, which);
    const auto split = static_cast<std::size_t>(
        static_cast<double>(series.size()) * train_fraction);
    if (split < 3 || split >= series.size()) return block;

    TargetSeries train = ts;
    train.attack_indices.resize(split);
    train.duration_s.resize(split);
    train.magnitude.resize(split);
    train.interval_s.resize(split);
    train.hour.resize(split);
    train.day.resize(split);

    SpatialModel model(opts);
    model.fit(train, SourceTable(dataset, ip_map, train.attack_indices));
    const std::vector<double> pred =
        model.one_step_predictions(which, series, split);
    const std::vector<double> same = always_same_predictions(series, split);
    const std::vector<double> mean = always_mean_predictions(series, split);
    for (std::size_t i = 0; i < pred.size(); ++i) {
      block.truth.push_back(series[split + i]);
      block.model_pred.push_back(pred[i]);
      block.same_pred.push_back(same[i]);
      block.mean_pred.push_back(mean[i]);
    }
    block.evaluated = true;
    return block;
  });
  for (const TargetBlock& block : blocks) {
    if (!block.evaluated) continue;
    out.truth.insert(out.truth.end(), block.truth.begin(), block.truth.end());
    out.model_pred.insert(out.model_pred.end(), block.model_pred.begin(),
                          block.model_pred.end());
    out.same_pred.insert(out.same_pred.end(), block.same_pred.begin(),
                         block.same_pred.end());
    out.mean_pred.insert(out.mean_pred.end(), block.mean_pred.begin(),
                         block.mean_pred.end());
    ++out.targets_evaluated;
  }
  if (!out.truth.empty()) {
    out.model_rmse = acbm::stats::rmse(out.truth, out.model_pred);
    out.same_rmse = acbm::stats::rmse(out.truth, out.same_pred);
    out.mean_rmse = acbm::stats::rmse(out.truth, out.mean_pred);
  }
  return out;
}

SourceDistributionEvaluation evaluate_source_distribution(
    const trace::Dataset& dataset, const net::IpToAsnMap& ip_map,
    std::uint32_t family, const SpatialModelOptions& opts,
    double train_fraction, std::size_t min_target_attacks) {
  if (!(train_fraction > 0.0 && train_fraction < 1.0)) {
    throw std::invalid_argument("evaluate_source_distribution: bad fraction");
  }
  SourceDistributionEvaluation out;
  out.family = dataset.family_names().at(family);

  std::unordered_map<net::Asn, std::vector<std::size_t>> per_target;
  for (std::size_t idx : dataset.attacks_of_family(family)) {
    per_target[dataset.attacks()[idx].target_asn].push_back(idx);
  }
  std::vector<net::Asn> targets;
  for (const auto& [asn, list] : per_target) targets.push_back(asn);
  std::sort(targets.begin(), targets.end());

  std::unordered_map<net::Asn, double> agg_truth;
  std::unordered_map<net::Asn, double> agg_pred;
  std::vector<double> same_tv;
  std::vector<double> mean_tv;
  std::size_t samples = 0;

  // Per-target prediction tasks run concurrently; their partial aggregates
  // merge below in sorted-target order, so the reduction is deterministic.
  struct TargetAgg {
    std::vector<double> per_attack_tv;
    std::vector<double> same_tv;
    std::vector<double> mean_tv;
    std::unordered_map<net::Asn, double> agg_truth;
    std::unordered_map<net::Asn, double> agg_pred;
    std::size_t samples = 0;
  };
  const std::vector<TargetAgg> aggs = parallel_map(
      targets.size(), [&](std::size_t ti) -> TargetAgg {
    TargetAgg agg;
    const net::Asn asn = targets[ti];
    const auto& indices = per_target.at(asn);
    if (indices.size() < min_target_attacks) return agg;
    const auto split = static_cast<std::size_t>(
        static_cast<double>(indices.size()) * train_fraction);
    if (split < 2 || split >= indices.size()) return agg;

    // Distributions of every attack on this target, chronological.
    std::vector<std::unordered_map<net::Asn, double>> dists;
    dists.reserve(indices.size());
    for (std::size_t idx : indices) {
      dists.push_back(source_asn_distribution(dataset.attacks()[idx], ip_map));
    }

    TargetSeries train;
    train.asn = asn;
    train.attack_indices.assign(indices.begin(),
                                indices.begin() + static_cast<std::ptrdiff_t>(split));
    // The spatial model only needs attack_indices for share tracking here;
    // numeric series can stay empty (mean fallbacks are unused).
    SpatialModel model(opts);
    model.fit(train, SourceTable(dataset, ip_map, train.attack_indices));

    // Running historical mean distribution for the Always-Mean baseline.
    std::unordered_map<net::Asn, double> running_sum;
    for (std::size_t k = 0; k < split; ++k) {
      for (const auto& [a, share] : dists[k]) running_sum[a] += share;
    }

    for (std::size_t k = split; k < indices.size(); ++k) {
      const std::span<const std::unordered_map<net::Asn, double>> history(
          dists.data(), k);
      const auto pred = model.predict_source_distribution(history);
      const auto& truth = dists[k];

      agg.per_attack_tv.push_back(tv_distance(truth, pred));
      agg.same_tv.push_back(tv_distance(truth, dists[k - 1]));
      std::unordered_map<net::Asn, double> mean_dist;
      for (const auto& [a, total] : running_sum) {
        mean_dist[a] = total / static_cast<double>(k);
      }
      agg.mean_tv.push_back(tv_distance(truth, mean_dist));

      for (const auto& [a, share] : truth) agg.agg_truth[a] += share;
      for (const auto& [a, share] : pred) agg.agg_pred[a] += share;
      ++agg.samples;

      for (const auto& [a, share] : dists[k]) running_sum[a] += share;
    }
    return agg;
  });
  for (const TargetAgg& agg : aggs) {
    out.per_attack_tv.insert(out.per_attack_tv.end(),
                             agg.per_attack_tv.begin(),
                             agg.per_attack_tv.end());
    same_tv.insert(same_tv.end(), agg.same_tv.begin(), agg.same_tv.end());
    mean_tv.insert(mean_tv.end(), agg.mean_tv.begin(), agg.mean_tv.end());
    // Keys merge in each task's (deterministic) map order; values were
    // summed per target first, so totals do not depend on thread count.
    for (const auto& [a, share] : agg.agg_truth) agg_truth[a] += share;
    for (const auto& [a, share] : agg.agg_pred) agg_pred[a] += share;
    samples += agg.samples;
  }

  if (samples > 0) {
    // Rank union ASes by aggregate truth share.
    std::vector<std::pair<net::Asn, double>> ranked(agg_truth.begin(),
                                                    agg_truth.end());
    for (const auto& [a, share] : agg_pred) {
      if (!agg_truth.contains(a)) ranked.emplace_back(a, 0.0);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
      if (x.second != y.second) return x.second > y.second;
      return x.first < y.first;
    });
    for (const auto& [a, share] : ranked) {
      out.ases.push_back(a);
      out.truth_freq.push_back(share / static_cast<double>(samples));
      const auto it = agg_pred.find(a);
      out.pred_freq.push_back(
          it == agg_pred.end() ? 0.0 : it->second / static_cast<double>(samples));
    }
    out.model_rmse = rms(out.per_attack_tv);
    out.same_rmse = rms(same_tv);
    out.mean_rmse = rms(mean_tv);
  }
  return out;
}

TimestampEvaluation evaluate_timestamps(const trace::Dataset& dataset,
                                        const net::IpToAsnMap& ip_map,
                                        const SpatiotemporalOptions& opts,
                                        double train_fraction,
                                        Precision precision) {
  if (!(train_fraction > 0.0 && train_fraction < 1.0)) {
    throw std::invalid_argument("evaluate_timestamps: bad fraction");
  }
  const auto [train, test] = dataset.split(train_fraction);
  SpatiotemporalModel model(opts);
  model.fit(train, ip_map);

  // Assemble rows over the FULL dataset with the train-fitted sub-models:
  // every prediction remains causal, and rows for test attacks use exactly
  // the information available at prediction time.
  std::unordered_map<std::uint32_t, TemporalModel> temporal;
  std::unordered_map<net::Asn, SpatialModel> spatial;
  for (std::uint32_t f = 0;
       f < static_cast<std::uint32_t>(dataset.family_names().size()); ++f) {
    if (const TemporalModel* m = model.temporal(f)) temporal.emplace(f, *m);
  }
  for (net::Asn asn : dataset.target_asns()) {
    if (const SpatialModel* m = model.spatial(asn)) spatial.emplace(asn, *m);
  }
  const std::vector<StRow> rows =
      assemble_rows(dataset, ip_map, temporal, spatial, model.options());

  const std::size_t n_train = train.size();
  std::optional<ServingModel> served;
  if (precision == Precision::kF32) {
    served = ServingModel::from_image(armm::pack_model(
        model, train, ip_map, model.options().magnitude_window));
  }

  // Per-target chronological hour/day/interval series for the §VII-A naive
  // timestamp baselines, built lazily (only targets with test rows pay).
  struct TargetTimeline {
    std::vector<double> hour;      ///< Launch hour of attack k.
    std::vector<double> day;       ///< Day index of attack k.
    std::vector<double> interval;  ///< start[k] - start[k-1]; [0] = 0.
    std::vector<double> hour_prefix;      ///< Running sums for means.
    std::vector<double> interval_prefix;  ///< Sums of interval[1..k].
  };
  std::unordered_map<net::Asn, TargetTimeline> timelines;
  const auto timeline_for = [&](net::Asn asn) -> const TargetTimeline& {
    auto it = timelines.find(asn);
    if (it == timelines.end()) {
      TargetTimeline tl;
      const auto& indices = dataset.attacks_on_asn(asn);
      double hour_sum = 0.0;
      double interval_sum = 0.0;
      for (std::size_t k = 0; k < indices.size(); ++k) {
        const trace::Attack& attack = dataset.attacks()[indices[k]];
        const trace::DayHour dh =
            trace::decompose_timestamp(attack.start, dataset.window_start());
        tl.hour.push_back(static_cast<double>(dh.hour));
        tl.day.push_back(static_cast<double>(dh.day));
        tl.interval.push_back(
            k == 0 ? 0.0
                   : static_cast<double>(
                         attack.start -
                         dataset.attacks()[indices[k - 1]].start));
        hour_sum += tl.hour.back();
        interval_sum += tl.interval.back();
        tl.hour_prefix.push_back(hour_sum);
        tl.interval_prefix.push_back(interval_sum);
      }
      it = timelines.emplace(asn, std::move(tl)).first;
    }
    return it->second;
  };

  TimestampEvaluation out;
  for (const StRow& row : rows) {
    if (row.attack_index < n_train) continue;  // Only score the test tail.
    out.truth_hour.push_back(row.truth_hour);
    out.truth_day.push_back(row.truth_day);
    out.st_hour.push_back(served
                              ? served->predict_hour(row.features, precision)
                              : model.predict_hour(row.features));
    out.st_day.push_back(served ? served->predict_day(row.features, precision)
                                : model.predict_day(row.features));
    out.spa_hour.push_back(std::clamp(row.features.spa_hour, 0.0, 23.999));
    out.spa_day.push_back(row.features.prev_day +
                          row.features.spa_interval_s / 86400.0);
    out.tmp_hour.push_back(std::clamp(row.features.tmp_hour, 0.0, 23.999));
    out.tmp_day.push_back(row.features.prev_day +
                          row.features.tmp_interval_s / 86400.0);
    // Naive baselines: row k predicts attack k of its target from history
    // strictly before k (k >= 1 by construction of the feature rows).
    const TargetTimeline& tl = timeline_for(row.target_asn);
    const std::size_t k = row.target_pos;
    const double prev_day = tl.day[k - 1];
    const double same_interval = k >= 2 ? tl.interval[k - 1] : 0.0;
    out.same_hour.push_back(tl.hour[k - 1]);
    out.same_day.push_back(prev_day + same_interval / 86400.0);
    out.mean_hour.push_back(tl.hour_prefix[k - 1] /
                            static_cast<double>(k));
    const double mean_interval =
        k >= 2 ? tl.interval_prefix[k - 1] / static_cast<double>(k - 1) : 0.0;
    out.mean_day.push_back(prev_day + mean_interval / 86400.0);
  }
  if (!out.truth_hour.empty()) {
    out.rmse_hour_st = acbm::stats::rmse(out.truth_hour, out.st_hour);
    out.rmse_hour_spa = acbm::stats::rmse(out.truth_hour, out.spa_hour);
    out.rmse_hour_tmp = acbm::stats::rmse(out.truth_hour, out.tmp_hour);
    out.rmse_day_st = acbm::stats::rmse(out.truth_day, out.st_day);
    out.rmse_day_spa = acbm::stats::rmse(out.truth_day, out.spa_day);
    out.rmse_day_tmp = acbm::stats::rmse(out.truth_day, out.tmp_day);
    out.rmse_hour_same = acbm::stats::rmse(out.truth_hour, out.same_hour);
    out.rmse_hour_mean = acbm::stats::rmse(out.truth_hour, out.mean_hour);
    out.rmse_day_same = acbm::stats::rmse(out.truth_day, out.same_day);
    out.rmse_day_mean = acbm::stats::rmse(out.truth_day, out.mean_day);
  }
  return out;
}

std::vector<PredictedAttack> predict_attacks(const trace::Dataset& dataset,
                                             const net::IpToAsnMap& ip_map,
                                             const SpatiotemporalOptions& opts,
                                             double train_fraction,
                                             double source_mass) {
  if (!(source_mass > 0.0 && source_mass <= 1.0)) {
    throw std::invalid_argument("predict_attacks: bad source mass");
  }
  const auto [train, test] = dataset.split(train_fraction);
  SpatiotemporalModel model(opts);
  model.fit(train, ip_map);

  std::unordered_map<std::uint32_t, TemporalModel> temporal;
  std::unordered_map<net::Asn, SpatialModel> spatial;
  for (std::uint32_t f = 0;
       f < static_cast<std::uint32_t>(dataset.family_names().size()); ++f) {
    if (const TemporalModel* m = model.temporal(f)) temporal.emplace(f, *m);
  }
  for (net::Asn asn : dataset.target_asns()) {
    if (const SpatialModel* m = model.spatial(asn)) spatial.emplace(asn, *m);
  }
  const std::vector<StRow> rows =
      assemble_rows(dataset, ip_map, temporal, spatial, model.options());
  const std::size_t n_train = train.size();

  // Per-target chronological source distributions, built lazily.
  std::unordered_map<net::Asn,
                     std::vector<std::unordered_map<net::Asn, double>>>
      dists_of_target;
  const auto dists_for = [&](net::Asn asn)
      -> const std::vector<std::unordered_map<net::Asn, double>>& {
    auto it = dists_of_target.find(asn);
    if (it == dists_of_target.end()) {
      std::vector<std::unordered_map<net::Asn, double>> dists;
      for (std::size_t idx : dataset.attacks_on_asn(asn)) {
        dists.push_back(
            source_asn_distribution(dataset.attacks()[idx], ip_map));
      }
      it = dists_of_target.emplace(asn, std::move(dists)).first;
    }
    return it->second;
  };

  std::vector<PredictedAttack> out;
  for (const StRow& row : rows) {
    if (row.attack_index < n_train) continue;
    PredictedAttack pred;
    pred.attack_index = row.attack_index;
    pred.target = row.target_asn;
    pred.actual_start = dataset.attacks()[row.attack_index].start;

    const double day = std::max(model.predict_day(row.features),
                                row.features.prev_day);
    const double hour = model.predict_hour(row.features);
    pred.predicted_start =
        dataset.window_start() +
        static_cast<trace::EpochSeconds>(day) * 86400 +
        static_cast<trace::EpochSeconds>(hour * 3600.0);

    const auto sit = spatial.find(row.target_asn);
    if (sit != spatial.end()) {
      const auto& dists = dists_for(row.target_asn);
      const std::span<const std::unordered_map<net::Asn, double>> history(
          dists.data(), row.target_pos);
      const auto dist = sit->second.predict_source_distribution(history);
      std::vector<std::pair<net::Asn, double>> ranked;
      for (const auto& [asn, share] : dist) {
        if (asn != 0) ranked.emplace_back(asn, share);
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      double covered = 0.0;
      for (const auto& [asn, share] : ranked) {
        if (covered >= source_mass) break;
        pred.predicted_sources.push_back(asn);
        covered += share;
      }
    }
    out.push_back(std::move(pred));
  }
  return out;
}

std::vector<ComparisonRow> comparison_table(const trace::Dataset& dataset,
                                            const net::IpToAsnMap& ip_map,
                                            std::size_t top_families,
                                            double train_fraction) {
  // One task per family (each runs all three §VII-A evaluations); results
  // concatenate in activity-rank order, identical to the serial sweep.
  const std::vector<std::uint32_t> families =
      most_active_families(dataset, top_families);
  const std::vector<std::vector<ComparisonRow>> family_rows = parallel_map(
      families.size(), [&](std::size_t fi) -> std::vector<ComparisonRow> {
    const std::uint32_t family = families[fi];
    const std::string& name = dataset.family_names()[family];
    std::vector<ComparisonRow> rows;

    const SeriesEvaluation magnitude = evaluate_temporal_series(
        dataset, ip_map, family, TemporalSeries::kMagnitude, {}, train_fraction);
    rows.push_back({name, "magnitude", magnitude.model_rmse,
                    magnitude.same_rmse, magnitude.mean_rmse});

    const SpatialEvaluation duration = evaluate_spatial_series(
        dataset, ip_map, family, SpatialSeries::kDuration, {}, train_fraction,
        /*min_target_attacks=*/10);
    rows.push_back({name, "duration_s", duration.model_rmse,
                    duration.same_rmse, duration.mean_rmse});

    const SourceDistributionEvaluation sources = evaluate_source_distribution(
        dataset, ip_map, family, {}, train_fraction, /*min_target_attacks=*/10);
    rows.push_back({name, "source_distribution", sources.model_rmse,
                    sources.same_rmse, sources.mean_rmse});
    return rows;
  });
  std::vector<ComparisonRow> out;
  for (const std::vector<ComparisonRow>& rows : family_rows) {
    out.insert(out.end(), rows.begin(), rows.end());
  }
  return out;
}

}  // namespace acbm::core
