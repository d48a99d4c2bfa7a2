#include "core/features.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace acbm::core {

std::unordered_map<net::Asn, double> source_asn_distribution(
    const trace::Attack& attack, const net::IpToAsnMap& ip_map) {
  std::unordered_map<net::Asn, double> counts;
  double total = 0.0;
  for (const net::Ipv4& bot : attack.bots) {
    const auto asn = ip_map.lookup(bot);
    if (!asn) continue;  // Unmappable sources are dropped, as in practice.
    counts[*asn] += 1.0;
    total += 1.0;
  }
  if (total > 0.0) {
    for (auto& [asn, count] : counts) count /= total;
  }
  return counts;
}

double source_distribution_coefficient(const trace::Attack& attack,
                                       const net::IpToAsnMap& ip_map,
                                       net::ValleyFreeDistance* distance) {
  // Eq. (4), numerator: sum over involved ASes of bots-in-AS / AS size.
  std::unordered_map<net::Asn, double> bot_counts;
  for (const net::Ipv4& bot : attack.bots) {
    const auto asn = ip_map.lookup(bot);
    if (asn) bot_counts[*asn] += 1.0;
  }
  if (bot_counts.empty()) return 0.0;

  double intra = 0.0;
  for (const auto& [asn, bots_in_as] : bot_counts) {
    const auto addresses = ip_map.address_count(asn);
    if (addresses == 0) continue;
    intra += bots_in_as / static_cast<double>(addresses);
  }

  // Eq. (4), denominator: mean pairwise hop distance between involved ASes.
  // A single-AS attack (or no distance oracle) uses unit distance, so A^s
  // reduces to the intra-AS concentration.
  double dt = 1.0;
  if (distance != nullptr && bot_counts.size() >= 2) {
    std::vector<net::Asn> ases;
    ases.reserve(bot_counts.size());
    for (const auto& [asn, count] : bot_counts) ases.push_back(asn);
    std::sort(ases.begin(), ases.end());  // Deterministic iteration.
    double sum = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < ases.size(); ++i) {
      for (std::size_t j = i + 1; j < ases.size(); ++j) {
        const auto hops = distance->distance(ases[i], ases[j]);
        if (hops) {
          sum += static_cast<double>(*hops);
          ++pairs;
        }
      }
    }
    if (pairs > 0 && sum > 0.0) {
      dt = sum / static_cast<double>(pairs);
    }
  }
  // Scale the intra term to a per-mille concentration so A^s lives in a
  // numerically convenient range for the time-series models.
  return 1000.0 * intra / dt;
}

FamilySeries extract_family_series(const trace::Dataset& dataset,
                                   std::uint32_t family) {
  FamilySeries out;
  out.attack_indices = dataset.attacks_of_family(family);
  const std::size_t n = out.attack_indices.size();
  out.magnitude.reserve(n);
  out.activity.reserve(n);
  out.norm_magnitude.reserve(n);
  out.interval_s.reserve(n);
  out.hour.reserve(n);
  out.day.reserve(n);
  out.duration_s.reserve(n);

  double cumulative_bots = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const trace::Attack& attack = dataset.attacks()[out.attack_indices[k]];
    const double magnitude = static_cast<double>(attack.magnitude());
    out.magnitude.push_back(magnitude);

    // Eq. (1): attacks so far divided by days elapsed so far.
    const double days_elapsed = std::max(
        1.0, static_cast<double>(attack.start - dataset.window_start()) / 86400.0);
    out.activity.push_back(static_cast<double>(k + 1) / days_elapsed);

    // Eq. (2): current active bots over cumulative bots observed.
    cumulative_bots += magnitude;
    out.norm_magnitude.push_back(magnitude / cumulative_bots);

    if (k == 0) {
      out.interval_s.push_back(0.0);
    } else {
      const trace::Attack& prev =
          dataset.attacks()[out.attack_indices[k - 1]];
      out.interval_s.push_back(
          static_cast<double>(attack.start - prev.start));
    }

    const trace::DayHour dh =
        trace::decompose_timestamp(attack.start, dataset.window_start());
    out.hour.push_back(static_cast<double>(dh.hour));
    out.day.push_back(static_cast<double>(dh.day));
    out.duration_s.push_back(attack.duration_s);
  }
  return out;
}

FamilySeries extract_family_series(const trace::Dataset& dataset,
                                   std::uint32_t family,
                                   const net::IpToAsnMap& ip_map,
                                   net::ValleyFreeDistance* distance) {
  FamilySeries out = extract_family_series(dataset, family);
  out.source_coeff.reserve(out.attack_indices.size());
  for (std::size_t idx : out.attack_indices) {
    out.source_coeff.push_back(source_distribution_coefficient(
        dataset.attacks()[idx], ip_map, distance));
  }
  return out;
}

TargetSeries extract_target_series(const trace::Dataset& dataset,
                                   net::Asn target_asn) {
  TargetSeries out;
  out.asn = target_asn;
  out.attack_indices = dataset.attacks_on_asn(target_asn);
  const std::size_t n = out.attack_indices.size();
  out.duration_s.reserve(n);
  out.interval_s.reserve(n);
  out.hour.reserve(n);
  out.day.reserve(n);
  out.magnitude.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const trace::Attack& attack = dataset.attacks()[out.attack_indices[k]];
    out.duration_s.push_back(attack.duration_s);
    out.magnitude.push_back(static_cast<double>(attack.magnitude()));
    if (k == 0) {
      out.interval_s.push_back(0.0);
    } else {
      const trace::Attack& prev =
          dataset.attacks()[out.attack_indices[k - 1]];
      out.interval_s.push_back(
          static_cast<double>(attack.start - prev.start));
    }
    const trace::DayHour dh =
        trace::decompose_timestamp(attack.start, dataset.window_start());
    out.hour.push_back(static_cast<double>(dh.hour));
    out.day.push_back(static_cast<double>(dh.day));
  }
  return out;
}

std::vector<std::vector<std::size_t>> multistage_chains(
    const trace::Dataset& dataset, const MultistageOptions& opts) {
  if (!(opts.min_gap_s >= 0.0 && opts.min_gap_s < opts.max_gap_s)) {
    throw std::invalid_argument("multistage_chains: bad gap window");
  }
  // Per-target chronological scan; attacks within the window chain up.
  std::map<net::Asn, std::vector<std::size_t>> open_chain_of_target;
  std::map<net::Asn, trace::EpochSeconds> last_start_of_target;
  std::vector<std::vector<std::size_t>> chains;
  std::unordered_map<net::Asn, std::size_t> chain_id_of_target;

  for (std::size_t i = 0; i < dataset.attacks().size(); ++i) {
    const trace::Attack& attack = dataset.attacks()[i];
    const auto last = last_start_of_target.find(attack.target_asn);
    const bool continues =
        last != last_start_of_target.end() &&
        static_cast<double>(attack.start - last->second) >= opts.min_gap_s &&
        static_cast<double>(attack.start - last->second) <= opts.max_gap_s;
    if (continues) {
      chains[chain_id_of_target[attack.target_asn]].push_back(i);
    } else {
      chains.push_back({i});
      chain_id_of_target[attack.target_asn] = chains.size() - 1;
    }
    last_start_of_target[attack.target_asn] = attack.start;
  }
  return chains;
}

std::vector<double> hourly_attack_counts(const trace::Dataset& dataset,
                                         std::uint32_t family,
                                         std::size_t hours) {
  std::vector<double> out(hours, 0.0);
  for (std::size_t idx : dataset.attacks_of_family(family)) {
    const trace::Attack& attack = dataset.attacks()[idx];
    const trace::EpochSeconds rel = attack.start - dataset.window_start();
    if (rel < 0) continue;
    const auto hour = static_cast<std::size_t>(rel / 3600);
    if (hour < hours) out[hour] += 1.0;
  }
  return out;
}

Turnaround chain_turnaround(const trace::Dataset& dataset,
                            std::span<const std::size_t> chain) {
  if (chain.empty()) {
    throw std::invalid_argument("chain_turnaround: empty chain");
  }
  Turnaround out;
  out.stages = chain.size();
  trace::EpochSeconds last_end = 0;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const trace::Attack& attack = dataset.attacks()[chain[i]];
    out.execution_s += attack.duration_s;
    if (i > 0 && attack.start > last_end) {
      out.waiting_s += static_cast<double>(attack.start - last_end);
    }
    last_end = std::max(last_end, attack.end());
  }
  const trace::Attack& first = dataset.attacks()[chain.front()];
  out.turnaround_s = static_cast<double>(last_end - first.start);
  return out;
}

}  // namespace acbm::core
