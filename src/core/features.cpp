#include "core/features.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "core/parallel.h"

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

namespace {

/// Tallies one attack's bots per AS into a dense per-ordinal array. The
/// one resolution routine behind SourceTable and the single-attack A^s.
/// The tally loop has no branch on the resolved ordinal: an unmapped bot
/// counts into a sentinel slot past the last ordinal, and a first-seen
/// ordinal is appended by always writing it and advancing only when new,
/// so a bot's lookup never waits on a mispredicted branch of the last.
class SourceCounter {
 public:
  explicit SourceCounter(const net::IpToAsnMap& ip_map)
      : ip_map_(ip_map),
        sentinel_(static_cast<std::uint32_t>(ip_map.asn_count())),
        counts_(ip_map.asn_count() + 1, 0),
        // Every ordinal and the sentinel, plus one slot for the write that
        // tally() makes unconditionally once all of them are touched.
        touched_(ip_map.asn_count() + 2, 0) {}

  /// Resolves `bots`; distinct() and total() then describe them.
  void tally(std::span<const net::Ipv4> bots) {
    std::size_t n = 0;
    for (const net::Ipv4& bot : bots) {
      // kUnmapped is the largest uint32, so min() maps it to the sentinel.
      const std::uint32_t ordinal =
          std::min(ip_map_.ordinal_of(bot), sentinel_);
      touched_[n] = ordinal;
      n += counts_[ordinal]++ == 0 ? 1 : 0;
    }
    const std::uint32_t unmapped = counts_[sentinel_];
    touched_count_ = n;
    distinct_ = n - (unmapped > 0 ? 1 : 0);
    total_ = static_cast<std::uint32_t>(bots.size()) - unmapped;
  }

  /// Number of distinct ASes tallied.
  [[nodiscard]] std::size_t distinct() const noexcept { return distinct_; }
  [[nodiscard]] std::uint32_t total() const noexcept { return total_; }

  /// Writes the tallied ASes in ascending ASN order (ordinals rank by
  /// ASN) with their bot counts, distinct() of each, and resets.
  void drain(net::Asn* asns, std::uint32_t* bots) {
    // The sentinel, if touched, sorts last and is left out.
    std::sort(touched_.begin(),
              touched_.begin() + static_cast<std::ptrdiff_t>(touched_count_));
    for (std::size_t i = 0; i < distinct_; ++i) {
      asns[i] = ip_map_.asn_at(touched_[i]);
      bots[i] = counts_[touched_[i]];
    }
    clear();
  }

  void clear() {
    for (std::size_t i = 0; i < touched_count_; ++i) counts_[touched_[i]] = 0;
    touched_count_ = 0;
    distinct_ = 0;
    total_ = 0;
  }

 private:
  const net::IpToAsnMap& ip_map_;
  std::uint32_t sentinel_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> touched_;  ///< Ordinals in first-seen order.
  std::size_t touched_count_ = 0;       ///< Sentinel included.
  std::size_t distinct_ = 0;            ///< Sentinel excluded.
  std::uint32_t total_ = 0;
};

/// Attacks per parallel_for task of a SourceTable build.
constexpr std::size_t kSourceChunk = 256;

}  // namespace

SourceTable::SourceTable(const trace::Dataset& dataset,
                         const net::IpToAsnMap& ip_map)
    : SourceTable(dataset, ip_map, [&dataset] {
        std::vector<std::size_t> all(dataset.attacks().size());
        for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
        return all;
      }()) {}

SourceTable::SourceTable(const trace::Dataset& dataset,
                         const net::IpToAsnMap& ip_map,
                         std::span<const std::size_t> attacks) {
  const std::vector<trace::Attack>& all = dataset.attacks();
  offsets_.assign(all.size() + 1, 0);
  totals_.assign(all.size(), 0);
  const std::size_t chunks = (attacks.size() + kSourceChunk - 1) / kSourceChunk;
  const auto for_each_attack = [&](const auto& fn) {
    parallel_for(0, chunks, [&](std::size_t c) {
      SourceCounter counter(ip_map);
      const std::size_t stop = std::min(attacks.size(), (c + 1) * kSourceChunk);
      for (std::size_t k = c * kSourceChunk; k < stop; ++k) {
        counter.tally(all[attacks[k]].bots);
        fn(attacks[k], counter);
      }
    });
  };
  // Count pass: each row's width lands one slot ahead, so the prefix sum
  // turns the widths into row offsets in place.
  for_each_attack([&](std::size_t idx, SourceCounter& counter) {
    offsets_[idx + 1] = counter.distinct();
    totals_[idx] = counter.total();
    counter.clear();
  });
  for (std::size_t i = 0; i < all.size(); ++i) offsets_[i + 1] += offsets_[i];
  cells_.resize(2 * entries());
  // Fill pass: every row straight into its final place.
  for_each_attack([&](std::size_t idx, SourceCounter& counter) {
    counter.drain(cells_.data() + offsets_[idx],
                  cells_.data() + entries() + offsets_[idx]);
  });
}

double source_distribution_coefficient(const AttackSources& sources,
                                       const net::IpToAsnMap& ip_map,
                                       net::ValleyFreeDistance* distance) {
  if (sources.asns.empty()) return 0.0;

  // Eq. (4), numerator: sum over involved ASes of bots-in-AS / AS size,
  // in ascending ASN order.
  double intra = 0.0;
  for (std::size_t i = 0; i < sources.asns.size(); ++i) {
    const auto addresses = ip_map.address_count(sources.asns[i]);
    if (addresses == 0) continue;
    intra += static_cast<double>(sources.bots[i]) /
             static_cast<double>(addresses);
  }

  // Eq. (4), denominator: mean pairwise hop distance between involved ASes.
  // A single-AS attack (or no distance oracle) uses unit distance, so A^s
  // reduces to the intra-AS concentration.
  double dt = 1.0;
  if (distance != nullptr && sources.asns.size() >= 2) {
    const std::span<const net::Asn> ases = sources.asns;
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

double source_distribution_coefficient(const trace::Attack& attack,
                                       const net::IpToAsnMap& ip_map,
                                       net::ValleyFreeDistance* distance) {
  SourceCounter counter(ip_map);
  counter.tally(attack.bots);
  std::vector<net::Asn> asns(counter.distinct());
  std::vector<std::uint32_t> bots(counter.distinct());
  const std::uint32_t total = counter.total();
  counter.drain(asns.data(), bots.data());
  return source_distribution_coefficient(AttackSources{asns, bots, total},
                                         ip_map, distance);
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
                                   const SourceTable& sources,
                                   const net::IpToAsnMap& ip_map,
                                   net::ValleyFreeDistance* distance) {
  FamilySeries out = extract_family_series(dataset, family);
  out.source_coeff.reserve(out.attack_indices.size());
  for (std::size_t idx : out.attack_indices) {
    out.source_coeff.push_back(
        source_distribution_coefficient(sources[idx], ip_map, distance));
  }
  return out;
}

FamilySeries extract_family_series(const trace::Dataset& dataset,
                                   std::uint32_t family,
                                   const net::IpToAsnMap& ip_map,
                                   net::ValleyFreeDistance* distance) {
  const SourceTable sources(dataset, ip_map,
                            dataset.attacks_of_family(family));
  return extract_family_series(dataset, family, sources, ip_map, distance);
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
