// Feature extraction (§III of the paper): the attacker-side variables
// A^f (activity level, Eq. 1), A^b (normalized magnitude, Eq. 2),
// A^s (source-distribution coefficient, Eq. 3-4), and the target-side
// variables (durations, inter-launch times, timestamp day/hour parts,
// multistage chains).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/ip_space.h"
#include "net/routing.h"
#include "trace/dataset.h"

namespace acbm::core {

/// All per-attack time series for one botnet family, chronological.
struct FamilySeries {
  std::vector<std::size_t> attack_indices;  ///< Into dataset.attacks().
  std::vector<double> magnitude;        ///< Bots per attack (Fig. 1's y-axis).
  std::vector<double> activity;         ///< A^f, Eq. 1.
  std::vector<double> norm_magnitude;   ///< A^b, Eq. 2.
  /// A^s, Eq. 3: resolves every bot to its AS. Filled only by the overload
  /// that takes the IP map; empty otherwise.
  std::vector<double> source_coeff;
  std::vector<double> interval_s;       ///< Inter-launch times (first = 0).
  std::vector<double> hour;             ///< Launch hour of day.
  std::vector<double> day;              ///< Day index in the window.
  std::vector<double> duration_s;
};

/// One attack's mapped bot sources: the ASes its bots resolve to, in
/// ascending ASN order, the bots resolved into each, and their total.
/// Bots no prefix covers are dropped, as in practice.
struct AttackSources {
  std::span<const net::Asn> asns;
  std::span<const std::uint32_t> bots;
  std::uint32_t total = 0;  ///< Sum of `bots`.

  /// The i-th AS's share of the mapped bots, bit for bit the value
  /// source_asn_distribution gives it.
  [[nodiscard]] double share(std::size_t i) const {
    return static_cast<double>(bots[i]) / static_cast<double>(total);
  }
};

/// Every attack's bots resolved to ASes once, for the readers on the
/// fit and pack paths (A^s, the spatial model's tracked source ASes, the
/// packed source distributions). Stored as CSR: the rows of all attacks
/// back to back, indexed by the attack's position in dataset.attacks().
/// Each row is a pure function of its attack's bots, so the table is
/// identical at any thread count.
class SourceTable {
 public:
  SourceTable() = default;

  /// Resolves every attack of `dataset`.
  SourceTable(const trace::Dataset& dataset, const net::IpToAsnMap& ip_map);

  /// Resolves only the listed attacks (distinct indices into
  /// dataset.attacks()); the rows of the others are empty.
  SourceTable(const trace::Dataset& dataset, const net::IpToAsnMap& ip_map,
              std::span<const std::size_t> attacks);

  [[nodiscard]] AttackSources operator[](std::size_t attack) const {
    const std::size_t first = offsets_[attack];
    const std::size_t count = offsets_[attack + 1] - first;
    const std::span<const std::uint32_t> cells(cells_);
    return {cells.subspan(first, count),
            cells.subspan(entries() + first, count), totals_[attack]};
  }

  /// Number of attacks (rows).
  [[nodiscard]] std::size_t size() const noexcept { return totals_.size(); }

 private:
  [[nodiscard]] std::size_t entries() const noexcept { return offsets_.back(); }

  std::vector<std::size_t> offsets_{0};
  /// All rows' ASNs, then all rows' bot counts: one block of
  /// 2 * entries() cells.
  std::vector<std::uint32_t> cells_;
  std::vector<std::uint32_t> totals_;
};

/// Extracts the family series. All series are aligned: entry k describes
/// the k-th attack of the family. This overload leaves source_coeff empty
/// and resolves no bot, for readers of the other series only (drift
/// baselines, packing, prediction).
[[nodiscard]] FamilySeries extract_family_series(const trace::Dataset& dataset,
                                                 std::uint32_t family);

/// The series above plus source_coeff, for the temporal models fitted on
/// it. `distance` may be null, in which case source_coeff is computed with
/// unit inter-AS distance (intra-AS term only).
[[nodiscard]] FamilySeries extract_family_series(
    const trace::Dataset& dataset, std::uint32_t family,
    const net::IpToAsnMap& ip_map, net::ValleyFreeDistance* distance);

/// The same, with the family's bots read from a table over `dataset`.
[[nodiscard]] FamilySeries extract_family_series(
    const trace::Dataset& dataset, std::uint32_t family,
    const SourceTable& sources, const net::IpToAsnMap& ip_map,
    net::ValleyFreeDistance* distance);

/// Per-target-AS series (the spatial model's view, §V).
struct TargetSeries {
  net::Asn asn = 0;
  std::vector<std::size_t> attack_indices;
  std::vector<double> duration_s;  ///< T^d.
  std::vector<double> interval_s;  ///< T^i = T^{ts}_{j+1} - T^{ts}_j (first = 0).
  std::vector<double> hour;        ///< T^{hour}.
  std::vector<double> day;         ///< T^{day}.
  std::vector<double> magnitude;
};

[[nodiscard]] TargetSeries extract_target_series(const trace::Dataset& dataset,
                                                 net::Asn target_asn);

/// Normalized attacker source-AS distribution of one attack.
[[nodiscard]] std::unordered_map<net::Asn, double> source_asn_distribution(
    const trace::Attack& attack, const net::IpToAsnMap& ip_map);

/// The paper's A^s coefficient (Eq. 3-4) for one attack: intra-AS
/// concentration divided by mean pairwise inter-AS hop distance. Larger
/// values mean bots packed densely into few, nearby ASes. The intra-AS
/// terms are summed in ascending ASN order.
[[nodiscard]] double source_distribution_coefficient(
    const AttackSources& sources, const net::IpToAsnMap& ip_map,
    net::ValleyFreeDistance* distance);

/// The same for an attack outside any table: resolves its bots, then
/// delegates to the overload above.
[[nodiscard]] double source_distribution_coefficient(
    const trace::Attack& attack, const net::IpToAsnMap& ip_map,
    net::ValleyFreeDistance* distance);

/// Multistage attack chains (§III-A2): consecutive attacks on the same
/// target between 30 s and 24 h apart are stages of one logical attack.
struct MultistageOptions {
  double min_gap_s = 30.0;
  double max_gap_s = 86400.0;
};

/// Groups attack indices (into dataset.attacks()) into multistage chains;
/// every attack appears in exactly one chain (singletons allowed).
/// Chains are chronological, as is the outer list.
[[nodiscard]] std::vector<std::vector<std::size_t>> multistage_chains(
    const trace::Dataset& dataset, const MultistageOptions& opts = {});

/// Turnaround decomposition of a multistage chain (§III-A2): execution is
/// the summed stage durations, waiting the summed idle gaps between stages,
/// and turnaround the wall-clock span from first launch to last stage end.
struct Turnaround {
  double execution_s = 0.0;
  double waiting_s = 0.0;
  double turnaround_s = 0.0;
  std::size_t stages = 0;
};

/// Computes the turnaround of one chain (indices into dataset.attacks(),
/// chronological). Throws std::invalid_argument on an empty chain.
[[nodiscard]] Turnaround chain_turnaround(const trace::Dataset& dataset,
                                          std::span<const std::size_t> chain);

/// Attacks launched per hour by one family over the first `hours` hours of
/// the observation window (the granularity of the paper's hourly reports,
/// §II-C). Length is exactly `hours`; attacks beyond it are ignored.
[[nodiscard]] std::vector<double> hourly_attack_counts(
    const trace::Dataset& dataset, std::uint32_t family, std::size_t hours);

}  // namespace acbm::core
