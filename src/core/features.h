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
/// values mean bots packed densely into few, nearby ASes.
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
