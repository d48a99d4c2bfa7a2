// IP address space: CIDR prefix allocation per AS and longest-prefix-match
// IP -> ASN resolution. Substitutes the paper's commercial whois-based
// mapping dataset (§V-A) with a ground-truth-by-construction equivalent.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/as_graph.h"
#include "net/ipv4.h"
#include "stats/rng.h"

namespace acbm::net {

/// Immutable longest-prefix-match table from CIDR prefixes to ASNs.
class IpToAsnMap {
 public:
  IpToAsnMap() = default;

  /// Builds the table; overlapping prefixes are allowed (longest wins).
  /// Throws std::invalid_argument if two identical prefixes map to
  /// different ASNs.
  explicit IpToAsnMap(std::vector<std::pair<Prefix, Asn>> entries);

  /// What ordinal_of returns for an address no prefix covers.
  static constexpr std::uint32_t kUnmapped = ~std::uint32_t{0};

  /// Resolves an address; nullopt when no prefix covers it.
  [[nodiscard]] std::optional<Asn> lookup(Ipv4 addr) const {
    const std::uint32_t ordinal = ordinal_of(addr);
    if (ordinal == kUnmapped) return std::nullopt;
    return asns_[ordinal];
  }

  /// The dense ordinal of the AS an address resolves to, or kUnmapped when
  /// no prefix covers it. One branchless binary search over the range
  /// starts: the loop runs log2(ranges) times whatever the address, and
  /// each step is a conditional move, so nothing mispredicts.
  [[nodiscard]] std::uint32_t ordinal_of(Ipv4 addr) const {
    const std::uint32_t value = addr.value;
    std::size_t n = starts_.size();
    if (n == 0 || value < starts_[0]) return kUnmapped;
    const std::uint32_t* base = starts_.data();
    while (n > 1) {
      const std::size_t half = n / 2;
      base = base[half] <= value ? base + half : base;
      n -= half;
    }
    const RangeEnd& end =
        ends_[static_cast<std::size_t>(base - starts_.data())];
    return value <= end.last ? end.ordinal : kUnmapped;
  }

  /// Number of AS ordinals: every AS that owns at least one address once
  /// longer prefixes have taken theirs.
  [[nodiscard]] std::size_t asn_count() const noexcept { return asns_.size(); }

  /// The AS of an ordinal. Ordinals rank ASes by ASN, so ascending
  /// ordinals are ascending ASNs.
  [[nodiscard]] Asn asn_at(std::uint32_t ordinal) const {
    return asns_[ordinal];
  }

  [[nodiscard]] std::size_t prefix_count() const noexcept {
    return entries_.size();
  }

  /// All prefixes announced by an AS.
  [[nodiscard]] std::vector<Prefix> prefixes_of(Asn asn) const;

  /// Total number of addresses covered by an AS's prefixes (the paper's
  /// N_{AS_j} denominator in Eq. 4).
  [[nodiscard]] std::uint64_t address_count(Asn asn) const;

  /// Text serialization: one "prefix,asn" line per entry.
  void save(std::ostream& os) const;
  [[nodiscard]] static IpToAsnMap load(std::istream& is);

 private:
  struct Entry {
    Prefix prefix;
    Asn asn = 0;
  };
  /// The end of a run of addresses whose longest matching prefix maps to
  /// the AS of `ordinal`.
  struct RangeEnd {
    std::uint32_t last = 0;
    std::uint32_t ordinal = 0;
  };
  // The prefixes as given, sorted by (network, -length); kept for save()
  // and prefixes_of() only.
  std::vector<Entry> entries_;
  // Disjoint ranges, flattened from entries_ once at construction with
  // longest-match semantics: their first addresses ascending in starts_
  // (the dense array ordinal_of searches), their ends in ends_.
  std::vector<std::uint32_t> starts_;
  std::vector<RangeEnd> ends_;
  // Ordinal -> ASN, ascending: the ASes that own at least one range.
  std::vector<Asn> asns_;
  std::unordered_map<Asn, std::uint64_t> sizes_;
};

struct AllocationOptions {
  /// Prefix length for each allocated block.
  std::uint8_t prefix_length = 20;
  /// Blocks per AS are 1 + Zipf(rank, skew): big ASes get more space.
  double size_skew = 1.0;
  std::size_t max_blocks_per_as = 8;
  /// First octet of the allocation pool (blocks are carved sequentially).
  std::uint8_t pool_first_octet = 10;
};

/// Carves non-overlapping blocks out of a pool and assigns them to the ASes
/// of a graph; ASes with higher degree receive more blocks. Deterministic
/// given the rng state.
[[nodiscard]] IpToAsnMap allocate_address_space(const AsGraph& graph,
                                                const AllocationOptions& opts,
                                                acbm::stats::Rng& rng);

}  // namespace acbm::net
