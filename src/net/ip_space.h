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

  /// Resolves an address; nullopt when no prefix covers it. One binary
  /// search over the flattened range table.
  [[nodiscard]] std::optional<Asn> lookup(Ipv4 addr) const;

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
  /// A run of addresses whose longest matching prefix maps to `asn`.
  struct Range {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    Asn asn = 0;
  };
  // The prefixes as given, sorted by (network, -length); kept for save()
  // and prefixes_of() only.
  std::vector<Entry> entries_;
  // Disjoint ranges sorted by `first`, flattened from entries_ once at
  // construction with longest-match semantics; lookup() searches these.
  std::vector<Range> ranges_;
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
