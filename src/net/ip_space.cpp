#include "net/ip_space.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace acbm::net {

IpToAsnMap::IpToAsnMap(std::vector<std::pair<Prefix, Asn>> entries) {
  entries_.reserve(entries.size());
  for (const auto& [prefix, asn] : entries) {
    entries_.push_back({prefix, asn});
    sizes_[asn] += prefix.size();
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              if (a.prefix.network.value != b.prefix.network.value) {
                return a.prefix.network.value < b.prefix.network.value;
              }
              return a.prefix.length > b.prefix.length;
            });
  for (std::size_t i = 0; i + 1 < entries_.size(); ++i) {
    if (entries_[i].prefix == entries_[i + 1].prefix &&
        entries_[i].asn != entries_[i + 1].asn) {
      throw std::invalid_argument(
          "IpToAsnMap: identical prefix mapped to different ASNs");
    }
  }

  // Flatten into disjoint ranges, each carrying the ASN of its longest
  // matching prefix. CIDR prefixes are either nested or disjoint, so after
  // sorting outermost-first a stack of the prefixes enclosing the sweep
  // position decides every address: the innermost open prefix owns it.
  // Adjacent ranges of one ASN are merged.
  std::vector<const Entry*> order;
  order.reserve(entries_.size());
  for (const Entry& entry : entries_) order.push_back(&entry);
  std::sort(order.begin(), order.end(), [](const Entry* a, const Entry* b) {
    if (a->prefix.network.value != b->prefix.network.value) {
      return a->prefix.network.value < b->prefix.network.value;
    }
    return a->prefix.length < b->prefix.length;
  });
  struct Range {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    Asn asn = 0;
  };
  std::vector<Range> ranges;
  // 64-bit so the sweep can step past 255.255.255.255.
  std::uint64_t cursor = 0;
  const auto emit = [&ranges, &cursor](std::uint64_t last, Asn asn) {
    if (cursor > last) return;
    if (!ranges.empty() && ranges.back().asn == asn &&
        std::uint64_t{ranges.back().last} + 1 == cursor) {
      ranges.back().last = static_cast<std::uint32_t>(last);
    } else {
      ranges.push_back({static_cast<std::uint32_t>(cursor),
                        static_cast<std::uint32_t>(last), asn});
    }
    cursor = last + 1;
  };
  std::vector<const Entry*> open;
  for (const Entry* entry : order) {
    const std::uint64_t first = entry->prefix.first().value;
    while (!open.empty() && open.back()->prefix.last().value < first) {
      emit(open.back()->prefix.last().value, open.back()->asn);
      open.pop_back();
    }
    if (!open.empty() && first > 0) emit(first - 1, open.back()->asn);
    cursor = std::max(cursor, first);
    open.push_back(entry);
  }
  while (!open.empty()) {
    emit(open.back()->prefix.last().value, open.back()->asn);
    open.pop_back();
  }

  // Split the ranges into the search array and their ends, and number the
  // ASes that own a range densely in ASN order.
  for (const Range& range : ranges) asns_.push_back(range.asn);
  std::sort(asns_.begin(), asns_.end());
  asns_.erase(std::unique(asns_.begin(), asns_.end()), asns_.end());
  starts_.reserve(ranges.size());
  ends_.reserve(ranges.size());
  for (const Range& range : ranges) {
    starts_.push_back(range.first);
    const auto ordinal = static_cast<std::uint32_t>(
        std::lower_bound(asns_.begin(), asns_.end(), range.asn) -
        asns_.begin());
    ends_.push_back({range.last, ordinal});
  }
}

std::vector<Prefix> IpToAsnMap::prefixes_of(Asn asn) const {
  std::vector<Prefix> out;
  for (const Entry& entry : entries_) {
    if (entry.asn == asn) out.push_back(entry.prefix);
  }
  return out;
}

std::uint64_t IpToAsnMap::address_count(Asn asn) const {
  const auto it = sizes_.find(asn);
  return it == sizes_.end() ? 0 : it->second;
}

void IpToAsnMap::save(std::ostream& os) const {
  for (const Entry& entry : entries_) {
    os << entry.prefix.to_string() << ',' << entry.asn << '\n';
  }
}

IpToAsnMap IpToAsnMap::load(std::istream& is) {
  std::vector<std::pair<Prefix, Asn>> entries;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos) {
      throw std::invalid_argument("IpToAsnMap::load: malformed line");
    }
    entries.emplace_back(parse_prefix(line.substr(0, comma)),
                         static_cast<Asn>(std::stoul(line.substr(comma + 1))));
  }
  return IpToAsnMap(std::move(entries));
}

IpToAsnMap allocate_address_space(const AsGraph& graph,
                                  const AllocationOptions& opts,
                                  acbm::stats::Rng& rng) {
  if (opts.prefix_length < 8 || opts.prefix_length > 30) {
    throw std::invalid_argument(
        "allocate_address_space: prefix_length out of [8, 30]");
  }
  if (opts.max_blocks_per_as == 0) {
    throw std::invalid_argument("allocate_address_space: zero blocks per AS");
  }

  // Rank ASes by degree so well-connected ASes draw more blocks.
  std::vector<Asn> ranked = graph.ases();
  std::sort(ranked.begin(), ranked.end(), [&](Asn a, Asn b) {
    return graph.degree(a) > graph.degree(b);
  });

  std::vector<std::pair<Prefix, Asn>> entries;
  std::uint32_t cursor = std::uint32_t{opts.pool_first_octet} << 24;
  const std::uint32_t block = std::uint32_t{1} << (32 - opts.prefix_length);
  for (std::size_t rank = 0; rank < ranked.size(); ++rank) {
    // Zipf-shaped block count: top-ranked ASes get up to max_blocks.
    const double share =
        1.0 / std::pow(static_cast<double>(rank + 1), opts.size_skew);
    auto blocks = static_cast<std::size_t>(
        1 + share * static_cast<double>(opts.max_blocks_per_as - 1) +
        rng.uniform(0.0, 0.5));
    blocks = std::min(blocks, opts.max_blocks_per_as);
    for (std::size_t b = 0; b < blocks; ++b) {
      entries.emplace_back(Prefix(Ipv4(cursor), opts.prefix_length),
                           ranked[rank]);
      cursor += block;
    }
  }
  return IpToAsnMap(std::move(entries));
}

}  // namespace acbm::net
