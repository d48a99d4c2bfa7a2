#include "net/ip_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "net/topology.h"

namespace acbm::net {
namespace {

TEST(IpToAsnMap, EmptyMapFindsNothing) {
  const IpToAsnMap map;
  EXPECT_FALSE(map.lookup(Ipv4(10, 0, 0, 1)).has_value());
  EXPECT_EQ(map.prefix_count(), 0u);
}

TEST(IpToAsnMap, BasicLookup) {
  const IpToAsnMap map({{parse_prefix("10.0.0.0/16"), 100},
                        {parse_prefix("10.1.0.0/16"), 200}});
  EXPECT_EQ(map.lookup(Ipv4(10, 0, 5, 5)), 100u);
  EXPECT_EQ(map.lookup(Ipv4(10, 1, 255, 1)), 200u);
  EXPECT_FALSE(map.lookup(Ipv4(10, 2, 0, 1)).has_value());
  EXPECT_FALSE(map.lookup(Ipv4(9, 255, 255, 255)).has_value());
}

TEST(IpToAsnMap, LongestPrefixWins) {
  const IpToAsnMap map({{parse_prefix("10.0.0.0/8"), 100},
                        {parse_prefix("10.64.0.0/10"), 200},
                        {parse_prefix("10.64.32.0/24"), 300}});
  EXPECT_EQ(map.lookup(Ipv4(10, 0, 0, 1)), 100u);
  EXPECT_EQ(map.lookup(Ipv4(10, 64, 0, 1)), 200u);
  EXPECT_EQ(map.lookup(Ipv4(10, 64, 32, 9)), 300u);
  EXPECT_EQ(map.lookup(Ipv4(10, 64, 33, 9)), 200u);
}

TEST(IpToAsnMap, PrefixShorterThanSlash8StillMatches) {
  // Regression: a lookup once stopped scanning 2^24 addresses below the
  // address, so a /1 two hundred million addresses back was never reached.
  const IpToAsnMap map({{parse_prefix("0.0.0.0/1"), 1},
                        {parse_prefix("10.0.0.0/8"), 2}});
  EXPECT_EQ(map.lookup(Ipv4(100, 0, 0, 1)), 1u);
  EXPECT_EQ(map.lookup(Ipv4(10, 200, 0, 1)), 2u);
  EXPECT_EQ(map.lookup(Ipv4(11, 0, 0, 0)), 1u);
  EXPECT_FALSE(map.lookup(Ipv4(128, 0, 0, 0)).has_value());
}

TEST(IpToAsnMap, WholeSpaceAndHostRoutes) {
  const IpToAsnMap map({{parse_prefix("0.0.0.0/0"), 1},
                        {parse_prefix("0.0.0.0/32"), 2},
                        {parse_prefix("255.255.255.255/32"), 3},
                        {parse_prefix("255.255.255.0/24"), 4}});
  EXPECT_EQ(map.lookup(Ipv4(0, 0, 0, 0)), 2u);
  EXPECT_EQ(map.lookup(Ipv4(0, 0, 0, 1)), 1u);
  EXPECT_EQ(map.lookup(Ipv4(255, 255, 255, 254)), 4u);
  EXPECT_EQ(map.lookup(Ipv4(255, 255, 255, 255)), 3u);
  EXPECT_EQ(map.lookup(Ipv4(255, 255, 254, 255)), 1u);
}

TEST(IpToAsnMap, BoundaryAddresses) {
  const IpToAsnMap map({{parse_prefix("192.168.0.0/24"), 7}});
  EXPECT_EQ(map.lookup(Ipv4(192, 168, 0, 0)), 7u);
  EXPECT_EQ(map.lookup(Ipv4(192, 168, 0, 255)), 7u);
  EXPECT_FALSE(map.lookup(Ipv4(192, 168, 1, 0)).has_value());
  EXPECT_FALSE(map.lookup(Ipv4(192, 167, 255, 255)).has_value());
}

TEST(IpToAsnMap, ConflictingDuplicatePrefixThrows) {
  EXPECT_THROW(IpToAsnMap({{parse_prefix("10.0.0.0/16"), 1},
                           {parse_prefix("10.0.0.0/16"), 2}}),
               std::invalid_argument);
}

TEST(IpToAsnMap, PrefixesOfAndAddressCount) {
  const IpToAsnMap map({{parse_prefix("10.0.0.0/24"), 5},
                        {parse_prefix("10.1.0.0/24"), 5},
                        {parse_prefix("10.2.0.0/24"), 9}});
  EXPECT_EQ(map.prefixes_of(5).size(), 2u);
  EXPECT_EQ(map.address_count(5), 512u);
  EXPECT_EQ(map.address_count(9), 256u);
  EXPECT_EQ(map.address_count(12345), 0u);
}

TEST(AllocateAddressSpace, CoversEveryAs) {
  acbm::stats::Rng rng(3);
  TopologyOptions topo_opts;
  topo_opts.num_tier1 = 4;
  topo_opts.num_transit = 8;
  topo_opts.num_stub = 20;
  const Topology topo = generate_topology(topo_opts, rng);
  const IpToAsnMap map = allocate_address_space(topo.graph, {}, rng);
  for (Asn asn : topo.graph.ases()) {
    EXPECT_GT(map.address_count(asn), 0u) << "AS " << asn << " has no space";
  }
}

TEST(AllocateAddressSpace, BlocksDoNotOverlap) {
  acbm::stats::Rng rng(5);
  TopologyOptions topo_opts;
  topo_opts.num_tier1 = 3;
  topo_opts.num_transit = 6;
  topo_opts.num_stub = 12;
  const Topology topo = generate_topology(topo_opts, rng);
  const IpToAsnMap map = allocate_address_space(topo.graph, {}, rng);
  // Sequential carving: every address in every prefix resolves back to its
  // own AS (no overlap shadows another block).
  for (Asn asn : topo.graph.ases()) {
    for (const Prefix& prefix : map.prefixes_of(asn)) {
      EXPECT_EQ(map.lookup(prefix.first()), asn);
      EXPECT_EQ(map.lookup(prefix.last()), asn);
    }
  }
}

TEST(AllocateAddressSpace, HighDegreeAsesGetMoreSpace) {
  acbm::stats::Rng rng(7);
  TopologyOptions topo_opts;
  topo_opts.num_tier1 = 4;
  topo_opts.num_transit = 10;
  topo_opts.num_stub = 60;
  const Topology topo = generate_topology(topo_opts, rng);
  const IpToAsnMap map = allocate_address_space(topo.graph, {}, rng);
  // Compare the best-connected tier-1 against a stub.
  Asn biggest = topo.tier1.front();
  for (Asn t1 : topo.tier1) {
    if (topo.graph.degree(t1) > topo.graph.degree(biggest)) biggest = t1;
  }
  EXPECT_GE(map.address_count(biggest), map.address_count(topo.stubs.front()));
}

TEST(IpToAsnMap, SaveLoadRoundTrip) {
  acbm::stats::Rng rng(21);
  TopologyOptions topo_opts;
  topo_opts.num_tier1 = 3;
  topo_opts.num_transit = 5;
  topo_opts.num_stub = 12;
  const Topology topo = generate_topology(topo_opts, rng);
  const IpToAsnMap map = allocate_address_space(topo.graph, {}, rng);

  std::stringstream ss;
  map.save(ss);
  const IpToAsnMap back = IpToAsnMap::load(ss);
  EXPECT_EQ(back.prefix_count(), map.prefix_count());
  for (Asn asn : topo.graph.ases()) {
    EXPECT_EQ(back.address_count(asn), map.address_count(asn));
    for (const Prefix& prefix : map.prefixes_of(asn)) {
      EXPECT_EQ(back.lookup(prefix.first()), asn);
      EXPECT_EQ(back.lookup(prefix.last()), asn);
    }
  }
}

TEST(IpToAsnMap, LoadRejectsMalformedLines) {
  std::stringstream ss("10.0.0.0/16;5\n");
  EXPECT_THROW((void)IpToAsnMap::load(ss), std::invalid_argument);
}
TEST(IpToAsnMap, EmptyMapHasNoOrdinals) {
  const IpToAsnMap map;
  EXPECT_EQ(map.asn_count(), 0u);
  for (const std::uint32_t addr : {0u, 0x0A000001u, 0xFFFFFFFFu}) {
    EXPECT_EQ(map.ordinal_of(Ipv4(addr)), IpToAsnMap::kUnmapped);
  }
}

TEST(IpToAsnMap, SingleRangeEdges) {
  const IpToAsnMap map({{parse_prefix("10.1.0.0/16"), 7}});
  ASSERT_EQ(map.asn_count(), 1u);
  EXPECT_EQ(map.asn_at(0), 7u);
  EXPECT_FALSE(map.lookup(Ipv4(0u)).has_value());
  EXPECT_FALSE(map.lookup(Ipv4(10, 0, 255, 255)).has_value());  // Below.
  EXPECT_EQ(map.lookup(Ipv4(10, 1, 0, 0)), 7u);
  EXPECT_EQ(map.lookup(Ipv4(10, 1, 255, 255)), 7u);
  EXPECT_FALSE(map.lookup(Ipv4(10, 2, 0, 0)).has_value());  // Above.
  EXPECT_FALSE(map.lookup(Ipv4(255, 255, 255, 255)).has_value());
  EXPECT_EQ(map.ordinal_of(Ipv4(10, 0, 255, 255)), IpToAsnMap::kUnmapped);
  EXPECT_EQ(map.ordinal_of(Ipv4(10, 1, 2, 3)), 0u);
}

TEST(IpToAsnMap, TopOfTheAddressSpace) {
  const IpToAsnMap map({{parse_prefix("10.0.0.0/8"), 3},
                        {parse_prefix("255.255.255.0/24"), 9},
                        {parse_prefix("255.255.255.255/32"), 4}});
  EXPECT_EQ(map.lookup(Ipv4(255, 255, 255, 255)), 4u);
  EXPECT_EQ(map.lookup(Ipv4(255, 255, 255, 254)), 9u);
  EXPECT_FALSE(map.lookup(Ipv4(9, 255, 255, 255)).has_value());
  EXPECT_FALSE(map.lookup(Ipv4(0u)).has_value());
}

TEST(IpToAsnMap, OrdinalsRankAsesByAsn) {
  // Entered out of order, and AS 5's prefix fully shadowed by AS 8's.
  const IpToAsnMap map({{parse_prefix("10.2.0.0/16"), 30},
                        {parse_prefix("10.1.0.0/16"), 12},
                        {parse_prefix("10.3.0.0/24"), 5},
                        {parse_prefix("10.3.0.0/24"), 5},
                        {parse_prefix("10.3.0.0/25"), 8},
                        {parse_prefix("10.3.0.128/25"), 8}});
  ASSERT_EQ(map.asn_count(), 3u);
  EXPECT_EQ(map.asn_at(0), 8u);
  EXPECT_EQ(map.asn_at(1), 12u);
  EXPECT_EQ(map.asn_at(2), 30u);
  for (const Ipv4 addr : {Ipv4(10, 1, 0, 9), Ipv4(10, 2, 3, 4),
                          Ipv4(10, 3, 0, 200)}) {
    EXPECT_EQ(map.asn_at(map.ordinal_of(addr)), map.lookup(addr));
  }
}

// Property: the sorted-interval LPM agrees with a brute-force longest-match
// scan on random overlapping prefix sets.
class LpmReferenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmReferenceProperty, MatchesBruteForceScan) {
  acbm::stats::Rng rng(GetParam());
  std::vector<std::pair<Prefix, net::Asn>> entries;
  for (int i = 0; i < 60; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.uniform_int(8, 28));
    const auto addr = static_cast<std::uint32_t>(
        rng.uniform_int(0, std::numeric_limits<std::int64_t>::max() & 0xFFFFFFFF));
    entries.emplace_back(Prefix(Ipv4(addr), len),
                         static_cast<net::Asn>(i + 1));
  }
  // Deduplicate identical prefixes (the map rejects conflicting dupes).
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              if (a.first.network.value != b.first.network.value) {
                return a.first.network.value < b.first.network.value;
              }
              return a.first.length < b.first.length;
            });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                entries.end());
  const IpToAsnMap map(entries);

  for (int probe = 0; probe < 500; ++probe) {
    const auto addr = Ipv4(static_cast<std::uint32_t>(
        rng.uniform_int(0, std::numeric_limits<std::int64_t>::max() & 0xFFFFFFFF)));
    // Brute force: longest containing prefix wins.
    std::optional<net::Asn> expected;
    int best_len = -1;
    for (const auto& [prefix, asn] : entries) {
      if (prefix.contains(addr) && static_cast<int>(prefix.length) > best_len) {
        best_len = prefix.length;
        expected = asn;
      }
    }
    EXPECT_EQ(map.lookup(addr), expected)
        << "address " << addr.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmReferenceProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

std::optional<Asn> brute_force_lookup(
    const std::vector<std::pair<Prefix, Asn>>& entries, Ipv4 addr) {
  std::optional<Asn> best;
  int best_len = -1;
  for (const auto& [prefix, asn] : entries) {
    if (prefix.contains(addr) && static_cast<int>(prefix.length) > best_len) {
      best_len = prefix.length;
      best = asn;
    }
  }
  return best;
}

// Differential test against brute-force longest-prefix match on prefix sets
// built to stress the flattened range table: nested chains, adjacent
// siblings, /0, /32 and both ends of the address space, probed at the first
// and last address of every prefix and one address either side.
class LpmDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmDifferential, MatchesBruteForceOnNestedAndAdjacentPrefixes) {
  acbm::stats::Rng rng(GetParam());
  const auto random_addr = [&rng] {
    return static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFFLL));
  };
  std::vector<std::pair<Prefix, Asn>> entries;
  const auto add = [&entries](Prefix prefix) {
    for (const auto& [existing, asn] : entries) {
      if (existing == prefix) return;  // Identical prefixes must agree.
    }
    entries.emplace_back(prefix, static_cast<Asn>(entries.size() + 1));
  };
  if (rng.uniform_int(0, 1) == 1) add(Prefix(Ipv4(0u), 0));
  add(Prefix(Ipv4(0u), 32));
  add(Prefix(Ipv4(0xFFFFFFFFu), 32));
  add(Prefix(Ipv4(0xFFFFFFFFu),
             static_cast<std::uint8_t>(rng.uniform_int(1, 31))));
  add(Prefix(Ipv4(0u), static_cast<std::uint8_t>(rng.uniform_int(1, 31))));
  for (int i = 0; i < 80; ++i) {
    const auto kind = rng.uniform_int(0, 2);
    if (kind == 0 || entries.empty()) {
      add(Prefix(Ipv4(random_addr()),
                 static_cast<std::uint8_t>(rng.uniform_int(1, 32))));
      continue;
    }
    const Prefix& base = entries[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(entries.size()) - 1))].first;
    if (kind == 1 && base.length < 32) {
      // Nested: a longer prefix inside an existing one.
      const auto len = static_cast<std::uint8_t>(
          rng.uniform_int(base.length + 1, 32));
      const std::uint64_t offset = static_cast<std::uint64_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(base.size()) - 1));
      add(Prefix(Ipv4(static_cast<std::uint32_t>(base.network.value + offset)),
                 len));
    } else if (base.length > 0) {
      // Adjacent: the sibling block of the same length.
      const std::uint32_t flip = std::uint32_t{1} << (32 - base.length);
      add(Prefix(Ipv4(base.network.value ^ flip), base.length));
    }
  }
  const IpToAsnMap map(entries);

  std::vector<std::uint32_t> probes = {0u, 1u, 0x7FFFFFFFu, 0x80000000u,
                                       0xFFFFFFFEu, 0xFFFFFFFFu};
  for (const auto& [prefix, asn] : entries) {
    for (const std::uint32_t edge : {prefix.first().value, prefix.last().value}) {
      probes.push_back(edge);
      probes.push_back(edge - 1);  // Wraps at 0 to the top of the space.
      probes.push_back(edge + 1);
    }
  }
  for (int i = 0; i < 500; ++i) probes.push_back(random_addr());
  for (const std::uint32_t probe : probes) {
    EXPECT_EQ(map.lookup(Ipv4(probe)), brute_force_lookup(entries, Ipv4(probe)))
        << "address " << Ipv4(probe).to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmDifferential,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(AllocateAddressSpace, RejectsBadOptions) {
  acbm::stats::Rng rng(9);
  AsGraph g;
  g.add_peering(1, 2);
  AllocationOptions opts;
  opts.prefix_length = 31;
  EXPECT_THROW((void)allocate_address_space(g, opts, rng),
               std::invalid_argument);
  opts.prefix_length = 20;
  opts.max_blocks_per_as = 0;
  EXPECT_THROW((void)allocate_address_space(g, opts, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace acbm::net
