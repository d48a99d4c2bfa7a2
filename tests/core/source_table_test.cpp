// SourceTable: every attack's row must equal a brute-force std::map tally of
// IpToAsnMap::lookup over its bots (ascending ASN, unmapped bots dropped),
// on random worlds with nested prefixes, unmapped bots and zero-bot
// attacks; the table must be identical at any thread count; and the three
// readers (A^s, the spatial tracked-AS tally, the direct family
// extraction) must agree with the table they read.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/features.h"
#include "core/parallel.h"
#include "net/ip_space.h"
#include "stats/rng.h"
#include "trace/dataset.h"

namespace acbm::core {
namespace {

struct RandomWorld {
  net::IpToAsnMap ip_map;
  trace::Dataset dataset;
};

/// Nested and disjoint prefixes inside 10.0.0.0/8, and attacks whose bots
/// fall inside and outside them (about a third unmapped); every tenth
/// attack has no bot at all.
RandomWorld random_world(std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<std::pair<net::Prefix, net::Asn>> entries;
  for (int i = 0; i < 40; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.uniform_int(12, 24));
    const auto addr = static_cast<std::uint32_t>(
        0x0A000000u | static_cast<std::uint32_t>(
                          rng.uniform_int(0, 0x00FFFFFF)));
    const net::Prefix prefix(net::Ipv4(addr), len);
    bool duplicate = false;
    for (const auto& [existing, asn] : entries) duplicate |= existing == prefix;
    if (duplicate) continue;
    // Few ASNs, so an AS often owns several (and nested) prefixes.
    entries.emplace_back(prefix,
                         static_cast<net::Asn>(rng.uniform_int(100, 115)));
  }
  RandomWorld world;
  world.ip_map = net::IpToAsnMap(entries);

  std::vector<trace::Attack> attacks;
  for (std::size_t i = 0; i < 700; ++i) {
    trace::Attack attack;
    attack.id = i;
    attack.family = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
    attack.target_asn = static_cast<net::Asn>(rng.uniform_int(1, 4));
    attack.start = static_cast<trace::EpochSeconds>(1000 + 60 * i);
    attack.duration_s = 30.0;
    const auto bots = i % 10 == 0 ? 0 : rng.uniform_int(1, 300);
    for (std::int64_t b = 0; b < bots; ++b) {
      const std::uint32_t addr =
          rng.uniform_int(0, 2) == 0
              ? static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFFLL))
              : static_cast<std::uint32_t>(
                    0x0A000000u | static_cast<std::uint32_t>(
                                      rng.uniform_int(0, 0x00FFFFFF)));
      attack.bots.emplace_back(addr);
    }
    attacks.push_back(std::move(attack));
  }
  world.dataset = trace::Dataset({"A", "B", "C"}, std::move(attacks), {}, 0);
  return world;
}

std::map<net::Asn, std::uint32_t> brute_force_tally(
    const trace::Attack& attack, const net::IpToAsnMap& ip_map) {
  std::map<net::Asn, std::uint32_t> tally;
  for (const net::Ipv4& bot : attack.bots) {
    if (const auto asn = ip_map.lookup(bot)) ++tally[*asn];
  }
  return tally;
}

void expect_row_matches(const AttackSources& row,
                        const std::map<net::Asn, std::uint32_t>& expected,
                        std::size_t attack) {
  ASSERT_EQ(row.asns.size(), expected.size()) << "attack " << attack;
  ASSERT_EQ(row.bots.size(), expected.size()) << "attack " << attack;
  std::uint32_t total = 0;
  std::size_t i = 0;
  for (const auto& [asn, bots] : expected) {
    EXPECT_EQ(row.asns[i], asn) << "attack " << attack << " entry " << i;
    EXPECT_EQ(row.bots[i], bots) << "attack " << attack << " entry " << i;
    total += bots;
    ++i;
  }
  EXPECT_EQ(row.total, total) << "attack " << attack;
}

class SourceTableProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void TearDown() override { set_num_threads(0); }
};

TEST_P(SourceTableProperty, MatchesBruteForceTally) {
  const RandomWorld world = random_world(GetParam());
  const SourceTable table(world.dataset, world.ip_map);
  ASSERT_EQ(table.size(), world.dataset.size());
  std::size_t unmapped_attacks = 0;
  for (std::size_t i = 0; i < world.dataset.size(); ++i) {
    const auto expected =
        brute_force_tally(world.dataset.attacks()[i], world.ip_map);
    unmapped_attacks += expected.empty() ? 1 : 0;
    expect_row_matches(table[i], expected, i);
  }
  EXPECT_GT(unmapped_attacks, 0u);  // The zero-bot attacks at least.
}

TEST_P(SourceTableProperty, SubsetResolvesOnlyTheListedAttacks) {
  const RandomWorld world = random_world(GetParam());
  const std::vector<std::size_t> family = world.dataset.attacks_of_family(1);
  const SourceTable table(world.dataset, world.ip_map, family);
  ASSERT_EQ(table.size(), world.dataset.size());
  for (std::size_t i = 0; i < world.dataset.size(); ++i) {
    const bool listed = world.dataset.attacks()[i].family == 1;
    const auto expected =
        listed ? brute_force_tally(world.dataset.attacks()[i], world.ip_map)
               : std::map<net::Asn, std::uint32_t>{};
    expect_row_matches(table[i], expected, i);
  }
}

TEST_P(SourceTableProperty, IdenticalAtAnyThreadCount) {
  const RandomWorld world = random_world(GetParam());
  const auto flatten = [&world] {
    const SourceTable table(world.dataset, world.ip_map);
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < table.size(); ++i) {
      const AttackSources row = table[i];
      out.push_back(static_cast<std::uint32_t>(row.asns.size()));
      out.push_back(row.total);
      out.insert(out.end(), row.asns.begin(), row.asns.end());
      out.insert(out.end(), row.bots.begin(), row.bots.end());
    }
    return out;
  };
  set_num_threads(1);
  const std::vector<std::uint32_t> serial = flatten();
  for (const std::size_t threads : {3u, 8u}) {
    set_num_threads(threads);
    EXPECT_EQ(flatten(), serial) << threads << " threads";
  }
}

TEST_P(SourceTableProperty, CoefficientReadsTheRowItResolves) {
  // The single-attack A^s resolves through the same routine as the table,
  // so both overloads agree bit for bit.
  const RandomWorld world = random_world(GetParam());
  const SourceTable table(world.dataset, world.ip_map);
  for (std::size_t i = 0; i < world.dataset.size(); ++i) {
    const double direct = source_distribution_coefficient(
        world.dataset.attacks()[i], world.ip_map, nullptr);
    const double from_table =
        source_distribution_coefficient(table[i], world.ip_map, nullptr);
    EXPECT_EQ(direct, from_table) << "attack " << i;
  }
  for (std::uint32_t f = 0; f < 3; ++f) {
    const FamilySeries direct =
        extract_family_series(world.dataset, f, world.ip_map, nullptr);
    const FamilySeries shared = extract_family_series(
        world.dataset, f, table, world.ip_map, nullptr);
    EXPECT_EQ(direct.source_coeff, shared.source_coeff) << "family " << f;
  }
}

TEST_P(SourceTableProperty, SharesMatchSourceAsnDistribution) {
  // The packed distributions and the spatial tally read AttackSources::
  // share; it must equal source_asn_distribution's share bit for bit.
  const RandomWorld world = random_world(GetParam());
  const SourceTable table(world.dataset, world.ip_map);
  for (std::size_t i = 0; i < world.dataset.size(); ++i) {
    const auto dist =
        source_asn_distribution(world.dataset.attacks()[i], world.ip_map);
    const AttackSources row = table[i];
    ASSERT_EQ(row.asns.size(), dist.size()) << "attack " << i;
    for (std::size_t k = 0; k < row.asns.size(); ++k) {
      EXPECT_EQ(row.share(k), dist.at(row.asns[k])) << "attack " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SourceTableProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(SourceTable, EmptyDatasetAndEmptyMap) {
  const trace::Dataset empty;
  const net::IpToAsnMap no_prefixes;
  EXPECT_EQ(SourceTable(empty, no_prefixes).size(), 0u);

  const RandomWorld world = random_world(9);
  const SourceTable table(world.dataset, no_prefixes);
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_TRUE(table[i].asns.empty());
    EXPECT_EQ(table[i].total, 0u);
    EXPECT_EQ(source_distribution_coefficient(table[i], no_prefixes, nullptr),
              0.0);
  }
}

TEST(SourceTable, SaturatedRowWithUnmappedBots) {
  // A one-AS map: once an attack has touched the AS and an unmapped bot,
  // every ordinal and the sentinel are taken, and each further bot must
  // still land inside the counter (run under ASan, this overflowed).
  const net::IpToAsnMap one_as(std::vector<std::pair<net::Prefix, net::Asn>>{
      {net::Prefix(net::Ipv4(0x0A000000u), 8), 64500}});
  const net::Ipv4 mapped(0x0A000001u);
  const net::Ipv4 unmapped(0xC0A80001u);
  std::vector<trace::Attack> attacks(3);
  attacks[0].bots = {mapped, unmapped, mapped};
  attacks[1].bots = {unmapped, mapped, unmapped, mapped, mapped};
  attacks[2].bots = {unmapped, unmapped, unmapped};
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    attacks[i].id = i;
    attacks[i].start = static_cast<trace::EpochSeconds>(1000 + 60 * i);
  }
  const trace::Dataset dataset({"A"}, std::move(attacks), {}, 0);
  const SourceTable table(dataset, one_as);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    expect_row_matches(table[i], brute_force_tally(dataset.attacks()[i], one_as),
                       i);
    EXPECT_EQ(source_distribution_coefficient(dataset.attacks()[i], one_as,
                                              nullptr),
              source_distribution_coefficient(table[i], one_as, nullptr));
  }
  EXPECT_EQ(table[0].total, 2u);
  EXPECT_EQ(table[1].total, 3u);
  EXPECT_EQ(table[2].total, 0u);
}

}  // namespace
}  // namespace acbm::core
