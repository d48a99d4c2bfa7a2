#include "net/ipv4.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace acbm::net {
namespace {

TEST(Ipv4, OctetConstructorAndToString) {
  const Ipv4 addr(192, 0, 2, 1);
  EXPECT_EQ(addr.value, 0xC0000201u);
  EXPECT_EQ(addr.to_string(), "192.0.2.1");
}

TEST(Ipv4, ParseRoundTrip) {
  for (const char* text : {"0.0.0.0", "255.255.255.255", "10.1.2.3",
                           "172.16.254.1"}) {
    EXPECT_EQ(parse_ipv4(text).to_string(), text);
  }
}

TEST(Ipv4, ParseRejectsMalformed) {
  EXPECT_THROW((void)parse_ipv4("256.0.0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_ipv4("1.2.3"), std::invalid_argument);
  EXPECT_THROW((void)parse_ipv4("1.2.3.4.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_ipv4("a.b.c.d"), std::invalid_argument);
  EXPECT_THROW((void)parse_ipv4(""), std::invalid_argument);
  EXPECT_THROW((void)parse_ipv4("1..2.3"), std::invalid_argument);
}

TEST(Ipv4, ParseKeepsLeadingZerosAndRejectsSigns) {
  EXPECT_EQ(parse_ipv4("010.0.0.0001"), Ipv4(10, 0, 0, 1));
  EXPECT_THROW((void)parse_ipv4("0000256.0.0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_ipv4("+1.2.3.4"), std::invalid_argument);
  EXPECT_THROW((void)parse_ipv4("1.2.3.-4"), std::invalid_argument);
  EXPECT_THROW((void)parse_ipv4("1.2.3.4 "), std::invalid_argument);
}

TEST(Ipv4, ParsePrefixStopsAfterTheFourthOctet) {
  Ipv4 out;
  EXPECT_EQ(parse_ipv4_prefix("10.1.2.34;10.1.2.5", out), 9u);
  EXPECT_EQ(out, Ipv4(10, 1, 2, 34));
  EXPECT_EQ(parse_ipv4_prefix("1.2.3.4.5", out), 7u);
  EXPECT_EQ(out, Ipv4(1, 2, 3, 4));
  // No dotted quad at the start: 0, and `out` is left alone.
  EXPECT_EQ(parse_ipv4_prefix(";1.2.3.4", out), 0u);
  EXPECT_EQ(parse_ipv4_prefix("1.2.3", out), 0u);
  EXPECT_EQ(parse_ipv4_prefix("1.2.3.256", out), 0u);
  EXPECT_EQ(out, Ipv4(1, 2, 3, 4));
}

TEST(Ipv4, Ordering) {
  EXPECT_LT(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2));
  EXPECT_LT(Ipv4(9, 255, 255, 255), Ipv4(10, 0, 0, 0));
}

TEST(Prefix, CanonicalizesHostBits) {
  const Prefix p(Ipv4(10, 1, 2, 3), 16);
  EXPECT_EQ(p.network, Ipv4(10, 1, 0, 0));
  EXPECT_EQ(p.to_string(), "10.1.0.0/16");
}

TEST(Prefix, ContainsBoundaries) {
  const Prefix p(Ipv4(10, 1, 0, 0), 16);
  EXPECT_TRUE(p.contains(Ipv4(10, 1, 0, 0)));
  EXPECT_TRUE(p.contains(Ipv4(10, 1, 255, 255)));
  EXPECT_FALSE(p.contains(Ipv4(10, 2, 0, 0)));
  EXPECT_FALSE(p.contains(Ipv4(10, 0, 255, 255)));
}

TEST(Prefix, FirstLastSize) {
  const Prefix p(Ipv4(192, 168, 4, 0), 22);
  EXPECT_EQ(p.first(), Ipv4(192, 168, 4, 0));
  EXPECT_EQ(p.last(), Ipv4(192, 168, 7, 255));
  EXPECT_EQ(p.size(), 1024u);
}

TEST(Prefix, SlashZeroCoversEverything) {
  const Prefix p(Ipv4(1, 2, 3, 4), 0);
  EXPECT_TRUE(p.contains(Ipv4(0, 0, 0, 0)));
  EXPECT_TRUE(p.contains(Ipv4(255, 255, 255, 255)));
  EXPECT_EQ(p.size(), std::uint64_t{1} << 32);
}

TEST(Prefix, SlashThirtyTwoIsSingleHost) {
  const Prefix p(Ipv4(10, 0, 0, 7), 32);
  EXPECT_TRUE(p.contains(Ipv4(10, 0, 0, 7)));
  EXPECT_FALSE(p.contains(Ipv4(10, 0, 0, 8)));
  EXPECT_EQ(p.size(), 1u);
}

TEST(Prefix, RejectsBadLength) {
  EXPECT_THROW(Prefix(Ipv4(1, 2, 3, 4), 33), std::invalid_argument);
}

TEST(Prefix, ParsePrefix) {
  const Prefix p = parse_prefix("10.20.0.0/14");
  EXPECT_EQ(p.length, 14);
  EXPECT_EQ(p.network, Ipv4(10, 20, 0, 0));
  EXPECT_THROW((void)parse_prefix("10.0.0.0"), std::invalid_argument);
  EXPECT_THROW((void)parse_prefix("10.0.0.0/33"), std::invalid_argument);
  EXPECT_THROW((void)parse_prefix("10.0.0.0/xx"), std::invalid_argument);
}

}  // namespace
}  // namespace acbm::net
