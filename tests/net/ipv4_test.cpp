#include "net/ipv4.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "net/ipv4_dispatch.h"

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

// --- The dispatched parser against the scalar loop (label simd) ----------

/// Every parser this build and CPU can run besides the scalar reference:
/// the one parse_ipv4_prefix dispatches to (the scalar loop itself under
/// ACBM_SIMD=off or -DACBM_DISABLE_SIMD=ON), and the SSSE3 path called
/// directly whenever the CPU has it.
std::vector<detail::ParseIpv4Fn> parsers_under_test() {
  std::vector<detail::ParseIpv4Fn> parsers = {&parse_ipv4_prefix};
#if defined(__x86_64__) || defined(_M_X64)
  if (detail::parse_ipv4_prefix_ssse3() != nullptr &&
      __builtin_cpu_supports("ssse3")) {
    parsers.push_back(detail::parse_ipv4_prefix_ssse3());
  }
#endif
  return parsers;
}

/// Parses `text` with `parser` and the scalar loop; both must consume the
/// same length and, when they parse, store the same address (and leave a
/// sentinel alone when they do not).
::testing::AssertionResult same_as_scalar(detail::ParseIpv4Fn parser,
                                          std::string_view text) {
  Ipv4 got(0xDEADBEEFu);
  Ipv4 want(0xDEADBEEFu);
  const std::size_t got_n = parser(text, got);
  const std::size_t want_n = detail::parse_ipv4_prefix_scalar(text, want);
  if (got_n == want_n && got == want) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "'" << text << "' (" << text.size() << " bytes): got " << got_n
         << " " << got.to_string() << ", scalar " << want_n << " "
         << want.to_string();
}

TEST(Ipv4Simd, ParsersAgreeWithScalarOnEdgeCases) {
  const std::string pad = ";10.20.30.40;1.2.3.4";  // Makes views >= 16 bytes.
  const std::vector<std::string> addresses = {
      "0.0.0.0",         "255.255.255.255", "1.2.3.4",
      "192.168.100.200", "001.002.003.004", "000.000.000.000",
      "010.0.0.0001",    "0001.2.3.4",      "1.2.3.0255",
      "1.2.3.1000",      "256.1.1.1",       "1.256.1.1",
      "1.1.256.1",       "1.1.1.256",       "999.999.999.999",
      "300.2.3.4",       "1..2.3",          ".1.2.3.4",
      "1.2.3",           "1.2.3.",          "1.2.3.4.5",
      "a.b.c.d",         "1.2.3.-4",        "+1.2.3.4",
      "12.34.56.78",     "100.10.1.0",      "1.22.333.44",
      "1.2.3.4/24",      "1.2.3;4.5.6.7",   "12,34.56.78"};
  for (const detail::ParseIpv4Fn parser : parsers_under_test()) {
    for (const std::string& address : addresses) {
      EXPECT_TRUE(same_as_scalar(parser, address));  // Short, at the end.
      for (const char end : {';', ',', '\n'}) {
        const std::string text = address + end + pad;
        EXPECT_TRUE(same_as_scalar(parser, text));
        // Every view length, from empty to the whole text: views shorter
        // than 16 bytes and addresses ending exactly where the view does.
        for (std::size_t n = 0; n <= text.size(); ++n) {
          EXPECT_TRUE(same_as_scalar(parser, std::string_view(text).substr(0, n)));
        }
      }
    }
  }
  // A 15-character address followed by its delimiter fills the load.
  Ipv4 out;
  const std::string full = "255.255.255.255;" + pad;
  ASSERT_GE(full.size(), 16u);
  EXPECT_EQ(parse_ipv4_prefix(full, out), 15u);
  EXPECT_EQ(out, Ipv4(255, 255, 255, 255));
}

TEST(Ipv4Simd, ParsersAgreeWithScalarOnTenMillionFuzzedViews) {
  // A buffer of address-like runs: four octets of mostly 1-3 digits (now
  // and then none or four, leading zeros included, values mostly up to 255)
  // joined mostly by dots, each run ended by a separator. Views start at a
  // run three times in four, anywhere otherwise, and run 0-32 bytes.
  std::mt19937_64 rng(20171);
  std::string buffer;
  std::vector<std::size_t> starts;
  const std::string separators = ";,\n.x/- ";
  while (buffer.size() < (std::size_t{1} << 20)) {
    starts.push_back(buffer.size());
    for (int octet = 0; octet < 4; ++octet) {
      const std::uint64_t r = rng();
      const std::size_t digits = r % 16 == 0 ? (r >> 4) % 2 * 4 : 1 + (r >> 4) % 3;
      const std::string value =
          std::to_string((r >> 8) % (r % 8 == 1 ? 10000 : 256));
      for (std::size_t d = 0; d < digits; ++d) {
        buffer += d + value.size() < digits ? '0'
                                            : value[value.size() - digits + d];
      }
      if (octet < 3) buffer += (r >> 32) % 32 == 0 ? ',' : '.';
    }
    buffer += separators[rng() % separators.size()];
  }
  buffer += std::string(32, ';');
  const std::string_view text(buffer);
  constexpr std::size_t kViews = 10'000'000;
  for (const detail::ParseIpv4Fn parser : parsers_under_test()) {
    std::size_t mismatches = 0;
    std::size_t parsed = 0;
    for (std::size_t i = 0; i < kViews; ++i) {
      const std::uint64_t r = rng();
      const std::size_t at = r % 4 != 0 ? starts[(r >> 2) % starts.size()]
                                        : (r >> 2) % (text.size() - 32);
      const std::string_view view = text.substr(at, (r >> 32) % 33);
      Ipv4 got(0xDEADBEEFu);
      Ipv4 want(0xDEADBEEFu);
      const std::size_t got_n = parser(view, got);
      const std::size_t want_n = detail::parse_ipv4_prefix_scalar(view, want);
      parsed += want_n != 0 ? 1 : 0;
      if (got_n != want_n || got != want) {
        if (++mismatches <= 5) ADD_FAILURE() << same_as_scalar(parser, view).message();
      }
    }
    EXPECT_EQ(mismatches, 0u);
    // The fuzz reaches the vector path: a good share of views parse.
    EXPECT_GT(parsed, kViews / 4);
  }
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
