// IPv4 address representation and parsing. Bot source addresses in the trace
// are IPv4; the IP->ASN mapper (ip_space.h) works on this representation.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace acbm::net {

/// An IPv4 address as a host-order 32-bit integer with value semantics.
struct Ipv4 {
  std::uint32_t value = 0;

  constexpr Ipv4() = default;
  constexpr explicit Ipv4(std::uint32_t v) : value(v) {}
  constexpr Ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
              (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  auto operator<=>(const Ipv4&) const = default;

  [[nodiscard]] std::string to_string() const;
};

/// Longest dotted quad: "255.255.255.255".
inline constexpr std::size_t kMaxIpv4Chars = 15;

/// Writes the dotted quad of `addr` at `out` (at most kMaxIpv4Chars
/// characters, no terminator) and returns the end of what was written.
/// Ipv4::to_string and the dataset CSV writer both format through here.
char* format_ipv4(char* out, Ipv4 addr) noexcept;

/// Parses dotted-quad notation ("192.0.2.1").
/// Throws std::invalid_argument on malformed input.
[[nodiscard]] Ipv4 parse_ipv4(std::string_view text);

/// The dotted quad that starts `text`, for readers that scan a delimited
/// list in place: stores it in `out` and returns the number of characters
/// consumed, or 0 (leaving `out` alone) when `text` does not start with
/// one. parse_ipv4 is this plus a check that all of `text` was consumed.
/// On x86-64 with SSSE3, a view of at least 16 bytes whose octets have 1-3
/// digits is parsed with one vector load (ipv4_ssse3.cpp); every other
/// input takes the scalar loop, so results do not depend on the path.
/// ACBM_SIMD=off or -DACBM_DISABLE_SIMD=ON keep the scalar loop.
std::size_t parse_ipv4_prefix(std::string_view text, Ipv4& out) noexcept;

/// A CIDR prefix (network address + length). The network address is
/// canonicalized (host bits zeroed) on construction.
struct Prefix {
  Ipv4 network;
  std::uint8_t length = 0;

  Prefix() = default;

  /// Throws std::invalid_argument if length > 32.
  Prefix(Ipv4 net, std::uint8_t len);

  [[nodiscard]] bool contains(Ipv4 addr) const noexcept;
  [[nodiscard]] Ipv4 first() const noexcept { return network; }
  [[nodiscard]] Ipv4 last() const noexcept;
  [[nodiscard]] std::uint64_t size() const noexcept {
    return std::uint64_t{1} << (32 - length);
  }
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Prefix&, const Prefix&) = default;
};

/// Parses "a.b.c.d/len". Throws std::invalid_argument on malformed input.
[[nodiscard]] Prefix parse_prefix(std::string_view text);

}  // namespace acbm::net
