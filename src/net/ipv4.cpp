#include "net/ipv4.h"

#include <array>
#include <charconv>
#include <cstring>
#include <stdexcept>

#include "net/ipv4_dispatch.h"
#include "stats/kernels.h"

namespace acbm::net {

namespace {

/// The decimal text of every octet, left-aligned in three characters.
struct OctetText {
  char digits[3];
  std::uint8_t size;
};

constexpr std::array<OctetText, 256> make_octet_table() {
  std::array<OctetText, 256> table{};
  for (unsigned v = 0; v < 256; ++v) {
    OctetText& t = table[v];
    t.size = v >= 100 ? 3 : v >= 10 ? 2 : 1;
    unsigned rest = v;
    for (int i = t.size - 1; i >= 0; --i) {
      t.digits[i] = static_cast<char>('0' + rest % 10);
      rest /= 10;
    }
  }
  return table;
}

constexpr std::array<OctetText, 256> kOctetText = make_octet_table();

}  // namespace

char* format_ipv4(char* out, Ipv4 addr) noexcept {
  // Each octet copies all three table characters and advances by its
  // length; the spare characters are overwritten by what follows, and the
  // last octet starts at most 12 characters in, so nothing lands past
  // kMaxIpv4Chars.
  for (int shift = 24; shift >= 0; shift -= 8) {
    const OctetText& text = kOctetText[(addr.value >> shift) & 0xFF];
    std::memcpy(out, text.digits, 3);
    out += text.size;
    if (shift > 0) *out++ = '.';
  }
  return out;
}

std::string Ipv4::to_string() const {
  char buf[kMaxIpv4Chars];
  return std::string(buf, format_ipv4(buf, *this));
}

namespace detail {

std::size_t parse_ipv4_prefix_scalar(std::string_view text,
                                     Ipv4& out) noexcept {
  // This digit loop is faster than one from_chars per octet. Grammar: 1+
  // decimal digits per octet (leading zeros allowed), each at most 255.
  std::uint32_t value = 0;
  const char* ptr = text.data();
  const char* const end = text.data() + text.size();
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (ptr == end || *ptr != '.') return 0;
      ++ptr;
    }
    const char* const first = ptr;
    std::uint32_t part = 0;
    for (; ptr != end && *ptr >= '0' && *ptr <= '9'; ++ptr) {
      part = part * 10 + static_cast<std::uint32_t>(*ptr - '0');
      if (part > 255) return 0;
    }
    if (ptr == first) return 0;
    value = (value << 8) | part;
  }
  out = Ipv4(value);
  return static_cast<std::size_t>(ptr - text.data());
}

#if !defined(ACBM_HAVE_IPV4_SSSE3_TU)
// ipv4_ssse3.cpp is not part of this build.
ParseIpv4Fn parse_ipv4_prefix_ssse3() noexcept { return nullptr; }
#endif

ParseIpv4Fn active_ipv4_parser() noexcept {
  static const ParseIpv4Fn parser = []() -> ParseIpv4Fn {
#if defined(ACBM_HAVE_IPV4_SSSE3_TU)
    if (stats::active_isa() != stats::SimdIsa::kScalar &&
        __builtin_cpu_supports("ssse3")) {
      return parse_ipv4_prefix_ssse3();
    }
#endif
    return &parse_ipv4_prefix_scalar;
  }();
  return parser;
}

}  // namespace detail

std::size_t parse_ipv4_prefix(std::string_view text, Ipv4& out) noexcept {
  // The dataset reader parses every bot address through here.
  return detail::active_ipv4_parser()(text, out);
}

Ipv4 parse_ipv4(std::string_view text) {
  Ipv4 out;
  const std::size_t used = parse_ipv4_prefix(text, out);
  if (used == 0) throw std::invalid_argument("parse_ipv4: malformed address");
  if (used != text.size()) {
    throw std::invalid_argument("parse_ipv4: trailing characters");
  }
  return out;
}

Prefix::Prefix(Ipv4 net, std::uint8_t len) : length(len) {
  if (len > 32) throw std::invalid_argument("Prefix: length > 32");
  const std::uint32_t mask =
      len == 0 ? 0 : (~std::uint32_t{0} << (32 - len));
  network = Ipv4(net.value & mask);
}

bool Prefix::contains(Ipv4 addr) const noexcept {
  const std::uint32_t mask =
      length == 0 ? 0 : (~std::uint32_t{0} << (32 - length));
  return (addr.value & mask) == network.value;
}

Ipv4 Prefix::last() const noexcept {
  const std::uint32_t host_bits =
      length == 32 ? 0 : (~std::uint32_t{0} >> length);
  return Ipv4(network.value | host_bits);
}

std::string Prefix::to_string() const {
  return network.to_string() + "/" + std::to_string(length);
}

Prefix parse_prefix(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) {
    throw std::invalid_argument("parse_prefix: missing '/'");
  }
  const Ipv4 net = parse_ipv4(text.substr(0, slash));
  const std::string_view len_text = text.substr(slash + 1);
  unsigned int len = 0;
  const auto [next, ec] =
      std::from_chars(len_text.data(), len_text.data() + len_text.size(), len);
  if (ec != std::errc{} || len > 32 ||
      next != len_text.data() + len_text.size()) {
    throw std::invalid_argument("parse_prefix: malformed length");
  }
  return Prefix(net, static_cast<std::uint8_t>(len));
}

}  // namespace acbm::net
