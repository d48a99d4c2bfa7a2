// SSSE3 dotted-quad parser: one 16-byte load covers the longest address
// ("255.255.255.255") plus the byte after it. Digit and dot masks give the
// four octet lengths; the lengths key a pshufb table that lines every
// octet's digits up in its own 32-bit lane as {0, hundreds, tens, ones};
// pmaddubsw by {0, 100, 10, 1} and pmaddwd by 1 turn each lane into its
// octet value, and one compare checks all four against 255. Built only for
// x86-64, with -mssse3 (see src/net/CMakeLists.txt); only selected after
// __builtin_cpu_supports("ssse3") passes at runtime.
//
// Only text of at least 16 bytes whose octets all have 1-3 digits, each at
// most 255, takes the vector path. Everything else (short views, leading
// zeros past three digits, out-of-range or malformed octets) goes to the
// scalar loop, so the grammar and the values are the scalar loop's.
#include "net/ipv4_dispatch.h"

#include <tmmintrin.h>

#include <array>
#include <cstdint>

namespace acbm::net::detail {
namespace {

/// Shuffle rows keyed by (l0-1)*27 + (l1-1)*9 + (l2-1)*3 + (l3-1), the four
/// octet lengths in 1..3. Row byte 4k+j is the text position of octet k's
/// digit for lane byte j ({pad, hundreds, tens, ones}); 0x80 makes pshufb
/// write a zero, so missing high digits count as 0.
using ShuffleRow = std::array<std::uint8_t, 16>;

constexpr std::array<ShuffleRow, 81> make_shuffle_table() {
  std::array<ShuffleRow, 81> table{};
  for (int key = 0; key < 81; ++key) {
    const int lengths[4] = {key / 27 + 1, key / 9 % 3 + 1, key / 3 % 3 + 1,
                            key % 3 + 1};
    ShuffleRow& row = table[static_cast<std::size_t>(key)];
    for (std::uint8_t& b : row) b = 0x80;
    int start = 0;
    for (int k = 0; k < 4; ++k) {
      for (int d = 0; d < lengths[k]; ++d) {
        row[static_cast<std::size_t>(4 * k + 3 - d)] =
            static_cast<std::uint8_t>(start + lengths[k] - 1 - d);
      }
      start += lengths[k] + 1;
    }
  }
  return table;
}

alignas(16) constexpr std::array<ShuffleRow, 81> kShuffle =
    make_shuffle_table();

std::size_t parse_ssse3(std::string_view text, Ipv4& out) noexcept {
  if (text.size() < 16) return parse_ipv4_prefix_scalar(text, out);
  const __m128i bytes =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(text.data()));
  const __m128i digits = _mm_sub_epi8(bytes, _mm_set1_epi8('0'));
  // A byte is a digit when its offset from '0', unsigned, is at most 9:
  // adding 118 with unsigned saturation sets the top bit of every other.
  const auto non_digit_mask = static_cast<std::uint32_t>(
      _mm_movemask_epi8(_mm_adds_epu8(digits, _mm_set1_epi8(118))));
  const auto dot_mask = static_cast<std::uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, _mm_set1_epi8('.'))));

  // The first four non-digits end the octets; bit 16 stands in for the
  // byte past the load, which makes the last octet too long to accept.
  std::uint32_t ends = non_digit_mask | 0x10000U;
  const unsigned e0 = static_cast<unsigned>(__builtin_ctz(ends));
  ends &= ends - 1;
  const unsigned e1 = static_cast<unsigned>(__builtin_ctz(ends));
  ends &= ends - 1;
  const unsigned e2 = static_cast<unsigned>(__builtin_ctz(ends));
  ends &= ends - 1;
  const unsigned e3 = static_cast<unsigned>(__builtin_ctz(ends));
  // Octet lengths minus one: each must be 0..2 (unsigned wrap catches 0).
  const unsigned l0 = e0 - 1;
  const unsigned l1 = e1 - e0 - 2;
  const unsigned l2 = e2 - e1 - 2;
  const unsigned l3 = e3 - e2 - 2;
  const bool dots = ((dot_mask >> e0) & (dot_mask >> e1) & (dot_mask >> e2) &
                     1U) != 0;
  if (l0 > 2 || l1 > 2 || l2 > 2 || l3 > 2 || !dots) {
    return parse_ipv4_prefix_scalar(text, out);
  }

  const __m128i shuffle = _mm_load_si128(
      reinterpret_cast<const __m128i*>(kShuffle[l0 * 27 + l1 * 9 + l2 * 3 + l3]
                                           .data()));
  const __m128i lanes = _mm_shuffle_epi8(digits, shuffle);
  const __m128i pairs = _mm_maddubs_epi16(
      lanes, _mm_setr_epi8(0, 100, 10, 1, 0, 100, 10, 1, 0, 100, 10, 1, 0,
                           100, 10, 1));
  const __m128i octets = _mm_madd_epi16(pairs, _mm_set1_epi16(1));
  if (_mm_movemask_epi8(_mm_cmpgt_epi32(octets, _mm_set1_epi32(255))) != 0) {
    return parse_ipv4_prefix_scalar(text, out);
  }
  // Lane 0 holds the first octet, the address's most significant byte.
  const __m128i packed = _mm_shuffle_epi8(
      octets, _mm_setr_epi8(12, 8, 4, 0, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                            -1, -1, -1));
  out = Ipv4(static_cast<std::uint32_t>(_mm_cvtsi128_si32(packed)));
  return e3;
}

}  // namespace

ParseIpv4Fn parse_ipv4_prefix_ssse3() noexcept { return &parse_ssse3; }

}  // namespace acbm::net::detail
