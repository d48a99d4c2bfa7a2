// Byte-for-byte comparison of whole files, model bodies and log bytes in
// tests. A failure reports both sizes and the first differing offset,
// never the contents: gtest's EXPECT_EQ on two strings builds a line-by-line
// edit-distance diff, quadratic in the line count, which on two differing
// multi-megabyte bodies can exhaust the machine's memory.
//
//   EXPECT_TRUE(same_bytes(durable::read_file(path), expected));
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string_view>

namespace acbm::test {

inline ::testing::AssertionResult same_bytes(std::string_view actual,
                                             std::string_view expected) {
  if (actual == expected) return ::testing::AssertionSuccess();
  const std::size_t common = std::min(actual.size(), expected.size());
  const auto first =
      static_cast<std::size_t>(std::mismatch(actual.begin(),
                                             actual.begin() + common,
                                             expected.begin())
                                   .first -
                               actual.begin());
  ::testing::AssertionResult result = ::testing::AssertionFailure();
  result << "byte strings differ: sizes " << actual.size() << " and "
         << expected.size() << ", first difference at offset " << first;
  if (first < common) {
    result << " (0x" << std::hex
           << static_cast<unsigned>(static_cast<unsigned char>(actual[first]))
           << " vs 0x"
           << static_cast<unsigned>(static_cast<unsigned char>(expected[first]))
           << ")";
  }
  return result;
}

}  // namespace acbm::test
