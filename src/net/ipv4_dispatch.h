// Internal dispatch plumbing for the dotted-quad parser: the scalar
// reference loop lives in ipv4.cpp, the SSSE3 fast path in ipv4_ssse3.cpp
// (compiled with per-file arch flags) — same pattern as
// stats/kernels_dispatch.h and core/durable_dispatch.h. Not part of the
// public API; include net/ipv4.h instead. Tests and benches include it to
// compare the paths.
#pragma once

#include <cstddef>
#include <string_view>

#include "net/ipv4.h"

namespace acbm::net::detail {

/// Signature shared by every parse_ipv4_prefix implementation.
using ParseIpv4Fn = std::size_t (*)(std::string_view text,
                                    Ipv4& out) noexcept;

/// The scalar reference: one digit at a time, the grammar parse_ipv4_prefix
/// documents. Every fast path hands it whatever it does not handle itself.
std::size_t parse_ipv4_prefix_scalar(std::string_view text,
                                     Ipv4& out) noexcept;

/// The SSSE3 path, or null when its TU is not built for this target. The
/// caller also probes the CPU before calling it.
[[nodiscard]] ParseIpv4Fn parse_ipv4_prefix_ssse3() noexcept;

/// The implementation parse_ipv4_prefix runs in this process, chosen on
/// first use: SSSE3 when its TU is built, the CPU has it and
/// stats::active_isa() is not scalar (ACBM_SIMD=off), else the scalar loop.
[[nodiscard]] ParseIpv4Fn active_ipv4_parser() noexcept;

}  // namespace acbm::net::detail
