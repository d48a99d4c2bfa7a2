// Internal dispatch plumbing shared between kernels.cpp (runtime selection +
// scalar reference) and the ISA-specific translation units (kernels_avx2.cpp,
// kernels_neon.cpp) that are compiled with per-file arch flags. Not part of
// the public API — include kernels.h instead.
#pragma once

#include <cstddef>
#include <cstdint>

namespace acbm::stats::detail {

/// Constants of stats::tanh, shared by the scalar reference and every SIMD
/// version so that all of them evaluate the same expressions. Cephes-style:
///   |x| < kSmall:  x + x*z*P(z)/Q(z) with z = x*x (odd rational);
///   |x| < kLarge:  (1 - e)/(1 + e) with e = exp(-2|x|), where
///                  exp(g + n*ln2) = (1 + 2*g*R(g^2)/(S(g^2) - g*R(g^2)))*2^n
///                  after a two-constant range reduction (|g| <= ln2/2);
///   otherwise:     1.
/// Every version works on |x| and copies the sign of x back, so the result
/// is exactly odd. n is rounded to nearest with the 1.5*2^52 trick, whose
/// sum also carries n in its low mantissa bits for building 2^n.
namespace tanh_coef {
inline constexpr double kSmall = 0.625;
inline constexpr double kLarge = 22.0;
inline constexpr double kLog2e = 1.4426950408889634073599;
inline constexpr double kLn2Hi = 6.93145751953125e-1;
inline constexpr double kLn2Lo = 1.42860682030941723212e-6;
inline constexpr double kRoundMagic = 0x1.8p52;
inline constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;
inline constexpr std::uint64_t kExponentBias = 1023;
// Odd rational for the small branch: P (degree 2) over monic Q (degree 3).
inline constexpr double kP0 = -9.64399179425052238628e-1;
inline constexpr double kP1 = -9.92877231001918586564e1;
inline constexpr double kP2 = -1.61468768441708447952e3;
inline constexpr double kQ0 = 1.12811678491632931402e2;
inline constexpr double kQ1 = 2.23548839060100448583e3;
inline constexpr double kQ2 = 4.84406305325125486048e3;
// exp's rational on the reduced argument: R (degree 2), S (degree 3).
inline constexpr double kR0 = 1.26177193074810590878e-4;
inline constexpr double kR1 = 3.02994407707441961300e-2;
inline constexpr double kR2 = 9.99999999999999999910e-1;
inline constexpr double kS0 = 3.00198505138664455042e-6;
inline constexpr double kS1 = 2.52448340349684104192e-3;
inline constexpr double kS2 = 2.27265548208155028766e-1;
inline constexpr double kS3 = 2.00000000000000000009e0;
}  // namespace tanh_coef

/// Function-pointer table for one ISA. A null entry means "no vectorized
/// version for this kernel" and the dispatcher falls back to the scalar
/// reference for that kernel only (partial tables are how NEON ships a
/// subset without faking the rest). Every entry is bit-identical to its
/// scalar reference.
struct KernelTable {
  /// Rows [row_begin,row_end) of C = A*B, row-major, k-ascending per element.
  void (*gemm_rows)(const double* a, const double* b, double* c,
                    std::size_t row_begin, std::size_t row_end,
                    std::size_t cols_a, std::size_t cols_b) = nullptr;
  /// One streamed row of the fused normal equations: upper-triangle
  /// ata[i][j>=i] += a_row[i]*a_row[j], atb[i] += a_row[i]*yr.
  void (*fne_row_update)(double* ata, double* atb, const double* a_row,
                         double yr, std::size_t k) = nullptr;
  /// f32 gemv over transposed (input-major) weights wt[i*out_dim + o].
  void (*gemv_t_f32)(const float* wt, const float* bias, const float* x,
                     float* out, std::size_t out_dim,
                     std::size_t in) = nullptr;
  void (*gemv_t_tanh_f32)(const float* wt, const float* bias, const float* x,
                          float* out, std::size_t out_dim,
                          std::size_t in) = nullptr;
  /// out[i] = stats::tanh(x[i]) for i < n; `out` may equal `x`.
  void (*tanh)(const double* x, double* out, std::size_t n) = nullptr;
};

/// Tables provided by the arch-specific TUs; null when the TU is not built
/// for this target.
[[nodiscard]] const KernelTable* avx2_table() noexcept;
[[nodiscard]] const KernelTable* neon_table() noexcept;

}  // namespace acbm::stats::detail
