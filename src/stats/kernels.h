// Small dense kernels for the model-fitting and serving hot loops: the
// repository's own f64 tanh, row-range GEMM, the streamed normal-equations
// row update, and f32 inference GEMV (optionally fused with tanh). Each
// kernel has a scalar reference implementation plus runtime-dispatched
// SIMD variants (AVX2 on x86-64, NEON on aarch64) selected per call by
// `active_isa()`.
//
// Bit-identity contract: every SIMD variant performs the exact same
// IEEE-754 operations in the exact same per-element order as the scalar
// reference — vectorization happens across independent accumulators
// (output lanes), never by splitting one accumulation chain, and no
// multiply-add is fused. Results are bit-identical across
// scalar/AVX2/NEON; there is no reordering mode.
#pragma once

#include <cstddef>
#include <span>

namespace acbm::stats {

/// Instruction sets the dispatcher can select between.
enum class SimdIsa { kScalar, kAvx2, kNeon };

/// Short lowercase name ("scalar", "avx2", "neon") for logs and bench JSON.
[[nodiscard]] const char* isa_name(SimdIsa isa) noexcept;

/// Best ISA this build + CPU supports (compile-time TU availability AND
/// runtime CPUID probe). Computed once; unaffected by set_active_isa().
[[nodiscard]] SimdIsa detected_isa() noexcept;

/// ISA used by subsequent kernel calls. Starts at detected_isa(), unless
/// the ACBM_SIMD environment variable is "0"/"off"/"scalar" which forces
/// kScalar. Each kernel call bumps the matching
/// `kernels.dispatch.{scalar,avx2,neon}` counter.
[[nodiscard]] SimdIsa active_isa() noexcept;

/// Overrides the active ISA (clamped to detected_isa() — requesting an
/// unsupported ISA selects scalar). For scalar-vs-SIMD agreement tests and
/// in-binary benchmark comparisons.
void set_active_isa(SimdIsa isa) noexcept;

/// Hyperbolic tangent, computed with IEEE add, mul, div and compare only —
/// no libm call, so its bits do not depend on the C library or on which
/// libm code path the CPU selects. Within 2 ULP of the exact value;
/// tanh(-x) == -tanh(x) exactly; NaN -> NaN, +-inf -> +-1, +-0 -> +-0.
/// This scalar function is the reference every SIMD version of the block
/// overload below reproduces bit for bit.
[[nodiscard]] double tanh(double x) noexcept;

/// out[i] = tanh(x[i]) through the active ISA's version (AVX2: 4 lanes at
/// a time), bit-identical to the scalar reference at every ISA. `out` may
/// be `x` itself; otherwise they must not overlap. Not counted in
/// `kernels.dispatch.*`: the MLP forward pass calls it once per mini-batch
/// and once per prediction.
void tanh(std::span<const double> x, std::span<double> out) noexcept;

/// Computes rows [row_begin, row_end) of C = A·B over row-major buffers:
/// A is [m x cols_a], B is [cols_a x cols_b], C is [m x cols_b]. Each
/// output element accumulates in ascending-k order from a zero start, so
/// the result is bit-identical to a per-element sequential dot product
/// (the contract Matrix::operator* documents for its blocked path).
/// Buffers must not overlap.
void gemm_row_range(const double* a, const double* b, double* c,
                    std::size_t row_begin, std::size_t row_end,
                    std::size_t cols_a, std::size_t cols_b);

/// One streamed row of the fused normal-equations accumulation
/// (Matrix::fused_normal_equations): for i in [0,k):
///   atb[i] += a_row[i] * yr;  ata[i*k + j] += a_row[i] * a_row[j]  (j >= i)
/// Upper triangle only; the caller mirrors and applies ridge afterwards.
/// Every ata entry is its own accumulator (one mul+add per row), so
/// vectorizing across j preserves bit-identity.
void fne_row_update(double* ata, double* atb, const double* a_row, double yr,
                    std::size_t k);

/// f32 inference GEMV over *transposed* (input-major) weights:
///   out[o] = bias[o] + sum_i weights_t[i * out.size() + o] * x[i]
/// The transposed layout makes the output lanes contiguous, so SIMD
/// vectorizes across outputs with unit-stride loads while each lane keeps
/// the scalar ascending-i accumulation order (bit-identical to the scalar
/// reference). `out` must not alias the inputs.
void gemv_t_f32(std::span<const float> weights_t, std::span<const float> bias,
                std::span<const float> x, std::span<float> out);

/// Fused f32 GEMV + tanh over transposed weights (see gemv_t_f32).
void gemv_t_tanh_f32(std::span<const float> weights_t,
                     std::span<const float> bias, std::span<const float> x,
                     std::span<float> out);

/// Sequential dot product: start + sum_i a[i] * b[i] in ascending-i order,
/// one accumulator. This IS the bit-identity reference (never vectorized),
/// shared by the serving-path mirrors of LinearRegression::predict and the
/// ARIMA forecast recurrences so their accumulation order provably matches
/// the fitting-side code.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b,
                         double start = 0.0) noexcept;

}  // namespace acbm::stats
