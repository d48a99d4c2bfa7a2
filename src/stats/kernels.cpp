#include "stats/kernels.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "core/observe.h"
#include "stats/kernels_dispatch.h"

namespace acbm::stats {

namespace {

[[maybe_unused]] bool ranges_overlap(const double* p, std::size_t n,
                                     const double* q, std::size_t m) {
  return p < q + m && q < p + n;
}

[[maybe_unused]] bool ranges_overlap_f32(const float* p, std::size_t n,
                                         const float* q, std::size_t m) {
  return p < q + m && q < p + n;
}

// ---------------------------------------------------------------------------
// Scalar reference kernels (the 0-ULP ground truth every SIMD variant is
// tested against).
// ---------------------------------------------------------------------------

void gemm_rows_scalar(const double* a, const double* b, double* c,
                      std::size_t row_begin, std::size_t row_end,
                      std::size_t cols_a, std::size_t cols_b) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const double* a_row = a + i * cols_a;
    double* c_row = c + i * cols_b;
    for (std::size_t j = 0; j < cols_b; ++j) c_row[j] = 0.0;
    for (std::size_t k = 0; k < cols_a; ++k) {
      const double aik = a_row[k];
      const double* b_row = b + k * cols_b;
      for (std::size_t j = 0; j < cols_b; ++j) c_row[j] += aik * b_row[j];
    }
  }
}

void fne_row_update_scalar(double* ata, double* atb, const double* a_row,
                           double yr, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    const double ai = a_row[i];
    atb[i] += ai * yr;
    double* ata_row = ata + i * k;
    std::size_t j = i;
    for (; j + 4 <= k; j += 4) {
      ata_row[j] += ai * a_row[j];
      ata_row[j + 1] += ai * a_row[j + 1];
      ata_row[j + 2] += ai * a_row[j + 2];
      ata_row[j + 3] += ai * a_row[j + 3];
    }
    for (; j < k; ++j) ata_row[j] += ai * a_row[j];
  }
}

template <bool kTanh>
void gemv_t_f32_scalar(const float* wt, const float* bias, const float* x,
                       float* out, std::size_t out_dim, std::size_t in) {
  for (std::size_t o = 0; o < out_dim; ++o) out[o] = bias[o];
  for (std::size_t i = 0; i < in; ++i) {
    const float xi = x[i];
    const float* w_row = wt + i * out_dim;
    for (std::size_t o = 0; o < out_dim; ++o) out[o] += w_row[o] * xi;
  }
  if constexpr (kTanh) {
    for (std::size_t o = 0; o < out_dim; ++o) out[o] = std::tanh(out[o]);
  }
}

// ---------------------------------------------------------------------------
// Runtime dispatch state.
// ---------------------------------------------------------------------------

SimdIsa detect() noexcept {
#if defined(ACBM_HAVE_AVX2_TU)
  if (__builtin_cpu_supports("avx2")) return SimdIsa::kAvx2;
#endif
#if defined(ACBM_HAVE_NEON_TU)
  return SimdIsa::kNeon;
#else
  return SimdIsa::kScalar;
#endif
}

bool env_flag_off(const char* name) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  const std::string_view s{v};
  return s == "0" || s == "off" || s == "OFF" || s == "scalar";
}

std::atomic<SimdIsa>& active_state() noexcept {
  static std::atomic<SimdIsa> state{env_flag_off("ACBM_SIMD") ? SimdIsa::kScalar
                                                              : detect()};
  return state;
}

/// Table for the active ISA, or nullptr when scalar is active (or the
/// arch TU was not built).
const detail::KernelTable* active_table() noexcept {
  switch (active_state().load(std::memory_order_relaxed)) {
    case SimdIsa::kAvx2:
      return detail::avx2_table();
    case SimdIsa::kNeon:
      return detail::neon_table();
    case SimdIsa::kScalar:
      break;
  }
  return nullptr;
}

void count_dispatch(bool vectorized) {
  if (!vectorized) {
    ACBM_COUNT("kernels.dispatch.scalar", 1);
    return;
  }
  switch (active_state().load(std::memory_order_relaxed)) {
    case SimdIsa::kAvx2:
      ACBM_COUNT("kernels.dispatch.avx2", 1);
      break;
    case SimdIsa::kNeon:
      ACBM_COUNT("kernels.dispatch.neon", 1);
      break;
    case SimdIsa::kScalar:
      ACBM_COUNT("kernels.dispatch.scalar", 1);
      break;
  }
}

/// Below these shapes the SIMD setup cost outweighs the win; the scalar
/// reference is used regardless of the active ISA (results are identical
/// either way — this is purely a performance cutoff).
constexpr std::size_t kMinSimdFneCols = 8;
constexpr std::size_t kMinSimdGemvF32Rows = 8;

}  // namespace

double tanh(double x) noexcept {
  // See detail::tanh_coef for the formula. This TU is compiled with
  // -ffp-contract=off, so no mul+add below becomes an FMA and the AVX2
  // lanes (kernels_avx2.cpp) evaluate exactly these operations.
  namespace c = detail::tanh_coef;
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const double ax = std::bit_cast<double>(bits & ~c::kSignBit);
  double r = 0.0;
  if (ax >= c::kLarge) {
    r = 1.0;
  } else if (ax >= c::kSmall) {
    const double t = -2.0 * ax;
    const double shifted = t * c::kLog2e + c::kRoundMagic;
    const double n = shifted - c::kRoundMagic;
    double g = t - n * c::kLn2Hi;
    g = g - n * c::kLn2Lo;
    const double gg = g * g;
    const double p = g * ((c::kR0 * gg + c::kR1) * gg + c::kR2);
    const double q = ((c::kS0 * gg + c::kS1) * gg + c::kS2) * gg + c::kS3;
    // n is in [-64, -2]: its two's complement sits in the low bits of
    // `shifted`, and 2^n is a normal double built from its exponent field.
    const std::uint64_t n_bits = std::bit_cast<std::uint64_t>(shifted) -
                                 std::bit_cast<std::uint64_t>(c::kRoundMagic);
    const double scale =
        std::bit_cast<double>((n_bits + c::kExponentBias) << 52);
    const double e = (1.0 + 2.0 * (p / (q - p))) * scale;
    r = (1.0 - e) / (1.0 + e);
  } else {
    // Also the NaN branch: every comparison above is false for NaN, and
    // the arithmetic propagates it.
    const double z = ax * ax;
    const double p = (c::kP0 * z + c::kP1) * z + c::kP2;
    const double q = ((z + c::kQ0) * z + c::kQ1) * z + c::kQ2;
    r = ax + ax * z * p / q;
  }
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(r) |
                               (bits & c::kSignBit));
}

void tanh(std::span<const double> x, std::span<double> out) noexcept {
  assert(x.size() == out.size());
  assert(x.data() == out.data() ||
         !ranges_overlap(out.data(), out.size(), x.data(), x.size()));
  const detail::KernelTable* t = active_table();
  if (t != nullptr && t->tanh != nullptr) {
    t->tanh(x.data(), out.data(), x.size());
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = stats::tanh(x[i]);
}

const char* isa_name(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kNeon:
      return "neon";
    case SimdIsa::kScalar:
      break;
  }
  return "scalar";
}

SimdIsa detected_isa() noexcept {
  static const SimdIsa isa = detect();
  return isa;
}

SimdIsa active_isa() noexcept {
  return active_state().load(std::memory_order_relaxed);
}

void set_active_isa(SimdIsa isa) noexcept {
  if (isa != SimdIsa::kScalar && isa != detected_isa()) isa = SimdIsa::kScalar;
  active_state().store(isa, std::memory_order_relaxed);
}

void gemm_row_range(const double* a, const double* b, double* c,
                    std::size_t row_begin, std::size_t row_end,
                    std::size_t cols_a, std::size_t cols_b) {
  const detail::KernelTable* t = active_table();
  if (t != nullptr && t->gemm_rows != nullptr) {
    count_dispatch(true);
    t->gemm_rows(a, b, c, row_begin, row_end, cols_a, cols_b);
    return;
  }
  count_dispatch(false);
  gemm_rows_scalar(a, b, c, row_begin, row_end, cols_a, cols_b);
}

void fne_row_update(double* ata, double* atb, const double* a_row, double yr,
                    std::size_t k) {
  const detail::KernelTable* t = active_table();
  if (t != nullptr && t->fne_row_update != nullptr && k >= kMinSimdFneCols) {
    count_dispatch(true);
    t->fne_row_update(ata, atb, a_row, yr, k);
    return;
  }
  count_dispatch(false);
  fne_row_update_scalar(ata, atb, a_row, yr, k);
}

void gemv_t_f32(std::span<const float> weights_t, std::span<const float> bias,
                std::span<const float> x, std::span<float> out) {
  assert(weights_t.size() == out.size() * x.size());
  assert(bias.size() == out.size());
  assert(!ranges_overlap_f32(out.data(), out.size(), weights_t.data(),
                             weights_t.size()) &&
         !ranges_overlap_f32(out.data(), out.size(), bias.data(),
                             bias.size()) &&
         !ranges_overlap_f32(out.data(), out.size(), x.data(), x.size()));
  const detail::KernelTable* t = active_table();
  if (t != nullptr && t->gemv_t_f32 != nullptr &&
      out.size() >= kMinSimdGemvF32Rows) {
    count_dispatch(true);
    t->gemv_t_f32(weights_t.data(), bias.data(), x.data(), out.data(),
                  out.size(), x.size());
    return;
  }
  count_dispatch(false);
  gemv_t_f32_scalar<false>(weights_t.data(), bias.data(), x.data(), out.data(),
                           out.size(), x.size());
}

void gemv_t_tanh_f32(std::span<const float> weights_t,
                     std::span<const float> bias, std::span<const float> x,
                     std::span<float> out) {
  assert(weights_t.size() == out.size() * x.size());
  assert(bias.size() == out.size());
  assert(!ranges_overlap_f32(out.data(), out.size(), weights_t.data(),
                             weights_t.size()) &&
         !ranges_overlap_f32(out.data(), out.size(), bias.data(),
                             bias.size()) &&
         !ranges_overlap_f32(out.data(), out.size(), x.data(), x.size()));
  const detail::KernelTable* t = active_table();
  if (t != nullptr && t->gemv_t_tanh_f32 != nullptr &&
      out.size() >= kMinSimdGemvF32Rows) {
    count_dispatch(true);
    t->gemv_t_tanh_f32(weights_t.data(), bias.data(), x.data(), out.data(),
                       out.size(), x.size());
    return;
  }
  count_dispatch(false);
  gemv_t_f32_scalar<true>(weights_t.data(), bias.data(), x.data(), out.data(),
                          out.size(), x.size());
}

double dot(std::span<const double> a, std::span<const double> b,
           double start) noexcept {
  assert(a.size() == b.size());
  double acc = start;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

// Fallback definitions when the arch-specific TU is not part of the build
// (non-matching target, or -DACBM_DISABLE_SIMD=ON).
#ifndef ACBM_HAVE_AVX2_TU
const detail::KernelTable* detail::avx2_table() noexcept { return nullptr; }
#endif
#ifndef ACBM_HAVE_NEON_TU
const detail::KernelTable* detail::neon_table() noexcept { return nullptr; }
#endif

}  // namespace acbm::stats
