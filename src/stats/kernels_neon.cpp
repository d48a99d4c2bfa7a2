// NEON microkernels (aarch64). Same bit-identity discipline as
// kernels_avx2.cpp: the kernels vectorize across independent output
// accumulators with separate multiply and add (this TU is built with
// -ffp-contract=off so the compiler cannot fuse them), keeping every
// accumulation chain in the scalar reference's order.

#include <arm_neon.h>

#include <cmath>
#include <cstddef>

#include "stats/kernels_dispatch.h"

namespace acbm::stats::detail {

namespace {

inline float64x2_t mul_acc(float64x2_t acc, float64x2_t a, float64x2_t b) {
  return vaddq_f64(acc, vmulq_f64(a, b));
}

inline float32x4_t mul_acc_f32(float32x4_t acc, float32x4_t a,
                               float32x4_t b) {
  return vaddq_f32(acc, vmulq_f32(a, b));
}

// ---------------------------------------------------------------------------
// f64 gemm row range: k-outer broadcast, register-blocked over j.
// ---------------------------------------------------------------------------

void gemm_rows_neon(const double* a, const double* b, double* c,
                    std::size_t row_begin, std::size_t row_end,
                    std::size_t cols_a, std::size_t cols_b) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const double* a_row = a + i * cols_a;
    double* c_row = c + i * cols_b;
    std::size_t j = 0;
    for (; j + 8 <= cols_b; j += 8) {
      float64x2_t acc0 = vdupq_n_f64(0.0);
      float64x2_t acc1 = vdupq_n_f64(0.0);
      float64x2_t acc2 = vdupq_n_f64(0.0);
      float64x2_t acc3 = vdupq_n_f64(0.0);
      for (std::size_t k = 0; k < cols_a; ++k) {
        const float64x2_t av = vdupq_n_f64(a_row[k]);
        const double* b_row = b + k * cols_b + j;
        acc0 = mul_acc(acc0, av, vld1q_f64(b_row));
        acc1 = mul_acc(acc1, av, vld1q_f64(b_row + 2));
        acc2 = mul_acc(acc2, av, vld1q_f64(b_row + 4));
        acc3 = mul_acc(acc3, av, vld1q_f64(b_row + 6));
      }
      vst1q_f64(c_row + j, acc0);
      vst1q_f64(c_row + j + 2, acc1);
      vst1q_f64(c_row + j + 4, acc2);
      vst1q_f64(c_row + j + 6, acc3);
    }
    for (; j + 2 <= cols_b; j += 2) {
      float64x2_t acc = vdupq_n_f64(0.0);
      for (std::size_t k = 0; k < cols_a; ++k) {
        acc = mul_acc(acc, vdupq_n_f64(a_row[k]),
                      vld1q_f64(b + k * cols_b + j));
      }
      vst1q_f64(c_row + j, acc);
    }
    for (; j < cols_b; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < cols_a; ++k) {
        acc += a_row[k] * b[k * cols_b + j];
      }
      c_row[j] = acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Fused normal equations row update.
// ---------------------------------------------------------------------------

void fne_row_update_neon(double* ata, double* atb, const double* a_row,
                         double yr, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    const double ai = a_row[i];
    atb[i] += ai * yr;
    double* ata_row = ata + i * k;
    const float64x2_t av = vdupq_n_f64(ai);
    std::size_t j = i;
    for (; j + 2 <= k; j += 2) {
      const float64x2_t cur = vld1q_f64(ata_row + j);
      vst1q_f64(ata_row + j, mul_acc(cur, av, vld1q_f64(a_row + j)));
    }
    for (; j < k; ++j) ata_row[j] += ai * a_row[j];
  }
}

// ---------------------------------------------------------------------------
// f32 inference gemv over transposed weights: 4 output lanes per register.
// ---------------------------------------------------------------------------

template <bool kTanh>
void gemv_t_f32_neon(const float* wt, const float* bias, const float* x,
                     float* out, std::size_t out_dim, std::size_t in) {
  std::size_t o = 0;
  for (; o + 4 <= out_dim; o += 4) {
    float32x4_t acc = vld1q_f32(bias + o);
    for (std::size_t i = 0; i < in; ++i) {
      const float32x4_t w = vld1q_f32(wt + i * out_dim + o);
      acc = mul_acc_f32(acc, vdupq_n_f32(x[i]), w);
    }
    if constexpr (kTanh) {
      float z[4];
      vst1q_f32(z, acc);
      for (int l = 0; l < 4; ++l) out[o + l] = std::tanh(z[l]);
    } else {
      vst1q_f32(out + o, acc);
    }
  }
  for (; o < out_dim; ++o) {
    float acc = bias[o];
    for (std::size_t i = 0; i < in; ++i) acc += wt[i * out_dim + o] * x[i];
    out[o] = kTanh ? std::tanh(acc) : acc;
  }
}

// No NEON tanh: the null entry makes the dispatcher run the scalar
// reference per element, which is bit-identical by definition.
const KernelTable kNeon{
    gemm_rows_neon,         fne_row_update_neon,
    gemv_t_f32_neon<false>, gemv_t_f32_neon<true>,
};

}  // namespace

const KernelTable* neon_table() noexcept { return &kNeon; }

}  // namespace acbm::stats::detail
