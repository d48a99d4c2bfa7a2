// AVX2 microkernels. This TU is compiled with -mavx2 and, crucially,
// -ffp-contract=off: the kernels below keep multiply and add as separate
// IEEE operations so every output lane reproduces the scalar reference's
// accumulation chain exactly (bit-identity). Letting the compiler contract
// mul+add intrinsics into FMA would silently break that contract.
//
// Vectorization strategy for bit-identity: vectorize ACROSS independent
// accumulators, never within one accumulation chain.
//  - gemm_rows: k-outer broadcast of a(i,k) against contiguous B rows;
//    each C element accumulates in ascending-k order.
//  - fne_row_update: broadcast a_row[i] against the j-contiguous tail; each
//    ata entry gets its single mul+add for this row.
//  - gemv_t_f32: transposed (input-major) weights make output lanes
//    contiguous; ascending-i accumulation per lane.
//  - tanh: every lane evaluates both computed branches of the scalar
//    reference with the same operations and keeps the one the scalar code
//    takes; no accumulation chain is involved.

#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "stats/kernels_dispatch.h"

namespace acbm::stats::detail {

namespace {

// ---------------------------------------------------------------------------
// tanh: 4 lanes, bit-identical to stats::tanh (kernels.cpp) lane for lane.
// ---------------------------------------------------------------------------

/// |x| < kSmall (and NaN) branch on ax = |x|: ax + ax*z*P(z)/Q(z).
inline __m256d tanh_small4(__m256d ax) {
  namespace c = tanh_coef;
  const __m256d z = _mm256_mul_pd(ax, ax);
  __m256d p = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(c::kP0), z),
                            _mm256_set1_pd(c::kP1));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(c::kP2));
  __m256d q = _mm256_add_pd(z, _mm256_set1_pd(c::kQ0));
  q = _mm256_add_pd(_mm256_mul_pd(q, z), _mm256_set1_pd(c::kQ1));
  q = _mm256_add_pd(_mm256_mul_pd(q, z), _mm256_set1_pd(c::kQ2));
  return _mm256_add_pd(
      ax, _mm256_div_pd(_mm256_mul_pd(_mm256_mul_pd(ax, z), p), q));
}

/// kSmall <= |x| < kLarge branch on ax = |x|: (1 - e)/(1 + e) with
/// e = exp(-2|x|). Lanes above kLarge are clamped so that 2^n stays a
/// valid double; the caller discards them.
inline __m256d tanh_mid4(__m256d ax) {
  namespace c = tanh_coef;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d t = _mm256_mul_pd(
      _mm256_set1_pd(-2.0), _mm256_min_pd(ax, _mm256_set1_pd(c::kLarge)));
  const __m256d magic = _mm256_set1_pd(c::kRoundMagic);
  const __m256d shifted =
      _mm256_add_pd(_mm256_mul_pd(t, _mm256_set1_pd(c::kLog2e)), magic);
  const __m256d n = _mm256_sub_pd(shifted, magic);
  __m256d g = _mm256_sub_pd(t, _mm256_mul_pd(n, _mm256_set1_pd(c::kLn2Hi)));
  g = _mm256_sub_pd(g, _mm256_mul_pd(n, _mm256_set1_pd(c::kLn2Lo)));
  const __m256d gg = _mm256_mul_pd(g, g);
  __m256d p = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(c::kR0), gg),
                            _mm256_set1_pd(c::kR1));
  p = _mm256_mul_pd(
      g, _mm256_add_pd(_mm256_mul_pd(p, gg), _mm256_set1_pd(c::kR2)));
  __m256d q = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(c::kS0), gg),
                            _mm256_set1_pd(c::kS1));
  q = _mm256_add_pd(_mm256_mul_pd(q, gg), _mm256_set1_pd(c::kS2));
  q = _mm256_add_pd(_mm256_mul_pd(q, gg), _mm256_set1_pd(c::kS3));
  const __m256i n_bits = _mm256_sub_epi64(_mm256_castpd_si256(shifted),
                                          _mm256_castpd_si256(magic));
  const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(n_bits, _mm256_set1_epi64x(c::kExponentBias)), 52));
  const __m256d ratio = _mm256_div_pd(p, _mm256_sub_pd(q, p));
  const __m256d e = _mm256_mul_pd(
      _mm256_add_pd(one, _mm256_mul_pd(_mm256_set1_pd(2.0), ratio)), scale);
  return _mm256_div_pd(_mm256_sub_pd(one, e), _mm256_add_pd(one, e));
}

inline __m256d tanh4(__m256d x) {
  namespace c = tanh_coef;
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d ax = _mm256_andnot_pd(sign, x);
  // Every lane computes both branches and keeps the one the scalar code
  // takes; ordered compares are false for NaN, which keeps the small one.
  __m256d r = _mm256_blendv_pd(
      tanh_small4(ax), tanh_mid4(ax),
      _mm256_cmp_pd(ax, _mm256_set1_pd(c::kSmall), _CMP_GE_OQ));
  r = _mm256_blendv_pd(
      r, _mm256_set1_pd(1.0),
      _mm256_cmp_pd(ax, _mm256_set1_pd(c::kLarge), _CMP_GE_OQ));
  return _mm256_or_pd(r, _mm256_and_pd(x, sign));
}

void tanh_avx2(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, tanh4(_mm256_loadu_pd(x + i)));
  }
  if (i == n) return;
  // Tail: pad to one vector; the padding lanes are computed and dropped.
  alignas(32) double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t l = 0; i + l < n; ++l) lanes[l] = x[i + l];
  _mm256_store_pd(lanes, tanh4(_mm256_load_pd(lanes)));
  for (std::size_t l = 0; i + l < n; ++l) out[i + l] = lanes[l];
}

// ---------------------------------------------------------------------------
// f64 gemm row range: k-outer broadcast, register-blocked over j.
// ---------------------------------------------------------------------------

inline __m256d mul_acc(__m256d acc, __m256d a, __m256d b) {
  return _mm256_add_pd(acc, _mm256_mul_pd(a, b));
}

void gemm_rows_avx2(const double* a, const double* b, double* c,
                    std::size_t row_begin, std::size_t row_end,
                    std::size_t cols_a, std::size_t cols_b) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const double* a_row = a + i * cols_a;
    double* c_row = c + i * cols_b;
    std::size_t j = 0;
    for (; j + 16 <= cols_b; j += 16) {
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      for (std::size_t k = 0; k < cols_a; ++k) {
        const __m256d av = _mm256_set1_pd(a_row[k]);
        const double* b_row = b + k * cols_b + j;
        acc0 = mul_acc(acc0, av, _mm256_loadu_pd(b_row));
        acc1 = mul_acc(acc1, av, _mm256_loadu_pd(b_row + 4));
        acc2 = mul_acc(acc2, av, _mm256_loadu_pd(b_row + 8));
        acc3 = mul_acc(acc3, av, _mm256_loadu_pd(b_row + 12));
      }
      _mm256_storeu_pd(c_row + j, acc0);
      _mm256_storeu_pd(c_row + j + 4, acc1);
      _mm256_storeu_pd(c_row + j + 8, acc2);
      _mm256_storeu_pd(c_row + j + 12, acc3);
    }
    for (; j + 4 <= cols_b; j += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t k = 0; k < cols_a; ++k) {
        acc = mul_acc(acc, _mm256_set1_pd(a_row[k]),
                      _mm256_loadu_pd(b + k * cols_b + j));
      }
      _mm256_storeu_pd(c_row + j, acc);
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
// Fused normal equations: broadcast rank-1 row update on the upper triangle.
// ---------------------------------------------------------------------------

void fne_row_update_avx2(double* ata, double* atb, const double* a_row,
                         double yr, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    const double ai = a_row[i];
    atb[i] += ai * yr;
    double* ata_row = ata + i * k;
    const __m256d av = _mm256_set1_pd(ai);
    std::size_t j = i;
    for (; j + 4 <= k; j += 4) {
      const __m256d cur = _mm256_loadu_pd(ata_row + j);
      const __m256d arj = _mm256_loadu_pd(a_row + j);
      _mm256_storeu_pd(ata_row + j, mul_acc(cur, av, arj));
    }
    for (; j < k; ++j) ata_row[j] += ai * a_row[j];
  }
}

// ---------------------------------------------------------------------------
// f32 inference gemv over transposed weights: 8 output lanes per register.
// ---------------------------------------------------------------------------

inline __m256 mul_acc_f32(__m256 acc, __m256 a, __m256 b) {
  return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
}

template <bool kTanh>
void gemv_t_f32_avx2(const float* wt, const float* bias, const float* x,
                     float* out, std::size_t out_dim, std::size_t in) {
  std::size_t o = 0;
  for (; o + 8 <= out_dim; o += 8) {
    __m256 acc = _mm256_loadu_ps(bias + o);
    for (std::size_t i = 0; i < in; ++i) {
      const __m256 w = _mm256_loadu_ps(wt + i * out_dim + o);
      acc = mul_acc_f32(acc, _mm256_set1_ps(x[i]), w);
    }
    if constexpr (kTanh) {
      alignas(32) float z[8];
      _mm256_store_ps(z, acc);
      for (int l = 0; l < 8; ++l) out[o + l] = std::tanh(z[l]);
    } else {
      _mm256_storeu_ps(out + o, acc);
    }
  }
  for (; o < out_dim; ++o) {
    float acc = bias[o];
    for (std::size_t i = 0; i < in; ++i) acc += wt[i * out_dim + o] * x[i];
    out[o] = kTanh ? std::tanh(acc) : acc;
  }
}

const KernelTable kAvx2{
    gemm_rows_avx2,         fne_row_update_avx2,
    gemv_t_f32_avx2<false>, gemv_t_f32_avx2<true>,
    tanh_avx2,
};

}  // namespace

const KernelTable* avx2_table() noexcept { return &kAvx2; }

}  // namespace acbm::stats::detail
