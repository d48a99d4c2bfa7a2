// Scalar-vs-SIMD agreement sweep (ctest label `simd`). Every vectorized
// kernel must be bit-identical (0 ULP) to the scalar reference on identical
// inputs — swept across shapes that cover every vector-width remainder.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/observe.h"
#include "stats/kernels.h"
#include "stats/rng.h"

namespace {

using acbm::stats::Rng;
using acbm::stats::SimdIsa;

// Every test runs through this fixture so an ISA override can never leak
// into later tests (or other suites in this binary).
class SimdKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_isa_ = acbm::stats::active_isa(); }
  void TearDown() override { acbm::stats::set_active_isa(saved_isa_); }

 private:
  SimdIsa saved_isa_ = SimdIsa::kScalar;
};

std::vector<double> randn(std::size_t n, Rng& rng, double sd = 1.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(0.0, sd);
  return v;
}

std::vector<float> randn_f32(std::size_t n, Rng& rng, double sd = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, sd));
  return v;
}

// Output/input dims covering every remainder of the 8-wide f32 output-lane
// vectorization, plus a couple of larger shapes.
constexpr std::size_t kOutDims[] = {1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 33};
constexpr std::size_t kInDims[] = {1, 2, 3, 5, 8, 13, 64};

TEST_F(SimdKernelsTest, ActiveIsaClampsToDetected) {
  const SimdIsa detected = acbm::stats::detected_isa();
  for (SimdIsa want : {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kNeon}) {
    acbm::stats::set_active_isa(want);
    const SimdIsa got = acbm::stats::active_isa();
    if (want == SimdIsa::kScalar || want == detected) {
      EXPECT_EQ(got, want);
    } else {
      EXPECT_EQ(got, SimdIsa::kScalar)
          << "unsupported ISA request must clamp to scalar";
    }
  }
}

TEST_F(SimdKernelsTest, IsaNamesAreStable) {
  EXPECT_STREQ(acbm::stats::isa_name(SimdIsa::kScalar), "scalar");
  EXPECT_STREQ(acbm::stats::isa_name(SimdIsa::kAvx2), "avx2");
  EXPECT_STREQ(acbm::stats::isa_name(SimdIsa::kNeon), "neon");
}

// --- stats::tanh -----------------------------------------------------------
//
// The scalar reference against the dispatched block kernel at the active
// ISA (AVX2 where built and supported; the scalar loop under ACBM_SIMD=off,
// which the `tanh_simd_off` ctest entry runs), its symmetry and special
// values, and its accuracy against the long-double tanhl.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Values at and next to the branch points and the IEEE edge cases, both
/// signs.
std::vector<double> tanh_edge_cases() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> v = {
      0.0,
      std::numeric_limits<double>::denorm_min(),
      1e-310,  // subnormal
      std::numeric_limits<double>::min(),
      1e-200,
      std::numeric_limits<double>::max(),
      kInf,
      std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(0x7ff800000000beefULL),  // NaN with a payload
  };
  for (double point : {0.625, 22.0, 1.0, 19.0, 0.5}) {
    double up = point;
    double down = point;
    for (int k = 0; k < 64; ++k) {
      v.push_back(up);
      v.push_back(down);
      up = std::nextafter(up, kInf);
      down = std::nextafter(down, 0.0);
    }
  }
  const std::size_t n = v.size();
  for (std::size_t i = 0; i < n; ++i) v.push_back(-v[i]);
  return v;
}

/// Chunk `c` of the agreement sweep (1 << 20 values each): dense grids of
/// [-25, 25], log-uniform magnitudes from 2^-60 to 2^6 of both signs, and
/// the neighbourhoods of the two branch points.
std::vector<double> tanh_sweep_chunk(int c, Rng& rng) {
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::vector<double> v(kChunk);
  for (std::size_t i = 0; i < kChunk; ++i) {
    if (c < 4) {
      v[i] = -25.0 + 50.0 * (static_cast<double>(c * kChunk + i) + 0.5) /
                         static_cast<double>(4 * kChunk);
    } else if (c < 8) {
      const double magnitude = std::exp2(rng.uniform(-60.0, 6.0));
      v[i] = rng.uniform() < 0.5 ? -magnitude : magnitude;
    } else {
      const double centre = c == 8 ? 0.625 : 22.0;
      v[i] = (i % 2 == 0 ? 1.0 : -1.0) * (centre + rng.uniform(-0.05, 0.05));
    }
  }
  return v;
}

TEST_F(SimdKernelsTest, TanhDispatchedBitIdenticalToScalar) {
  Rng rng(7);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  const auto compare = [&](const std::vector<double>& x) {
    // Blocks of 1..9 values, so every tail length of a 4-lane kernel runs.
    std::vector<double> got(x.size());
    for (std::size_t begin = 0, len = 1; begin < x.size();
         begin += len, len = len % 9 + 1) {
      const std::size_t n = std::min(len, x.size() - begin);
      acbm::stats::tanh(std::span<const double>(x).subspan(begin, n),
                        std::span<double>(got).subspan(begin, n));
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (bits(got[i]) == bits(acbm::stats::tanh(x[i]))) continue;
      if (mismatches++ < 10) {
        ADD_FAILURE() << "tanh(" << std::hexfloat << x[i] << "): dispatched "
                      << got[i] << " vs scalar " << acbm::stats::tanh(x[i]);
      }
    }
    checked += x.size();
  };
  compare(tanh_edge_cases());
  for (int c = 0; c < 10; ++c) compare(tanh_sweep_chunk(c, rng));
  EXPECT_GE(checked, std::size_t{10'000'000});
  EXPECT_EQ(mismatches, 0u) << "on " << acbm::stats::isa_name(
                                            acbm::stats::active_isa());

  // In place, as the MLP trainer calls it.
  std::vector<double> x = tanh_edge_cases();
  std::vector<double> want(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) want[i] = acbm::stats::tanh(x[i]);
  acbm::stats::tanh(x, x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(bits(x[i]), bits(want[i]));
  }
}

TEST_F(SimdKernelsTest, TanhIsOdd) {
  Rng rng(8);
  std::vector<double> x = tanh_edge_cases();
  const std::vector<double> sweep = tanh_sweep_chunk(5, rng);
  x.insert(x.end(), sweep.begin(), sweep.end());
  std::vector<double> neg(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) neg[i] = -x[i];
  std::vector<double> pos_out(x.size());
  std::vector<double> neg_out(x.size());
  acbm::stats::tanh(x, pos_out);
  acbm::stats::tanh(neg, neg_out);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < x.size() && failures < 10; ++i) {
    if (bits(neg_out[i]) != (bits(pos_out[i]) ^ kSign) ||
        bits(acbm::stats::tanh(-x[i])) !=
            (bits(acbm::stats::tanh(x[i])) ^ kSign)) {
      ++failures;
      ADD_FAILURE() << "tanh(-x) != -tanh(x) at x = " << std::hexfloat << x[i];
    }
  }
}

TEST_F(SimdKernelsTest, TanhSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> x = {nan, -nan, kInf, -kInf, 0.0, -0.0, tiny,
                                 -tiny, 22.0, -22.0, 1e300, -1e300};
  std::vector<double> out(x.size());
  acbm::stats::tanh(x, out);
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (double r : {out[i], acbm::stats::tanh(x[i])}) {
      if (std::isnan(x[i])) {
        // A NaN must stay a NaN: mapping it to +-1 would hide a diverged
        // network behind a saturated unit.
        EXPECT_TRUE(std::isnan(r)) << "tanh(NaN) = " << r;
      } else if (std::isinf(x[i]) || std::abs(x[i]) >= 22.0) {
        EXPECT_EQ(r, std::copysign(1.0, x[i])) << x[i];
      } else {
        EXPECT_EQ(bits(r), bits(x[i])) << "tanh(x) = x below 2^-26: " << x[i];
      }
      EXPECT_EQ(std::signbit(r), std::signbit(x[i])) << x[i];
    }
  }
}

TEST_F(SimdKernelsTest, TanhWithinTwoUlpOfTanhl) {
  if (std::numeric_limits<long double>::digits < 64) {
    GTEST_SKIP() << "long double has no more precision than double here";
  }
  // ULP of the double binade the exact value falls in.
  const auto ulp_error = [](double got, long double want) {
    const int exponent =
        std::max(std::ilogb(static_cast<double>(want)) - 52, -1074);
    const long double ulp = std::ldexp(1.0L, exponent);
    return static_cast<double>(
        std::abs(static_cast<long double>(got) - want) / ulp);
  };
  constexpr int kPoints = 4'000'000;
  double worst = 0.0;
  double worst_x = 0.0;
  std::vector<double> x(kPoints);
  for (int i = 0; i < kPoints; ++i) {
    x[i] = -25.0 + 50.0 * (static_cast<double>(i) + 0.25) / kPoints;
  }
  std::vector<double> got(x.size());
  acbm::stats::tanh(x, got);
  for (int i = 0; i < kPoints; ++i) {
    const double err =
        ulp_error(got[i], std::tanh(static_cast<long double>(x[i])));
    if (err > worst) {
      worst = err;
      worst_x = x[i];
    }
  }
  EXPECT_LE(worst, 2.0) << "at x = " << std::hexfloat << worst_x;
}

TEST_F(SimdKernelsTest, GemmRowRangeBitIdenticalAcrossIsa) {
  const SimdIsa simd = acbm::stats::detected_isa();
  if (simd == SimdIsa::kScalar) GTEST_SKIP() << "no SIMD ISA on this build";
  Rng rng(202);
  // m x k x n shapes straddling the column-block width and its remainders.
  const std::size_t shapes[][3] = {{1, 1, 1},    {3, 5, 4},    {17, 13, 9},
                                   {32, 32, 32}, {40, 33, 65}, {7, 64, 31}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0];
    const std::size_t k = s[1];
    const std::size_t n = s[2];
    const auto a = randn(m * k, rng);
    const auto b = randn(k * n, rng);
    std::vector<double> scalar(m * n);
    std::vector<double> vec(m * n);
    acbm::stats::set_active_isa(SimdIsa::kScalar);
    acbm::stats::gemm_row_range(a.data(), b.data(), scalar.data(), 0, m, k, n);
    acbm::stats::set_active_isa(simd);
    acbm::stats::gemm_row_range(a.data(), b.data(), vec.data(), 0, m, k, n);
    for (std::size_t i = 0; i < m * n; ++i) {
      EXPECT_EQ(vec[i], scalar[i])
          << m << "x" << k << "x" << n << " at " << i;
    }
  }
}

TEST_F(SimdKernelsTest, FneRowUpdateBitIdenticalAcrossIsa) {
  const SimdIsa simd = acbm::stats::detected_isa();
  if (simd == SimdIsa::kScalar) GTEST_SKIP() << "no SIMD ISA on this build";
  Rng rng(303);
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{4}, std::size_t{5}, std::size_t{7},
                        std::size_t{8}, std::size_t{12}, std::size_t{31}}) {
    const std::size_t n_rows = 16;
    const auto rows = randn(n_rows * k, rng);
    const auto y = randn(n_rows, rng, 2.0);

    std::vector<double> ata_scalar(k * k, 0.0), atb_scalar(k, 0.0);
    std::vector<double> ata_vec(k * k, 0.0), atb_vec(k, 0.0);
    for (std::size_t r = 0; r < n_rows; ++r) {
      acbm::stats::set_active_isa(SimdIsa::kScalar);
      acbm::stats::fne_row_update(ata_scalar.data(), atb_scalar.data(),
                                  rows.data() + r * k, y[r], k);
      acbm::stats::set_active_isa(simd);
      acbm::stats::fne_row_update(ata_vec.data(), atb_vec.data(),
                                  rows.data() + r * k, y[r], k);
    }
    for (std::size_t i = 0; i < k * k; ++i) {
      EXPECT_EQ(ata_vec[i], ata_scalar[i]) << "k=" << k << " ata[" << i << "]";
    }
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(atb_vec[i], atb_scalar[i]) << "k=" << k << " atb[" << i << "]";
    }
  }
}

TEST_F(SimdKernelsTest, GemvF32BitIdenticalAcrossIsa) {
  const SimdIsa simd = acbm::stats::detected_isa();
  if (simd == SimdIsa::kScalar) GTEST_SKIP() << "no SIMD ISA on this build";
  Rng rng(404);
  for (std::size_t out_dim : kOutDims) {
    for (std::size_t in : kInDims) {
      // Transposed (input-major) layout: wt[i * out_dim + o].
      const auto weights_t = randn_f32(in * out_dim, rng);
      const auto bias = randn_f32(out_dim, rng, 0.5);
      const auto x = randn_f32(in, rng);

      std::vector<float> scalar(out_dim);
      std::vector<float> vec(out_dim);
      acbm::stats::set_active_isa(SimdIsa::kScalar);
      acbm::stats::gemv_t_f32(weights_t, bias, x, scalar);
      acbm::stats::set_active_isa(simd);
      acbm::stats::gemv_t_f32(weights_t, bias, x, vec);
      for (std::size_t o = 0; o < out_dim; ++o) {
        EXPECT_EQ(vec[o], scalar[o]) << out_dim << "x" << in << " lane " << o;
      }

      acbm::stats::set_active_isa(SimdIsa::kScalar);
      acbm::stats::gemv_t_tanh_f32(weights_t, bias, x, scalar);
      acbm::stats::set_active_isa(simd);
      acbm::stats::gemv_t_tanh_f32(weights_t, bias, x, vec);
      for (std::size_t o = 0; o < out_dim; ++o) {
        EXPECT_EQ(vec[o], scalar[o]) << out_dim << "x" << in << " lane " << o;
      }
    }
  }
}

TEST_F(SimdKernelsTest, DispatchCountersBumpPerCall) {
  namespace observe = acbm::core::observe;
  auto& metrics = observe::Metrics::instance();
  const bool was_enabled = observe::enabled();
  observe::set_enabled(true);

  // Large enough to clear the minimum-row SIMD dispatch threshold.
  std::vector<float> weights_t(16 * 16, 1.0F), bias(16, 0.0F), x(16, 1.0F),
      out(16);

  const std::uint64_t scalar_before =
      metrics.counter_value("kernels.dispatch.scalar");
  acbm::stats::set_active_isa(SimdIsa::kScalar);
  acbm::stats::gemv_t_f32(weights_t, bias, x, out);
  EXPECT_GE(metrics.counter_value("kernels.dispatch.scalar"),
            scalar_before + 1);

  const SimdIsa simd = acbm::stats::detected_isa();
  if (simd != SimdIsa::kScalar) {
    const std::string name =
        std::string("kernels.dispatch.") + acbm::stats::isa_name(simd);
    const std::uint64_t simd_before = metrics.counter_value(name);
    acbm::stats::set_active_isa(simd);
    acbm::stats::gemv_t_f32(weights_t, bias, x, out);
    EXPECT_GE(metrics.counter_value(name), simd_before + 1);
  }

  observe::set_enabled(was_enabled);
}

}  // namespace
