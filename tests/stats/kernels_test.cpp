// Property tests for the optimized dense kernels: every fused/blocked path
// must be bit-identical (0 ULP) to the naive reference loop it replaced,
// across shapes that cover the unroll remainders, tile edges, and the
// naive-vs-blocked dispatch threshold.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "stats/matrix.h"
#include "stats/rng.h"

namespace {

using acbm::stats::Matrix;
using acbm::stats::Rng;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.normal(0.0, 1.0);
  }
  return m;
}

/// The reference multiply the optimized operator* replaced: i-k-j loops,
/// sequential k-order accumulation into a zero-filled output.
Matrix naive_multiply(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += aik * b(k, j);
      }
    }
  }
  return out;
}

void expect_bit_identical(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      EXPECT_EQ(got(i, j), want(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(KernelsTest, BlockedMultiplyMatchesNaiveBitForBit) {
  Rng rng(42);
  // Shapes straddling the dispatch threshold and exercising remainders of
  // the 4-wide unroll and the 64-column block.
  const std::size_t shapes[][3] = {{3, 5, 4},    {17, 13, 9},  {32, 32, 32},
                                   {40, 33, 65}, {70, 71, 69}, {128, 20, 100}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[1], rng);
    const Matrix b = random_matrix(s[1], s[2], rng);
    expect_bit_identical(a * b, naive_multiply(a, b));
  }
}

TEST(KernelsTest, TiledTransposeMatchesElementwise) {
  Rng rng(7);
  // Sizes around the 32-wide transpose tile.
  const std::size_t shapes[][2] = {{1, 1}, {5, 9}, {31, 33}, {64, 64}, {70, 3}};
  for (const auto& s : shapes) {
    const Matrix m = random_matrix(s[0], s[1], rng);
    const Matrix t = m.transpose();
    ASSERT_EQ(t.rows(), m.cols());
    ASSERT_EQ(t.cols(), m.rows());
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        EXPECT_EQ(t(j, i), m(i, j));
      }
    }
  }
}

TEST(KernelsTest, FusedNormalEquationsMatchesTransposeReference) {
  Rng rng(99);
  const std::size_t shapes[][2] = {{8, 3}, {50, 7}, {100, 13}, {64, 24}};
  for (const auto& s : shapes) {
    const std::size_t n = s[0];
    const std::size_t k = s[1];
    const Matrix a = random_matrix(n, k, rng);
    std::vector<double> y(n);
    for (double& v : y) v = rng.normal(0.0, 2.0);

    // Reference: materialized transpose, naive products.
    const Matrix at = a.transpose();
    const Matrix ata_ref = naive_multiply(at, a);
    const std::vector<double> atb_ref = at.apply(y);

    const acbm::stats::NormalEquations ne =
        acbm::stats::fused_normal_equations(a, y, 0.0);
    expect_bit_identical(ne.ata, ata_ref);
    ASSERT_EQ(ne.atb.size(), atb_ref.size());
    for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(ne.atb[i], atb_ref[i]);
  }
}

TEST(KernelsTest, FusedNormalEquationsRidgeOnDiagonalOnly) {
  Rng rng(5);
  const Matrix a = random_matrix(20, 6, rng);
  std::vector<double> y(20);
  for (double& v : y) v = rng.normal(0.0, 1.0);
  const auto plain = acbm::stats::fused_normal_equations(a, y, 0.0);
  const auto ridged = acbm::stats::fused_normal_equations(a, y, 0.5);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i == j) {
        EXPECT_EQ(ridged.ata(i, j), plain.ata(i, j) + 0.5);
      } else {
        EXPECT_EQ(ridged.ata(i, j), plain.ata(i, j));
      }
    }
  }
}

TEST(KernelsTest, UninitializedMatrixIsFullySizedAndWritable) {
  Matrix m = Matrix::uninitialized(13, 7);
  EXPECT_EQ(m.rows(), 13u);
  EXPECT_EQ(m.cols(), 7u);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      m(i, j) = static_cast<double>(i * 7 + j);
    }
  }
  EXPECT_EQ(m(12, 6), 90.0);
}

}  // namespace
