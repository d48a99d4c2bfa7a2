#include "tree/cart.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "stats/metrics.h"
#include "stats/rng.h"

namespace acbm::tree {
namespace {

using acbm::stats::Matrix;

// Piecewise-constant target: the natural CART test case.
void make_step_data(Matrix& x, std::vector<double>& y, std::size_t n,
                    std::uint64_t seed) {
  acbm::stats::Rng rng(seed);
  x = Matrix(n, 1);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.uniform(0.0, 1.0);
    x(i, 0) = v;
    y[i] = v < 0.5 ? (v < 0.25 ? 1.0 : 5.0) : 9.0;
  }
}

TEST(RegressionTree, FitsPiecewiseConstantExactly) {
  Matrix x;
  std::vector<double> y;
  make_step_data(x, y, 400, 3);
  RegressionTree tree({.max_depth = 6, .min_samples_leaf = 5,
                       .min_samples_split = 10, .sd_stop_fraction = 0.0});
  tree.fit(x, y);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.1}), 1.0, 0.01);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.4}), 5.0, 0.01);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.9}), 9.0, 0.01);
}

TEST(RegressionTree, RespectsMaxDepth) {
  Matrix x;
  std::vector<double> y;
  make_step_data(x, y, 300, 5);
  RegressionTree stump({.max_depth = 1, .min_samples_leaf = 5,
                        .min_samples_split = 10, .sd_stop_fraction = 0.0});
  stump.fit(x, y);
  EXPECT_LE(stump.depth(), 1u);
  EXPECT_LE(stump.leaf_count(), 2u);
}

TEST(RegressionTree, RespectsMinSamplesLeaf) {
  Matrix x;
  std::vector<double> y;
  make_step_data(x, y, 200, 7);
  RegressionTree tree({.max_depth = 20, .min_samples_leaf = 30,
                       .min_samples_split = 60, .sd_stop_fraction = 0.0});
  tree.fit(x, y);
  for (std::size_t id = 0; id < tree.node_count(); ++id) {
    if (tree.nodes()[id].is_leaf()) {
      EXPECT_GE(tree.nodes()[id].n_samples, 30u);
    }
  }
}

TEST(RegressionTree, SdStopFractionPrunesAggressively) {
  Matrix x;
  std::vector<double> y;
  make_step_data(x, y, 400, 9);
  RegressionTree full({.max_depth = 12, .min_samples_leaf = 2,
                       .min_samples_split = 4, .sd_stop_fraction = 0.0});
  RegressionTree coarse({.max_depth = 12, .min_samples_leaf = 2,
                         .min_samples_split = 4, .sd_stop_fraction = 0.7});
  full.fit(x, y);
  coarse.fit(x, y);
  EXPECT_LT(coarse.leaf_count(), full.leaf_count());
}

TEST(RegressionTree, ConstantTargetYieldsSingleLeaf) {
  Matrix x(50, 2);
  acbm::stats::Rng rng(11);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
  }
  std::vector<double> y(50, 7.0);
  RegressionTree tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.5, 0.5}), 7.0);
}

TEST(RegressionTree, SplitsOnInformativeFeatureOnly) {
  acbm::stats::Rng rng(13);
  Matrix x(300, 2);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    x(i, 0) = rng.uniform();         // Informative.
    x(i, 1) = rng.uniform();         // Pure noise.
    y[i] = x(i, 0) > 0.5 ? 10.0 : 0.0;
  }
  RegressionTree tree;
  tree.fit(x, y);
  const auto& importance = tree.feature_importance();
  ASSERT_EQ(importance.size(), 2u);
  EXPECT_GT(importance[0], 10.0 * importance[1] + 1e-9);
}

TEST(RegressionTree, PredictionIsWithinTrainingRange) {
  acbm::stats::Rng rng(17);
  Matrix x(200, 1);
  std::vector<double> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.uniform(-5.0, 5.0);
    y[i] = std::sin(x(i, 0)) * 3.0;
  }
  RegressionTree tree;
  tree.fit(x, y);
  // Mean leaves can never extrapolate beyond the target range.
  for (double probe = -100.0; probe <= 100.0; probe += 7.3) {
    const double p = tree.predict(std::vector<double>{probe});
    EXPECT_GE(p, -3.0);
    EXPECT_LE(p, 3.0);
  }
}

TEST(RegressionTree, RejectsBadInput) {
  RegressionTree tree;
  EXPECT_THROW(tree.fit(Matrix(), std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(tree.fit(Matrix(2, 1), std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}), std::logic_error);
}

TEST(RegressionTree, PredictRejectsWrongFeatureCount) {
  Matrix x(20, 2, 1.0);
  for (std::size_t i = 0; i < 20; ++i) x(i, 0) = static_cast<double>(i);
  std::vector<double> y(20, 1.0);
  RegressionTree tree;
  tree.fit(x, y);
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(RegressionTree, CollapseMakesNodeALeaf) {
  Matrix x;
  std::vector<double> y;
  make_step_data(x, y, 200, 19);
  RegressionTree tree;
  tree.fit(x, y);
  ASSERT_GT(tree.node_count(), 1u);
  tree.collapse(0);
  EXPECT_EQ(tree.leaf_index(std::vector<double>{0.3}), 0u);
  EXPECT_THROW(tree.collapse(tree.node_count()), std::out_of_range);
}

// Property: deeper trees never fit the training data worse.
class DepthMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DepthMonotonicity, TrainingErrorNonIncreasingInDepth) {
  acbm::stats::Rng rng(GetParam());
  Matrix x(250, 2);
  std::vector<double> y(250);
  for (std::size_t i = 0; i < 250; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = 4.0 * x(i, 0) - 2.0 * x(i, 1) + rng.normal(0.0, 0.3);
  }
  double prev_rmse = 1e18;
  for (std::size_t depth : {1u, 3u, 6u, 10u}) {
    RegressionTree tree({.max_depth = depth, .min_samples_leaf = 2,
                         .min_samples_split = 4, .sd_stop_fraction = 0.0});
    tree.fit(x, y);
    const double err = acbm::stats::rmse(y, tree.predict(x));
    EXPECT_LE(err, prev_rmse + 1e-9);
    prev_rmse = err;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DepthMonotonicity,
                         ::testing::Values(1u, 2u, 3u, 4u));

// Reference CART: the same split search, but every node sorts its own rows
// by (x, row index) instead of partitioning presorted columns. The fitted
// tree must match it node for node, bit for bit.
class ReferenceCart {
 public:
  ReferenceCart(const CartOptions& opts, const Matrix& x,
                std::span<const double> y)
      : importance(x.cols(), 0.0), opts_(opts), x_(x), y_(y) {
    std::vector<std::size_t> idx(x.rows());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    build(idx, 0, sd(idx));
  }

  std::vector<CartNode> nodes;
  std::vector<std::vector<std::size_t>> samples;
  std::vector<double> importance;

 private:
  CartOptions opts_;
  const Matrix& x_;
  std::span<const double> y_;

  double mean(const std::vector<std::size_t>& idx) const {
    double acc = 0.0;
    for (std::size_t i : idx) acc += y_[i];
    return idx.empty() ? 0.0 : acc / static_cast<double>(idx.size());
  }

  double sd(const std::vector<std::size_t>& idx) const {
    if (idx.size() < 2) return 0.0;
    const double m = mean(idx);
    double acc = 0.0;
    for (std::size_t i : idx) acc += (y_[i] - m) * (y_[i] - m);
    return std::sqrt(acc / static_cast<double>(idx.size()));
  }

  int build(const std::vector<std::size_t>& idx, std::size_t depth,
            double root_sd) {
    const int id = static_cast<int>(nodes.size());
    CartNode node;
    node.n_samples = idx.size();
    node.mean = mean(idx);
    node.sd = sd(idx);
    nodes.push_back(node);
    samples.push_back(idx);
    if (depth >= opts_.max_depth || idx.size() < opts_.min_samples_split ||
        node.sd < opts_.sd_stop_fraction * root_sd) {
      return id;
    }

    const std::size_t n = idx.size();
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i : idx) {
      sum += y_[i];
      sum_sq += y_[i] * y_[i];
    }
    const double parent_sse = sum_sq - sum * sum / static_cast<double>(n);
    bool found = false;
    std::size_t feature = 0;
    double threshold = 0.0;
    double best = 0.0;
    for (std::size_t f = 0; f < x_.cols(); ++f) {
      std::vector<std::size_t> order = idx;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return x_(a, f) < x_(b, f) || (x_(a, f) == x_(b, f) && a < b);
      });
      double left_sum = 0.0;
      double left_sq = 0.0;
      for (std::size_t pos = 0; pos + 1 < n; ++pos) {
        const double yi = y_[order[pos]];
        left_sum += yi;
        left_sq += yi * yi;
        const double xv = x_(order[pos], f);
        const double xnext = x_(order[pos + 1], f);
        if (xv == xnext) continue;
        const std::size_t nl = pos + 1;
        const std::size_t nr = n - nl;
        if (nl < opts_.min_samples_leaf || nr < opts_.min_samples_leaf) {
          continue;
        }
        const double right_sum = sum - left_sum;
        const double right_sq = sum_sq - left_sq;
        const double reduction =
            parent_sse -
            (left_sq - left_sum * left_sum / static_cast<double>(nl)) -
            (right_sq - right_sum * right_sum / static_cast<double>(nr));
        if (reduction > best) {
          found = true;
          feature = f;
          threshold = (xv + xnext) / 2.0;
          best = reduction;
        }
      }
    }
    if (!found || best <= 0.0) return id;
    std::vector<std::size_t> left_idx;
    std::vector<std::size_t> right_idx;
    for (std::size_t i : idx) {
      (x_(i, feature) <= threshold ? left_idx : right_idx).push_back(i);
    }
    if (left_idx.empty() || right_idx.empty()) return id;
    importance[feature] += best;
    const int left = build(left_idx, depth + 1, root_sd);
    const int right = build(right_idx, depth + 1, root_sd);
    CartNode& parent = nodes[static_cast<std::size_t>(id)];
    parent.left = left;
    parent.right = right;
    parent.feature = feature;
    parent.threshold = threshold;
    return id;
  }

};

class PresortedCartReference
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PresortedCartReference, MatchesPerNodeSortNodeForNode) {
  // Non-integer targets (so the prefix sums round) over heavily tied
  // features: a handful of levels per column, plus one continuous column.
  acbm::stats::Rng rng(GetParam());
  const std::size_t n = 600;
  Matrix x(n, 4);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(rng.uniform_int(0, 3));
    x(i, 1) = 0.5 * static_cast<double>(rng.uniform_int(0, 5));
    x(i, 2) = rng.uniform();
    x(i, 3) = static_cast<double>(rng.uniform_int(0, 1));
    y[i] = 1.7 * x(i, 0) - 0.3 * x(i, 1) * x(i, 3) + std::sin(6.0 * x(i, 2)) +
           rng.normal(0.0, 0.4);
  }
  const CartOptions opts{.max_depth = 8, .min_samples_leaf = 3,
                         .min_samples_split = 6, .sd_stop_fraction = 0.05};
  RegressionTree tree(opts);
  tree.fit(x, y);
  const ReferenceCart ref(opts, x, y);

  ASSERT_EQ(tree.node_count(), ref.nodes.size());
  EXPECT_GT(tree.node_count(), 15u);
  for (std::size_t k = 0; k < ref.nodes.size(); ++k) {
    const CartNode& got = tree.nodes()[k];
    const CartNode& want = ref.nodes[k];
    EXPECT_EQ(got.left, want.left) << "node " << k;
    EXPECT_EQ(got.right, want.right) << "node " << k;
    EXPECT_EQ(got.feature, want.feature) << "node " << k;
    EXPECT_EQ(got.threshold, want.threshold) << "node " << k;
    EXPECT_EQ(got.mean, want.mean) << "node " << k;
    EXPECT_EQ(got.sd, want.sd) << "node " << k;
    EXPECT_EQ(got.n_samples, want.n_samples) << "node " << k;
    EXPECT_EQ(tree.node_samples()[k], ref.samples[k]) << "node " << k;
  }
  EXPECT_EQ(tree.feature_importance(), ref.importance);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresortedCartReference,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace acbm::tree
