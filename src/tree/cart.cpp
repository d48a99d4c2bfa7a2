#include "tree/cart.h"

#include "stats/serialize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace acbm::tree {

namespace {
double subset_mean(std::span<const double> y,
                   std::span<const std::uint32_t> idx) {
  double acc = 0.0;
  for (std::uint32_t i : idx) acc += y[i];
  return idx.empty() ? 0.0 : acc / static_cast<double>(idx.size());
}

double subset_sd(std::span<const double> y,
                 std::span<const std::uint32_t> idx) {
  if (idx.size() < 2) return 0.0;
  const double m = subset_mean(y, idx);
  double acc = 0.0;
  for (std::uint32_t i : idx) acc += (y[i] - m) * (y[i] - m);
  return std::sqrt(acc / static_cast<double>(idx.size()));
}
}  // namespace

RegressionTree::SplitChoice RegressionTree::best_split(
    const acbm::stats::Matrix& x, std::span<const double> y,
    const Columns& cols, std::size_t lo, std::size_t n) const {
  SplitChoice best;
  if (n < 2) return best;

  // Parent sum of squared deviations, for the reduction computation.
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::uint32_t i : cols.segment(cols.features, lo, n)) {
    sum += y[i];
    sum_sq += y[i] * y[i];
  }
  const double parent_sse = sum_sq - sum * sum / static_cast<double>(n);

  for (std::size_t f = 0; f < cols.features; ++f) {
    // The node's rows, already in (x, row index) order for this feature.
    const std::span<const std::uint32_t> order = cols.segment(f, lo, n);
    // Prefix scan: evaluate the split after each position.
    double left_sum = 0.0;
    double left_sq = 0.0;
    for (std::size_t pos = 0; pos + 1 < n; ++pos) {
      const double yi = y[order[pos]];
      left_sum += yi;
      left_sq += yi * yi;
      const double xv = x(order[pos], f);
      const double xnext = x(order[pos + 1], f);
      if (xv == xnext) continue;  // Can't split between equal values.
      const std::size_t nl = pos + 1;
      const std::size_t nr = n - nl;
      if (nl < opts_.min_samples_leaf || nr < opts_.min_samples_leaf) continue;
      const double right_sum = sum - left_sum;
      const double right_sq = sum_sq - left_sq;
      const double sse_l = left_sq - left_sum * left_sum / static_cast<double>(nl);
      const double sse_r = right_sq - right_sum * right_sum / static_cast<double>(nr);
      const double reduction = parent_sse - sse_l - sse_r;
      if (reduction > best.variance_reduction) {
        best.found = true;
        best.feature = f;
        best.threshold = (xv + xnext) / 2.0;
        best.variance_reduction = reduction;
      }
    }
  }
  return best;
}

int RegressionTree::build(const acbm::stats::Matrix& x,
                          std::span<const double> y, Columns& cols,
                          std::size_t lo, std::size_t n, std::size_t depth,
                          double root_sd) {
  const std::span<const std::uint32_t> idx =
      cols.segment(cols.features, lo, n);
  const int node_id = static_cast<int>(nodes_.size());
  CartNode node;
  node.n_samples = n;
  node.mean = subset_mean(y, idx);
  node.sd = subset_sd(y, idx);
  nodes_.push_back(node);
  node_samples_.emplace_back(idx.begin(), idx.end());

  const bool too_deep = depth >= opts_.max_depth;
  const bool too_small = n < opts_.min_samples_split;
  const bool pure_enough = node.sd < opts_.sd_stop_fraction * root_sd;
  if (too_deep || too_small || pure_enough) return node_id;

  const SplitChoice split = best_split(x, y, cols, lo, n);
  if (!split.found || split.variance_reduction <= 0.0) return node_id;

  std::size_t nl = 0;
  for (std::uint32_t i : idx) {
    cols.goes_left[i] = x(i, split.feature) <= split.threshold ? 1 : 0;
    nl += cols.goes_left[i];
  }
  if (nl == 0 || nl == n) return node_id;

  // Stable partition of every column segment, the row-order one included:
  // the left child's rows come first, each side still in its column's
  // order, so the children are segments [lo, lo + nl) and [lo + nl, lo + n).
  for (std::size_t f = 0; f <= cols.features; ++f) {
    const std::span<std::uint32_t> seg = cols.segment(f, lo, n);
    std::size_t li = 0;
    std::size_t ri = 0;
    for (const std::uint32_t i : seg) {
      if (cols.goes_left[i] != 0) {
        seg[li++] = i;
      } else {
        cols.scratch[ri++] = i;
      }
    }
    std::copy_n(cols.scratch.begin(), ri, seg.begin() + li);
  }

  feature_importance_[split.feature] += split.variance_reduction;
  const int left = build(x, y, cols, lo, nl, depth + 1, root_sd);
  const int right = build(x, y, cols, lo + nl, n - nl, depth + 1, root_sd);
  nodes_[static_cast<std::size_t>(node_id)].left = left;
  nodes_[static_cast<std::size_t>(node_id)].right = right;
  nodes_[static_cast<std::size_t>(node_id)].feature = split.feature;
  nodes_[static_cast<std::size_t>(node_id)].threshold = split.threshold;
  return node_id;
}

void RegressionTree::fit(const acbm::stats::Matrix& x,
                         std::span<const double> y) {
  if (x.rows() == 0 || x.cols() == 0) {
    throw std::invalid_argument("RegressionTree::fit: empty design matrix");
  }
  if (y.size() != x.rows()) {
    throw std::invalid_argument("RegressionTree::fit: size mismatch");
  }
  if (x.rows() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("RegressionTree::fit: too many rows");
  }
  nodes_.clear();
  node_samples_.clear();
  n_features_ = x.cols();
  feature_importance_.assign(n_features_, 0.0);

  // Each feature column sorted once, by the total order (x, row index),
  // and after them the rows in index order; splits then only partition.
  const std::size_t n = x.rows();
  Columns cols;
  cols.rows = n;
  cols.features = n_features_;
  cols.order.resize((n_features_ + 1) * n);
  cols.scratch.resize(n);
  cols.goes_left.resize(n);
  for (std::size_t f = 0; f <= n_features_; ++f) {
    const std::span<std::uint32_t> column = cols.segment(f, 0, n);
    std::iota(column.begin(), column.end(), std::uint32_t{0});
    if (f == n_features_) continue;  // The row-order column.
    std::sort(column.begin(), column.end(),
              [&x, f](std::uint32_t a, std::uint32_t b) {
                const double xa = x(a, f);
                const double xb = x(b, f);
                return xa < xb || (xa == xb && a < b);
              });
  }

  const double root_sd = subset_sd(y, cols.segment(n_features_, 0, n));
  build(x, y, cols, 0, n, 0, root_sd);
}

std::size_t RegressionTree::leaf_index(std::span<const double> features) const {
  if (!fitted()) throw std::logic_error("RegressionTree: not fitted");
  if (features.size() != n_features_) {
    throw std::invalid_argument("RegressionTree: feature count mismatch");
  }
  std::size_t cur = 0;
  while (!nodes_[cur].is_leaf()) {
    const CartNode& node = nodes_[cur];
    cur = static_cast<std::size_t>(
        features[node.feature] <= node.threshold ? node.left : node.right);
  }
  return cur;
}

double RegressionTree::predict(std::span<const double> features) const {
  return nodes_[leaf_index(features)].mean;
}

std::vector<double> RegressionTree::predict(const acbm::stats::Matrix& x) const {
  std::vector<double> out;
  out.reserve(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out.push_back(predict(x.row(i)));
  return out;
}

void RegressionTree::collapse(std::size_t node_id) {
  if (node_id >= nodes_.size()) {
    throw std::out_of_range("RegressionTree::collapse");
  }
  nodes_[node_id].left = -1;
  nodes_[node_id].right = -1;
}

std::size_t RegressionTree::leaf_count() const {
  if (nodes_.empty()) return 0;
  // Traverse from the root: collapsed subtrees leave unreachable nodes in
  // the vector, which must not be counted.
  std::size_t count = 0;
  std::vector<std::size_t> stack{0};
  while (!stack.empty()) {
    const CartNode& node = nodes_[stack.back()];
    stack.pop_back();
    if (node.is_leaf()) {
      ++count;
    } else {
      stack.push_back(static_cast<std::size_t>(node.left));
      stack.push_back(static_cast<std::size_t>(node.right));
    }
  }
  return count;
}

void RegressionTree::save(std::ostream& os) const {
  namespace io = acbm::stats::io;
  io::write_header(os, "cart", 1);
  io::write_scalar(os, "n_features", n_features_);
  io::write_scalar(os, "node_count", nodes_.size());
  for (const CartNode& node : nodes_) {
    os << "node " << node.left << ' ' << node.right << ' ' << node.feature
       << ' ' << node.threshold << ' ' << node.mean << ' ' << node.sd << ' '
       << node.n_samples << '\n';
  }
  io::write_vector<double>(os, "importance", feature_importance_);
}

RegressionTree RegressionTree::load(std::istream& is) {
  namespace io = acbm::stats::io;
  io::expect_header(is, "cart", 1);
  RegressionTree tree;
  tree.n_features_ = io::read_scalar<std::size_t>(is, "n_features");
  const auto count = io::read_scalar<std::size_t>(is, "node_count");
  tree.nodes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto ss = io::expect_tag(is, "node");
    CartNode node;
    if (!(ss >> node.left >> node.right >> node.feature >> node.threshold >>
          node.mean >> node.sd >> node.n_samples)) {
      throw std::invalid_argument("RegressionTree::load: malformed node");
    }
    tree.nodes_.push_back(node);
  }
  tree.feature_importance_ = io::read_vector<double>(is, "importance");
  // Validate child links so a corrupt file cannot cause out-of-range walks.
  for (const CartNode& node : tree.nodes_) {
    const auto valid = [&](int child) {
      return child == -1 ||
             (child > 0 && static_cast<std::size_t>(child) < tree.nodes_.size());
    };
    if (!valid(node.left) || !valid(node.right) ||
        (node.left < 0) != (node.right < 0)) {
      throw std::invalid_argument("RegressionTree::load: bad child link");
    }
  }
  return tree;
}

std::size_t RegressionTree::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the index-linked structure.
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 0}};
  std::size_t max_depth = 0;
  while (!stack.empty()) {
    const auto [id, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const CartNode& node = nodes_[id];
    if (!node.is_leaf()) {
      stack.emplace_back(static_cast<std::size_t>(node.left), d + 1);
      stack.emplace_back(static_cast<std::size_t>(node.right), d + 1);
    }
  }
  return max_depth;
}

}  // namespace acbm::tree
