// CART regression tree (Breiman et al. 1984) — the partitioning engine of
// the paper's spatiotemporal model (§VI-A): the feature space is recursively
// split into regions R_1, R_2, ... where simpler models become valid.
// This class predicts with constant (mean) leaves; ModelTree replaces the
// leaves with multivariate linear models (Eq. 8-10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "stats/matrix.h"

namespace acbm::tree {

struct CartOptions {
  std::size_t max_depth = 10;
  std::size_t min_samples_leaf = 5;
  std::size_t min_samples_split = 10;
  /// Stop splitting when a node's target SD falls below this fraction of the
  /// root SD. The paper prunes "to keep only 88% of the original standard
  /// deviations"; nodes purer than the remaining 12% are not worth splitting.
  double sd_stop_fraction = 0.12;
};

/// One node of the fitted tree; children are indices into the node vector
/// (-1 for none). Leaves predict their training mean.
struct CartNode {
  int left = -1;
  int right = -1;
  std::size_t feature = 0;
  double threshold = 0.0;
  double mean = 0.0;
  double sd = 0.0;
  std::size_t n_samples = 0;

  [[nodiscard]] bool is_leaf() const noexcept { return left < 0; }
};

class RegressionTree {
 public:
  RegressionTree() = default;
  explicit RegressionTree(CartOptions opts) : opts_(opts) {}

  /// Fits on an n x k design matrix. Throws std::invalid_argument on empty
  /// input, size mismatch, or n >= 2^32.
  void fit(const acbm::stats::Matrix& x, std::span<const double> y);

  [[nodiscard]] double predict(std::span<const double> features) const;
  [[nodiscard]] std::vector<double> predict(const acbm::stats::Matrix& x) const;

  [[nodiscard]] bool fitted() const noexcept { return !nodes_.empty(); }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t leaf_count() const;
  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] const std::vector<CartNode>& nodes() const noexcept {
    return nodes_;
  }

  /// Index of the leaf a sample falls into (for ModelTree's leaf lookup).
  [[nodiscard]] std::size_t leaf_index(std::span<const double> features) const;

  /// Training-set sample indices per node (parallel to nodes()); retained
  /// from the last fit so leaf models can be attached afterwards.
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& node_samples()
      const noexcept {
    return node_samples_;
  }

  /// Total variance reduction attributed to each feature during the last fit.
  [[nodiscard]] const std::vector<double>& feature_importance() const noexcept {
    return feature_importance_;
  }

  /// Turns an internal node into a leaf (its descendants become
  /// unreachable). Used by ModelTree's post-pruning pass.
  void collapse(std::size_t node_id);

  /// Text serialization of the fitted structure (training sample indices
  /// are not persisted — they only matter while fitting).
  void save(std::ostream& os) const;
  [[nodiscard]] static RegressionTree load(std::istream& is);

 private:
  struct SplitChoice {
    bool found = false;
    std::size_t feature = 0;
    double threshold = 0.0;
    double variance_reduction = 0.0;
  };

  /// Every feature column's row indices, sorted once at the root by
  /// (x, row index), then one more column of the rows in index order. Each
  /// split stably partitions all of them, so a node's rows are one segment
  /// [lo, lo + n) of every column, still in that column's order.
  struct Columns {
    std::size_t rows = 0;
    std::size_t features = 0;
    std::vector<std::uint32_t> order;  ///< Column-major, `rows` per column.
    std::vector<std::uint32_t> scratch;  ///< Partition buffer, `rows` long.
    std::vector<std::uint8_t> goes_left;  ///< Per row, the current split.

    /// Column `column` (a feature, or `features` for the row order).
    [[nodiscard]] std::span<std::uint32_t> segment(std::size_t column,
                                                   std::size_t lo,
                                                   std::size_t n) {
      return std::span(order).subspan(column * rows + lo, n);
    }
    [[nodiscard]] std::span<const std::uint32_t> segment(
        std::size_t column, std::size_t lo, std::size_t n) const {
      return std::span(order).subspan(column * rows + lo, n);
    }
  };

  [[nodiscard]] SplitChoice best_split(const acbm::stats::Matrix& x,
                                       std::span<const double> y,
                                       const Columns& cols, std::size_t lo,
                                       std::size_t n) const;

  /// Builds the subtree of the rows in segment [lo, lo + n) of the columns.
  int build(const acbm::stats::Matrix& x, std::span<const double> y,
            Columns& cols, std::size_t lo, std::size_t n, std::size_t depth,
            double root_sd);

  CartOptions opts_;
  std::vector<CartNode> nodes_;
  std::vector<std::vector<std::size_t>> node_samples_;
  std::vector<double> feature_importance_;
  std::size_t n_features_ = 0;
};

}  // namespace acbm::tree
