// Model tree: CART partitioning with multivariate-linear leaf models
// (M5-style), exactly the combination the paper's spatiotemporal model uses
// (§VI-A, Eq. 8-10: "each leaf node is attached to a simple model, in this
// case a multivariate linear model"). Includes post-pruning that collapses a
// subtree when a single leaf model would do at least as well (complexity-
// adjusted), plus optional prediction smoothing along the root path.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "stats/matrix.h"
#include "stats/ols.h"
#include "tree/cart.h"

namespace acbm::tree {

struct ModelTreeOptions {
  CartOptions cart;
  /// Paper §VI-B: "we prune the tree to keep only 88% of the original
  /// standard deviations" — nodes whose target SD is already below
  /// (1 - sd_keep_ratio) of the root SD are not split further.
  double sd_keep_ratio = 0.88;
  /// Collapse an internal node when its own linear model's training error is
  /// no worse than prune_factor x its subtree's error.
  double prune_factor = 1.0;
  bool enable_pruning = true;
  /// Use multivariate linear leaf models; false falls back to constant
  /// leaves (for the DESIGN.md leaf-type ablation).
  bool linear_leaves = true;
};

/// Snapshot of one node's attached model (parallel to
/// RegressionTree::nodes()), for the .armm packer
/// (core::armm::pack_model). intercept/coefficients are meaningful only
/// when use_linear is set.
struct LeafModelExport {
  bool use_linear = false;
  double mean = 0.0;
  double intercept = 0.0;
  std::vector<double> coefficients;
};

class ModelTree {
 public:
  ModelTree() = default;
  explicit ModelTree(ModelTreeOptions opts);

  /// Fits structure and leaf models. Throws std::invalid_argument on empty
  /// or mismatched input.
  void fit(const acbm::stats::Matrix& x, std::span<const double> y);

  [[nodiscard]] double predict(std::span<const double> features) const;
  [[nodiscard]] std::vector<double> predict(const acbm::stats::Matrix& x) const;

  [[nodiscard]] bool fitted() const noexcept { return tree_.fitted(); }
  [[nodiscard]] std::size_t leaf_count() const { return tree_.leaf_count(); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return tree_.node_count();
  }
  [[nodiscard]] std::size_t depth() const { return tree_.depth(); }
  [[nodiscard]] const RegressionTree& structure() const noexcept {
    return tree_;
  }
  [[nodiscard]] const std::vector<double>& feature_importance() const noexcept {
    return tree_.feature_importance();
  }

  /// One export per node (same order as structure().nodes()); unreachable
  /// descendants of pruned nodes are exported too but never consulted.
  [[nodiscard]] std::vector<LeafModelExport> export_leaf_models() const;

  /// Text serialization of the fitted state (structure + leaf models).
  void save(std::ostream& os) const;
  [[nodiscard]] static ModelTree load(std::istream& is);

 private:
  struct LeafModel {
    acbm::stats::LinearRegression linear;
    bool use_linear = false;
    double mean = 0.0;
  };

  /// Fits a leaf model on the given samples; falls back to the mean when the
  /// sample count cannot support a linear fit.
  [[nodiscard]] LeafModel fit_leaf(const acbm::stats::Matrix& x,
                                   std::span<const double> y,
                                   std::span<const std::size_t> idx) const;

  [[nodiscard]] double leaf_error(const LeafModel& leaf,
                                  const acbm::stats::Matrix& x,
                                  std::span<const double> y,
                                  std::span<const std::size_t> idx) const;

  /// Bottom-up pruning; returns the subtree's training MAE after pruning.
  double prune(std::size_t node_id, const acbm::stats::Matrix& x,
               std::span<const double> y);

  ModelTreeOptions opts_;
  RegressionTree tree_;
  std::vector<LeafModel> leaf_models_;  ///< Parallel to tree_.nodes().
};

}  // namespace acbm::tree
