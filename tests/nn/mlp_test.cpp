#include "nn/mlp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/descriptive.h"
#include "stats/metrics.h"
#include "stats/rng.h"

namespace acbm::nn {
namespace {

TEST(Mlp, FitsLinearFunction) {
  // y = 3x - 1 on [0, 1]; a tanh net must nail this.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 60; ++i) {
    const double v = i / 60.0;
    x.push_back({v});
    y.push_back(3.0 * v - 1.0);
  }
  MlpOptions opts;
  opts.hidden_units = 6;
  opts.max_epochs = 400;
  opts.seed = 3;
  Mlp net(opts);
  net.fit(x, y);
  double max_err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    max_err = std::max(max_err, std::abs(net.predict(x[i]) - y[i]));
  }
  EXPECT_LT(max_err, 0.15);
}

TEST(Mlp, FitsSineWave) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double v = -3.0 + 6.0 * i / 199.0;
    x.push_back({v});
    y.push_back(std::sin(v));
  }
  MlpOptions opts;
  opts.hidden_units = 16;
  opts.max_epochs = 800;
  opts.learning_rate = 5e-3;
  opts.seed = 7;
  Mlp net(opts);
  net.fit(x, y);
  std::vector<double> preds;
  for (const auto& row : x) preds.push_back(net.predict(row));
  EXPECT_LT(acbm::stats::rmse(y, preds), 0.12);
}

TEST(Mlp, LearnsXorPattern) {
  // XOR is the canonical not-linearly-separable check.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int rep = 0; rep < 25; ++rep) {
    x.push_back({0.0, 0.0});
    y.push_back(0.0);
    x.push_back({0.0, 1.0});
    y.push_back(1.0);
    x.push_back({1.0, 0.0});
    y.push_back(1.0);
    x.push_back({1.0, 1.0});
    y.push_back(0.0);
  }
  MlpOptions opts;
  opts.hidden_units = 8;
  opts.max_epochs = 1500;
  opts.learning_rate = 1e-2;
  opts.seed = 11;
  opts.validation_fraction = 0.0;
  Mlp net(opts);
  net.fit(x, y);
  EXPECT_LT(net.predict(std::vector<double>{0.0, 0.0}), 0.3);
  EXPECT_GT(net.predict(std::vector<double>{0.0, 1.0}), 0.7);
  EXPECT_GT(net.predict(std::vector<double>{1.0, 0.0}), 0.7);
  EXPECT_LT(net.predict(std::vector<double>{1.0, 1.0}), 0.3);
}

TEST(Mlp, GradientMatchesNumericalDifferentiation) {
  MlpOptions opts;
  opts.hidden_units = 4;
  opts.max_epochs = 1;  // We only need an initialized network.
  opts.seed = 13;
  Mlp net(opts);
  std::vector<std::vector<double>> x{{0.1, -0.4}, {0.5, 0.2}, {-0.3, 0.9},
                                     {0.8, -0.6}, {0.0, 0.0}, {1.0, 1.0},
                                     {-1.0, 0.5}, {0.3, 0.3}, {0.6, -0.1},
                                     {-0.2, -0.8}};
  std::vector<double> y{0.2, 0.5, -0.1, 0.9, 0.0, 1.0, -0.5, 0.3, 0.4, -0.7};
  net.fit(x, y);

  const std::vector<double> sample{0.37, -0.21};
  const double target = 0.44;
  const std::vector<double> analytic = net.loss_gradient(sample, target);
  std::vector<double> params = net.parameters();
  ASSERT_EQ(analytic.size(), params.size());

  constexpr double kEps = 1e-6;
  for (std::size_t p = 0; p < params.size(); ++p) {
    std::vector<double> bumped = params;
    bumped[p] += kEps;
    net.set_parameters(bumped);
    const double up = net.sample_loss(sample, target);
    bumped[p] -= 2.0 * kEps;
    net.set_parameters(bumped);
    const double down = net.sample_loss(sample, target);
    net.set_parameters(params);
    const double numeric = (up - down) / (2.0 * kEps);
    EXPECT_NEAR(analytic[p], numeric, 1e-4)
        << "gradient mismatch at parameter " << p;
  }
}

TEST(Mlp, RejectsBadInput) {
  Mlp net;
  EXPECT_THROW(net.fit({}, std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(net.fit({{1.0}, {2.0, 3.0}}, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(net.fit({{1.0}}, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW((void)net.predict(std::vector<double>{1.0}), std::logic_error);
}

TEST(Mlp, PredictRejectsWrongWidth) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 30; ++i) {
    x.push_back({static_cast<double>(i), 1.0});
    y.push_back(static_cast<double>(i));
  }
  Mlp net;
  net.fit(x, y);
  EXPECT_THROW((void)net.predict(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Mlp, DeterministicForFixedSeed) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double v = i / 50.0;
    x.push_back({v});
    y.push_back(v * v);
  }
  MlpOptions opts;
  opts.seed = 99;
  opts.max_epochs = 100;
  Mlp a(opts);
  Mlp b(opts);
  a.fit(x, y);
  b.fit(x, y);
  for (const auto& row : x) {
    EXPECT_DOUBLE_EQ(a.predict(row), b.predict(row));
  }
}

TEST(Mlp, SgdOptimizerAlsoConverges) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 80; ++i) {
    const double v = i / 80.0;
    x.push_back({v});
    y.push_back(2.0 * v + 0.5);
  }
  MlpOptions opts;
  opts.optimizer = Optimizer::kSgdMomentum;
  opts.learning_rate = 5e-3;
  opts.max_epochs = 600;
  opts.seed = 17;
  Mlp net(opts);
  net.fit(x, y);
  std::vector<double> preds;
  for (const auto& row : x) preds.push_back(net.predict(row));
  EXPECT_LT(acbm::stats::rmse(y, preds), 0.1);
}

TEST(Mlp, TinyDatasetTrainsWithoutValidationSplit) {
  // 6 samples: validation holdout is disabled internally; must not throw.
  std::vector<std::vector<double>> x{{0.0}, {1.0}, {2.0}, {3.0}, {4.0}, {5.0}};
  std::vector<double> y{0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
  Mlp net;
  EXPECT_NO_THROW(net.fit(x, y));
  EXPECT_TRUE(net.fitted());
}

// Property: multi-dimensional regression beats the mean baseline.
class MlpRegressionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MlpRegressionProperty, BeatsMeanBaselineOnSmoothFunction) {
  acbm::stats::Rng rng(GetParam());
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    x.push_back({a, b});
    y.push_back(a * b + 0.5 * a - 0.2 * b * b);
  }
  MlpOptions opts;
  opts.hidden_units = 12;
  opts.max_epochs = 600;
  opts.seed = GetParam();
  Mlp net(opts);
  net.fit(x, y);
  std::vector<double> preds;
  for (const auto& row : x) preds.push_back(net.predict(row));
  std::vector<double> mean_pred(y.size(), acbm::stats::mean(y));
  EXPECT_LT(acbm::stats::rmse(y, preds),
            0.4 * acbm::stats::rmse(y, mean_pred));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MlpRegressionProperty,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace acbm::nn
