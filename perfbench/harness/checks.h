// Output checks: a workload's results are checked before they are timed or
// reported, and a failed check fails the operation that produced it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/pipeline.h"

namespace perfbench {

/// The observation window a forecast must stay near: the first and last
/// attack start of the fitted dataset.
struct Window {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Empty when `pred` is plausible, else the reason. Plausible means finite
/// fields, hour in [0, 24), magnitude > 0, a non-negative duration, and a
/// start inside [window.start, window.end + horizon], where the horizon is
/// the window's own length.
[[nodiscard]] std::string implausible_forecast(
    const acbm::core::AttackPrediction& pred, const Window& window);

/// Empty when `rmse` is a finite, non-negative error, else the reason.
[[nodiscard]] std::string bad_rmse(double rmse);

/// FNV-1a 64 of an artifact image, as 16 hex digits.
[[nodiscard]] std::string image_hash(std::string_view image);

}  // namespace perfbench
