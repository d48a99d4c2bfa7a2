#include "checks.h"

#include <cmath>
#include <cstdio>

#include "core/durable.h"

namespace perfbench {

std::string implausible_forecast(const acbm::core::AttackPrediction& pred,
                                 const Window& window) {
  if (!std::isfinite(pred.hour) || pred.hour < 0.0 || pred.hour >= 24.0) {
    return "hour " + std::to_string(pred.hour) + " outside [0, 24)";
  }
  if (!std::isfinite(pred.magnitude) || pred.magnitude <= 0.0) {
    return "magnitude " + std::to_string(pred.magnitude) + " not > 0";
  }
  if (!std::isfinite(pred.duration_s) || pred.duration_s < 0.0) {
    return "duration " + std::to_string(pred.duration_s) + " not >= 0";
  }
  if (!std::isfinite(pred.day)) return "non-finite day";
  const std::int64_t horizon = window.end - window.start;
  if (pred.start < window.start || pred.start > window.end + horizon) {
    return "start " + std::to_string(pred.start) + " outside [" +
           std::to_string(window.start) + ", " +
           std::to_string(window.end + horizon) + "]";
  }
  return {};
}

std::string bad_rmse(double rmse) {
  if (!std::isfinite(rmse) || rmse < 0.0) {
    return "RMSE " + std::to_string(rmse) + " is not a finite error";
  }
  return {};
}

std::string image_hash(std::string_view image) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    acbm::core::durable::fnv1a64(image)));
  return hex;
}

}  // namespace perfbench
