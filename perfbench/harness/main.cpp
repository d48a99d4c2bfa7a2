// The benchmark harness: one phase of one workload per process.
//
//   acbm_perfbench <phase> --key value ...
//
// Phases: setup-build, check-build, load, setup-ingest, check-ingest,
// trace-fit, trace-ingest, selftest. Each prints one JSON line on stdout
// (see common.h Report); perfbench/run.py sequences them into a workload run.
#include <cmath>
#include <exception>
#include <iostream>
#include <limits>
#include <string>

#include "checks.h"
#include "workloads.h"

namespace perfbench {

int run_selftest(const Args&) {
  Checks checks;
  const Window window{1'000'000, 1'000'000 + 100 * 86400};
  acbm::core::AttackPrediction good;
  good.magnitude = 40.0;
  good.duration_s = 600.0;
  good.hour = 13.5;
  good.day = 101.0;
  good.start = window.end + 3600;
  checks.expect(implausible_forecast(good, window).empty(),
                "a plausible forecast was rejected");
  const auto rejects = [&](const char* what, auto corrupt) {
    acbm::core::AttackPrediction bad = good;
    corrupt(bad);
    checks.expect(!implausible_forecast(bad, window).empty(),
                  std::string("accepted a forecast with ") + what);
  };
  rejects("hour 24", [](auto& p) { p.hour = 24.0; });
  rejects("a negative hour", [](auto& p) { p.hour = -0.5; });
  rejects("a NaN hour", [](auto& p) { p.hour = std::nan(""); });
  rejects("magnitude 0", [](auto& p) { p.magnitude = 0.0; });
  rejects("an infinite magnitude",
          [](auto& p) { p.magnitude = std::numeric_limits<double>::infinity(); });
  rejects("a negative duration", [](auto& p) { p.duration_s = -1.0; });
  rejects("a start before the window", [&](auto& p) { p.start = window.start - 1; });
  rejects("a start past window + horizon",
          [&](auto& p) { p.start = window.end + (window.end - window.start) + 1; });
  rejects("a 1e19-day date", [](auto& p) { p.day = 1e19 * 86400.0; p.start = 1LL << 62; });
  checks.expect(bad_rmse(3.8).empty(), "a finite RMSE was rejected");
  checks.expect(!bad_rmse(std::nan("")).empty(), "accepted a NaN RMSE");
  checks.expect(!bad_rmse(std::numeric_limits<double>::infinity()).empty(),
                "accepted an infinite RMSE");
  checks.expect(image_hash("abc") == image_hash("abc") &&
                    image_hash("abc") != image_hash("abd"),
                "image hashes do not tell images apart");
  Report().print(checks);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: acbm_perfbench <phase> [--key value ...]\n";
    return 2;
  }
  const std::string phase = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (phase == "setup-build") return setup_build(args);
    if (phase == "check-build") return check_build(args);
    if (phase == "trace-fit") return trace_fit(args);
    if (phase == "load") return run_load(args);
    if (phase == "setup-ingest") return setup_ingest(args);
    if (phase == "check-ingest") return check_ingest(args);
    if (phase == "trace-ingest") return trace_ingest(args);
    if (phase == "selftest") return run_selftest(args);
    std::cerr << "acbm_perfbench: unknown phase " << phase << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "acbm_perfbench " << phase << ": " << e.what() << "\n";
    return 1;
  }
}
