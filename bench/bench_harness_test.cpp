// The JSON perf harness's checksum guard and exit codes (bench_util.h): a
// run whose checksum is non-finite or differs from the warmup's is a
// failure, not a timing.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"

namespace acbm::bench {
namespace {

BenchConfig two_runs() {
  BenchConfig config;
  config.repeat = 2;
  return config;
}

TEST(BenchHarness, ConstantChecksumPasses) {
  const BenchResult result =
      run_bench("test", "constant", two_runs(), [] { return 42.5; });
  EXPECT_EQ(result.name, "constant");
  EXPECT_EQ(result.checksum, 42.5);
  EXPECT_EQ(result.runs_ms.size(), 2u);
}

TEST(BenchHarness, NanChecksumFails) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_bench("test", "nan", two_runs(), [&] { return nan; }),
               BadChecksum);
}

TEST(BenchHarness, AlternatingChecksumFails) {
  int calls = 0;
  EXPECT_THROW(run_bench("test", "alternating", two_runs(),
                         [&] { return ++calls % 2 == 0 ? 1.0 : 2.0; }),
               BadChecksum);
}

int main_with(std::vector<std::string> args, const SuiteFn& suite) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return bench_main(static_cast<int>(argv.size()), argv.data(), "test",
                    suite);
}

TEST(BenchHarness, MainExitsOneOnBadChecksumAndTwoOnUsageError) {
  const SuiteFn drifting = [](const BenchConfig& config) {
    int calls = 0;
    return std::vector<BenchResult>{
        run_bench("test", "drifting", config, [&] { return calls++; })};
  };
  EXPECT_EQ(main_with({"bench_test", "--repeat", "2"}, drifting), 1);
  EXPECT_EQ(main_with({"bench_test", "--bogus"}, drifting), 2);
  EXPECT_EQ(main_with({"bench_test", "--repeat"}, drifting), 2);
}

TEST(BenchHarness, ReportCarriesTheOneSchema) {
  const SuiteFn constant = [](const BenchConfig& config) {
    return std::vector<BenchResult>{
        run_bench("test", "constant", config, [] { return 7.0; })};
  };
  testing::internal::CaptureStdout();
  const int code =
      main_with({"bench_test", "--tiny", "--sha", "abc"}, constant);
  const std::string report = testing::internal::GetCapturedStdout();
  EXPECT_EQ(code, 0);
  for (const char* field :
       {"\"schema\": \"acbm-bench-v1\"", "\"suite\": \"test\"",
        "\"git_sha\": \"abc\"", "\"isa\": ", "\"tiny\": true",
        "\"name\": \"constant\"", "\"checksum\": 7,"}) {
    EXPECT_NE(report.find(field), std::string::npos) << field << "\n" << report;
  }
}

}  // namespace
}  // namespace acbm::bench
